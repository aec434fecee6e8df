#include "dist/dist_cholesky.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "dist/checkpoint.hpp"
#include "dist/cholesky_comm_pattern.hpp"
#include "dist/progress.hpp"
#include "dist/tile_transport.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_kernels.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "linalg/tlr_kernels.hpp"
#include "mpblas/batch.hpp"
#include "tile/tile_pool.hpp"
#include "tile/tile_slot.hpp"

namespace kgwas::dist {

namespace {

using detail::ExpectedMap;
using detail::PendingRecv;
using detail::drain_expected;
using detail::rows_as_tile;
using detail::tile_into_rows;

/// Lazily-registered data handles for locally-owned tiles / row blocks.
class HandleMap {
 public:
  explicit HandleMap(Runtime& runtime) : runtime_(runtime) {}

  DataHandle operator()(std::size_t ti, std::size_t tj) {
    const std::uint64_t k =
        (static_cast<std::uint64_t>(ti) << 32) | static_cast<std::uint64_t>(tj);
    auto [it, inserted] = handles_.try_emplace(k);
    if (inserted) it->second = runtime_.register_data();
    return it->second;
  }

 private:
  Runtime& runtime_;
  std::unordered_map<std::uint64_t, DataHandle> handles_;
};

/// Scope of one factorization driver call.  Every exit clears the
/// breakdown wake-up callback; an exceptional exit (a killed rank's
/// RankKilled, a structured NumericalError, a task error) also cancels
/// and drains the runtime before the exception leaves, so no task of the
/// aborted graph still runs on the caller's matrix while the caller
/// unwinds and destroys it.
class FactorizationScope {
 public:
  explicit FactorizationScope(Runtime& runtime) : runtime_(runtime) {}
  FactorizationScope(const FactorizationScope&) = delete;
  FactorizationScope& operator=(const FactorizationScope&) = delete;
  ~FactorizationScope() {
    runtime_.set_error_callback(nullptr);
    if (std::uncaught_exceptions() <= exceptions_on_entry_) return;
    runtime_.cancel();
    try {
      runtime_.wait();
    } catch (...) {
      // The aborted graph's task errors are collateral of the exception
      // already propagating, which is the one the caller sees.
    }
  }

 private:
  Runtime& runtime_;
  const int exceptions_on_entry_ = std::uncaught_exceptions();
};

/// Wake-up tag of the breakdown-recovery protocol (payload-free; the
/// authoritative verdict travels through the status allreduce).
constexpr std::uint64_t breakdown_wakeup_tag() {
  return make_tile_tag(Phase::kBreakdown, 0, 0);
}

/// One factorization attempt over panel steps [k_begin, k_end): submit
/// this rank's tasks, run the progress loop (watching for breakdown
/// wake-ups), and drain the runtime.  A partial range is one round of the
/// fault-tolerant driver: it requires the matrix to hold the exact state
/// after step k_begin - 1 (each step's tasks only read the panel column
/// produced within the same round, so rounds compose bitwise).
/// Returns the failing global minor index of a *local* POTRF breakdown
/// (0 when this rank's tasks all succeeded); non-numerical task errors
/// propagate (fatal for the world).
long dist_potrf_attempt(Runtime& runtime, Communicator& comm,
                        DistSymmetricTileMatrix& a,
                        const DistPotrfOptions& options,
                        const PrecisionMap* map, std::size_t k_begin,
                        std::size_t k_end) {
  const std::size_t nt = a.tile_count();
  const int me = comm.rank();
  const ProcessGrid& grid = a.grid();
  const std::size_t ts = a.tile_size();
  const int base = options.base_priority;
  const bool batch = options.batch_trailing_update && map != nullptr;
  const bool tlr = a.tlr_tol() > 0.0;

  // Rank-bucketed TLR batch keys come from an entry-time snapshot of this
  // rank's owned slot representations: the submission loop pipelines with
  // worker execution, so reading live slots at submit time would race.
  // Remote operands bucket as kTlrUnknownBucket — keys are per-rank
  // grouping hints and need no cross-rank agreement (grouping never
  // changes results; batched decode is bitwise identical to per-task).
  std::unordered_map<std::uint64_t, std::uint64_t> bucket_snap;
  if (tlr && batch) {
    for (std::size_t tj = 0; tj < nt; ++tj) {
      for (std::size_t ti = tj; ti < nt; ++ti) {
        if (!a.is_local(ti, tj)) continue;
        const TileSlot& s = a.slot(ti, tj);
        bucket_snap.emplace(
            (static_cast<std::uint64_t>(ti) << 32) |
                static_cast<std::uint64_t>(tj),
            s.is_low_rank()
                ? mpblas::batch::tlr_rank_bucket(s.low_rank().rank())
                : mpblas::batch::kTlrDenseBucket);
      }
    }
  }
  auto bucket_of = [&bucket_snap](std::size_t ti, std::size_t tj) {
    const auto it = bucket_snap.find((static_cast<std::uint64_t>(ti) << 32) |
                                     static_cast<std::uint64_t>(tj));
    return it == bucket_snap.end() ? mpblas::batch::kTlrUnknownBucket
                                   : it->second;
  };

  HandleMap local_handle(runtime);
  std::unordered_map<std::uint64_t, DataHandle> cache_handles;
  ExpectedMap expected;

  auto expect_tile = [&](std::uint64_t tag, int priority) {
    detail::expect_tile(runtime, a.cache_slot(tag), cache_handles, expected,
                        tag, priority);
  };
  auto input_handle = [&](std::size_t ti, std::size_t tj, std::uint64_t tag) {
    return a.is_local(ti, tj) ? local_handle(ti, tj) : cache_handles.at(tag);
  };

  for (std::size_t k = k_begin; k < k_end; ++k) {
    const std::uint64_t kk_tag = make_tile_tag(Phase::kPotrfPanel, k, k);
    const auto diag_consumers = diag_tile_consumers(grid, nt, k);

    if (a.is_local(k, k)) {
      runtime.submit(
          TaskDesc{"potrf",
                   {{local_handle(k, k), Access::kReadWrite}},
                   potrf_task_priority(base, nt, k, PotrfKernel::kPotrf)},
          [&a, k, ts] { tile_potrf(a.tile(k, k), k * ts); });
      const auto dests = excluding(diag_consumers, me);
      if (!dests.empty()) {
        runtime.submit(
            TaskDesc{"send_diag",
                     {{local_handle(k, k), Access::kRead}},
                     potrf_task_priority(base, nt, k, PotrfKernel::kTrsm)},
            [&a, &comm, dests, kk_tag, k] {
              for (const int d : dests) send_slot(comm, d, kk_tag, a.slot(k, k));
            });
      }
    } else if (contains(diag_consumers, me)) {
      expect_tile(kk_tag, potrf_task_priority(base, nt, k, PotrfKernel::kPotrf));
    }

    // Panel TRSMs and panel-tile transport.
    for (std::size_t m = k + 1; m < nt; ++m) {
      const std::uint64_t mk_tag = make_tile_tag(Phase::kPotrfPanel, m, k);
      if (a.is_local(m, k)) {
        runtime.submit(
            TaskDesc{"trsm",
                     {{input_handle(k, k, kk_tag), Access::kRead},
                      {local_handle(m, k), Access::kReadWrite}},
                     potrf_task_priority(base, nt, k, PotrfKernel::kTrsm)},
            [&a, m, k, kk_tag] {
              const Tile& kk =
                  a.is_local(k, k) ? a.tile(k, k) : a.cached(kk_tag);
              tlr_trsm(kk, a.slot(m, k));
            });
        const auto dests =
            excluding(panel_tile_consumers(grid, nt, m, k), me);
        if (!dests.empty()) {
          runtime.submit(
              TaskDesc{"send_panel",
                       {{local_handle(m, k), Access::kRead}},
                       potrf_task_priority(base, nt, k, PotrfKernel::kTrsm)},
              [&a, &comm, dests, mk_tag, m, k] {
                for (const int d : dests) {
                  send_slot(comm, d, mk_tag, a.slot(m, k));
                }
              });
        }
      } else if (contains(panel_tile_consumers(grid, nt, m, k), me)) {
        expect_tile(mk_tag,
                    potrf_task_priority(base, nt, k, PotrfKernel::kTrsm));
      }
    }

    // Trailing updates this rank owns.  Same per-tile update order as the
    // shared-memory factorization, so results stay bitwise identical.
    for (std::size_t j = k + 1; j < nt; ++j) {
      const std::uint64_t jk_tag = make_tile_tag(Phase::kPotrfPanel, j, k);
      if (a.is_local(j, j)) {
        TaskDesc desc{"syrk",
                      {{input_handle(j, k, jk_tag), Access::kRead},
                       {local_handle(j, j), Access::kReadWrite}},
                      potrf_task_priority(base, nt, k, PotrfKernel::kSyrk)};
        auto fn = [&a, j, k, jk_tag] {
          const TileSlot& ajk =
              a.is_local(j, k) ? a.slot(j, k) : a.cached_slot(jk_tag);
          tlr_syrk(ajk, a.tile(j, j));
        };
        if (batch && tlr) {
          runtime.submit_batchable(
              std::move(desc),
              BatchKey{mpblas::batch::make_tlr_key(
                  mpblas::batch::BatchOp::kTlrSyrk, a.tile_dim(j),
                  a.tile_dim(j), bucket_of(j, k), bucket_of(j, k),
                  map->get(j, j))},
              std::move(fn));
        } else if (batch) {
          runtime.submit_batchable(
              std::move(desc),
              BatchKey{mpblas::batch::make_key(
                  mpblas::batch::BatchOp::kSyrk, a.tile_dim(j), a.tile_dim(j),
                  a.tile_dim(k), map->get(j, k), map->get(j, k),
                  map->get(j, j))},
              std::move(fn));
        } else {
          runtime.submit(std::move(desc), std::move(fn));
        }
      }
      for (std::size_t i = j + 1; i < nt; ++i) {
        if (!a.is_local(i, j)) continue;
        const std::uint64_t ik_tag = make_tile_tag(Phase::kPotrfPanel, i, k);
        TaskDesc desc{"gemm",
                      {{input_handle(i, k, ik_tag), Access::kRead},
                       {input_handle(j, k, jk_tag), Access::kRead},
                       {local_handle(i, j), Access::kReadWrite}},
                      potrf_task_priority(base, nt, k, PotrfKernel::kGemm)};
        auto fn = [&a, i, j, k, ik_tag, jk_tag] {
          const TileSlot& aik =
              a.is_local(i, k) ? a.slot(i, k) : a.cached_slot(ik_tag);
          const TileSlot& ajk =
              a.is_local(j, k) ? a.slot(j, k) : a.cached_slot(jk_tag);
          tlr_gemm(aik, ajk, a.slot(i, j), a.tlr_tol(),
                   a.tlr_max_rank_fraction());
        };
        if (batch && tlr) {
          runtime.submit_batchable(
              std::move(desc),
              BatchKey{mpblas::batch::make_tlr_key(
                  mpblas::batch::BatchOp::kTlrGemm, a.tile_dim(i),
                  a.tile_dim(j), bucket_of(i, k), bucket_of(j, k),
                  map->get(i, j))},
              std::move(fn));
        } else if (batch) {
          runtime.submit_batchable(
              std::move(desc),
              BatchKey{mpblas::batch::make_key(
                  mpblas::batch::BatchOp::kGemm, a.tile_dim(i), a.tile_dim(j),
                  a.tile_dim(k), map->get(i, k), map->get(j, k),
                  map->get(i, j))},
              std::move(fn));
        } else {
          runtime.submit(std::move(desc), std::move(fn));
        }
      }
    }
  }

  // Progress loop with the breakdown watch armed: a kBreakdown frame
  // (sent by the failing rank's error callback to every rank, itself
  // included) cancels this rank's not-yet-run tasks and force-signals
  // the recv events that can no longer happen, so the graph drains.
  drain_expected(runtime, comm, expected, breakdown_wakeup_tag());
  try {
    runtime.wait();
  } catch (const NumericalError& e) {
    return e.index() > 0 ? e.index() : -1;
  }
  return 0;
}

/// Full-triangle low-rank plan (column-packed triangle index) with this
/// rank's owned entries filled from its slots.  Captured at factorization
/// entry; the fault-tolerant driver allreduces it so the plan survives
/// re-gridding onto survivors (ownership changes, the plan does not).
std::vector<bool> capture_owned_lr_plan(const DistSymmetricTileMatrix& a) {
  const std::size_t nt = a.tile_count();
  std::vector<bool> plan(nt * (nt + 1) / 2, false);
  std::size_t idx = 0;
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti, ++idx) {
      if (a.is_local(ti, tj) && a.slot(ti, tj).is_low_rank()) plan[idx] = true;
    }
  }
  return plan;
}

/// Restores this rank's owned slots from the rollback source via the
/// shared restore_slot re-encode / re-truncate (identical semantics to
/// the shared-memory restore, keeping the recovered factor bitwise
/// rank-invariant).  `plan[idx]` says whether the slot held a low-rank
/// representation at factorization entry; an empty plan means all-dense.
void restore_owned_slots(DistSymmetricTileMatrix& a,
                         const DistSymmetricTileMatrix& source,
                         const PrecisionMap& map,
                         const std::vector<bool>& plan) {
  const std::size_t nt = a.tile_count();
  std::size_t idx = 0;
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti, ++idx) {
      if (!a.is_local(ti, tj)) continue;
      const bool lr = !plan.empty() && plan[idx];
      restore_slot(a.slot(ti, tj), source.slot(ti, tj), map.get(ti, tj), lr,
                   a.tlr_tol(), a.tlr_max_rank_fraction());
    }
  }
}

}  // namespace

void dist_tiled_potrf(Runtime& runtime, Communicator& comm,
                      DistSymmetricTileMatrix& a,
                      const DistPotrfOptions& options) {
  const std::size_t nt = a.tile_count();
  FactorizationReport scratch;
  FactorizationReport& report = options.report ? *options.report : scratch;
  report = FactorizationReport{};
  if (nt == 0) {
    report.attempts = 1;
    comm.barrier();
    return;
  }
  KGWAS_CHECK_ARG(a.grid().ranks() == comm.size(),
                  "matrix grid does not match the communicator world");
  const bool escalate = options.on_breakdown == BreakdownAction::kEscalate;
  KGWAS_CHECK_ARG(!escalate || options.precision_map != nullptr,
                  "distributed breakdown escalation requires a precision map");

  // Any task failure wakes every rank's progress loop; the frames carry
  // no authority (the status allreduce below does), they only unpark
  // recv_any.  The callback is scoped to this factorization.
  const FactorizationScope scope(runtime);
  runtime.set_error_callback([&comm](const std::exception_ptr&) {
    for (int r = 0; r < comm.size(); ++r) {
      comm.send(r, breakdown_wakeup_tag(), {});
    }
  });

  PrecisionMap current =
      options.precision_map ? *options.precision_map : PrecisionMap{};
  const Precision working =
      options.precision_map ? current.get(0, 0) : Precision::kFp32;
  std::optional<DistSymmetricTileMatrix> snapshot;
  const DistSymmetricTileMatrix* rollback = nullptr;
  if (escalate) {
    rollback = options.source;
    if (rollback != nullptr) {
      KGWAS_CHECK_ARG(rollback->n() == a.n() &&
                          rollback->tile_size() == a.tile_size(),
                      "escalation source geometry mismatch");
    } else {
      snapshot.emplace(a);
      rollback = &*snapshot;
    }
  }
  // Rollback restores a plan-low-rank slot in factored form; ownership is
  // fixed here, so the locally-captured plan suffices.
  std::vector<bool> lr_plan;
  if (escalate) lr_plan = capture_owned_lr_plan(a);

  for (int attempt = 0;; ++attempt) {
    report.attempts = attempt + 1;
    const long local_failing = dist_potrf_attempt(
        runtime, comm, a, options,
        options.precision_map ? &current : nullptr, 0, nt);

    // Deterministic world-wide verdict: each diagonal owner contributes
    // the failing minor of its own failed POTRF.  At most one POTRF
    // throws per attempt globally — every later POTRF transitively
    // depends on the throwing one (panel TRSMs -> trailing updates) and
    // is cancelled — so the summed vector is identical on every rank and
    // independent of scheduling, which keeps the escalated map (and the
    // recovered factor) bitwise rank-invariant.
    std::vector<double> status(nt, 0.0);
    if (local_failing != 0) {
      status[potrf_breakdown_tile(local_failing, a.tile_size(), nt)] =
          static_cast<double>(local_failing);
    }
    comm.allreduce_sum(status.data(), status.size());
    std::size_t failing_tile = nt;
    for (std::size_t t = 0; t < nt; ++t) {
      if (status[t] != 0.0) {
        failing_tile = t;
        break;
      }
    }
    if (failing_tile == nt) {
      report.recovered = attempt > 0;
      if (options.precision_map != nullptr) report.final_map = current;
      break;
    }

    const long failing_index = static_cast<long>(status[failing_tile]);
    const std::size_t promoted =
        escalate && attempt < options.max_escalations
            ? escalate_step(current, failing_tile, working)
            : 0;
    if (promoted == 0) {
      // kThrow, retries exhausted, or the minor's precision saturated:
      // every rank throws the same structured error instead of hanging.
      // Flush exactly like the retry path first (every rank is here, so
      // the barriers align) — stale wake-up/tile frames of the aborted
      // attempt must not poison a later protocol on this communicator
      // (e.g. the caller retrying with a larger alpha).
      comm.barrier();
      a.clear_cache();
      comm.discard_pending();
      comm.barrier();
      runtime.profiler().record_recovery(attempt + 1, report.events.size(),
                                         report.tiles_promoted);
      throw NumericalError(
          "distributed tiled Cholesky: leading minor of order " +
              std::to_string(failing_index) +
              " is not positive definite (consider a larger regularization "
              "alpha or higher tile precision)",
          failing_index);
    }
    report.events.push_back(
        EscalationRecord{failing_tile, failing_index, promoted});
    report.tiles_promoted += promoted;

    // Roll back and flush the aborted attempt.  Between the two barriers
    // every frame of the attempt is already delivered (all runtimes have
    // drained) and none of the next attempt's frames exist yet, so the
    // flush can never eat live traffic.
    comm.barrier();
    restore_owned_slots(a, *rollback, current, lr_plan);
    a.clear_cache();
    comm.discard_pending();
    comm.barrier();
  }

  runtime.profiler().record_recovery(report.attempts, report.events.size(),
                                     report.tiles_promoted);
  // Every consumer of a cached panel tile has completed; drop the cache
  // so peak memory stays bounded to one phase's working set (the solve
  // re-ships the factor tiles it needs under its own tags).
  a.clear_cache();
  comm.barrier();
}

void dist_tiled_potrs(Runtime& runtime, Communicator& comm,
                      const DistSymmetricTileMatrix& l, Matrix<float>& b,
                      int base_priority) {
  const std::size_t nt = l.tile_count();
  KGWAS_CHECK_ARG(b.rows() == l.n(), "solve RHS row count mismatch");
  if (nt == 0 || b.cols() == 0) {
    comm.barrier();
    return;
  }
  const int me = comm.rank();
  const ProcessGrid& grid = l.grid();
  KGWAS_CHECK_ARG(grid.ranks() == comm.size(),
                  "matrix grid does not match the communicator world");
  const std::size_t ts = l.tile_size();
  const std::size_t nrhs = b.cols();
  const std::size_t ldb = b.ld();
  const int base = base_priority;
  // Solution row block t lives with the owner of diagonal tile (t, t), so
  // every solve-step TRSM reads its factor tile locally.
  auto x_owner = [&](std::size_t t) { return grid.diagonal_owner(t); };
  auto block = [&](std::size_t t) { return b.data() + t * ts; };

  HandleMap xh(runtime);  // one handle per owned/consumed RHS row block
  std::unordered_map<std::uint64_t, DataHandle> cache_handles;
  ExpectedMap expected;
  auto expect_tile = [&](std::uint64_t tag, int priority) {
    detail::expect_tile(runtime, l.cache_slot(tag), cache_handles, expected,
                        tag, priority);
  };

  // --- Factor-tile transport.  The factor is final before the solve
  // starts, so owners push each off-diagonal tile to its (at most two)
  // solve consumers synchronously; receivers wire arrivals as events.
  // Consumers of L(a, b), a > b: the forward GEMM on x_owner(a) and the
  // backward GEMM on x_owner(b).
  const int max_solve_priority =
      base + (static_cast<int>(nt) << 1) + 2;  // above every sweep task
  for (std::size_t tb = 0; tb < nt; ++tb) {
    for (std::size_t ta = tb + 1; ta < nt; ++ta) {
      const std::uint64_t tag = make_tile_tag(Phase::kSolveFactor, ta, tb);
      std::vector<int> consumers{x_owner(ta), x_owner(tb)};
      std::sort(consumers.begin(), consumers.end());
      consumers.erase(std::unique(consumers.begin(), consumers.end()),
                      consumers.end());
      if (l.is_local(ta, tb)) {
        for (const int d : excluding(consumers, me)) {
          send_slot(comm, d, tag, l.slot(ta, tb));
        }
      } else if (contains(consumers, me)) {
        expect_tile(tag, max_solve_priority);
      }
    }
  }
  auto factor_dep = [&](std::size_t ta, std::size_t tb,
                        std::vector<Dep>& deps) {
    if (!l.is_local(ta, tb)) {
      deps.push_back({cache_handles.at(make_tile_tag(Phase::kSolveFactor, ta,
                                                     tb)),
                      Access::kRead});
    }
  };
  auto factor_tile = [&l](std::size_t ta, std::size_t tb) -> const TileSlot& {
    return l.is_local(ta, tb)
               ? l.slot(ta, tb)
               : l.cached_slot(make_tile_tag(Phase::kSolveFactor, ta, tb));
  };

  // Remote RHS-block versions: decode the cached transport tile into
  // pooled scratch at use (exact for FP32 payloads).  The factor operand
  // stays a slot, so a compressed off-diagonal tile applies through its
  // factors (tlr_gemm_rhs) bitwise identically to the shared-memory path.
  auto run_gemm_rhs = [&l, nrhs](const TileSlot& lslot, bool transpose,
                                 bool xk_local, const float* xk_ptr,
                                 std::size_t ldxk, std::uint64_t xk_tag,
                                 float* xi, std::size_t ldxi) {
    if (xk_local) {
      tlr_gemm_rhs(lslot, transpose, xk_ptr, ldxk, xi, ldxi, nrhs);
      return;
    }
    const Tile& xk = l.cached(xk_tag);
    PooledF32 scratch(TilePool::global(), xk.elements());
    xk.decode_to(scratch.data());
    tlr_gemm_rhs(lslot, transpose, scratch.data(), xk.rows(), xi, ldxi, nrhs);
  };

  // --- Forward sweep: L * Y = B.
  for (std::size_t k = 0; k < nt; ++k) {
    const std::uint64_t xk_tag = make_tile_tag(Phase::kSolveForward, k, 0);
    const bool xk_local = x_owner(k) == me;
    const int trsm_priority = base + (static_cast<int>(nt - k) << 1) + 1;
    const int gemm_priority = base + (static_cast<int>(nt - k) << 1);
    std::vector<int> dests;
    for (std::size_t i = k + 1; i < nt; ++i) dests.push_back(x_owner(i));
    std::sort(dests.begin(), dests.end());
    dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
    if (xk_local) {
      runtime.submit(TaskDesc{"trsm_fwd", {{xh(k, 0), Access::kReadWrite}},
                              trsm_priority},
                     [&l, &block, k, ldb, nrhs] {
                       tile_trsm_rhs(l.tile(k, k), /*transpose=*/false,
                                     block(k), ldb, nrhs);
                     });
      const auto remote = excluding(dests, me);
      if (!remote.empty()) {
        runtime.submit(
            TaskDesc{"send_x_fwd", {{xh(k, 0), Access::kRead}}, trsm_priority},
            [&b, &comm, &l, remote, xk_tag, k, ts] {
              const Tile t = rows_as_tile(b, k * ts, l.tile_dim(k));
              for (const int d : remote) send_dense_slot(comm, d, xk_tag, t);
            });
      }
    } else if (contains(dests, me)) {
      expect_tile(xk_tag, trsm_priority);
    }
    for (std::size_t i = k + 1; i < nt; ++i) {
      if (x_owner(i) != me) continue;
      std::vector<Dep> deps{
          {xk_local ? xh(k, 0) : cache_handles.at(xk_tag), Access::kRead},
          {xh(i, 0), Access::kReadWrite}};
      factor_dep(i, k, deps);
      runtime.submit(
          TaskDesc{"gemm_fwd", std::move(deps), gemm_priority},
          [&block, &factor_tile, &run_gemm_rhs, i, k, xk_local, xk_tag, ldb] {
            run_gemm_rhs(factor_tile(i, k), /*transpose=*/false, xk_local,
                         block(k), ldb, xk_tag, block(i), ldb);
          });
    }
  }

  // --- Backward sweep: L^T * X = Y.
  for (std::size_t k = nt; k-- > 0;) {
    const std::uint64_t xk_tag = make_tile_tag(Phase::kSolveBackward, k, 0);
    const bool xk_local = x_owner(k) == me;
    const int trsm_priority = base + (static_cast<int>(k + 1) << 1) + 1;
    const int gemm_priority = base + (static_cast<int>(k + 1) << 1);
    std::vector<int> dests;
    for (std::size_t i = 0; i < k; ++i) dests.push_back(x_owner(i));
    std::sort(dests.begin(), dests.end());
    dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
    if (xk_local) {
      runtime.submit(TaskDesc{"trsm_bwd", {{xh(k, 0), Access::kReadWrite}},
                              trsm_priority},
                     [&l, &block, k, ldb, nrhs] {
                       tile_trsm_rhs(l.tile(k, k), /*transpose=*/true,
                                     block(k), ldb, nrhs);
                     });
      const auto remote = excluding(dests, me);
      if (!remote.empty()) {
        runtime.submit(
            TaskDesc{"send_x_bwd", {{xh(k, 0), Access::kRead}}, trsm_priority},
            [&b, &comm, &l, remote, xk_tag, k, ts] {
              const Tile t = rows_as_tile(b, k * ts, l.tile_dim(k));
              for (const int d : remote) send_dense_slot(comm, d, xk_tag, t);
            });
      }
    } else if (contains(dests, me)) {
      expect_tile(xk_tag, trsm_priority);
    }
    for (std::size_t i = k; i-- > 0;) {
      if (x_owner(i) != me) continue;
      // X_i -= L(k, i)^T X_k (lower storage: tile (k, i) with k > i).
      std::vector<Dep> deps{
          {xk_local ? xh(k, 0) : cache_handles.at(xk_tag), Access::kRead},
          {xh(i, 0), Access::kReadWrite}};
      factor_dep(k, i, deps);
      runtime.submit(
          TaskDesc{"gemm_bwd", std::move(deps), gemm_priority},
          [&block, &factor_tile, &run_gemm_rhs, i, k, xk_local, xk_tag, ldb] {
            run_gemm_rhs(factor_tile(k, i), /*transpose=*/true, xk_local,
                         block(k), ldb, xk_tag, block(i), ldb);
          });
    }
  }

  drain_expected(runtime, comm, expected);
  runtime.wait();
  l.clear_cache();  // factor/RHS copies are dead once the tasks drained
  // Every rank must be past its progress loop before any gather frame is
  // posted: recv_any in a still-draining rank must never see them.
  comm.barrier();

  // --- Allgather the solution so `b` is fully replicated again.
  for (std::size_t t = 0; t < nt; ++t) {
    const std::uint64_t tag = make_tile_tag(Phase::kSolveGather, t, 0);
    if (x_owner(t) == me) {
      const Tile xt = rows_as_tile(b, t * ts, l.tile_dim(t));
      for (int r = 0; r < comm.size(); ++r) {
        if (r != me) send_tile(comm, r, tag, xt);
      }
    }
  }
  for (std::size_t t = 0; t < nt; ++t) {
    if (x_owner(t) == me) continue;
    const Message msg = comm.recv(make_tile_tag(Phase::kSolveGather, t, 0));
    Tile xt;
    decode_tile(msg.payload, xt);
    tile_into_rows(xt, b, t * ts);
  }
  comm.barrier();
}

// --- Elastic fault tolerance --------------------------------------------

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII registration of a matrix-cache discard hook: discard_pending()
/// must drop wire-tag-keyed remote-tile caches along with the queued
/// frames, or a tile adopted just before a fault survives the flush and a
/// post-recovery resume reads stale pre-fault data.
class DiscardHookGuard {
 public:
  DiscardHookGuard(Communicator& comm, DistSymmetricTileMatrix** mat)
      : comm_(comm) {
    comm_.add_discard_hook([mat]() {
      const std::size_t n = (*mat)->cache_tiles();
      (*mat)->clear_cache();
      return n;
    });
  }
  ~DiscardHookGuard() { comm_.clear_discard_hooks(); }

 private:
  Communicator& comm_;
};

}  // namespace

long configured_checkpoint_interval() {
  const char* env = std::getenv("KGWAS_CKPT_INTERVAL");
  if (env == nullptr || *env == '\0') return 4;
  const long v = std::strtol(env, nullptr, 10);
  return v >= 1 ? v : 1;
}

DistFtResult dist_tiled_potrf_ft(Runtime& runtime, Communicator& comm,
                                 DistSymmetricTileMatrix& a,
                                 const DistFtOptions& options) {
  const std::size_t nt = a.tile_count();
  DistFtResult result;
  result.final_ranks.resize(static_cast<std::size_t>(comm.size()));
  std::iota(result.final_ranks.begin(), result.final_ranks.end(), 0);

  FactorizationReport scratch;
  FactorizationReport& report =
      options.factor.report ? *options.factor.report : scratch;
  report = FactorizationReport{};
  report.attempts = 1;
  if (nt == 0) {
    comm.barrier();
    return result;
  }
  KGWAS_CHECK_ARG(a.grid().ranks() == comm.size(),
                  "matrix grid does not match the communicator world");
  const bool escalate =
      options.factor.on_breakdown == BreakdownAction::kEscalate;
  KGWAS_CHECK_ARG(!escalate || options.factor.precision_map != nullptr,
                  "distributed breakdown escalation requires a precision map");
  const long interval = options.checkpoint_interval > 0
                            ? options.checkpoint_interval
                            : configured_checkpoint_interval();

  PrecisionMap current =
      options.factor.precision_map ? *options.factor.precision_map
                                   : PrecisionMap{};
  const PrecisionMap* map_ptr =
      options.factor.precision_map ? &current : nullptr;
  const Precision working =
      options.factor.precision_map ? current.get(0, 0) : Precision::kFp32;

  // Escalation rollback source, held as an owned copy so it can be
  // re-gridded onto the survivors after a rank loss (the caller's source
  // matrix is pinned to the original grid).
  std::optional<DistSymmetricTileMatrix> source_copy;
  if (escalate) {
    if (options.factor.source != nullptr) {
      KGWAS_CHECK_ARG(options.factor.source->n() == a.n() &&
                          options.factor.source->tile_size() == a.tile_size(),
                      "escalation source geometry mismatch");
      source_copy.emplace(*options.factor.source);
    } else {
      source_copy.emplace(a);
    }
  }
  // Low-rank restore plan, replicated via allreduce (each lower tile is
  // owned by exactly one rank, so the sum is exact) so it keeps working
  // after a recovery re-grids ownership onto the survivors.
  std::vector<bool> lr_plan;
  if (escalate && a.tlr_tol() > 0.0) {
    const std::vector<bool> owned = capture_owned_lr_plan(a);
    std::vector<double> votes(owned.size(), 0.0);
    for (std::size_t i = 0; i < owned.size(); ++i) {
      votes[i] = owned[i] ? 1.0 : 0.0;
    }
    comm.allreduce_sum(votes.data(), votes.size());
    lr_plan.resize(votes.size());
    for (std::size_t i = 0; i < votes.size(); ++i) {
      lr_plan[i] = votes[i] != 0.0;
    }
  }

  // Topology state: `active`/`mat` flip to the survivor instances after a
  // recovery; `ckpt_ranks` is the physical rank list the *committed*
  // checkpoints were written under (the restore path maps old owners and
  // ring buddies through it).
  Communicator* active = &comm;
  DistSymmetricTileMatrix* mat = &a;
  std::vector<int> ckpt_ranks = result.final_ranks;
  TileCheckpoint store;
  TileCheckpoint source_store;
  std::size_t counted_dead = 0;

  DiscardHookGuard hook_guard(comm, &mat);

  const FactorizationScope scope(runtime);
  const auto arm_callback = [&runtime](Communicator* c) {
    runtime.set_error_callback([c](const std::exception_ptr&) {
      for (int r = 0; r < c->size(); ++r) {
        c->send(r, breakdown_wakeup_tag(), {});
      }
    });
  };
  arm_callback(active);

  auto& registry = telemetry::MetricRegistry::global();
  const auto record_span = [&runtime](const char* name, std::uint64_t t0) {
    runtime.profiler().record(TaskSpan{name, t0, steady_ns(), -1, 0.0});
  };
  const auto checkpoint_all = [&](long cut) {
    active->set_phase_label("checkpoint");
    const std::uint64_t t0 = steady_ns();
    const CheckpointIo io = write_checkpoint(*active, store, *mat, cut);
    result.checkpoints += 1;
    result.checkpoint_tiles += io.tiles;
    result.checkpoint_bytes += io.bytes;
    if (escalate) {
      const CheckpointIo sio = write_checkpoint(
          *active, source_store, *source_copy, 0, Phase::kCheckpointSource);
      result.checkpoint_tiles += sio.tiles;
      result.checkpoint_bytes += sio.bytes;
    }
    record_span("ckpt_write", t0);
    active->set_phase_label("factorize");
  };

  long resume_k = 0;
  bool need_recovery = false;
  bool timeline_started = false;
  int escalations = 0;

  for (;;) {
    try {
      if (need_recovery) {
        // ---- Rank-loss recovery -----------------------------------------
        const std::uint64_t rec_t0 = steady_ns();
        runtime.set_error_callback(nullptr);
        comm.set_phase_label("recovery");
        runtime.cancel();
        try {
          runtime.wait();
        } catch (...) {
          // The aborted round's task errors are expected collateral.
        }
        comm.acknowledge_failures();
        const std::vector<int> dead = comm.dead_ranks();
        std::vector<int> survivors;
        for (int r = 0; r < comm.size(); ++r) {
          if (!std::binary_search(dead.begin(), dead.end(), r)) {
            survivors.push_back(r);
          }
        }
        registry.counter("recovery.rank_loss.events").add(1);
        registry.counter("recovery.rank_loss.ranks_lost")
            .add(dead.size() - counted_dead);
        result.rank_losses += static_cast<int>(dead.size() - counted_dead);
        counted_dead = dead.size();
        if (survivors.size() < 2) {
          throw UnrecoverableFault(
              "rank loss left fewer than 2 survivors; cannot redistribute");
        }
        auto next_comm = std::make_unique<SurvivorComm>(
            comm, survivors, static_cast<std::uint64_t>(dead.size()));
        next_comm->set_phase_label("recovery");
        // Flush between two barriers: after the first every survivor has
        // quiesced its runtime (no new frames), so discarding pending
        // application frames + purging stale reserved frames of older
        // generations can never eat live traffic; nobody proceeds past
        // the second until everyone has flushed.
        next_comm->barrier();
        comm.discard_pending();
        comm.purge_stale(static_cast<std::uint64_t>(dead.size()) << 32);
        next_comm->barrier();
        // Cut agreement: the newest cut *every* survivor committed.  A
        // kill during a checkpoint barrier can leave one cut of skew; the
        // store keeps two committed generations, so the minimum is always
        // restorable.  A negative minimum means some survivor never
        // committed — the loss predates the first checkpoint.
        std::vector<double> cuts(survivors.size(), 0.0);
        cuts[static_cast<std::size_t>(next_comm->rank())] =
            static_cast<double>(store.committed_cut());
        next_comm->allreduce_sum(cuts.data(), cuts.size());
        long restore_cut = static_cast<long>(nt);
        for (const double c : cuts) {
          restore_cut = std::min(restore_cut, static_cast<long>(c));
        }
        if (restore_cut < 0) {
          throw UnrecoverableFault(
              "rank lost before the first checkpoint commit");
        }
        store.discard_staged();
        source_store.discard_staged();
        // Re-ingest the full matrix state at the agreed cut onto the
        // survivor grid (every tile, not just orphans: survivors may have
        // advanced past the cut before the fault surfaced).
        const ProcessGrid new_grid(static_cast<int>(survivors.size()));
        auto next_mat = std::make_unique<DistSymmetricTileMatrix>(
            a.n(), a.tile_size(), new_grid, next_comm->rank(), working);
        next_mat->set_tlr_options(a.tlr_tol(), a.tlr_max_rank_fraction());
        next_comm->set_phase_label("restore");
        const std::uint64_t res_t0 = steady_ns();
        const CheckpointIo rio = restore_from_checkpoint(
            *next_comm, store, ckpt_ranks, dead, *next_mat, restore_cut);
        result.restored_tiles += rio.tiles;
        result.restored_bytes += rio.bytes;
        if (escalate) {
          DistSymmetricTileMatrix fresh_source(
              a.n(), a.tile_size(), new_grid, next_comm->rank(), working);
          fresh_source.set_tlr_options(a.tlr_tol(), a.tlr_max_rank_fraction());
          restore_from_checkpoint(*next_comm, source_store, ckpt_ranks, dead,
                                  fresh_source, 0, Phase::kRestoreSource);
          source_copy.emplace(std::move(fresh_source));
        }
        record_span("ckpt_restore", res_t0);
        // Adopt the survivor topology (destroying any previous
        // SurvivorComm folds its wire ledger into the physical comm).
        result.comm = std::move(next_comm);
        result.matrix = std::move(next_mat);
        active = result.comm.get();
        mat = result.matrix.get();
        ckpt_ranks = survivors;
        result.final_ranks = survivors;
        result.last_restore_cut = restore_cut;
        // Fresh checkpoint timeline on the new topology (new ring, new
        // grid): re-checkpoint the restored state so a *second* loss is
        // recoverable too.
        store.reset();
        source_store.reset();
        checkpoint_all(restore_cut);
        arm_callback(active);
        resume_k = restore_cut;
        need_recovery = false;
        record_span("rank_loss_recovery", rec_t0);
      }

      if (!timeline_started) {
        // Cut 0: the pristine input, so any loss after this point is
        // recoverable (a loss before the first commit is not).
        checkpoint_all(0);
        timeline_started = true;
      }

      while (resume_k < static_cast<long>(nt)) {
        active->set_phase_label("factorize");
        active->fault_point(static_cast<std::uint64_t>(resume_k));
        const long k_end =
            std::min(resume_k + interval, static_cast<long>(nt));
        const long local_failing = dist_potrf_attempt(
            runtime, *active, *mat, options.factor, map_ptr,
            static_cast<std::size_t>(resume_k),
            static_cast<std::size_t>(k_end));

        // Same deterministic breakdown verdict as dist_tiled_potrf, per
        // round (see the escalation protocol comment there).
        std::vector<double> status(nt, 0.0);
        if (local_failing != 0) {
          status[potrf_breakdown_tile(local_failing, a.tile_size(), nt)] =
              static_cast<double>(local_failing);
        }
        active->allreduce_sum(status.data(), status.size());
        std::size_t failing_tile = nt;
        for (std::size_t t = 0; t < nt; ++t) {
          if (status[t] != 0.0) {
            failing_tile = t;
            break;
          }
        }
        if (failing_tile == nt) {
          if (k_end < static_cast<long>(nt)) checkpoint_all(k_end);
          resume_k = k_end;
          continue;
        }

        const long failing_index = static_cast<long>(status[failing_tile]);
        const std::size_t promoted =
            escalate && escalations < options.factor.max_escalations
                ? escalate_step(current, failing_tile, working)
                : 0;
        if (promoted == 0) {
          // Flush exactly like the retry path (every rank is here, so the
          // barriers align): stale frames of the aborted round must not
          // poison a later protocol on this communicator.
          active->barrier();
          mat->clear_cache();
          active->discard_pending();
          active->barrier();
          runtime.profiler().record_recovery(
              report.attempts, report.events.size(), report.tiles_promoted);
          throw NumericalError(
              "distributed tiled Cholesky: leading minor of order " +
                  std::to_string(failing_index) +
                  " is not positive definite (consider a larger "
                  "regularization alpha or higher tile precision)",
              failing_index);
        }
        report.events.push_back(
            EscalationRecord{failing_tile, failing_index, promoted});
        report.tiles_promoted += promoted;
        ++escalations;
        report.attempts = escalations + 1;

        // Roll back to the pristine source and restart the factorization
        // — and the checkpoint timeline with it.  The store reset is what
        // makes the cut-0 re-commit legal (commit() version-guards
        // against double-applying a stale timeline); the staged state of
        // any in-flight write was never committed and dies with it.
        active->barrier();
        restore_owned_slots(*mat, *source_copy, current, lr_plan);
        mat->clear_cache();
        active->discard_pending();
        active->barrier();
        store.reset();
        checkpoint_all(0);
        resume_k = 0;
      }
      break;  // factorization complete
    } catch (const PeerUnreachable& e) {
      // A pure receive timeout carries no dead set — there is nothing to
      // recover against, so it propagates as detection-only.
      if (e.dead_ranks().empty()) throw;
      need_recovery = true;
    }
  }

  report.recovered = escalations > 0 || result.rank_losses > 0;
  if (options.factor.precision_map != nullptr) report.final_map = current;
  runtime.profiler().record_recovery(report.attempts, report.events.size(),
                                     report.tiles_promoted);
  mat->clear_cache();
  active->set_phase_label("factorize");
  active->barrier();
  return result;
}

}  // namespace kgwas::dist
