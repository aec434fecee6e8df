// Workloads, inputs and the timed pipeline passes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <stdexcept>

#include "common/status.hpp"
#include "dist/communicator.hpp"
#include "dist/dist_krr.hpp"
#include "gwas/cohort_simulator.hpp"
#include "gwas/phenotype.hpp"
#include "krr/kernels.hpp"
#include "krr/predict.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "mpblas/mixed.hpp"
#include "perfbench.hpp"
#include "precision/precision.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

using namespace kgwas;

namespace {

// Cohort make-up shared by every workload (README "Inputs").
constexpr std::size_t kPopulations = 6;
constexpr double kFst = 0.12;
constexpr std::size_t kLdBlock = 16;
constexpr double kLdRho = 0.6;
constexpr std::size_t kConfounders = 4;
constexpr double kTrainFraction = 0.8;
// Phenotype panel: the five UK BioBank disease architectures of
// ukb_disease_panel, each drawn kPanelCopies times with its own seed,
// kept quantitative and made mostly additive.  Ten traits average out
// most of the seed-to-seed spread of the held-out Pearson.
constexpr std::size_t kPanelCopies = 2;
constexpr double kH2Additive = 0.6;
constexpr double kH2Epistatic = 0.3;
// Ridge regularization: a margin for the FP16 off-diagonal tiles of the
// adaptive map.  No epsilon that admits FP8 tiles completes the
// factorization on every seed, even at alpha = 2 (README "Workloads").
constexpr double kAlpha = 2.0;

// Reference checks.  Each Build tile contributes its diagonal entries and
// this many random entries.
constexpr std::size_t kSamplesPerTile = 8;
// Off-diagonal Build tiles of the first tile column kept for the codec
// probe: the tiles an adaptive map is most likely to demote.
constexpr std::size_t kCodecTiles = 8;
// The FP32 solve is backward stable: its normwise backward error must
// stay below this multiple of the FP32 unit roundoff.  The adaptive map
// is planned for a backward error of epsilon, which is its bound.
constexpr double kFp32BackwardErrorMultiple = 16.0;

// The adaptive workload runs at the policy's default epsilon over FP16 and
// FP8 candidates; it stores every off-diagonal tile in FP16.
const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = {
      {"wide_fp32", 1920, 1536, 256, PrecisionMode::kFixed, 0.0, {}},
      {"narrow_mixed", 5120, 64, 256, PrecisionMode::kAdaptive, 2e-3,
       {Precision::kFp16, Precision::kFp8E4M3}},
  };
  return workloads;
}

double to_mib(double bytes) { return bytes / (1024.0 * 1024.0); }

double solve_tolerance(const Workload& w) {
  return w.mode == PrecisionMode::kAdaptive
             ? w.epsilon
             : kFp32BackwardErrorMultiple * unit_roundoff(Precision::kFp32);
}

/// One lower tile of the train kernel, copied to FP32 as Build left it.
struct KernelTile {
  std::size_t ti = 0, tj = 0;
  Matrix<float> values;
};

/// Copies the lower train-kernel tiles `owns(ti, tj)` selects to FP32 and
/// checks each against the FP64 kernel.
template <typename Symmetric, typename Owns>
std::vector<KernelTile> copy_train_tiles(const Symmetric& k, Owns owns,
                                         const Inputs& in, Check& check) {
  const std::size_t ts = k.tile_size();
  const GwasDataset& train = in.split.train;
  const KernelSides sides{&train.genotypes, &train.confounders,
                          &train.genotypes, &train.confounders, in.build.gamma};
  std::vector<KernelTile> tiles;
  for (std::size_t tj = 0; tj < k.tile_count(); ++tj) {
    for (std::size_t ti = tj; ti < k.tile_count(); ++ti) {
      if (!owns(ti, tj)) continue;
      KernelTile t{ti, tj, k.tile(ti, tj).to_fp32()};
      check_kernel_tile(sides, ti * ts, tj * ts, t.values, kSamplesPerTile,
                        in.seed, check);
      tiles.push_back(std::move(t));
    }
  }
  return tiles;
}

/// Checks the cross-kernel tiles `owns(ti, tj)` selects against the FP64
/// kernel and accumulates their product with the weights into `xw` and
/// `abs_xw`.
template <typename Cross, typename Owns>
void check_cross_tiles(const Cross& x, Owns owns, const Inputs& in,
                       const Matrix<float>& weights, Matrix<double>& xw,
                       Matrix<double>& abs_xw, Check& check) {
  const std::size_t ts = x.tile_size();
  const GwasDataset& train = in.split.train;
  const GwasDataset& test = in.split.test;
  const KernelSides sides{&test.genotypes, &test.confounders, &train.genotypes,
                          &train.confounders, in.build.gamma};
  for (std::size_t ti = 0; ti < x.tile_rows(); ++ti) {
    for (std::size_t tj = 0; tj < x.tile_cols(); ++tj) {
      if (!owns(ti, tj)) continue;
      const Matrix<float> v = x.tile(ti, tj).to_fp32();
      check_kernel_tile(sides, ti * ts, tj * ts, v, kSamplesPerTile, in.seed,
                        check);
      accumulate_tile_product(v, ti * ts, tj * ts, false, weights, xw,
                              &abs_xw);
    }
  }
}

/// FP64 checks shared by both paths once the pass has finished: the
/// backward error of the solve, the predictions, and accuracy.
void finish_checks(const Workload& w, const Inputs& in,
                   const Matrix<double>& aw, double a_frob_sq,
                   const Matrix<double>& xw, const Matrix<double>& abs_xw,
                   const Matrix<float>& predictions, PassResult& r) {
  const GwasDataset& train = in.split.train;
  const GwasDataset& test = in.split.test;
  r.backward_error = backward_error(aw, a_frob_sq, r.weights, train.phenotypes);
  if (!(r.backward_error <= solve_tolerance(w))) {
    r.check.fail("solve backward error " + std::to_string(r.backward_error) +
                 " above " + std::to_string(solve_tolerance(w)));
  }
  check_predictions(predictions, xw, abs_xw, train.patients(), r.check);
  r.pearson_mean = pearson_mean(test.phenotypes, predictions);
  if (!std::isfinite(r.pearson_mean)) r.check.fail("Pearson is not finite");
}

/// Accumulates (K + alpha I) W over the copied Build tiles.
double accumulate_regularized(std::vector<KernelTile>& tiles, std::size_t ts,
                              double alpha, const Matrix<float>& w,
                              Matrix<double>& aw) {
  double frob_sq = 0.0;
  for (KernelTile& t : tiles) {
    if (t.ti == t.tj) {
      for (std::size_t i = 0; i < t.values.rows(); ++i) {
        t.values(i, i) = static_cast<float>(t.values(i, i) + alpha);
      }
    }
    frob_sq += accumulate_tile_product(t.values, t.ti * ts, t.tj * ts,
                                       t.ti != t.tj, w, aw, nullptr);
  }
  return frob_sq;
}

double seconds_since(double t0) { return now_s() - t0; }

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  CohortConfig cc;
  cc.n_patients = w.patients;
  cc.n_snps = w.snps;
  cc.n_populations = kPopulations;
  cc.fst = kFst;
  cc.ld_block_size = kLdBlock;
  cc.ld_rho = kLdRho;
  cc.n_confounders = kConfounders;
  cc.seed = seed;
  Cohort cohort = simulate_cohort(cc);
  std::vector<PhenotypeConfig> panel_configs;
  for (std::size_t copy = 0; copy < kPanelCopies; ++copy) {
    for (PhenotypeConfig& pc : ukb_disease_panel(seed + 7 + 1000 * copy)) {
      // Half the panel is causal, so the Gaussian kernel's distance signal
      // is not diluted on the wide panel; quantitative traits keep the
      // held-out Pearson steady from seed to seed.
      pc.n_causal = w.snps / 2;
      pc.n_pairs = std::min(pc.n_pairs, 2 * pc.n_causal);
      pc.h2_additive = kH2Additive;
      pc.h2_epistatic = kH2Epistatic;
      pc.prevalence = 0.0;
      panel_configs.push_back(std::move(pc));
    }
  }
  PhenotypePanel panel = simulate_panel(cohort, panel_configs);
  const GwasDataset dataset =
      make_dataset(std::move(cohort), std::move(panel));

  Inputs in;
  in.seed = seed;
  in.split = split_dataset(dataset, kTrainFraction, seed + 1);
  const auto& g = in.split.train.genotypes.matrix();
  in.build.tile_size = w.tile;
  in.build.gamma =
      suggest_gamma(std::span<const std::int8_t>(g.data(), g.size()),
                    in.split.train.patients(), in.split.train.snps());
  in.associate.alpha = kAlpha;
  in.associate.mode = w.mode;
  in.associate.adaptive.epsilon = w.epsilon;
  in.associate.adaptive.available = w.candidates;
  in.associate.tlr = TlrPolicy{};
  KGWAS_CHECK_ARG(in.split.train.patients() % w.tile == 0,
                  "the training cohort must split into whole tiles");
  return in;
}

PassResult run_shared_pass(Runtime& runtime, const Workload& w,
                           const Inputs& in, StepTrace* trace) {
  const GwasDataset& train = in.split.train;
  const GwasDataset& test = in.split.test;
  const std::size_t ts = w.tile;
  const std::size_t nph = train.n_phenotypes();
  PassResult r;
  const Profiler& profiler = runtime.profiler();
  if (trace != nullptr) runtime.reset_profiling();

  double t0 = now_s();
  SymmetricTileMatrix k = build_kernel_matrix(runtime, train.genotypes,
                                              train.confounders, in.build);
  r.build_s = seconds_since(t0);
  if (trace != nullptr) {
    const TaskStats build = profiler.stats()["build_k"];
    trace->build_tile_mean_s =
        build.count > 0 ? build.total_seconds / static_cast<double>(build.count)
                        : 0.0;
  }

  std::vector<KernelTile> tiles = copy_train_tiles(
      k, [](std::size_t, std::size_t) { return true; }, in, r.check);
  if (trace != nullptr) {
    for (std::size_t ti = 1; ti < k.tile_count() && ti <= kCodecTiles; ++ti) {
      trace->codec_tiles.push_back(tiles[ti].values);
    }
  }

  if (trace == nullptr) {
    t0 = now_s();
    AssociateResult assoc =
        associate(runtime, k, train.phenotypes, in.associate);
    r.associate_s = seconds_since(t0);
    r.weights = std::move(assoc.weights);
    r.factor_mib = to_mib(static_cast<double>(assoc.factor_bytes));
    r.map = std::move(assoc.map);
  } else {
    // The public steps associate() is made of, timed one by one.
    const double start = now_s();
    t0 = start;
    add_diagonal(k, static_cast<float>(in.associate.alpha));
    trace->regularize_s = seconds_since(t0);
    t0 = now_s();
    const PrecisionMap map = plan_precision_map(k, in.associate);
    trace->plan_s = seconds_since(t0);
    t0 = now_s();
    map.apply(k);
    trace->apply_s = seconds_since(t0);
    r.map = map;
    r.factor_mib = to_mib(static_cast<double>(k.storage_bytes()));

    runtime.reset_profiling();
    const BatchStats batch_before = runtime.batch_stats();
    FactorizationReport report;
    TiledPotrfOptions options;
    options.report = &report;
    t0 = now_s();
    tiled_potrf(runtime, k, options);
    trace->potrf_s = seconds_since(t0);
    const BatchStats batch_after = runtime.batch_stats();
    trace->factor_classes = profiler.stats();
    trace->panel_chain_s = trace->factor_classes["potrf"].total_seconds +
                           trace->factor_classes["trsm"].total_seconds;
    trace->idle_frac = 1.0 - profiler.parallel_efficiency(runtime.workers());
    trace->steals =
        static_cast<double>(profiler.scheduler_stats().tasks_stolen);
    const double groups =
        static_cast<double>(batch_after.groups - batch_before.groups);
    trace->batch_avg_group =
        groups > 0.0 ? static_cast<double>(batch_after.batched_tasks -
                                           batch_before.batched_tasks) /
                           groups
                     : 0.0;

    r.weights = train.phenotypes;
    t0 = now_s();
    tiled_potrs(runtime, k, r.weights);
    trace->potrs_s = seconds_since(t0);
    r.associate_s = seconds_since(start);
  }

  t0 = now_s();
  const TileMatrix cross =
      build_cross_kernel(runtime, test.genotypes, test.confounders,
                         train.genotypes, train.confounders, in.build);
  r.cross_s = seconds_since(t0);

  Matrix<double> xw(test.patients(), nph);
  Matrix<double> abs_xw(test.patients(), nph);
  check_cross_tiles(
      cross, [](std::size_t, std::size_t) { return true; }, in, r.weights, xw,
      abs_xw, r.check);

  t0 = now_s();
  const Matrix<float> predictions =
      predict_from_cross_kernel(runtime, cross, r.weights);
  r.predict_s = seconds_since(t0);

  if (trace != nullptr) {
    for (const auto& m : telemetry::MetricRegistry::global().snapshot()) {
      if (m.name == "pool.bytes_high_water") {
        trace->pool_high_water_mib = to_mib(static_cast<double>(m.level));
      }
    }
  }

  Matrix<double> aw(train.patients(), nph);
  k = SymmetricTileMatrix();
  if (trace != nullptr) {
    // Same kernel again, bit for bit, from the FP32 copy of the Build
    // tiles: associate() must give the weights the steps gave.
    SymmetricTileMatrix again(train.patients(), ts);
    for (const KernelTile& t : tiles) {
      again.tile(t.ti, t.tj).from_fp32(t.values);
    }
    const AssociateResult assoc =
        associate(runtime, again, train.phenotypes, in.associate);
    if (!bitwise_equal(assoc.weights, r.weights)) {
      r.check.fail("step-by-step Associate weights differ from associate()");
    }
  }
  const double a_frob_sq =
      accumulate_regularized(tiles, ts, in.associate.alpha, r.weights, aw);
  finish_checks(w, in, aw, a_frob_sq, xw, abs_xw, predictions, r);
  return r;
}

PassResult run_dist_pass(const Workload& w, const Inputs& in,
                         DistTrace* trace) {
  const int ranks = kDistRanks;
  const GwasDataset& train = in.split.train;
  const GwasDataset& test = in.split.test;
  const std::size_t ts = w.tile;
  const std::size_t nph = train.n_phenotypes();

  struct RankOut {
    Check check;
    double a_frob_sq = 0.0;
    Matrix<double> aw, xw, abs_xw;
    std::map<std::string, TaskStats> classes;
  };
  std::vector<RankOut> outs(static_cast<std::size_t>(ranks));
  PassResult r;
  Matrix<float> predictions;

  const auto recv_wait_ns = [] {
    for (const auto& m : telemetry::MetricRegistry::global().snapshot()) {
      if (m.name == "dist.recv_wait_ns") return static_cast<double>(m.hist.sum);
    }
    return 0.0;
  };
  const double wait_before = recv_wait_ns();

  const auto rank_pass = [&](dist::Communicator& comm) {
    RankOut& out = outs[static_cast<std::size_t>(comm.rank())];
    const bool root = comm.rank() == 0;
    comm.set_event_recording(trace != nullptr);
    Runtime runtime(1, trace != nullptr);
    runtime.profiler().set_rank(comm.rank());
    const ProcessGrid grid(ranks);

    comm.barrier();
    double t0 = now_s();
    dist::DistSymmetricTileMatrix k = dist::dist_build_kernel_matrix(
        runtime, comm, grid, train.genotypes, train.confounders, in.build);
    comm.barrier();
    if (root) r.build_s = seconds_since(t0);

    std::vector<KernelTile> tiles = copy_train_tiles(
        k, [&k](std::size_t ti, std::size_t tj) { return k.is_local(ti, tj); },
        in, out.check);

    comm.barrier();
    t0 = now_s();
    AssociateResult assoc = dist::dist_associate(
        runtime, comm, k, train.phenotypes, in.associate);
    comm.barrier();
    if (root) r.associate_s = seconds_since(t0);

    t0 = now_s();
    dist::DistTileMatrix cross = dist::dist_build_cross_kernel(
        runtime, comm, grid, test.genotypes, test.confounders, train.genotypes,
        train.confounders, in.build);
    comm.barrier();
    if (root) r.cross_s = seconds_since(t0);

    out.xw = Matrix<double>(test.patients(), nph);
    out.abs_xw = Matrix<double>(test.patients(), nph);
    check_cross_tiles(
        cross,
        [&cross](std::size_t ti, std::size_t tj) {
          return cross.is_local(ti, tj);
        },
        in, assoc.weights, out.xw, out.abs_xw, out.check);

    comm.barrier();
    t0 = now_s();
    Matrix<float> p = dist::dist_predict(runtime, comm, cross, assoc.weights);
    comm.barrier();
    if (root) r.predict_s = seconds_since(t0);

    out.aw = Matrix<double>(train.patients(), nph);
    out.a_frob_sq = accumulate_regularized(tiles, ts, in.associate.alpha,
                                           assoc.weights, out.aw);
    if (trace != nullptr) out.classes = runtime.profiler().stats();
    if (root) {
      r.weights = std::move(assoc.weights);
      r.factor_mib = to_mib(static_cast<double>(assoc.factor_bytes));
      r.map = std::move(assoc.map);
      predictions = std::move(p);
    }
  };
  const dist::WireVolume wire = dist::run_ranks(ranks, rank_pass);

  Matrix<double> aw(train.patients(), nph);
  Matrix<double> xw(test.patients(), nph);
  Matrix<double> abs_xw(test.patients(), nph);
  double a_frob_sq = 0.0;
  for (const RankOut& out : outs) {
    r.check.merge(out.check);
    a_frob_sq += out.a_frob_sq;
    for (std::size_t i = 0; i < aw.size(); ++i) {
      aw.data()[i] += out.aw.data()[i];
    }
    for (std::size_t i = 0; i < xw.size(); ++i) {
      xw.data()[i] += out.xw.data()[i];
      abs_xw.data()[i] += out.abs_xw.data()[i];
    }
  }
  finish_checks(w, in, aw, a_frob_sq, xw, abs_xw, predictions, r);

  if (trace != nullptr) {
    trace->wire_mib = to_mib(static_cast<double>(wire.payload_bytes));
    trace->frames = static_cast<double>(wire.messages);
    trace->recv_wait_s = (recv_wait_ns() - wait_before) * 1e-9;
    // Dist tasks carry no FLOP counts; every tile is ts x ts (checked in
    // make_inputs), so a class's FLOPs are its span count times the
    // per-tile count of the same kernel.
    const std::map<std::string, double> per_tile = {
        {"potrf", potrf_op_count(ts)},
        {"trsm", trsm_op_count(ts, ts)},
        {"syrk", gemm_op_count(ts, ts, ts)},
        {"gemm", gemm_op_count(ts, ts, ts)}};
    for (const RankOut& out : outs) {
      for (const auto& [name, flops] : per_tile) {
        const auto it = out.classes.find(name);
        if (it == out.classes.end()) continue;
        TaskStats& merged = trace->factor_classes[name];
        merged.count += it->second.count;
        merged.total_seconds += it->second.total_seconds;
        merged.flops += static_cast<double>(it->second.count) * flops;
      }
    }
  }
  return r;
}

}  // namespace perfbench
