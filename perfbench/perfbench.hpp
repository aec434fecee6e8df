// End-to-end KRR GWAS benchmark: workload definitions, the timed pipeline
// passes (shared memory and in-process dist), and the traced run that
// attributes a pass's time to layers.  See README.md for the workloads,
// the metrics and which layer metric moves which end-to-end metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "gwas/dataset.hpp"
#include "krr/associate.hpp"
#include "krr/build.hpp"
#include "mpblas/matrix.hpp"
#include "precision/precision.hpp"
#include "reference.hpp"
#include "runtime/runtime.hpp"

namespace perfbench {

/// Runtime workers of a shared-memory pass.
inline constexpr std::size_t kSharedWorkers = 4;
/// World size of a dist pass; every rank runs one worker.
inline constexpr int kDistRanks = 4;

/// One benchmark workload: the cohort shape and the Associate precision
/// configuration.
struct Workload {
  std::string name;
  std::size_t patients = 0;  ///< whole cohort, split 80/20
  std::size_t snps = 0;
  std::size_t tile = 0;
  kgwas::PrecisionMode mode = kgwas::PrecisionMode::kFixed;
  double epsilon = 0.0;  ///< adaptive-map backward-error target
  std::vector<kgwas::Precision> candidates;
};

/// The workload named `name`; throws std::invalid_argument if none is.
const Workload& find_workload(const std::string& name);

/// The simulated cohort of one seed, split 80/20, plus the Build and
/// Associate configuration derived from it.
struct Inputs {
  kgwas::TrainTestSplit split;
  kgwas::BuildConfig build;
  kgwas::AssociateConfig associate;
  std::uint64_t seed = 0;
};

/// Simulates the cohort of `seed` and splits it (the timed set-up).
Inputs make_inputs(const Workload& workload, std::uint64_t seed);

/// Outcome of one pipeline pass (one benchmark operation).
struct PassResult {
  double build_s = 0.0;      ///< train-kernel Build
  double associate_s = 0.0;  ///< Associate (regularize .. solve)
  double cross_s = 0.0;      ///< cross-kernel Build
  double predict_s = 0.0;    ///< Predict GEMM
  double fit_s() const { return build_s + associate_s; }
  double predict_total_s() const { return cross_s + predict_s; }

  double pearson_mean = 0.0;
  double factor_mib = 0.0;
  double backward_error = 0.0;
  kgwas::PrecisionMap map;  ///< precision map that was factored
  Matrix<float> weights;
  Check check;
};

/// Per-step timings of the traced shared-memory pass, plus the runtime
/// and profiler readings taken around each step.
struct StepTrace {
  double regularize_s = 0.0, plan_s = 0.0, apply_s = 0.0, potrf_s = 0.0,
         potrs_s = 0.0;
  double build_tile_mean_s = 0.0;
  double panel_chain_s = 0.0;  ///< POTRF + TRSM task time of the factor
  std::map<std::string, kgwas::TaskStats> factor_classes;
  double idle_frac = 0.0;
  double steals = 0.0;
  double batch_avg_group = 0.0;
  double pool_high_water_mib = 0.0;
  /// Off-diagonal Build tiles of the first tile column (FP32), for the
  /// codec probe.
  std::vector<Matrix<float>> codec_tiles;
};

/// Times one shared-memory pass through the public krr calls and checks
/// it.  With `trace` non-null (and a runtime built with profiling on)
/// Associate runs as its public steps (add_diagonal, plan_precision_map,
/// PrecisionMap::apply, tiled_potrf, tiled_potrs); the weights are then
/// also compared bitwise with associate() on the same kernel.
PassResult run_shared_pass(kgwas::Runtime& runtime, const Workload& workload,
                           const Inputs& in, StepTrace* trace);

/// Readings of a traced dist pass.
struct DistTrace {
  double wire_mib = 0.0;
  double frames = 0.0;
  double recv_wait_s = 0.0;
  /// Task classes of every rank's factorization, merged, with FLOPs
  /// computed from the tile shape and the span counts.
  std::map<std::string, kgwas::TaskStats> factor_classes;
};

/// Times one pass through the dist layer on an in-process world of
/// kDistRanks ranks, timed on rank 0 between barriers, and checks it.
/// With `trace` non-null, rank profilers and comm event recording are on.
PassResult run_dist_pass(const Workload& workload, const Inputs& in,
                         DistTrace* trace);

/// Metrics of one run, by name, with their units.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operation counts of a run.  A pass whose program call throws fails; a
/// pass whose output fails a check fails and makes the run incorrect.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;

  /// Runs one pass, stores it in `result` and counts it; returns whether
  /// the pass succeeded.
  template <typename Fn>
  bool attempt(const char* label, Fn fn, PassResult& result);
};

/// The untraced run: shared-memory passes until `seconds` elapse; every
/// end-to-end metric but the two the caller adds (set-up time, peak RSS)
/// is the median over the passes.
void run_plain(const Workload& workload, const Inputs& in, double seconds,
               Metrics& metrics, Tally& tally);

/// The traced run: rounds of {untraced shared-memory pass, traced
/// shared-memory pass, traced dist pass} until `seconds` elapse,
/// plus single-core probes of the GEMM engine and the precision codec.
/// Fills `metrics` with every per-layer metric (median over rounds).
void run_traced(const Workload& workload, const Inputs& in, double seconds,
                Metrics& metrics, Tally& tally);

/// Median of a non-empty sample.
double median(std::vector<double> values);

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

template <typename Fn>
bool Tally::attempt(const char* label, Fn fn, PassResult& result) {
  ++attempted;
  try {
    result = fn();
  } catch (const std::exception& e) {
    ++failed;
    std::cerr << label << " pass " << attempted << " threw: " << e.what()
              << "\n";
    return false;
  }
  std::cerr << label << " pass " << attempted << ": fit " << result.fit_s()
            << " s, predict " << result.predict_total_s()
            << " s, backward error " << result.backward_error << ", pearson "
            << result.pearson_mean << ", map";
  for (const auto& [precision, tiles] : result.map.histogram()) {
    std::cerr << " " << kgwas::to_string(precision) << ":" << tiles;
  }
  std::cerr << "\n";
  if (!result.check.ok()) {
    ++failed;
    correct = false;
    std::cerr << label << " pass " << attempted
              << " failed a check: " << result.check.first() << "\n";
    return false;
  }
  return true;
}

}  // namespace perfbench
