// The two run modes: the untraced run behind the end-to-end metrics and
// the traced run that attributes a pass's time to layers.
#include "krr/build.hpp"
#include "mpblas/blas.hpp"
#include "mpblas/mixed.hpp"
#include "perfbench.hpp"
#include "precision/convert.hpp"

namespace perfbench {

using namespace kgwas;

namespace {

constexpr int kProbeBatches = 5;
const Precision kCodecPrecisions[] = {Precision::kFp32, Precision::kFp16,
                                      Precision::kFp8E4M3};
const char* const kKernelClasses[] = {"potrf", "trsm", "syrk", "gemm"};

/// Median over kProbeBatches batches of `calls` calls of `work` units
/// per second of `fn`.
template <typename Fn>
double probe_rate(double work, int calls, Fn fn) {
  std::vector<double> rates;
  for (int b = 0; b < kProbeBatches; ++b) {
    const double t0 = now_s();
    for (int c = 0; c < calls; ++c) fn();
    rates.push_back(work * calls / (now_s() - t0));
  }
  return median(rates);
}

/// One core's packed FP32 GEMM at the workload's tile size, GFLOP/s.
double gemm_peak_gflops(std::size_t ts) {
  Matrix<float> a(ts, ts), b(ts, ts), c(ts, ts);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(i % 13) * 0.1f;
    b.data()[i] = static_cast<float>(i % 7) * 0.2f;
  }
  return probe_rate(gemm_op_count(ts, ts, ts) * 1e-9, 20, [&] {
    gemm<float>(Trans::kNoTrans, Trans::kTrans, ts, ts, ts, 1.0f, a.data(),
                a.ld(), b.data(), b.ld(), 0.0f, c.data(), c.ld());
  });
}

/// One core's gemm_i8_i32 at the Build tile shape (ts x ts x SNPs) on the
/// first two tile rows of the training dosages, Gop/s.
double i8_gemm_gops(const GenotypeMatrix& g, std::size_t ts) {
  Matrix<std::int32_t> c(ts, ts);
  return probe_rate(gemm_op_count(ts, ts, g.snps()) * 1e-9, 1, [&] {
    gemm_i8_i32(Trans::kNoTrans, Trans::kTrans, ts, ts, g.snps(), 1,
                &g.matrix()(0, 0), g.patients(), &g.matrix()(ts, 0),
                g.patients(), 0, c.data(), c.ld());
  });
}

/// quantize_buffer / dequantize_buffer rates on the given tiles, Gelem/s.
void codec_rates(const std::vector<Matrix<float>>& tiles, Metrics& metrics) {
  double elements = 0.0;
  for (const auto& t : tiles) elements += static_cast<double>(t.size());
  for (const Precision p : kCodecPrecisions) {
    std::vector<std::vector<unsigned char>> encoded;
    for (const auto& t : tiles) {
      encoded.emplace_back(t.size() * bytes_per_element(p));
    }
    std::vector<float> decoded(tiles.empty() ? 0 : tiles.front().size());
    const std::string name = to_string(p);
    metrics["codec.encode_gelem_s." + name] = {
        probe_rate(elements * 1e-9, 1,
                   [&] {
                     for (std::size_t i = 0; i < tiles.size(); ++i) {
                       quantize_buffer(p, tiles[i].data(), encoded[i].data(),
                                       tiles[i].size());
                     }
                   }),
        "Gelem/s"};
    metrics["codec.decode_gelem_s." + name] = {
        probe_rate(elements * 1e-9, 1,
                   [&] {
                     for (std::size_t i = 0; i < tiles.size(); ++i) {
                       dequantize_buffer(p, encoded[i].data(), decoded.data(),
                                         tiles[i].size());
                     }
                   }),
        "Gelem/s"};
  }
}

/// Samples of the per-layer metrics, one per traced round.
class Samples {
 public:
  void add(const std::string& name, double value, const char* unit) {
    auto& s = samples_[name];
    s.unit = unit;
    s.values.push_back(value);
  }
  void add_classes(const std::string& prefix,
                   const std::map<std::string, TaskStats>& classes) {
    for (const char* name : kKernelClasses) {
      const auto it = classes.find(name);
      add(prefix + name + "_gflops",
          it == classes.end() ? 0.0 : it->second.gflops(), "GFLOP/s");
    }
  }
  void median_into(Metrics& metrics) const {
    for (const auto& [name, s] : samples_) {
      metrics[name] = {median(s.values), s.unit};
    }
  }

 private:
  struct Series {
    const char* unit = "";
    std::vector<double> values;
  };
  std::map<std::string, Series> samples_;
};

}  // namespace

void run_plain(const Workload& w, const Inputs& in, double seconds,
               Metrics& metrics, Tally& tally) {
  Runtime runtime(kSharedWorkers);
  std::vector<double> fit, predict, pearson, factor;
  Matrix<float> first_weights;
  const double start = now_s();
  do {
    PassResult p;
    const auto pass = [&] {
      PassResult r = run_shared_pass(runtime, w, in, nullptr);
      if (!first_weights.empty() && !bitwise_equal(first_weights, r.weights)) {
        r.check.fail("weights differ from the first pass");
      }
      return r;
    };
    if (!tally.attempt(w.name.c_str(), pass, p)) continue;
    if (first_weights.empty()) first_weights = p.weights;
    fit.push_back(p.fit_s());
    predict.push_back(p.predict_total_s());
    pearson.push_back(p.pearson_mean);
    factor.push_back(p.factor_mib);
  } while (now_s() - start < seconds);

  const auto med = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  metrics["fit_s"] = {med(fit), "s"};
  metrics["predict_s"] = {med(predict), "s"};
  metrics["pearson_mean"] = {med(pearson), "1"};
  metrics["factor_mib"] = {med(factor), "MiB"};
}

void run_traced(const Workload& w, const Inputs& in, double seconds,
                Metrics& metrics, Tally& tally) {
  Runtime runtime(kSharedWorkers);
  Runtime profiled(kSharedWorkers, /*enable_profiling=*/true);
  const GwasDataset& train = in.split.train;
  Samples samples;
  std::vector<double> untraced_fit, traced_fit;
  std::vector<Matrix<float>> codec_tiles;
  const double start = now_s();
  do {
    PassResult base;
    if (tally.attempt(
            "untraced",
            [&] { return run_shared_pass(runtime, w, in, nullptr); }, base)) {
      untraced_fit.push_back(base.fit_s());
    }

    StepTrace st;
    PassResult sm;
    const bool sm_ok = tally.attempt(
        "traced shared",
        [&] { return run_shared_pass(profiled, w, in, &st); }, sm);
    if (sm_ok) {
      samples.add("build.kernel_s", sm.build_s, "s");
      samples.add("build.gops",
                  build_op_count(train.patients(), train.snps(),
                                 train.confounders.cols()) /
                      sm.build_s * 1e-9,
                  "Gop/s");
      samples.add("build.tile_mean_s", st.build_tile_mean_s, "s");
      samples.add("build.cross_s", sm.cross_s, "s");
      samples.add("predict.gemm_s", sm.predict_s, "s");
      samples.add("associate.regularize_s", st.regularize_s, "s");
      samples.add("associate.plan_s", st.plan_s, "s");
      samples.add("associate.apply_s", st.apply_s, "s");
      samples.add("linalg.potrf_s", st.potrf_s, "s");
      samples.add("linalg.potrs_s", st.potrs_s, "s");
      samples.add("linalg.panel_chain_s", st.panel_chain_s, "s");
      samples.add_classes("kernel.", st.factor_classes);
      samples.add("runtime.idle_frac", st.idle_frac, "1");
      samples.add("runtime.steals", st.steals, "count");
      samples.add("runtime.batch_avg_group", st.batch_avg_group, "count");
      samples.add("tile.pool_high_water_mib", st.pool_high_water_mib, "MiB");
      codec_tiles = std::move(st.codec_tiles);
      traced_fit.push_back(sm.fit_s());
    }

    DistTrace dt;
    PassResult dp;
    const bool dist_ok = tally.attempt(
        "traced dist",
        [&] {
          PassResult r = run_dist_pass(w, in, &dt);
          // The dist layer promises the shared-memory weights bit for bit.
          if (sm_ok && !bitwise_equal(r.weights, sm.weights)) {
            r.check.fail("dist weights differ from shared-memory weights");
          }
          return r;
        },
        dp);
    if (dist_ok) {
      samples.add("dist.build_s", dp.build_s, "s");
      samples.add("dist.associate_s", dp.associate_s, "s");
      samples.add("dist.predict_s", dp.predict_total_s(), "s");
      samples.add("dist.wire_mib", dt.wire_mib, "MiB");
      samples.add("dist.frames", dt.frames, "count");
      samples.add("dist.recv_wait_s", dt.recv_wait_s, "s");
      samples.add_classes("dist.kernel.", dt.factor_classes);
    }
  } while (now_s() - start < seconds);

  samples.median_into(metrics);
  const double peak = gemm_peak_gflops(w.tile);
  metrics["mpblas.gemm_peak_gflops"] = {peak, "GFLOP/s"};
  metrics["mpblas.i8_gemm_gops"] = {i8_gemm_gops(train.genotypes, w.tile),
                                    "Gop/s"};
  for (const char* name : kKernelClasses) {
    const std::string base = std::string("kernel.") + name;
    const auto it = metrics.find(base + "_gflops");
    if (it != metrics.end()) {
      metrics[base + "_frac_peak"] = {it->second.value / peak, "1"};
    }
  }
  codec_rates(codec_tiles, metrics);
  if (!untraced_fit.empty() && !traced_fit.empty()) {
    metrics["trace.overhead_s"] = {median(traced_fit) - median(untraced_fit),
                                   "s"};
  }
}

}  // namespace perfbench
