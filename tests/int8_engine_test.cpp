// Exactness of the packed engine's INT8 integer-accumulate path behind
// gemm_i8_i32 / syrk_i8_i32: every available microkernel variant (the
// VNNI kernel under AVX-512 on hosts that have it, the i16 kernel
// otherwise) against an int64 reference, on odd shapes, every trans
// combination, alpha/beta scaling, extreme values, power-of-two leading
// dimensions and the VNNI bias correction at the edge of the INT32
// contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mpblas/cpu_features.hpp"
#include "mpblas/kernels.hpp"
#include "mpblas/mixed.hpp"

namespace kgwas {
namespace {

namespace kernels = mpblas::kernels;

struct ScopedEngineConfig {
  ~ScopedEngineConfig() {
    kernels::set_gemm_backend(std::nullopt);
    kernels::set_gemm_arch(std::nullopt);
    kernels::set_gemm_blocking(std::nullopt);
  }
};

/// Runs `body` once per available variant under the packed backend.
template <typename Body>
void for_each_variant(const Body& body) {
  ScopedEngineConfig restore;
  kernels::set_gemm_backend(kernels::GemmBackend::kPacked);
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    SCOPED_TRACE(std::string("variant ") + kernels::to_string(arch) +
                 ", int8 kernel " + kernels::int8_kernel_name());
    body();
  }
}

std::vector<std::int8_t> random_bytes(std::size_t count, int lo, int hi,
                                      Rng& rng) {
  std::vector<std::int8_t> out(count);
  const auto span = static_cast<std::size_t>(hi - lo + 1);
  for (auto& v : out) {
    v = static_cast<std::int8_t>(lo +
                                 static_cast<int>(rng.uniform_index(span)));
  }
  return out;
}

/// Only the extremes -128 and 127.
std::vector<std::int8_t> extreme_bytes(std::size_t count, Rng& rng) {
  std::vector<std::int8_t> out(count);
  for (auto& v : out) v = rng.uniform_index(2) == 0 ? -128 : 127;
  return out;
}

std::vector<std::int32_t> random_c(std::size_t count, Rng& rng) {
  std::vector<std::int32_t> out(count);
  for (auto& v : out) {
    v = static_cast<std::int32_t>(rng.uniform_index(2001)) - 1000;
  }
  return out;
}

/// Element (i, l) of op(X) for X stored column-major with leading
/// dimension ld.
std::int64_t op_at(const std::vector<std::int8_t>& x, std::size_t ld,
                   Trans trans, std::size_t i, std::size_t l) {
  return trans == Trans::kNoTrans ? x[i + l * ld] : x[l + i * ld];
}

/// int64 reference of alpha * op(A) * op(B) + beta * C, element (i, j).
std::int64_t reference_entry(const std::vector<std::int8_t>& a,
                             std::size_t lda, Trans ta,
                             const std::vector<std::int8_t>& b,
                             std::size_t ldb, Trans tb, std::size_t k,
                             std::int64_t alpha, std::int64_t beta,
                             std::int64_t c0, std::size_t i, std::size_t j) {
  std::int64_t sum = 0;
  for (std::size_t l = 0; l < k; ++l) {
    // op(B)(l, j) is element (j, l) of op(B)^T.
    const Trans tbt = tb == Trans::kNoTrans ? Trans::kTrans : Trans::kNoTrans;
    sum += op_at(a, lda, ta, i, l) * op_at(b, ldb, tbt, j, l);
  }
  return alpha * sum + beta * c0;
}

struct GemmCase {
  std::size_t m, n, k;
  Trans ta, tb;
  std::size_t pad;  ///< leading dimension = stored rows + pad
  std::int32_t alpha, beta;
};

/// Runs gemm_i8_i32 on `gc` with operands from `fill` and checks every
/// element of C against the int64 reference.
template <typename Fill>
void check_gemm(const GemmCase& gc, const Fill& fill, Rng& rng) {
  const std::size_t a_rows = gc.ta == Trans::kNoTrans ? gc.m : gc.k;
  const std::size_t a_cols = gc.ta == Trans::kNoTrans ? gc.k : gc.m;
  const std::size_t b_rows = gc.tb == Trans::kNoTrans ? gc.k : gc.n;
  const std::size_t b_cols = gc.tb == Trans::kNoTrans ? gc.n : gc.k;
  const std::size_t lda = a_rows + gc.pad;
  const std::size_t ldb = b_rows + gc.pad;
  const std::vector<std::int8_t> a = fill(lda * a_cols + 1, rng);
  const std::vector<std::int8_t> b = fill(ldb * b_cols + 1, rng);
  const std::size_t ldc = gc.m + 2;
  const std::vector<std::int32_t> c0 = random_c(ldc * gc.n + 1, rng);
  std::vector<std::int32_t> c = c0;
  gemm_i8_i32(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a.data(), lda,
              b.data(), ldb, gc.beta, c.data(), ldc);
  for (std::size_t j = 0; j < gc.n; ++j) {
    for (std::size_t i = 0; i < gc.m; ++i) {
      const std::int64_t want =
          reference_entry(a, lda, gc.ta, b, ldb, gc.tb, gc.k, gc.alpha,
                          gc.beta, c0[i + j * ldc], i, j);
      ASSERT_EQ(c[i + j * ldc], want)
          << "m=" << gc.m << " n=" << gc.n << " k=" << gc.k
          << " ta=" << static_cast<int>(gc.ta)
          << " tb=" << static_cast<int>(gc.tb) << " alpha=" << gc.alpha
          << " beta=" << gc.beta << " at (" << i << "," << j << ")";
    }
    // Rows between m and ldc are outside C and stay untouched.
    for (std::size_t i = gc.m; i < ldc; ++i) {
      ASSERT_EQ(c[i + j * ldc], c0[i + j * ldc]) << "wrote past C";
    }
  }
}

const auto kSmallValues = [](std::size_t count, Rng& rng) {
  return random_bytes(count, -128, 127, rng);
};

TEST(Int8Engine, VnniKernelRunsOnlyUnderAvx512OnVnniHosts) {
  const mpblas::CpuFeatures& f = mpblas::cpu_features();
  ScopedEngineConfig restore;
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    const bool vnni_host = f.avx512bw && f.avx512_vnni;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    const bool expect_vnni = arch == kernels::Arch::kAvx512 && vnni_host;
#else
    const bool expect_vnni = false;
#endif
    EXPECT_STREQ(kernels::int8_kernel_name(), expect_vnni ? "vnni" : "i16")
        << "variant " << kernels::to_string(arch);
  }
  kernels::set_gemm_arch(kernels::Arch::kGeneric);
  EXPECT_STREQ(kernels::int8_kernel_name(), "i16");
}

TEST(Int8Engine, GemmExactForEveryTransShapeAndScaling) {
  Rng rng(20261019);
  // m and n straddle every micro-tile shape in use (8 x 6 and 32 x 8);
  // k covers depths that are not multiples of the VNNI group of 4.
  const std::size_t kShapes[][3] = {{1, 1, 1},   {45, 19, 61}, {33, 9, 7},
                                    {64, 16, 128}, {70, 23, 3}, {7, 41, 130}};
  const std::int32_t kScaling[][2] = {{1, 0}, {2, 3}, {-1, 1}, {0, -2}};
  for_each_variant([&] {
    for (const auto& shape : kShapes) {
      for (const Trans ta : {Trans::kNoTrans, Trans::kTrans}) {
        for (const Trans tb : {Trans::kNoTrans, Trans::kTrans}) {
          for (const auto& ab : kScaling) {
            check_gemm({shape[0], shape[1], shape[2], ta, tb, 3, ab[0], ab[1]},
                       kSmallValues, rng);
          }
        }
      }
    }
  });
}

TEST(Int8Engine, ZeroDepthAndZeroAlphaOnlyScaleByBeta) {
  Rng rng(7);
  for_each_variant([&] {
    for (const std::int32_t beta : {0, 1, 3, -2}) {
      check_gemm({37, 11, 0, Trans::kNoTrans, Trans::kTrans, 0, 5, beta},
                 kSmallValues, rng);
      check_gemm({37, 11, 29, Trans::kTrans, Trans::kNoTrans, 0, 0, beta},
                 kSmallValues, rng);
    }
  });
}

TEST(Int8Engine, ExtremeValuesAtPowerOfTwoLeadingDimensions) {
  // The Build's operand shape (A no-trans, B trans, both strided by the
  // patient count), with the patient count a power of two.
  Rng rng(11);
  for_each_variant([&] {
    for (const std::size_t ld : {std::size_t{2048}, std::size_t{4096}}) {
      const std::size_t m = 70, n = 37;
      check_gemm({m, n, 301, Trans::kNoTrans, Trans::kTrans, ld - m, 1, 0},
                 extreme_bytes, rng);
      check_gemm({m, n, 64, Trans::kNoTrans, Trans::kTrans, ld - m, -1, 1},
                 extreme_bytes, rng);
    }
  });
}

TEST(Int8Engine, BiasCorrectionExactWhereTheBiasedSumWraps) {
  // 127 * 127 * k fits INT32 for k = 100003, but the VNNI kernel's biased
  // sum (127 + 128) * 127 * k does not: it wraps modulo 2^32 and the
  // per-column correction must still land on the exact result.  Random
  // extremes at the same depth keep every |dot product| <= 128^2 * k.
  // Run once under the resolved blocking and once with the whole depth in
  // one kc block (the INT32-output forms use 4 * kc), where the
  // microkernel's own accumulators wrap.
  const std::size_t m = 33, n = 9, k = 100003;
  Rng rng(13);
  for (const bool one_block : {false, true}) {
    SCOPED_TRACE(one_block ? "one kc block" : "resolved blocking");
    for_each_variant([&] {
      if (one_block) {
        kernels::set_gemm_blocking(kernels::Blocking{64, k / 4 + 1, 64});
      }
      check_gemm({m, n, k, Trans::kNoTrans, Trans::kTrans, 0, 1, 0},
                 [](std::size_t count, Rng&) {
                   return std::vector<std::int8_t>(count, 127);
                 },
                 rng);
      check_gemm({m, n, k, Trans::kTrans, Trans::kNoTrans, 0, 1, 0},
                 extreme_bytes, rng);
    });
  }
}

TEST(Int8Engine, SyrkExactOnBothTrianglesEveryTransAndScaling) {
  Rng rng(17);
  const std::int32_t kScaling[][2] = {{1, 0}, {2, 3}, {0, -1}, {-3, 1}};
  constexpr std::int32_t kSentinel = 0x5a5a5a5a;
  for_each_variant([&] {
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      for (const Trans trans : {Trans::kNoTrans, Trans::kTrans}) {
        for (const std::size_t n : {std::size_t{1}, std::size_t{37},
                                    std::size_t{70}}) {
          for (const std::size_t k : {std::size_t{0}, std::size_t{5},
                                      std::size_t{64}, std::size_t{133}}) {
            for (const auto& ab : kScaling) {
              const std::size_t rows = trans == Trans::kNoTrans ? n : k;
              const std::size_t cols = trans == Trans::kNoTrans ? k : n;
              const std::size_t lda = rows + 1;
              const std::vector<std::int8_t> a =
                  random_bytes(lda * cols + 1, -128, 127, rng);
              const std::size_t ldc = n + 1;
              std::vector<std::int32_t> c0 = random_c(ldc * n, rng);
              const bool lower = uplo == Uplo::kLower;
              for (std::size_t j = 0; j < n; ++j) {
                for (std::size_t i = 0; i < ldc; ++i) {
                  const bool inside = i < n && (lower ? i >= j : i <= j);
                  if (!inside) c0[i + j * ldc] = kSentinel;
                }
              }
              std::vector<std::int32_t> c = c0;
              syrk_i8_i32(uplo, trans, n, k, ab[0], a.data(), lda, ab[1],
                          c.data(), ldc);
              const Trans tt =
                  trans == Trans::kNoTrans ? Trans::kTrans : Trans::kNoTrans;
              for (std::size_t j = 0; j < n; ++j) {
                for (std::size_t i = 0; i < ldc; ++i) {
                  const bool inside = i < n && (lower ? i >= j : i <= j);
                  const std::int64_t want =
                      inside ? reference_entry(a, lda, trans, a, lda, tt, k,
                                               ab[0], ab[1], c0[i + j * ldc],
                                               i, j)
                             : kSentinel;
                  ASSERT_EQ(c[i + j * ldc], want)
                      << "uplo=" << static_cast<int>(uplo)
                      << " trans=" << static_cast<int>(trans) << " n=" << n
                      << " k=" << k << " alpha=" << ab[0]
                      << " beta=" << ab[1] << " at (" << i << "," << j << ")";
                }
              }
            }
          }
        }
      }
    }
  });
}

TEST(Int8Engine, PackedBackendMatchesReferenceLoopsBitwise) {
  // The reference backend's scalar loops are the oracle: on a Build-sized
  // dosage problem the engine must reproduce them integer for integer.
  Rng rng(19);
  const std::size_t np = 300, ns = 517, ts = 128;
  const std::vector<std::int8_t> g = random_bytes(np * ns, 0, 2, rng);
  ScopedEngineConfig restore;
  kernels::set_gemm_backend(kernels::GemmBackend::kReference);
  std::vector<std::int32_t> want_gemm(ts * ts), want_syrk(ts * ts, 0);
  gemm_i8_i32(Trans::kNoTrans, Trans::kTrans, ts, ts, ns, 1, g.data(), np,
              g.data() + ts, np, 0, want_gemm.data(), ts);
  syrk_i8_i32(Uplo::kLower, Trans::kNoTrans, ts, ns, 1, g.data(), np, 0,
              want_syrk.data(), ts);
  for_each_variant([&] {
    std::vector<std::int32_t> c(ts * ts, -1), s(ts * ts, 0);
    gemm_i8_i32(Trans::kNoTrans, Trans::kTrans, ts, ts, ns, 1, g.data(), np,
                g.data() + ts, np, 0, c.data(), ts);
    syrk_i8_i32(Uplo::kLower, Trans::kNoTrans, ts, ns, 1, g.data(), np, 0,
                s.data(), ts);
    EXPECT_EQ(c, want_gemm);
    EXPECT_EQ(s, want_syrk);
  });
}

}  // namespace
}  // namespace kgwas
