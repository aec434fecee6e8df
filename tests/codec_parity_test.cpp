// Bit-exactness of the precision codecs behind quantize_buffer /
// dequantize_buffer / quantize_inplace: every codec the host can run
// (the scalar loops under any variant, the AVX-512 codec under the
// avx512 variant on hosts with avx512f+avx512bw) against the scalar
// oracle quantize_bits / decode_bits / round_to_format, bit for bit.
// Covers a strided sweep of all 2^32 binary32 patterns, every pattern
// near each format's rounding boundaries, every code on decode, odd
// lengths and unaligned pointers, the canonical-NaN rule, empty buffers
// with null pointers, and the Associate pipeline end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gwas/cohort_simulator.hpp"
#include "krr/associate.hpp"
#include "krr/build.hpp"
#include "mpblas/kernels.hpp"
#include "precision/convert.hpp"
#include "precision/float_format.hpp"
#include "runtime/runtime.hpp"

namespace kgwas {
namespace {

namespace kernels = mpblas::kernels;

/// The formats with a vector codec.
constexpr Precision kVectorFormats[] = {Precision::kFp16, Precision::kBf16,
                                        Precision::kFp8E4M3,
                                        Precision::kFp8E5M2};

struct RestoreArch {
  ~RestoreArch() { kernels::set_gemm_arch(std::nullopt); }
};

std::string variant_trace() {
  return std::string("variant ") + kernels::to_string(kernels::selected_arch()) +
         ", codec " + codec_name();
}

/// Runs `body` once per available engine variant.
template <typename Body>
void for_each_variant(const Body& body) {
  RestoreArch restore;
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    SCOPED_TRACE(variant_trace());
    body();
  }
}

/// Runs `body` once per distinct codec the available variants select.
/// Variants sharing a codec run the same code, so the expensive sweeps
/// cover each codec once.
template <typename Body>
void for_each_codec(const Body& body) {
  RestoreArch restore;
  std::set<std::string> seen;
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    if (!seen.insert(codec_name()).second) continue;
    SCOPED_TRACE(variant_trace());
    body();
  }
}

float from_bits(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

std::uint32_t to_bits(float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

/// Oracle code of one value, widened to 32 bits.
std::uint32_t oracle_code(Precision p, float x) {
  return quantize_bits(float_format(p), static_cast<double>(x));
}

/// Oracle FP32 image of one value rounded through the format.
std::uint32_t oracle_rounded(Precision p, float x) {
  return to_bits(static_cast<float>(
      round_to_format(float_format(p), static_cast<double>(x))));
}

/// Oracle FP32 decode of one code.
std::uint32_t oracle_decoded(Precision p, std::uint32_t code) {
  return to_bits(static_cast<float>(decode_bits(float_format(p), code)));
}

/// Code i of an encoded buffer.
std::uint32_t code_at(Precision p, const std::vector<unsigned char>& buf,
                      std::size_t i) {
  if (bytes_per_element(p) == 1) return buf[i];
  std::uint16_t code;
  std::memcpy(&code, buf.data() + 2 * i, sizeof(code));
  return code;
}

/// Encodes `values` through the current codec and reports the first few
/// values whose code differs from `expected`.
void expect_encode_matches(Precision p, const std::vector<float>& values,
                           const std::vector<std::uint32_t>& expected) {
  std::vector<unsigned char> encoded(values.size() * bytes_per_element(p));
  quantize_buffer(p, values.data(), encoded.data(), values.size());
  int reported = 0;
  for (std::size_t i = 0; i < values.size() && reported < 5; ++i) {
    const std::uint32_t got = code_at(p, encoded, i);
    if (got != expected[i]) {
      ADD_FAILURE() << to_string(p) << " encode of 0x" << std::hex
                    << to_bits(values[i]) << ": got 0x" << got
                    << ", oracle 0x" << expected[i];
      ++reported;
    }
  }
}

/// Rounds `values` in place through the current codec and reports the
/// first few results whose bits differ from `expected`.
void expect_inplace_matches(Precision p, std::vector<float> values,
                            const std::vector<std::uint32_t>& expected) {
  const std::vector<float> inputs = values;
  quantize_inplace(p, values.data(), values.size());
  int reported = 0;
  for (std::size_t i = 0; i < values.size() && reported < 5; ++i) {
    if (to_bits(values[i]) != expected[i]) {
      ADD_FAILURE() << to_string(p) << " quantize_inplace of 0x" << std::hex
                    << to_bits(inputs[i]) << ": got 0x" << to_bits(values[i])
                    << ", oracle 0x" << expected[i];
      ++reported;
    }
  }
}

// ------------------------------------------------------------- sweeps

class CodecParity : public ::testing::TestWithParam<Precision> {};

/// Encode over every 61st binary32 pattern (70.4M values, NaNs, infinities
/// and subnormals included), in chunks.
TEST_P(CodecParity, EncodeMatchesOracleOnStridedSweepOfAllFloats) {
  const Precision p = GetParam();
  constexpr std::uint64_t kStride = 61;
  constexpr std::size_t kChunk = std::size_t{1} << 18;
  std::vector<float> values;
  std::vector<std::uint32_t> expected;
  for (std::uint64_t start = 0; start < (std::uint64_t{1} << 32);
       start += kStride * kChunk) {
    values.clear();
    expected.clear();
    for (std::uint64_t bits = start;
         bits < (std::uint64_t{1} << 32) && values.size() < kChunk;
         bits += kStride) {
      const float x = from_bits(static_cast<std::uint32_t>(bits));
      values.push_back(x);
      expected.push_back(oracle_code(p, x));
    }
    for_each_codec([&] { expect_encode_matches(p, values, expected); });
    if (HasFailure()) return;
  }
}

/// quantize_inplace over every 997th binary32 pattern against the oracle's
/// round_to_format, which also equals decode(encode(x)).
TEST_P(CodecParity, QuantizeInplaceMatchesOracleOnStridedSweep) {
  const Precision p = GetParam();
  constexpr std::uint64_t kStride = 997;
  std::vector<float> values;
  std::vector<std::uint32_t> expected;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << 32);
       bits += kStride) {
    const float x = from_bits(static_cast<std::uint32_t>(bits));
    values.push_back(x);
    expected.push_back(oracle_rounded(p, x));
    ASSERT_EQ(expected.back(), oracle_decoded(p, oracle_code(p, x)));
  }
  for_each_codec([&] { expect_inplace_matches(p, values, expected); });
}

/// Every binary32 pattern within 4096 ulps of the values where the
/// format's rounding changes regime: max finite and the overflow
/// threshold half an ulp above it, min normal and the subnormal midpoint
/// just below it, min subnormal and the flush-to-zero midpoint below it.
/// Both signs; encode and quantize_inplace, under every variant.
TEST_P(CodecParity, ExhaustiveNearFormatBoundaries) {
  const Precision p = GetParam();
  const FloatFormat& fmt = float_format(p);
  const double max_ulp =
      std::ldexp(1.0, static_cast<int>(std::ilogb(fmt.max_finite())) -
                          fmt.mantissa_bits);
  const double centers[] = {fmt.max_finite(),
                            fmt.max_finite() + max_ulp / 2,
                            fmt.min_normal(),
                            fmt.min_normal() - fmt.min_subnormal() / 2,
                            fmt.min_subnormal(),
                            fmt.min_subnormal() / 2};
  constexpr std::int64_t kReach = 4096;
  std::vector<float> values;
  for (const double center : centers) {
    const auto c = static_cast<std::int64_t>(to_bits(static_cast<float>(center)));
    ASSERT_EQ(static_cast<double>(static_cast<float>(center)), center);
    for (std::int64_t d = -kReach; d <= kReach; ++d) {
      const auto bits = static_cast<std::uint32_t>(c + d);
      values.push_back(from_bits(bits));
      values.push_back(from_bits(bits | 0x80000000u));
    }
  }
  std::vector<std::uint32_t> codes;
  std::vector<std::uint32_t> rounded;
  for (const float x : values) {
    codes.push_back(oracle_code(p, x));
    rounded.push_back(oracle_rounded(p, x));
  }
  for_each_variant([&] {
    expect_encode_matches(p, values, codes);
    expect_inplace_matches(p, values, rounded);
  });
}

/// Decode of every code of the format, bit for bit.
TEST_P(CodecParity, DecodeMatchesOracleOnEveryCode) {
  const Precision p = GetParam();
  const std::size_t width = bytes_per_element(p);
  const std::uint32_t n_codes = 1u << (8 * width);
  std::vector<unsigned char> encoded(n_codes * width);
  for (std::uint32_t code = 0; code < n_codes; ++code) {
    if (width == 1) {
      encoded[code] = static_cast<unsigned char>(code);
    } else {
      const auto c16 = static_cast<std::uint16_t>(code);
      std::memcpy(encoded.data() + 2 * code, &c16, sizeof(c16));
    }
  }
  for_each_variant([&] {
    std::vector<float> decoded(n_codes);
    dequantize_buffer(p, encoded.data(), decoded.data(), n_codes);
    int reported = 0;
    for (std::uint32_t code = 0; code < n_codes && reported < 5; ++code) {
      if (to_bits(decoded[code]) != oracle_decoded(p, code)) {
        ADD_FAILURE() << to_string(p) << " decode of code 0x" << std::hex
                      << code << ": got 0x" << to_bits(decoded[code])
                      << ", oracle 0x" << oracle_decoded(p, code);
        ++reported;
      }
    }
  });
}

/// Lengths 0..49 (every tail length, and more than one full block) with
/// source and destination 0-3 elements past a 16-byte boundary, so the
/// vector loads and stores are unaligned: results match the oracle and
/// nothing outside the destination range is written.
TEST_P(CodecParity, OddLengthsAndUnalignedPointers) {
  const Precision p = GetParam();
  const std::size_t width = bytes_per_element(p);
  Rng rng(61);
  std::vector<float> pool(64);
  for (auto& v : pool) v = static_cast<float>(rng.normal() * 300.0);
  pool[3] = std::numeric_limits<float>::quiet_NaN();
  pool[7] = -std::numeric_limits<float>::infinity();
  pool[11] = static_cast<float>(float_format(p).min_subnormal());
  pool[13] = -0.0f;
  static constexpr unsigned char kGuard = 0xA5;
  // Every byte outside [begin, begin + bytes) still holds the guard.
  const auto expect_guarded = [](const std::vector<unsigned char>& buf,
                                 std::size_t begin, std::size_t bytes,
                                 const char* what) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (i >= begin && i < begin + bytes) continue;
      ASSERT_EQ(buf[i], kGuard) << what << " wrote byte " << i;
    }
  };
  for_each_variant([&] {
    for (std::size_t n = 0; n < 50; ++n) {
      for (std::size_t src_off = 0; src_off < 4; ++src_off) {
        for (std::size_t dst_off = 0; dst_off < 4; ++dst_off) {
          SCOPED_TRACE("n=" + std::to_string(n) + " src_off=" +
                       std::to_string(src_off) + " dst_off=" +
                       std::to_string(dst_off));
          const float* src = pool.data() + src_off;
          const std::size_t code_at = dst_off * width;
          const std::size_t float_at = dst_off * sizeof(float);

          std::vector<unsigned char> enc(64 * width + 16, kGuard);
          quantize_buffer(p, src, enc.data() + code_at, n);
          expect_guarded(enc, code_at, n * width, "encode");
          std::vector<std::uint32_t> codes(n);
          for (std::size_t i = 0; i < n; ++i) {
            std::memcpy(&codes[i], enc.data() + code_at + i * width, width);
            ASSERT_EQ(codes[i], oracle_code(p, src[i])) << "element " << i;
          }

          std::vector<unsigned char> dec((64 + 4) * sizeof(float), kGuard);
          dequantize_buffer(p, enc.data() + code_at,
                            reinterpret_cast<float*>(dec.data() + float_at), n);
          expect_guarded(dec, float_at, n * sizeof(float), "decode");
          for (std::size_t i = 0; i < n; ++i) {
            std::uint32_t got;
            std::memcpy(&got, dec.data() + float_at + i * sizeof(float), 4);
            ASSERT_EQ(got, oracle_decoded(p, codes[i])) << "element " << i;
          }

          std::vector<unsigned char> data((64 + 4) * sizeof(float), kGuard);
          std::memcpy(data.data() + float_at, src, n * sizeof(float));
          quantize_inplace(p, reinterpret_cast<float*>(data.data() + float_at),
                           n);
          expect_guarded(data, float_at, n * sizeof(float), "quantize_inplace");
          for (std::size_t i = 0; i < n; ++i) {
            std::uint32_t got;
            std::memcpy(&got, data.data() + float_at + i * sizeof(float), 4);
            ASSERT_EQ(got, oracle_rounded(p, src[i])) << "element " << i;
          }
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(VectorFormats, CodecParity,
                         ::testing::ValuesIn(kVectorFormats),
                         [](const auto& info) { return to_string(info.param); });

// ---------------------------------------------------------------- NaN

/// The documented NaN rule, pinned for every codec: any NaN input (either
/// sign, quiet or signalling, any payload) encodes to the canonical code
/// with sign 0 and all-ones exponent and mantissa, and every NaN code
/// decodes, and every NaN rounds in place, to the quiet NaN 0x7FC00000.
TEST(CodecNan, CanonicalNanEncodeAndQuietNanDecode) {
  const std::vector<std::uint32_t> nan_inputs = {
      0x7FC00000u, 0xFFC00000u, 0x7F800001u, 0xFF800001u, 0x7FFFFFFFu,
      0xFFFFFFFFu, 0x7FA5A5A5u, 0xFF812345u, 0x7FBFFFFFu, 0x7FC00001u,
      0xFFFFE000u, 0x7F802000u, 0x7FF00000u, 0xFF801000u, 0x7FC0FFFFu,
      0x7F8000FFu, 0xFFE00000u};
  std::vector<float> values;
  for (const std::uint32_t bits : nan_inputs) values.push_back(from_bits(bits));
  const struct {
    Precision p;
    std::uint32_t canonical;
  } cases[] = {{Precision::kFp16, 0x7FFF},
               {Precision::kBf16, 0x7FFF},
               {Precision::kFp8E4M3, 0x7F},
               {Precision::kFp8E5M2, 0x7F}};
  constexpr std::uint32_t kQuietNan = 0x7FC00000u;
  for_each_variant([&] {
    for (const auto& c : cases) {
      SCOPED_TRACE(to_string(c.p));
      const std::size_t width = bytes_per_element(c.p);
      std::vector<unsigned char> encoded(values.size() * width);
      quantize_buffer(c.p, values.data(), encoded.data(), values.size());
      for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(code_at(c.p, encoded, i), c.canonical)
            << std::hex << "input 0x" << nan_inputs[i];
      }
      std::vector<float> rounded = values;
      quantize_inplace(c.p, rounded.data(), rounded.size());
      for (std::size_t i = 0; i < rounded.size(); ++i) {
        EXPECT_EQ(to_bits(rounded[i]), kQuietNan)
            << std::hex << "input 0x" << nan_inputs[i];
      }
      // Every NaN code of the format, both signs.
      const FloatFormat& fmt = float_format(c.p);
      const std::uint32_t n_codes = 1u << (8 * width);
      std::vector<unsigned char> nan_codes;
      std::vector<std::uint32_t> nan_code_values;
      for (std::uint32_t code = 0; code < n_codes; ++code) {
        if (!std::isnan(decode_bits(fmt, code))) continue;
        nan_code_values.push_back(code);
        nan_codes.resize(nan_codes.size() + width);
        std::memcpy(nan_codes.data() + nan_codes.size() - width, &code, width);
      }
      ASSERT_FALSE(nan_code_values.empty());
      std::vector<float> decoded(nan_code_values.size());
      dequantize_buffer(c.p, nan_codes.data(), decoded.data(), decoded.size());
      for (std::size_t i = 0; i < decoded.size(); ++i) {
        EXPECT_EQ(to_bits(decoded[i]), kQuietNan)
            << std::hex << "code 0x" << nan_code_values[i];
      }
    }
  });
}

// -------------------------------------------------------------- empty

/// Every codec entry accepts n == 0 with null pointers and touches
/// nothing (an empty buffer's data() is null: a rank-0 TLR factor).
TEST(CodecEmpty, EveryEntryAcceptsZeroLengthWithNullPointers) {
  const Precision all[] = {Precision::kFp64,    Precision::kFp32,
                           Precision::kFp16,    Precision::kBf16,
                           Precision::kFp8E4M3, Precision::kFp8E5M2,
                           Precision::kFp4E2M1, Precision::kInt8};
  for_each_variant([&] {
    for (const Precision p : all) {
      quantize_buffer(p, nullptr, nullptr, 0);
      dequantize_buffer(p, nullptr, nullptr, 0);
      quantize_inplace(p, nullptr, 0);
      for (const Precision to : all) convert_buffer(p, nullptr, to, nullptr, 0);
    }
  });
}

// ----------------------------------------------------------- pipeline

/// Associate on a mixed FP32/FP16 band map (FP16 tiles encoded by the
/// codec, every trailing update re-encoded) returns bitwise identical
/// weights and factor under the scalar and the AVX-512 codec.  The
/// variants compared are avx2 (scalar codec) and avx512 (vector codec):
/// their FP32 microkernels accumulate in the same FMA order, which an
/// all-FP32 map checks first, so only the codec differs.  The generic
/// microkernel multiplies and adds separately and rounds differently from
/// both, so it cannot isolate the codec.
TEST(CodecPipeline, MixedMapAssociateIsBitwiseEqualAcrossCodecs) {
  const auto archs = kernels::available_archs();
  for (const kernels::Arch arch : {kernels::Arch::kAvx2, kernels::Arch::kAvx512}) {
    if (std::find(archs.begin(), archs.end(), arch) == archs.end()) {
      GTEST_SKIP() << kernels::to_string(arch) << " variant not available";
    }
  }
  CohortConfig cc;
  cc.n_patients = 192;
  cc.n_snps = 64;
  cc.seed = 16;
  const Cohort cohort = simulate_cohort(cc);
  Matrix<float> ph(cc.n_patients, 2);
  Rng rng(3);
  for (std::size_t i = 0; i < ph.size(); ++i) {
    ph.data()[i] = static_cast<float>(rng.normal());
  }
  const auto solve = [&](kernels::Arch arch, PrecisionMode mode) {
    RestoreArch restore;
    kernels::set_gemm_arch(arch);
    BuildConfig bc;
    bc.gamma = 0.03;
    bc.tile_size = 32;
    Runtime rt(2);
    SymmetricTileMatrix k = build_kernel_matrix(
        rt, cohort.genotypes, Matrix<float>(cc.n_patients, 0), bc);
    AssociateConfig ac;
    ac.alpha = 0.5;
    ac.mode = mode;
    ac.band_fp32_fraction = 0.2;
    ac.low_precision = Precision::kFp16;
    AssociateResult result = associate(rt, k, ph, ac);
    if (mode == PrecisionMode::kBand) {
      EXPECT_GT(result.map.off_diagonal_fraction(Precision::kFp16), 0.5);
    }
    EXPECT_STREQ(codec_name(),
                 arch == kernels::Arch::kAvx512 ? "avx512" : "scalar");
    return std::make_pair(std::move(result.weights), k.to_dense());
  };
  const auto bitwise_equal = [](const Matrix<float>& a, const Matrix<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  {
    const auto scalar = solve(kernels::Arch::kAvx2, PrecisionMode::kFixed);
    const auto vector = solve(kernels::Arch::kAvx512, PrecisionMode::kFixed);
    if (!bitwise_equal(scalar.first, vector.first)) {
      GTEST_SKIP() << "avx2 and avx512 FP32 microkernels round differently "
                      "on this build; the codec cannot be isolated";
    }
  }
  const auto scalar = solve(kernels::Arch::kAvx2, PrecisionMode::kBand);
  const auto vector = solve(kernels::Arch::kAvx512, PrecisionMode::kBand);
  EXPECT_TRUE(bitwise_equal(scalar.first, vector.first)) << "weights";
  EXPECT_TRUE(bitwise_equal(scalar.second, vector.second)) << "factor";
}

}  // namespace
}  // namespace kgwas
