// AVX-512 precision codecs behind quantize_buffer / dequantize_buffer /
// quantize_inplace.  Compiled with -mavx512f -mavx512bw on x86 targets
// (see CMakeLists); convert.cpp dispatches here only when the AVX-512
// variant is selected (KGWAS_GEMM_ARCH / set_gemm_arch, like the packed
// engine) and cpu_features() reports avx512f and avx512bw.
//
// Every path is bit-exact against the scalar oracle (quantize_bits /
// decode_bits in float_format.cpp), which rounds each value once, to
// nearest with ties to even:
//
//  * fp16 encode is `vcvtps2ph` with an explicit RNE immediate, decode is
//    `vcvtph2ps`; both are exact IEEE conversions, subnormals included.
//  * bf16 is the top half of a binary32: encode rounds the low 16 bits to
//    nearest even in integer arithmetic (a carry out of the fraction
//    correctly bumps the exponent, up to infinity), decode shifts back.
//  * fp8 E4M3/E5M2 encode works on the binary32 bits directly — never via
//    an fp16 intermediate, which would round twice.  Normal results
//    re-bias the exponent and round the fraction in one integer add;
//    subnormal results shift the significand (implicit bit included) by
//    a per-lane amount and round the same way.  Overflow clamps to the
//    format's top code: ±448 for E4M3 (which saturates, infinities too),
//    ±inf for E5M2.  Decode gathers from the 256-entry table.
//
// NaN: hardware conversions keep NaN payloads and signs, the oracle does
// not.  Every NaN input encodes to the canonical code (sign 0, all-ones
// exponent and mantissa: 0x7FFF for fp16/bf16, 0x7F for fp8) and every
// NaN code decodes to the decode tables' quiet NaN, 0x7FC00000.
//
// Each kernel converts 16 values; a tail shorter than 16 runs the same
// kernel on a zero-padded stack copy, so lengths and alignment are free.
#include "precision/convert_avx512.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)

// GCC 12 flags the _mm512_undefined_*() pass-through operand of unmasked
// conversion intrinsics as maybe-uninitialized once they are inlined (a
// false positive: the operand is never read).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include <immintrin.h>

#include <cstdint>
#include <cstring>

#include "precision/convert.hpp"

namespace kgwas::detail {

namespace {

constexpr std::size_t kLanes = 16;
constexpr std::uint32_t kAbsMask = 0x7FFFFFFFu;
constexpr std::uint32_t kF32Inf = 0x7F800000u;
/// The decode tables' NaN (static_cast<float> of a double quiet NaN).
constexpr std::uint32_t kF32QuietNan = 0x7FC00000u;

__m512i splat(std::uint32_t v) {
  return _mm512_set1_epi32(static_cast<int>(v));
}

/// Lanes holding a NaN bit pattern.
__mmask16 nan_lanes(__m512i bits) {
  return _mm512_cmpgt_epu32_mask(_mm512_and_si512(bits, splat(kAbsMask)),
                                 splat(kF32Inf));
}

__m512 canonical_nan_f32(__m512 values, __mmask16 nan) {
  return _mm512_mask_mov_ps(values, nan,
                            _mm512_castsi512_ps(splat(kF32QuietNan)));
}

/// Runs `kernel(in, out)` over n values, 16 at a time: `in` advances by
/// kInBytes per value, `out` by kOutBytes.  The tail goes through the
/// same kernel on a zero-padded copy.
template <std::size_t kInBytes, std::size_t kOutBytes, typename Kernel>
void blocked(const void* src, void* dst, std::size_t n, Kernel kernel) {
  const auto* in = static_cast<const unsigned char*>(src);
  auto* out = static_cast<unsigned char*>(dst);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    kernel(in + i * kInBytes, out + i * kOutBytes);
  }
  if (i < n) {
    alignas(64) unsigned char in_buf[kLanes * kInBytes] = {};
    alignas(64) unsigned char out_buf[kLanes * kOutBytes];
    std::memcpy(in_buf, in + i * kInBytes, (n - i) * kInBytes);
    kernel(in_buf, out_buf);
    std::memcpy(out + i * kOutBytes, out_buf, (n - i) * kOutBytes);
  }
}

// ---------------------------------------------------------------- fp16

__m256i fp16_codes(__m512 x) {
  // A binary32 NaN with an all-ones fraction converts to 0x7FFF: vcvtps2ph
  // keeps the top 10 fraction bits and the sign.
  const __mmask16 nan = _mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q);
  x = _mm512_mask_mov_ps(x, nan, _mm512_castsi512_ps(splat(kAbsMask)));
  return _mm512_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}

__m512 fp16_values(__m256i codes) {
  const __m512 f = _mm512_cvtph_ps(codes);
  return canonical_nan_f32(f, _mm512_cmp_ps_mask(f, f, _CMP_UNORD_Q));
}

constexpr auto encode_fp16 = [](const void* in, void* out) {
  _mm256_storeu_si256(static_cast<__m256i*>(out),
                      fp16_codes(_mm512_loadu_ps(in)));
};

constexpr auto decode_fp16 = [](const void* in, void* out) {
  _mm512_storeu_ps(out, fp16_values(_mm256_loadu_si256(
                            static_cast<const __m256i*>(in))));
};

constexpr auto round_fp16 = [](const void* in, void* out) {
  _mm512_storeu_ps(out, fp16_values(fp16_codes(_mm512_loadu_ps(in))));
};

// ---------------------------------------------------------------- bf16

/// 16 bf16 codes in the low halves of the 32-bit lanes.
__m512i bf16_codes(__m512i bits) {
  const __m512i lsb = _mm512_and_si512(_mm512_srli_epi32(bits, 16), splat(1));
  const __m512i rounded = _mm512_srli_epi32(
      _mm512_add_epi32(_mm512_add_epi32(bits, splat(0x7FFF)), lsb), 16);
  return _mm512_mask_mov_epi32(rounded, nan_lanes(bits), splat(0x7FFF));
}

__m512 bf16_values(__m512i codes) {
  const __m512i bits = _mm512_slli_epi32(codes, 16);
  return canonical_nan_f32(_mm512_castsi512_ps(bits), nan_lanes(bits));
}

constexpr auto encode_bf16 = [](const void* in, void* out) {
  _mm256_storeu_si256(static_cast<__m256i*>(out),
                      _mm512_cvtepi32_epi16(bf16_codes(_mm512_loadu_si512(in))));
};

constexpr auto decode_bf16 = [](const void* in, void* out) {
  _mm512_storeu_ps(out, bf16_values(_mm512_cvtepu16_epi32(_mm256_loadu_si256(
                            static_cast<const __m256i*>(in)))));
};

constexpr auto round_bf16 = [](const void* in, void* out) {
  _mm512_storeu_ps(out, bf16_values(bf16_codes(_mm512_loadu_si512(in))));
};

// ----------------------------------------------------------------- fp8

/// Bit layout of one fp8 format, and the largest code an overflowing
/// magnitude clamps to (max finite for E4M3, infinity for E5M2).
struct Fp8Layout {
  unsigned mantissa_bits;
  unsigned bias;
  std::uint32_t overflow_code;
};
constexpr Fp8Layout kE4M3{3, 7, 0x7E};
constexpr Fp8Layout kE5M2{2, 15, 0x7C};
constexpr std::uint32_t kFp8CanonicalNan = 0x7F;

/// 16 fp8 codes (sign at bit 7) in the low bytes of the 32-bit lanes.
template <const Fp8Layout& kFmt>
__m512i fp8_codes(__m512i bits) {
  constexpr unsigned kShift = 23 - kFmt.mantissa_bits;
  // Binary32 exponent field of the format's smallest normal, 2^(1-bias).
  constexpr std::uint32_t kMinNormalField = 127 + 1 - kFmt.bias;
  const __m512i one = splat(1);
  const __m512i abs = _mm512_and_si512(bits, splat(kAbsMask));

  // Normal result: re-bias the exponent, then round the fraction to
  // nearest even; a carry out of the fraction lands in the exponent.
  const __m512i rebased = _mm512_sub_epi32(abs, splat((127u - kFmt.bias) << 23));
  const __m512i keep_lsb =
      _mm512_and_si512(_mm512_srli_epi32(rebased, kShift), one);
  __m512i normal = _mm512_srli_epi32(
      _mm512_add_epi32(_mm512_add_epi32(rebased, splat((1u << (kShift - 1)) - 1)),
                       keep_lsb),
      kShift);
  normal = _mm512_min_epu32(normal, splat(kFmt.overflow_code));

  // Subnormal result: the significand in units of the format's smallest
  // subnormal, 2^(1-bias-mantissa_bits), rounded to nearest even.  A shift
  // of 25 or more leaves < 1/2 unit, i.e. zero (binary32 subnormals land
  // here too, whatever their implicit bit).
  const __m512i significand = _mm512_or_si512(
      _mm512_and_si512(abs, splat(0x007FFFFF)), splat(0x00800000));
  const __m512i shift = _mm512_min_epu32(
      _mm512_sub_epi32(splat(kShift + kMinNormalField),
                       _mm512_srli_epi32(abs, 23)),
      splat(25));
  const __m512i half_less_one =
      _mm512_sub_epi32(_mm512_sllv_epi32(one, _mm512_sub_epi32(shift, one)), one);
  const __m512i sub_lsb =
      _mm512_and_si512(_mm512_srlv_epi32(significand, shift), one);
  const __m512i subnormal = _mm512_srlv_epi32(
      _mm512_add_epi32(_mm512_add_epi32(significand, half_less_one), sub_lsb),
      shift);

  const __mmask16 is_normal =
      _mm512_cmpge_epu32_mask(abs, splat(kMinNormalField << 23));
  __m512i codes = _mm512_mask_blend_epi32(is_normal, subnormal, normal);
  codes = _mm512_or_si512(codes,
                          _mm512_slli_epi32(_mm512_srli_epi32(bits, 31), 7));
  return _mm512_mask_mov_epi32(codes, nan_lanes(bits), splat(kFp8CanonicalNan));
}

template <const Fp8Layout& kFmt>
void encode_fp8(const float* src, void* dst, std::size_t n) {
  blocked<4, 1>(src, dst, n, [](const void* in, void* out) {
    _mm_storeu_si128(static_cast<__m128i*>(out),
                     _mm512_cvtepi32_epi8(fp8_codes<kFmt>(_mm512_loadu_si512(in))));
  });
}

void decode_fp8(const float* table, const void* src, float* dst,
                std::size_t n) {
  blocked<1, 4>(src, dst, n, [table](const void* in, void* out) {
    const __m512i codes = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(static_cast<const __m128i*>(in)));
    _mm512_storeu_ps(out, _mm512_i32gather_ps(codes, table, 4));
  });
}

template <const Fp8Layout& kFmt>
void round_fp8(const float* table, float* data, std::size_t n) {
  blocked<4, 4>(data, data, n, [table](const void* in, void* out) {
    const __m512i codes = fp8_codes<kFmt>(_mm512_loadu_si512(in));
    _mm512_storeu_ps(out, _mm512_i32gather_ps(codes, table, 4));
  });
}

// ---------------------------------------------------------- entry points

bool encode(Precision precision, const float* src, void* dst, std::size_t n) {
  switch (precision) {
    case Precision::kFp16:
      blocked<4, 2>(src, dst, n, encode_fp16);
      return true;
    case Precision::kBf16:
      blocked<4, 2>(src, dst, n, encode_bf16);
      return true;
    case Precision::kFp8E4M3:
      encode_fp8<kE4M3>(src, dst, n);
      return true;
    case Precision::kFp8E5M2:
      encode_fp8<kE5M2>(src, dst, n);
      return true;
    default:
      return false;
  }
}

bool decode(Precision precision, const void* src, float* dst, std::size_t n) {
  switch (precision) {
    case Precision::kFp16:
      blocked<2, 4>(src, dst, n, decode_fp16);
      return true;
    case Precision::kBf16:
      blocked<2, 4>(src, dst, n, decode_bf16);
      return true;
    case Precision::kFp8E4M3:
    case Precision::kFp8E5M2:
      decode_fp8(decode_table(precision), src, dst, n);
      return true;
    default:
      return false;
  }
}

bool round_inplace(Precision precision, float* data, std::size_t n) {
  switch (precision) {
    case Precision::kFp16:
      blocked<4, 4>(data, data, n, round_fp16);
      return true;
    case Precision::kBf16:
      blocked<4, 4>(data, data, n, round_bf16);
      return true;
    case Precision::kFp8E4M3:
      round_fp8<kE4M3>(decode_table(precision), data, n);
      return true;
    case Precision::kFp8E5M2:
      round_fp8<kE5M2>(decode_table(precision), data, n);
      return true;
    default:
      return false;
  }
}

}  // namespace

const VectorCodec* avx512_codec() {
  static const VectorCodec codec{"avx512", encode, decode, round_inplace};
  return &codec;
}

}  // namespace kgwas::detail

#else  // variant not compiled for this target

namespace kgwas::detail {
const VectorCodec* avx512_codec() { return nullptr; }
}  // namespace kgwas::detail

#endif
