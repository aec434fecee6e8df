// AVX-512 VNNI 32x8 INT8 microkernel of the packed engine's exact
// integer-accumulate path.  Compiled with -mavx512f -mavx512bw
// -mavx512vnni on x86 targets (see CMakeLists); dispatched only when the
// AVX-512 variant is selected and cpu_features() reports avx512bw and
// avx512_vnni.
//
// `vpdpbusd` multiplies 4 unsigned bytes of one operand by 4 signed bytes
// of the other and adds the 4 products to an INT32 lane, with
// wrap-around.  The A panel is therefore stored biased, a + 128 in
// [0, 255], and the B panel carries 128 * sum_l b_lj per column, which
// the kernel subtracts at the end:
//
//   sum_l (a_il + 128) * b_lj - 128 * sum_l b_lj = sum_l a_il * b_lj
//
// Every step is exact modulo 2^32, so the result is the exact dot product
// whenever it fits INT32 (the k * 127^2 < 2^31 contract of mixed.hpp),
// even where the biased intermediate sum wraps.
#include "mpblas/microkernel.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VNNI__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace kgwas::mpblas::kernels::detail {

namespace {

constexpr std::size_t kVnniMr = 32;
constexpr std::size_t kVnniNr = 8;
constexpr std::size_t kKr = 4;  ///< k values per vpdpbusd lane
constexpr std::uint8_t kBias = 0x80;

constexpr std::size_t k_groups(std::size_t kb) { return (kb + kKr - 1) / kKr; }

/// Micro-panel: k_groups(kb) groups of width x 4 bytes, row-major within
/// a group (row r's 4 k values at r * 4).  A panels are 64-byte multiples,
/// so every A panel in a 64-byte-aligned buffer is aligned for zmm loads.
std::size_t a_panel_bytes(std::size_t kb) {
  return kVnniMr * kKr * k_groups(kb);
}

/// B micro-panel plus its nr INT32 bias corrections.
std::size_t b_panel_bytes(std::size_t kb) {
  return kVnniNr * kKr * k_groups(kb) + kVnniNr * sizeof(std::int32_t);
}

/// Interleaves 4 rows of 32 bytes (k values l..l+3 of 32 consecutive
/// panel rows) into the 128-byte group layout [row][4].
void interleave_32x4(const std::int8_t* c0, const std::int8_t* c1,
                     const std::int8_t* c2, const std::int8_t* c3,
                     std::uint8_t flip, std::uint8_t* out) {
  const __m256i x0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c0));
  const __m256i x1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c1));
  const __m256i x2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c2));
  const __m256i x3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c3));
  // Per 128-bit lane: rows 0-7 / 16-23 (lo) and 8-15 / 24-31 (hi).
  const __m256i lo01 = _mm256_unpacklo_epi8(x0, x1);
  const __m256i hi01 = _mm256_unpackhi_epi8(x0, x1);
  const __m256i lo23 = _mm256_unpacklo_epi8(x2, x3);
  const __m256i hi23 = _mm256_unpackhi_epi8(x2, x3);
  const __m256i q0 = _mm256_unpacklo_epi16(lo01, lo23);  // rows 0-3, 16-19
  const __m256i q1 = _mm256_unpackhi_epi16(lo01, lo23);  // rows 4-7, 20-23
  const __m256i q2 = _mm256_unpacklo_epi16(hi01, hi23);  // rows 8-11, 24-27
  const __m256i q3 = _mm256_unpackhi_epi16(hi01, hi23);  // rows 12-15, 28-31
  const __m256i f = _mm256_set1_epi8(static_cast<char>(flip));
  const auto store = [f](__m256i* dst, __m256i rows) {
    _mm256_storeu_si256(dst, _mm256_xor_si256(rows, f));
  };
  auto* dst = reinterpret_cast<__m256i*>(out);
  store(dst + 0, _mm256_permute2x128_si256(q0, q1, 0x20));  // rows 0-7
  store(dst + 1, _mm256_permute2x128_si256(q2, q3, 0x20));  // rows 8-15
  store(dst + 2, _mm256_permute2x128_si256(q0, q1, 0x31));  // rows 16-23
  store(dst + 3, _mm256_permute2x128_si256(q2, q3, 0x31));  // rows 24-31
}

/// Interleaves 4 rows of 8 bytes into the 32-byte group layout [row][4].
void interleave_8x4(const std::int8_t* c0, const std::int8_t* c1,
                    const std::int8_t* c2, const std::int8_t* c3,
                    std::uint8_t flip, std::uint8_t* out) {
  const __m128i x0 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c0));
  const __m128i x1 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c1));
  const __m128i x2 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c2));
  const __m128i x3 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c3));
  const __m128i p01 = _mm_unpacklo_epi8(x0, x1);
  const __m128i p23 = _mm_unpacklo_epi8(x2, x3);
  const __m128i f = _mm_set1_epi8(static_cast<char>(flip));
  auto* dst = reinterpret_cast<__m128i*>(out);
  _mm_storeu_si128(dst + 0, _mm_xor_si128(_mm_unpacklo_epi16(p01, p23), f));
  _mm_storeu_si128(dst + 1, _mm_xor_si128(_mm_unpackhi_epi16(p01, p23), f));
}

/// Packs one micro-panel: element (r, l) of the block, r < rows <= width,
/// l < kb, is src[r * rs + l * ls]; it lands at byte (l / 4 * width + r)
/// * 4 + l % 4, xor `flip` (the bias).  Rows past `rows` and k values past
/// kb hold a biased zero.  The full-width, row-contiguous case (the Build
/// operands: the genotype matrix is patient-major) interleaves with SIMD.
void pack_panel(const std::int8_t* src, std::size_t rs, std::size_t ls,
                std::size_t rows, std::size_t kb, std::size_t width,
                std::uint8_t flip, std::uint8_t* dst) {
  const std::size_t full = kb / kKr;
  std::size_t g = 0;
  if (rs == 1 && rows == width) {
    for (; g < full; ++g) {
      const std::int8_t* c = src + g * kKr * ls;
      std::uint8_t* out = dst + g * width * kKr;
      if (width == kVnniMr) {
        interleave_32x4(c, c + ls, c + 2 * ls, c + 3 * ls, flip, out);
      } else {
        interleave_8x4(c, c + ls, c + 2 * ls, c + 3 * ls, flip, out);
      }
    }
  }
  for (; g < k_groups(kb); ++g) {
    std::uint8_t* out = dst + g * width * kKr;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t t = 0; t < kKr; ++t) {
        const std::size_t l = g * kKr + t;
        const std::int8_t v = l < kb ? src[r * rs + l * ls] : 0;
        out[r * kKr + t] = static_cast<std::uint8_t>(v) ^ flip;
      }
    }
    std::memset(out + rows * kKr, flip, (width - rows) * kKr);
  }
}

/// Element (i, l) of op(X) sits at data[i * row_stride + l * k_stride].
struct Strides {
  std::size_t row;
  std::size_t k;
};

Strides strides_of(Trans trans, std::size_t ld, bool rows_are_columns) {
  // op(A)(i, l): kNoTrans reads a[i + l * ld].  op(B)(l, j) is addressed
  // here as (j, l): kNoTrans reads b[l + j * ld].
  const bool unit_rows = (trans == Trans::kNoTrans) != rows_are_columns;
  return unit_rows ? Strides{1, ld} : Strides{ld, 1};
}

void pack_a(const OperandView& a, std::size_t i0, std::size_t p0,
            std::size_t mb, std::size_t kb, void* dst) {
  const auto* src = static_cast<const std::int8_t*>(a.data);
  const Strides s = strides_of(a.trans, a.ld, false);
  auto* out = static_cast<std::uint8_t*>(dst);
  for (std::size_t p = 0; p * kVnniMr < mb; ++p) {
    const std::size_t row0 = i0 + p * kVnniMr;
    pack_panel(src + row0 * s.row + p0 * s.k, s.row, s.k,
               std::min(kVnniMr, mb - p * kVnniMr), kb, kVnniMr, kBias,
               out + p * a_panel_bytes(kb));
  }
}

void pack_b(const OperandView& b, std::size_t p0, std::size_t j0,
            std::size_t kb, std::size_t nb, void* dst) {
  const auto* src = static_cast<const std::int8_t*>(b.data);
  const Strides s = strides_of(b.trans, b.ld, true);
  auto* out = static_cast<std::uint8_t*>(dst);
  const std::size_t data_bytes = kVnniNr * kKr * k_groups(kb);
  for (std::size_t q = 0; q * kVnniNr < nb; ++q) {
    const std::size_t col0 = j0 + q * kVnniNr;
    const std::size_t cols = std::min(kVnniNr, nb - q * kVnniNr);
    std::uint8_t* panel = out + q * b_panel_bytes(kb);
    pack_panel(src + col0 * s.row + p0 * s.k, s.row, s.k, cols, kb, kVnniNr,
               0, panel);
    // Bias correction 128 * sum_l b_lj per column, summed from the packed
    // bytes (padding is zero): one group is 8 columns x 4 signed bytes,
    // which maddubs against unsigned ones folds into pairs and madd into
    // one INT32 per column; the sums wrap like the kernel's.
    const __m256i ones8 = _mm256_set1_epi8(1);
    const __m256i ones16 = _mm256_set1_epi16(1);
    __m256i sums = _mm256_setzero_si256();
    for (std::size_t g = 0; g < k_groups(kb); ++g) {
      const __m256i group = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(panel + g * kVnniNr * kKr));
      sums = _mm256_add_epi32(
          sums,
          _mm256_madd_epi16(_mm256_maddubs_epi16(ones8, group), ones16));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(panel + data_bytes),
                        _mm256_slli_epi32(sums, 7));
  }
}

/// 32 x 8 register tile: two zmm row vectors per k group and 16 zmm
/// accumulators; each B value (4 k-consecutive bytes of one column) is
/// broadcast to all 16 lanes.
void gemm_32x8_vnni(std::size_t kb, const void* a, const void* b,
                    std::int32_t* acc) {
  const auto* ap = static_cast<const std::uint8_t*>(a);
  const auto* bp = static_cast<const std::uint8_t*>(b);
  __m512i lo[kVnniNr];
  __m512i hi[kVnniNr];
#pragma GCC unroll 8
  for (std::size_t j = 0; j < kVnniNr; ++j) {
    lo[j] = _mm512_setzero_si512();
    hi[j] = _mm512_setzero_si512();
  }
  const std::size_t groups = k_groups(kb);
  for (std::size_t g = 0; g < groups; ++g) {
    const __m512i a0 = _mm512_load_si512(ap);
    const __m512i a1 = _mm512_load_si512(ap + 64);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kVnniNr; ++j) {
      std::int32_t quad = 0;
      std::memcpy(&quad, bp + j * kKr, sizeof(quad));
      const __m512i bj = _mm512_set1_epi32(quad);
      lo[j] = _mm512_dpbusd_epi32(lo[j], a0, bj);
      hi[j] = _mm512_dpbusd_epi32(hi[j], a1, bj);
    }
    ap += kVnniMr * kKr;
    bp += kVnniNr * kKr;
  }
  // bp now points at the panel's bias corrections.
#pragma GCC unroll 8
  for (std::size_t j = 0; j < kVnniNr; ++j) {
    std::int32_t correction = 0;
    std::memcpy(&correction, bp + j * sizeof(std::int32_t), sizeof(correction));
    const __m512i cv = _mm512_set1_epi32(correction);
    _mm512_store_si512(acc + j * kVnniMr, _mm512_sub_epi32(lo[j], cv));
    _mm512_store_si512(acc + j * kVnniMr + 16, _mm512_sub_epi32(hi[j], cv));
  }
}

}  // namespace

const I8MicroKernel* vnni_i8_microkernel() {
  static const I8MicroKernel kernel{"vnni",        kVnniMr, kVnniNr,
                                    a_panel_bytes, b_panel_bytes,
                                    pack_a,        pack_b,
                                    gemm_32x8_vnni};
  return &kernel;
}

}  // namespace kgwas::mpblas::kernels::detail

#else  // variant not compiled for this target

namespace kgwas::mpblas::kernels::detail {
const I8MicroKernel* vnni_i8_microkernel() { return nullptr; }
}  // namespace kgwas::mpblas::kernels::detail

#endif
