// Vector codec variants behind quantize_buffer / dequantize_buffer /
// quantize_inplace (precision/convert.hpp).  Internal to the precision
// layer: convert.cpp selects a variant, the scalar loops stay the oracle.
#pragma once

#include <cstddef>

#include "precision/precision.hpp"

namespace kgwas::detail {

/// One vector codec variant.  Each entry returns false, touching nothing,
/// for a precision it does not vectorize; the caller then runs the scalar
/// loop.  For the precisions it does handle, every output bit equals the
/// scalar oracle's, NaN inputs included (canonical code on encode, the
/// decode table's quiet NaN on decode).
struct VectorCodec {
  const char* name;
  bool (*encode)(Precision precision, const float* src, void* dst,
                 std::size_t n);
  bool (*decode)(Precision precision, const void* src, float* dst,
                 std::size_t n);
  bool (*round_inplace)(Precision precision, float* data, std::size_t n);
};

/// The AVX-512F/BW codec (fp16, bf16, fp8 E4M3/E5M2), nullptr when not
/// compiled for this target.  Defined in convert_avx512.cpp; callers must
/// check the host for avx512f and avx512bw first.
const VectorCodec* avx512_codec();

}  // namespace kgwas::detail
