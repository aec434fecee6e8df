// Internal microkernel variant table of the packed GEMM/SYRK engine.
//
// Each ISA variant lives in its own translation unit compiled with that
// ISA's flags (see CMakeLists: kernels_avx2.cpp gets -mavx2 -mfma,
// kernels_avx512.cpp gets -mavx512f, kernels_vnni.cpp gets -mavx512f
// -mavx512bw -mavx512vnni; the NEON variant needs no extra flags on
// aarch64) so the rest of the library keeps its baseline ISA.
// A variant TU exports exactly one accessor returning its descriptor, or
// nullptr when the variant is not compiled into this binary — runtime
// dispatch in kernels.cpp then intersects "compiled in" with what
// cpu_features() reports the host supports.
//
// ABI: a microkernel computes a full MR x NR register tile over a length
// `kb` packed-panel dot product.  `a` is an MR-row micro-panel (column l
// at a + l * MR, 32-byte aligned for MR == 8, 64-byte for MR == 16), `b`
// an NR-column micro-panel (row l at b + l * NR), `acc` a column-major
// MR x NR output block (ld = MR) the kernel fully overwrites.  Edge
// handling is the caller's job: panels are zero-padded to MR/NR, and the
// driver masks the store of partial tiles.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpblas/kernels.hpp"

namespace kgwas::mpblas::kernels::detail {

using MicroKernelFn = void (*)(std::size_t kb, const float* a, const float* b,
                               float* acc);

struct MicroKernel {
  Arch arch;
  const char* name;  ///< matches to_string(arch); used in logs/labels
  std::size_t mr;
  std::size_t nr;
  MicroKernelFn gemm;
};

/// Portable GNU-vector/scalar 8x6 kernel; always compiled in, always
/// runnable — the dispatch floor.  Defined in kernels.cpp.
const MicroKernel* generic_microkernel();

/// Hand-tiled variants, nullptr when not compiled for this target.
const MicroKernel* avx2_microkernel();    // 8x6, FMA intrinsics
const MicroKernel* avx512_microkernel();  // 16x6, zmm accumulators
const MicroKernel* neon_microkernel();    // 8x6, vfmaq

/// INT8 integer-accumulate microkernel of the engine's exact INT8 path.
/// A variant owns its panel format: `pack_a` writes the (i0.., p0..)
/// mb x kb block of op(A) as ceil(mb / mr) micro-panels of
/// a_panel_bytes(kb) bytes each, `pack_b` the (p0.., j0..) kb x nb block
/// of op(B) as ceil(nb / nr) micro-panels of b_panel_bytes(kb) bytes
/// (edge rows/columns and k padding are the variant's job).  `gemm`
/// overwrites the column-major mr x nr block `acc` (ld = mr) with the
/// exact INT32 product of one A and one B micro-panel, modulo 2^32.
struct I8MicroKernel {
  const char* name;  ///< "vnni" | "i16"
  std::size_t mr;
  std::size_t nr;
  std::size_t (*a_panel_bytes)(std::size_t kb);
  std::size_t (*b_panel_bytes)(std::size_t kb);
  void (*pack_a)(const OperandView& a, std::size_t i0, std::size_t p0,
                 std::size_t mb, std::size_t kb, void* dst);
  void (*pack_b)(const OperandView& b, std::size_t p0, std::size_t j0,
                 std::size_t kb, std::size_t nb, void* dst);
  void (*gemm)(std::size_t kb, const void* a, const void* b,
               std::int32_t* acc);
};

/// Portable 8x6 kernel over i16-widened panels; always compiled in, the
/// INT8 dispatch floor.  Defined in kernels.cpp.
const I8MicroKernel* i16_i8_microkernel();

/// AVX-512 VNNI 32x8 `vpdpbusd` kernel over 4-deep byte panels, nullptr
/// when not compiled for this target.  Defined in kernels_vnni.cpp.
const I8MicroKernel* vnni_i8_microkernel();

/// Drops the cached tuner+env blocking so the next gemm_blocking()
/// re-resolves (autotune::set_tune_mode calls this; set_gemm_arch does
/// the equivalent internally).  Defined in kernels.cpp.
void invalidate_resolved_blocking();

}  // namespace kgwas::mpblas::kernels::detail
