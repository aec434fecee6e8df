// Mixed-precision kernels emulating the GPU tensor-core contracts the
// paper relies on:
//
//  * `syrk_i8_i32` / `gemm_i8_i32` — the cublasGemmEx AB8I_C32I_OP32I
//    variant: INT8 operands, INT32 accumulation.  For SNP dosage data
//    (values in {0,1,2}) every product and partial sum is exactly
//    representable, so the Euclidean-distance SYRK trick is *bit-exact* —
//    the key reason the paper's Build phase preserves accuracy at INT8.
//    Under the packed backend (the default) both forward to the engine's
//    integer-accumulate path (mpblas/kernels.hpp gemm_i8/syrk_i8): on
//    AVX-512 VNNI hosts a `vpdpbusd` microkernel over +128-biased A
//    panels with a per-column 128 * sum_l b_lj correction, otherwise an
//    i16-panel kernel.  Integer accumulation is exact, so the result is
//    the same integers either way; KGWAS_GEMM_KERNEL=reference runs the
//    scalar loops here instead, the oracle the engine is tested against.
//
//  * `gemm_tc` / `syrk_tc` — cublasLtMatmul with FP16/BF16/FP8/FP4
//    operands and FP32 compute type: operands are rounded to the storage
//    format, then all products/accumulations run in FP32.  This is the
//    numerical model of a tensor-core MMA with a wide accumulator and is
//    what the MxP Cholesky uses for its low-precision tiles.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpblas/types.hpp"
#include "precision/precision.hpp"

namespace kgwas {

/// C(int32, n x n) <- alpha * A * A^T + beta * C with A int8 n x k
/// (trans = NoTrans) or alpha * A^T * A with A int8 k x n (trans = Trans).
/// Only the `uplo` triangle of C is referenced (the engine computes only
/// that triangle's micro tiles).  Accumulation is exact in INT32; the
/// caller is responsible for k being small enough to avoid overflow
/// (k * 127^2 < 2^31; SNP data gives k * 4 < 2^31).  The VNNI kernel's
/// bias correction stays exact under the same bound: it works modulo
/// 2^32, so a wrapped biased sum still yields the in-range result.
void syrk_i8_i32(Uplo uplo, Trans trans, std::size_t n, std::size_t k,
                 std::int32_t alpha, const std::int8_t* a, std::size_t lda,
                 std::int32_t beta, std::int32_t* c, std::size_t ldc);

/// C(int32, m x n) <- alpha * op(A) * op(B) + beta * C, INT8 operands.
void gemm_i8_i32(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
                 std::size_t k, std::int32_t alpha, const std::int8_t* a,
                 std::size_t lda, const std::int8_t* b, std::size_t ldb,
                 std::int32_t beta, std::int32_t* c, std::size_t ldc);

/// Tensor-core GEMM emulation: operands of op(A) (m x k) and op(B) (k x n)
/// are rounded to `operand_precision` storage, products and accumulation
/// run in FP32, and C stays FP32.  With operand_precision == kFp32 this is
/// plain SGEMM (no extra rounding).
void gemm_tc(Precision operand_precision, Trans trans_a, Trans trans_b,
             std::size_t m, std::size_t n, std::size_t k, float alpha,
             const float* a, std::size_t lda, const float* b, std::size_t ldb,
             float beta, float* c, std::size_t ldc);

/// Tensor-core SYRK emulation (same operand-rounding model as gemm_tc).
void syrk_tc(Precision operand_precision, Uplo uplo, Trans trans,
             std::size_t n, std::size_t k, float alpha, const float* a,
             std::size_t lda, float beta, float* c, std::size_t ldc);

/// Triangular solve where the *triangular operand* A is rounded to
/// `operand_precision` before the FP32 solve (model of feeding a
/// low-precision factor tile into a TRSM on tensor-core hardware).
void trsm_tc(Precision operand_precision, Side side, Uplo uplo, Trans trans,
             Diag diag, std::size_t m, std::size_t n, float alpha,
             const float* a, std::size_t lda, float* b, std::size_t ldb);

/// Flop/ops accounting helpers used by the benchmark harness.
double gemm_op_count(std::size_t m, std::size_t n, std::size_t k);
double syrk_op_count(std::size_t n, std::size_t k);
double potrf_op_count(std::size_t n);
double trsm_op_count(std::size_t m, std::size_t n);

}  // namespace kgwas
