// Packed cache-blocked GEMM/SYRK engine (BLIS-style) with
// decode-on-pack mixed-precision panels.
//
// The reference kernels in mpblas/blas.cpp are scalar triple loops: no
// cache blocking, no packing, and every mixed-precision operand is first
// decoded into a full-tile FP32 scratch copy.  This engine supplies the
// compute core the paper's speedup story assumes:
//
//  * mc/kc/nc cache blocking (jc -> pc -> ic loop nest) with A packed
//    into MR-row micro-panels and B into NR-column micro-panels, both in
//    64-byte-aligned TilePool-backed buffers that persist per thread
//    (zero steady-state pool traffic);
//  * a register-tiled MR x NR microkernel written so compilers
//    auto-vectorize it: restrict pointers, contiguous unit-stride inner
//    loads from the packed panels, compile-time tile shape, FMA-friendly
//    accumulator array;
//  * decode-on-pack: `OperandView` describes an operand in its *storage*
//    precision (FP32/FP64/FP16/BF16/FP8/FP4/INT8) and packing decodes
//    straight from storage bytes into the FP32 panels via the precision
//    layer's decode tables — the full-tile FP32 scratch round-trip of the
//    old mixed-precision path disappears.  A view can also request
//    tensor-core operand rounding (`round_to`), which is applied to the
//    packed panels (numerically the same per-element rounding as
//    quantize_inplace on a materialized copy);
//  * `PackedA`: a fully packed left operand reusable across a batch
//    group — the trailing-update GEMMs of one coalesced batch share a
//    panel tile, which is packed (and therefore decoded) exactly once.
//
// Backend selection: KGWAS_GEMM_KERNEL=reference|packed (default
// packed).  Within the packed engine a second axis selects the
// *microkernel variant*: hand-tiled AVX-512 / AVX2+FMA / NEON kernels
// compiled into their own translation units, dispatched at runtime from
// the host's probed CPU features (KGWAS_GEMM_ARCH overrides).  Blocking
// comes from the cache-aware autotuner (KGWAS_GEMM_TUNE, see
// mpblas/autotune.hpp) with validated KGWAS_GEMM_MC/KC/NC overrides.
// Results are deterministic for a fixed variant + blocking, so the
// shared-memory and distributed paths stay bitwise identical to each
// other under any fixed configuration; different variants may differ
// from each other within normal FP32 contraction tolerance.  The engine
// accumulates in FP32 and is float-only; FP64 callers keep the reference
// loops.
//
// INT8-storage GEMMs take an integer-accumulate path with INT32
// accumulators.  gemm_i8/syrk_i8 keep C in INT32 (mixed.hpp's
// gemm_i8_i32/syrk_i8_i32 forward to them); gemm_view scales each kc
// block's INT32 partial into its FP32 C.  Two microkernels serve it:
// under the AVX-512 variant, on a host with avx512bw and avx512_vnni, a
// 32 x 8 `vpdpbusd` kernel (kernels_vnni.cpp) over 4-deep byte panels;
// everywhere else the portable 8 x 6 kernel over i16 panels.
// `vpdpbusd` multiplies unsigned by signed bytes, so the A panel is
// packed biased by +128 and each column is corrected by 128 * sum_l b_lj
// — exact modulo 2^32, hence exact whenever |op(A)·op(B)| stays within
// INT32 (k * 127^2 < 2^31), even if the biased sum wraps.  Both kernels
// give identical integers, so INT8 results do not depend on the variant
// or (for the INT32 forms) the blocking; KGWAS_GEMM_KERNEL=reference
// keeps the scalar loops of mixed.cpp as the oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "mpblas/types.hpp"
#include "precision/precision.hpp"

namespace kgwas::mpblas::kernels {

namespace detail {
struct MicroKernel;
}  // namespace detail

enum class GemmBackend { kReference, kPacked };

/// The process-wide backend: the KGWAS_GEMM_KERNEL override when set
/// ("reference" or "packed"), else kPacked.  Read once and cached.
GemmBackend gemm_backend();

/// Test/bench override; nullopt re-reads the environment on next query.
void set_gemm_backend(std::optional<GemmBackend> backend);

/// True when GEMM-class work (float and INT8) should go through the
/// packed engine.
inline bool use_packed() { return gemm_backend() == GemmBackend::kPacked; }

/// Register micro-tile shape of the *generic* (portable GNU-vector)
/// variant.  MR rows stream unit-stride from the packed A panel (vector
/// loads); NR columns broadcast from the packed B panel.  8 x 6 keeps the
/// accumulator block within 16 SSE registers on baseline x86-64.  The
/// hand-tiled ISA variants bring their own shapes (AVX-512 runs 16 x 6);
/// query the selected variant's shape via gemm_mr()/gemm_nr().
inline constexpr std::size_t kMR = 8;
inline constexpr std::size_t kNR = 6;

/// Granularity required of KGWAS_GEMM_MC/KC/NC environment overrides:
/// values must be positive multiples of kKR or they are rejected (with a
/// logged warning) in favor of the tuned defaults.  Keeps env-supplied
/// blockings compatible with every variant's panel geometry without the
/// caller knowing which variant dispatch will pick.  Programmatic
/// set_gemm_blocking() values are exempt (tests exercise odd blockings).
inline constexpr std::size_t kKR = 8;

/// Microkernel variants.  kGeneric is always compiled and always
/// runnable; the others exist only when the toolchain targets an ISA that
/// can compile them, and are dispatched only when the host CPU supports
/// them.
enum class Arch { kGeneric, kAvx2, kAvx512, kNeon };

/// "generic" | "avx2" | "avx512" | "neon" — the KGWAS_GEMM_ARCH spellings.
const char* to_string(Arch arch);

/// Variants compiled into this binary (kGeneric always included).
std::vector<Arch> compiled_archs();

/// Compiled variants the *host* can execute, best-last is not implied —
/// always includes kGeneric.  This is the set the parity tests iterate.
std::vector<Arch> available_archs();

/// The variant the packed engine dispatches to: the set_gemm_arch()
/// override when set, else KGWAS_GEMM_ARCH when set, valid and available,
/// else the best available variant (avx512 > avx2 > neon > generic).
Arch selected_arch();

/// Test/bench override; nullopt re-reads KGWAS_GEMM_ARCH on next query.
/// Changing the variant invalidates the resolved (autotuned) blocking,
/// since tuned blockings are per-variant.
void set_gemm_arch(std::optional<Arch> arch);

/// Micro-tile shape of the currently selected variant.
std::size_t gemm_mr();
std::size_t gemm_nr();

/// Cache blocking parameters (elements).  The member defaults (mc=128,
/// kc=256, nc=1024: A panel ~128 KiB L2-resident, B micro-panel ~6 KiB
/// L1-resident) are the pre-autotuner constants, kept as the fallback
/// when tuning is off.
struct Blocking {
  std::size_t mc = 128;
  std::size_t kc = 256;
  std::size_t nc = 1024;
};

/// The process-wide blocking, resolved once and cached: the
/// set_gemm_blocking() override when set; otherwise the autotuner's
/// per-variant blocking (mpblas/autotune.hpp — analytic from the probed
/// cache sizes by default, KGWAS_GEMM_TUNE selects off/analytic/probe)
/// with KGWAS_GEMM_MC/KC/NC applied on top.  Env values that are zero,
/// unparsable, or not multiples of kKR are rejected with a logged
/// warning and the tuned value stands.
Blocking gemm_blocking();

/// Test override (clamped to >= 1 per member, otherwise taken verbatim —
/// no kKR rounding); nullopt re-resolves tuner + environment on next
/// query.
void set_gemm_blocking(std::optional<Blocking> blocking);

/// Worker threads used to parallelize PackedA/PackedB whole-operand
/// packing (the `ic`/`jc` block loop).  Default: the host's logical
/// cores, overridable via KGWAS_GEMM_PACK_THREADS (1 disables the
/// parallel path).  set_pack_threads(nullopt) re-reads the environment.
std::size_t pack_threads();
void set_pack_threads(std::optional<std::size_t> threads);

/// An operand in storage precision: element (i, j) of op(X) is read from
/// `data` (column-major, leading dimension `ld`, transposed per `trans`),
/// decoded from `storage` to FP32 during packing, then optionally rounded
/// through `round_to` (tensor-core operand rounding; kFp32 = no-op).
struct OperandView {
  const void* data = nullptr;
  std::size_t ld = 0;
  Trans trans = Trans::kNoTrans;
  Precision storage = Precision::kFp32;
  Precision round_to = Precision::kFp32;
};

inline OperandView fp32_view(const float* data, std::size_t ld, Trans trans,
                             Precision round_to = Precision::kFp32) {
  return {data, ld, trans, Precision::kFp32, round_to};
}

/// An INT8 operand (exact integer-accumulate path; no operand rounding).
inline OperandView int8_view(const std::int8_t* data, std::size_t ld,
                             Trans trans) {
  return {data, ld, trans, Precision::kInt8, Precision::kFp32};
}

/// C <- alpha * op(A) * op(B) + beta * C with op(A) m x k, op(B) k x n,
/// C FP32 m x n.  All shapes, strides and trans combinations supported;
/// operands decode from their storage precision during packing.
void gemm_view(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const OperandView& a, const OperandView& b, float beta,
               float* c, std::size_t ldc);

/// Autotuner hook: C <- A * B (FP32, no-trans, ld = rows, beta = 0) run
/// through the packed engine under an *explicit* blocking, bypassing
/// gemm_blocking() entirely — the blocking resolver calls the autotuner,
/// so the micro-probe timing loop must not re-enter it.  Uses private
/// scratch, never the per-thread pack buffers (probe blockings vary and
/// would churn the footprint-keyed cache).
void gemm_probe(std::size_t m, std::size_t n, std::size_t k, const float* a,
                const float* b, float* c, const Blocking& blocking);

/// C <- alpha * op(A) * op(A)^T + beta * C on the `uplo` triangle only,
/// with op(A) n x k described by `a` (trans inside the view: kNoTrans
/// means A is n x k, kTrans means A is k x n and op(A) = A^T).  Micro
/// tiles entirely outside the triangle are skipped; crossing tiles mask
/// their stores, so out-of-triangle elements of C are never referenced.
void syrk_view(Uplo uplo, std::size_t n, std::size_t k, float alpha,
               const OperandView& a, float beta, float* c, std::size_t ldc);

/// Exact INT8 GEMM with INT32 output: C <- alpha * op(A) * op(B) +
/// beta * C, both views INT8 storage, C INT32 m x n.  Runs the
/// integer-accumulate path (the VNNI or the i16 microkernel, see
/// int8_kernel_name()); arithmetic wraps modulo 2^32, so C equals the
/// reference loops' result whenever that fits INT32 (every |dot product|
/// below 2^31: k * 127^2 < 2^31), under either microkernel and any
/// blocking.
void gemm_i8(std::size_t m, std::size_t n, std::size_t k, std::int32_t alpha,
             const OperandView& a, const OperandView& b, std::int32_t beta,
             std::int32_t* c, std::size_t ldc);

/// Exact INT8 SYRK with INT32 output on the `uplo` triangle only:
/// C <- alpha * op(A) * op(A)^T + beta * C, op(A) n x k (trans inside the
/// view, as for syrk_view).  Micro tiles outside the triangle are never
/// computed; elements outside it are never referenced.
void syrk_i8(Uplo uplo, std::size_t n, std::size_t k, std::int32_t alpha,
             const OperandView& a, std::int32_t beta, std::int32_t* c,
             std::size_t ldc);

/// The INT8 microkernel the integer-accumulate path runs under the
/// selected variant: "vnni" (AVX-512 variant on a host with avx512bw and
/// avx512_vnni) or "i16" (every other case).
const char* int8_kernel_name();

class PackedB;

/// A fully packed (and decoded) m x k left operand: every (ic, pc) block
/// of the engine's loop nest in micro-panel layout.  Lets a batch group
/// whose GEMMs share a panel tile pay the pack/decode cost once; the
/// per-call packing path produces bit-identical panels, so prepacked and
/// plain execution give bitwise equal results.  Buffers are pooled.
class PackedA {
 public:
  PackedA() = default;
  ~PackedA();
  PackedA(const PackedA&) = delete;
  PackedA& operator=(const PackedA&) = delete;

  /// (Re)packs op(A) m x k from `a`.  Reusable; buffers are recycled.
  void pack(std::size_t m, std::size_t k, const OperandView& a);

  bool packed_for(std::size_t m, std::size_t k) const noexcept {
    return !buffer_.empty() && m_ == m && k_ == k;
  }
  std::size_t m() const noexcept { return m_; }
  std::size_t k() const noexcept { return k_; }

 private:
  friend void gemm_prepacked(std::size_t, std::size_t, std::size_t, float,
                             const PackedA&, const OperandView&, float, float*,
                             std::size_t);
  friend class PackedB;
  friend void gemm_prepacked_ab(std::size_t, std::size_t, std::size_t, float,
                                const PackedA&, const PackedB&, float, float*,
                                std::size_t);
  const float* block(std::size_t ic_index, std::size_t pc_index) const {
    return buffer_.data() + (pc_index * ic_blocks_ + ic_index) * stride_;
  }

  AlignedVector<float> buffer_;
  std::size_t m_ = 0;
  std::size_t k_ = 0;
  Blocking blocking_;
  /// Variant whose panel geometry (MR) the blocks were packed for; the
  /// prepacked entrypoints compute with exactly this kernel, so a packed
  /// operand stays valid even if dispatch is re-pointed mid-batch.
  const detail::MicroKernel* kernel_ = nullptr;
  std::size_t ic_blocks_ = 0;
  std::size_t pc_blocks_ = 0;
  std::size_t stride_ = 0;  ///< uniform per-block float count (edge-padded)
};

/// gemm_view with a prepacked left operand (must satisfy
/// packed_for(m, k)); bitwise identical to the gemm_view it replaces.
void gemm_prepacked(std::size_t m, std::size_t n, std::size_t k, float alpha,
                    const PackedA& a, const OperandView& b, float beta,
                    float* c, std::size_t ldc);

/// A fully packed (and decoded) k x n right operand, the B-side analogue
/// of PackedA.  In the Cholesky trailing update the GEMMs of one batch
/// group share their *B* tile (the panel column), so this is the panel
/// that gets packed once per group.
class PackedB {
 public:
  PackedB() = default;
  ~PackedB();
  PackedB(const PackedB&) = delete;
  PackedB& operator=(const PackedB&) = delete;

  /// (Re)packs op(B) k x n from `b`.  Reusable; buffers are recycled.
  void pack(std::size_t k, std::size_t n, const OperandView& b);

  bool packed_for(std::size_t k, std::size_t n) const noexcept {
    return !buffer_.empty() && k_ == k && n_ == n;
  }
  std::size_t k() const noexcept { return k_; }
  std::size_t n() const noexcept { return n_; }

 private:
  friend void gemm_prepacked_ab(std::size_t, std::size_t, std::size_t, float,
                                const PackedA&, const PackedB&, float, float*,
                                std::size_t);
  friend void gemm_prepacked_b(std::size_t, std::size_t, std::size_t, float,
                               const OperandView&, const PackedB&, float,
                               float*, std::size_t);
  const float* block(std::size_t jc_index, std::size_t pc_index) const {
    return buffer_.data() + (jc_index * pc_blocks_ + pc_index) * stride_;
  }

  AlignedVector<float> buffer_;
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  Blocking blocking_;
  const detail::MicroKernel* kernel_ = nullptr;  ///< see PackedA::kernel_
  std::size_t jc_blocks_ = 0;
  std::size_t pc_blocks_ = 0;
  std::size_t stride_ = 0;
};

/// gemm_view with both operands prepacked (a.packed_for(m, k),
/// b.packed_for(k, n), packed under the same blocking); bitwise
/// identical to gemm_view on the same operands.
void gemm_prepacked_ab(std::size_t m, std::size_t n, std::size_t k,
                       float alpha, const PackedA& a, const PackedB& b,
                       float beta, float* c, std::size_t ldc);

/// gemm_view with only the right operand prepacked (the predict-chain
/// shape: each task streams its own kernel tile as A while the group
/// shares the packed weights block); bitwise identical to gemm_view.
void gemm_prepacked_b(std::size_t m, std::size_t n, std::size_t k,
                      float alpha, const OperandView& a, const PackedB& b,
                      float beta, float* c, std::size_t ldc);

}  // namespace kgwas::mpblas::kernels
