// FP64 reference checks of one pipeline pass, written apart from the
// program under test.  Kernel entries are recomputed from the raw dosages
// and confounders, the solve is judged by its normwise backward error, and
// the predictions by the standard dot-product rounding bound.  None of the
// checks compares against stored output of an earlier run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gwas/genotype.hpp"
#include "mpblas/matrix.hpp"

namespace perfbench {

using kgwas::GenotypeMatrix;
using kgwas::Matrix;

/// Collects failed checks of one pass; a pass is good when none failed.
class Check {
 public:
  void fail(const std::string& what);
  bool ok() const noexcept { return failures_ == 0; }
  /// First failure message (empty when ok).
  const std::string& first() const noexcept { return first_; }
  /// Merges another check's failures into this one.
  void merge(const Check& other);

 private:
  std::size_t failures_ = 0;
  std::string first_;
};

/// One side pair of a Gaussian kernel: rows x cols patients.  For the
/// symmetric train kernel both sides are the training cohort.
struct KernelSides {
  const GenotypeMatrix* rows_g = nullptr;
  const Matrix<float>* rows_c = nullptr;
  const GenotypeMatrix* cols_g = nullptr;
  const Matrix<float>* cols_c = nullptr;
  double gamma = 0.0;
};

/// Checks one Build tile against the FP64 kernel: every entry on the
/// global diagonal (row index == column index) and `samples` entries drawn
/// from an RNG seeded by `seed` and the tile origin.  `values` is the
/// tile as FP32 (column-major), covering rows [r0, r0 + rows) and columns
/// [c0, c0 + cols).
void check_kernel_tile(const KernelSides& sides, std::size_t r0,
                       std::size_t c0, const Matrix<float>& values,
                       std::size_t samples, std::uint64_t seed, Check& check);

/// Accumulates the product of one tile with the matching rows of `rhs`
/// into `out` (and of |tile| with |rhs| into `abs_out` when non-null):
/// out[r0:, :] += T * rhs[c0:, :].  With `mirror` set the tile is an
/// off-diagonal tile of a symmetric matrix and its transpose is applied
/// too: out[c0:, :] += T^T * rhs[r0:, :].  Returns the tile's contribution
/// to the squared Frobenius norm of the whole matrix.
double accumulate_tile_product(const Matrix<float>& tile, std::size_t r0,
                               std::size_t c0, bool mirror,
                               const Matrix<float>& rhs, Matrix<double>& out,
                               Matrix<double>* abs_out);

/// Normwise backward error of the solve A W = Y, given the FP64 product
/// A W and ||A||_F^2: ||A W - Y||_F / (||A||_F ||W||_F + ||Y||_F).
double backward_error(const Matrix<double>& aw, double a_frob_sq,
                      const Matrix<float>& w, const Matrix<float>& y);

/// Checks predictions P against the FP64 product X W: every entry must
/// satisfy |P - XW| <= gamma_k * (|X||W|) with gamma_k = k u / (1 - k u),
/// k the inner dimension and u the FP32 unit roundoff.
void check_predictions(const Matrix<float>& predictions,
                       const Matrix<double>& xw, const Matrix<double>& abs_xw,
                       std::size_t inner, Check& check);

/// Mean over phenotype columns of the Pearson correlation between the
/// held-out truth and the predictions.
double pearson_mean(const Matrix<float>& truth,
                    const Matrix<float>& predictions);

/// True when two FP32 matrices have the same shape and the same bits.
bool bitwise_equal(const Matrix<float>& a, const Matrix<float>& b);

}  // namespace perfbench
