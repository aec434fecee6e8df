#include "reference.hpp"

#include <cmath>
#include <cstring>
#include <span>
#include <sstream>

#include "common/rng.hpp"
#include "stats/metrics.hpp"

namespace perfbench {

void Check::fail(const std::string& what) {
  if (failures_++ == 0) first_ = what;
}

void Check::merge(const Check& other) {
  if (other.failures_ == 0) return;
  if (failures_ == 0) first_ = other.first_;
  failures_ += other.failures_;
}

namespace {

constexpr double kFp32Roundoff = 0x1p-24;

/// FP64 Gaussian kernel entry plus the bound on how far the program's
/// FP32 value may sit from it.  The dosage distance is exact in both (the
/// program accumulates it in INT32).  The confounder distance is formed by
/// the program as ||c_i||^2 + ||c_j||^2 - 2 c_i.c_j in FP32, so it carries
/// an absolute error of at most (nc + 2) u (||c_i||^2 + ||c_j||^2 +
/// 2 |c_i|.|c_j|); a factor 2 covers the final FP32 additions.  The
/// exponential and the cast to FP32 add a relative 2u.
struct Entry {
  double value;
  double tolerance;
};

Entry reference_entry(const KernelSides& s, std::size_t i, std::size_t j) {
  std::int64_t dosage = 0;
  for (std::size_t snp = 0; snp < s.rows_g->snps(); ++snp) {
    const std::int64_t diff = static_cast<std::int64_t>((*s.rows_g)(i, snp)) -
                              static_cast<std::int64_t>((*s.cols_g)(j, snp));
    dosage += diff * diff;
  }
  double conf = 0.0;
  double magnitude = 0.0;
  const std::size_t nc = s.rows_c->cols();
  for (std::size_t c = 0; c < nc; ++c) {
    const double a = (*s.rows_c)(i, c);
    const double b = (*s.cols_c)(j, c);
    conf += (a - b) * (a - b);
    magnitude += a * a + b * b + 2.0 * std::abs(a * b);
  }
  const double value =
      std::exp(-s.gamma * (static_cast<double>(dosage) + conf));
  const double distance_error =
      2.0 * static_cast<double>(nc + 2) * kFp32Roundoff * magnitude;
  return {value, value * (s.gamma * distance_error * 1.01 +
                          2.0 * kFp32Roundoff)};
}

void check_entry(const KernelSides& sides, std::size_t r0, std::size_t c0,
                 const Matrix<float>& values, std::size_t i, std::size_t j,
                 Check& check) {
  const Entry ref = reference_entry(sides, r0 + i, c0 + j);
  const double got = values(i, j);
  if (!(std::abs(got - ref.value) <= ref.tolerance)) {
    std::ostringstream msg;
    msg << "kernel entry (" << r0 + i << ", " << c0 + j << ") = " << got
        << ", FP64 reference " << ref.value << ", tolerance "
        << ref.tolerance;
    check.fail(msg.str());
  }
}

}  // namespace

void check_kernel_tile(const KernelSides& sides, std::size_t r0,
                       std::size_t c0, const Matrix<float>& values,
                       std::size_t samples, std::uint64_t seed, Check& check) {
  const std::size_t rows = values.rows();
  const std::size_t cols = values.cols();
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t global = r0 + i;
    if (global >= c0 && global < c0 + cols) {
      check_entry(sides, r0, c0, values, i, global - c0, check);
    }
  }
  kgwas::Rng rng(seed ^ (static_cast<std::uint64_t>(r0) << 32) ^ c0);
  for (std::size_t k = 0; k < samples; ++k) {
    const std::size_t i = rng.uniform_index(rows);
    const std::size_t j = rng.uniform_index(cols);
    check_entry(sides, r0, c0, values, i, j, check);
  }
}

double accumulate_tile_product(const Matrix<float>& tile, std::size_t r0,
                               std::size_t c0, bool mirror,
                               const Matrix<float>& rhs, Matrix<double>& out,
                               Matrix<double>* abs_out) {
  const std::size_t rows = tile.rows();
  const std::size_t cols = tile.cols();
  double frob_sq = 0.0;
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) {
      const double t = tile(i, j);
      frob_sq += t * t;
    }
  }
  for (std::size_t k = 0; k < rhs.cols(); ++k) {
    for (std::size_t j = 0; j < cols; ++j) {
      const double w = rhs(c0 + j, k);
      for (std::size_t i = 0; i < rows; ++i) {
        out(r0 + i, k) += static_cast<double>(tile(i, j)) * w;
      }
      if (abs_out != nullptr) {
        for (std::size_t i = 0; i < rows; ++i) {
          (*abs_out)(r0 + i, k) +=
              std::abs(static_cast<double>(tile(i, j)) * w);
        }
      }
    }
    if (mirror) {
      for (std::size_t j = 0; j < cols; ++j) {
        double sum = 0.0;
        for (std::size_t i = 0; i < rows; ++i) {
          sum += static_cast<double>(tile(i, j)) * rhs(r0 + i, k);
        }
        out(c0 + j, k) += sum;
      }
    }
  }
  return mirror ? 2.0 * frob_sq : frob_sq;
}

double backward_error(const Matrix<double>& aw, double a_frob_sq,
                      const Matrix<float>& w, const Matrix<float>& y) {
  double r_sq = 0.0;
  double w_sq = 0.0;
  double y_sq = 0.0;
  for (std::size_t k = 0; k < y.cols(); ++k) {
    for (std::size_t i = 0; i < y.rows(); ++i) {
      const double r = aw(i, k) - static_cast<double>(y(i, k));
      r_sq += r * r;
      w_sq += static_cast<double>(w(i, k)) * w(i, k);
      y_sq += static_cast<double>(y(i, k)) * y(i, k);
    }
  }
  return std::sqrt(r_sq) /
         (std::sqrt(a_frob_sq) * std::sqrt(w_sq) + std::sqrt(y_sq));
}

void check_predictions(const Matrix<float>& predictions,
                       const Matrix<double>& xw, const Matrix<double>& abs_xw,
                       std::size_t inner, Check& check) {
  const double ku = static_cast<double>(inner) * kFp32Roundoff;
  const double gamma_k = ku / (1.0 - ku);
  if (predictions.rows() != xw.rows() || predictions.cols() != xw.cols()) {
    check.fail("prediction matrix has the wrong shape");
    return;
  }
  for (std::size_t k = 0; k < xw.cols(); ++k) {
    for (std::size_t i = 0; i < xw.rows(); ++i) {
      const double err = std::abs(predictions(i, k) - xw(i, k));
      // One FP32 rounding of the stored result on top of the sum bound.
      const double bound =
          gamma_k * abs_xw(i, k) + kFp32Roundoff * std::abs(xw(i, k));
      if (!(err <= bound)) {
        std::ostringstream msg;
        msg << "prediction (" << i << ", " << k << ") = " << predictions(i, k)
            << ", FP64 X*W " << xw(i, k) << ", bound " << bound;
        check.fail(msg.str());
        return;
      }
    }
  }
}

double pearson_mean(const Matrix<float>& truth,
                    const Matrix<float>& predictions) {
  double sum = 0.0;
  for (std::size_t k = 0; k < truth.cols(); ++k) {
    sum += kgwas::pearson(
        std::span<const float>(&truth(0, k), truth.rows()),
        std::span<const float>(&predictions(0, k), predictions.rows()));
  }
  return sum / static_cast<double>(truth.cols());
}

bool bitwise_equal(const Matrix<float>& a, const Matrix<float>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace perfbench
