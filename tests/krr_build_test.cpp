// Tests for the Build phase: the INT8 matrix identities must reproduce
// the scalar kernel definitions bit-for-bit (Gaussian) / exactly (IBS).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <span>

#include "gwas/cohort_simulator.hpp"
#include "krr/build.hpp"
#include "krr/kernels.hpp"
#include "mpblas/blas.hpp"
#include "mpblas/kernels.hpp"
#include "runtime/runtime.hpp"

namespace kgwas {
namespace {

std::span<const std::int8_t> patient_row(const GenotypeMatrix& g,
                                         std::vector<std::int8_t>& scratch,
                                         std::size_t p) {
  scratch.resize(g.snps());
  for (std::size_t s = 0; s < g.snps(); ++s) scratch[s] = g(p, s);
  return scratch;
}

class BuildKernelParam : public ::testing::TestWithParam<KernelType> {};

TEST_P(BuildKernelParam, MatchesScalarReference) {
  const KernelType kernel = GetParam();
  CohortConfig cc;
  cc.n_patients = 90;
  cc.n_snps = 150;
  cc.seed = 31;
  const Cohort cohort = simulate_cohort(cc);

  BuildConfig config;
  config.kernel = kernel;
  config.gamma = 0.01;
  config.tile_size = 32;  // forces edge tiles (90 = 2*32 + 26)
  Runtime rt(4);
  const Matrix<float> empty_conf(90, 0);
  const SymmetricTileMatrix k =
      build_kernel_matrix(rt, cohort.genotypes, empty_conf, config);
  const Matrix<float> dense = k.to_dense();

  std::vector<std::int8_t> si, sj;
  for (std::size_t i = 0; i < 90; i += 7) {
    for (std::size_t j = 0; j <= i; j += 5) {
      const auto pi = patient_row(cohort.genotypes, si, i);
      const auto pj = patient_row(cohort.genotypes, sj, j);
      double expected;
      if (kernel == KernelType::kGaussian) {
        expected = gaussian_kernel(
            config.gamma, static_cast<double>(squared_distance(pi, pj)));
      } else {
        expected = ibs_kernel(pi, pj);
      }
      ASSERT_NEAR(dense(i, j), expected, 1e-6)
          << to_string(kernel) << " (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothKernels, BuildKernelParam,
                         ::testing::Values(KernelType::kGaussian,
                                           KernelType::kIbs),
                         [](const auto& info) { return to_string(info.param); });

TEST(Build, GaussianPropertiesHold) {
  CohortConfig cc;
  cc.n_patients = 64;
  cc.n_snps = 100;
  const Cohort cohort = simulate_cohort(cc);
  BuildConfig config;
  config.gamma = 0.02;
  config.tile_size = 16;
  Runtime rt(2);
  const SymmetricTileMatrix k = build_kernel_matrix(
      rt, cohort.genotypes, Matrix<float>(64, 0), config);
  const Matrix<float> dense = k.to_dense();
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_FLOAT_EQ(dense(i, i), 1.0f);  // zero self-distance
    for (std::size_t j = 0; j < 64; ++j) {
      ASSERT_GT(dense(i, j), 0.0f);
      ASSERT_LE(dense(i, j), 1.0f);
      ASSERT_EQ(dense(i, j), dense(j, i));
    }
  }
}

TEST(Build, GaussianKernelIsPositiveDefiniteAfterRegularization) {
  CohortConfig cc;
  cc.n_patients = 80;
  cc.n_snps = 120;
  const Cohort cohort = simulate_cohort(cc);
  BuildConfig config;
  config.gamma = 0.02;
  config.tile_size = 32;
  Runtime rt(2);
  const SymmetricTileMatrix k = build_kernel_matrix(
      rt, cohort.genotypes, Matrix<float>(80, 0), config);
  Matrix<float> dense = k.to_dense();
  for (std::size_t i = 0; i < 80; ++i) dense(i, i) += 0.01f;
  EXPECT_EQ(potrf(Uplo::kLower, 80, dense.data(), dense.ld()), 0);
}

TEST(Build, ConfoundersEnterGaussianExponent) {
  CohortConfig cc;
  cc.n_patients = 40;
  cc.n_snps = 60;
  cc.n_confounders = 3;
  const Cohort cohort = simulate_cohort(cc);
  BuildConfig config;
  config.gamma = 0.05;
  config.tile_size = 16;
  Runtime rt(2);
  const SymmetricTileMatrix k =
      build_kernel_matrix(rt, cohort.genotypes, cohort.confounders, config);
  const Matrix<float> dense = k.to_dense();

  std::vector<std::int8_t> si, sj;
  for (std::size_t i = 0; i < 40; i += 3) {
    for (std::size_t j = 0; j < i; j += 4) {
      const auto pi = patient_row(cohort.genotypes, si, i);
      const auto pj = patient_row(cohort.genotypes, sj, j);
      double d = static_cast<double>(squared_distance(pi, pj));
      for (std::size_t c = 0; c < 3; ++c) {
        const double diff = static_cast<double>(cohort.confounders(i, c)) -
                            cohort.confounders(j, c);
        d += diff * diff;
      }
      ASSERT_NEAR(dense(i, j), gaussian_kernel(config.gamma, d),
                  2e-5 * (1.0 + dense(i, j)));
    }
  }
}

TEST(Build, CrossKernelMatchesScalar) {
  CohortConfig cc;
  cc.n_patients = 70;
  cc.n_snps = 80;
  const Cohort cohort = simulate_cohort(cc);
  // Split rows 0..49 train, 50..69 test.
  std::vector<std::size_t> train_rows(50), test_rows(20);
  std::iota(train_rows.begin(), train_rows.end(), 0);
  std::iota(test_rows.begin(), test_rows.end(), 50);
  const GenotypeMatrix train = cohort.genotypes.subset_rows(train_rows);
  const GenotypeMatrix test = cohort.genotypes.subset_rows(test_rows);

  BuildConfig config;
  config.gamma = 0.03;
  config.tile_size = 16;
  Runtime rt(2);
  const TileMatrix kx = build_cross_kernel(rt, test, Matrix<float>(20, 0),
                                           train, Matrix<float>(50, 0), config);
  EXPECT_EQ(kx.rows(), 20u);
  EXPECT_EQ(kx.cols(), 50u);
  const Matrix<float> dense = kx.to_dense();
  std::vector<std::int8_t> si, sj;
  for (std::size_t i = 0; i < 20; i += 3) {
    for (std::size_t j = 0; j < 50; j += 7) {
      const auto pi = patient_row(test, si, i);
      const auto pj = patient_row(train, sj, j);
      ASSERT_NEAR(dense(i, j),
                  gaussian_kernel(config.gamma, static_cast<double>(
                                                    squared_distance(pi, pj))),
                  1e-6);
    }
  }
}

TEST_P(BuildKernelParam, BitwiseEqualUnderReferenceAndPackedBackends) {
  // The INT8 distance GEMM is exact under either GEMM backend, and the
  // diagonal tiles' SYRK + mirror reproduces the full GEMM, so every
  // kernel entry is the same float under both.  Without confounders: the
  // FP32 confounder GEMM rounds differently per backend.
  namespace kernels = mpblas::kernels;
  const KernelType kernel = GetParam();
  CohortConfig cc;
  cc.n_patients = 110;
  cc.n_snps = 203;
  cc.seed = 41;
  const Cohort cohort = simulate_cohort(cc);
  std::vector<std::size_t> train_rows(83), test_rows(27);
  std::iota(train_rows.begin(), train_rows.end(), 0);
  std::iota(test_rows.begin(), test_rows.end(), 83);
  const GenotypeMatrix train = cohort.genotypes.subset_rows(train_rows);
  const GenotypeMatrix test = cohort.genotypes.subset_rows(test_rows);

  BuildConfig config;
  config.kernel = kernel;
  config.gamma = 0.02;
  config.tile_size = 40;  // edge tiles on both sides (83 = 2*40 + 3)
  Runtime rt(2);
  const auto build = [&] {
    return std::pair{
        build_kernel_matrix(rt, train, Matrix<float>(83, 0), config)
            .to_dense(),
        build_cross_kernel(rt, test, Matrix<float>(27, 0), train,
                           Matrix<float>(83, 0), config)
            .to_dense()};
  };
  kernels::set_gemm_backend(kernels::GemmBackend::kReference);
  const auto [k_ref, kx_ref] = build();
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_backend(kernels::GemmBackend::kPacked);
    kernels::set_gemm_arch(arch);
    const auto [k, kx] = build();
    EXPECT_EQ(std::memcmp(k.data(), k_ref.data(), k.size() * sizeof(float)),
              0)
        << to_string(kernel) << " train kernel, variant "
        << kernels::to_string(arch);
    EXPECT_EQ(
        std::memcmp(kx.data(), kx_ref.data(), kx.size() * sizeof(float)), 0)
        << to_string(kernel) << " cross kernel, variant "
        << kernels::to_string(arch);
  }
  kernels::set_gemm_backend(std::nullopt);
  kernels::set_gemm_arch(std::nullopt);
}

TEST(Build, IbsSelfSimilarityIsOne) {
  CohortConfig cc;
  cc.n_patients = 30;
  cc.n_snps = 50;
  const Cohort cohort = simulate_cohort(cc);
  BuildConfig config;
  config.kernel = KernelType::kIbs;
  config.tile_size = 8;
  Runtime rt(2);
  const SymmetricTileMatrix k = build_kernel_matrix(
      rt, cohort.genotypes, Matrix<float>(30, 0), config);
  const Matrix<float> dense = k.to_dense();
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_FLOAT_EQ(dense(i, i), 1.0f);
    for (std::size_t j = 0; j < 30; ++j) {
      ASSERT_GE(dense(i, j), 0.0f);
      ASSERT_LE(dense(i, j), 1.0f);
    }
  }
}

TEST(Kernels, ScalarDefinitions) {
  const std::vector<std::int8_t> a{0, 1, 2, 2};
  const std::vector<std::int8_t> b{2, 1, 2, 0};
  EXPECT_EQ(squared_distance(a, b), 4 + 0 + 0 + 4);
  // IBS shared alleles: |0-2|=2 -> 0 shared; |1-1| -> 2; |2-2| -> 2;
  // |2-0| -> 0; total 4 of 8.
  EXPECT_DOUBLE_EQ(ibs_kernel(a, b), 0.5);
  EXPECT_DOUBLE_EQ(gaussian_kernel(0.5, 0.0), 1.0);
  EXPECT_NEAR(gaussian_kernel(0.1, 8.0), std::exp(-0.8), 1e-12);
}

TEST(Kernels, SuggestGammaScalesInversely) {
  const GenotypeMatrix g = simulate_random_genotypes(100, 200, 4);
  const auto& m = g.matrix();
  const double gamma = suggest_gamma(
      std::span<const std::int8_t>(m.data(), m.size()), 100, 200);
  // Median squared distance for random dosage data is ~ 0.9 * NS, so gamma
  // should be about 1 / that.
  EXPECT_GT(gamma, 1.0 / (4.0 * 200.0));
  EXPECT_LT(gamma, 1.0 / (0.1 * 200.0));
}

TEST(Build, OpCountFormula) {
  EXPECT_DOUBLE_EQ(build_op_count(100, 50, 4),
                   100.0 * 100.0 * 50.0 + 100.0 * 100.0 * 4.0 + 100.0 * 100.0);
}

}  // namespace
}  // namespace kgwas
