// Tests for the host capability probe behind the engine's ISA dispatch.
#include <gtest/gtest.h>

#include <string>

#include "mpblas/cpu_features.hpp"

namespace kgwas {
namespace {

using mpblas::CpuFeatures;

bool contains(const std::string& text, const char* token) {
  return text.find(token) != std::string::npos;
}

TEST(CpuFeatures, ProbeMatchesTheCompilerBuiltinsOnX86) {
  const CpuFeatures& f = mpblas::cpu_features();
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  EXPECT_EQ(f.avx2, __builtin_cpu_supports("avx2") != 0);
  EXPECT_EQ(f.fma, __builtin_cpu_supports("fma") != 0);
  EXPECT_EQ(f.avx512f, __builtin_cpu_supports("avx512f") != 0);
  EXPECT_EQ(f.avx512bw, __builtin_cpu_supports("avx512bw") != 0);
  EXPECT_EQ(f.avx512_vnni, __builtin_cpu_supports("avx512vnni") != 0);
#else
  EXPECT_FALSE(f.avx512bw);
  EXPECT_FALSE(f.avx512_vnni);
#endif
  // The 512-bit extensions all build on AVX-512 Foundation.
  if (f.avx512bw || f.avx512_vnni) {
    EXPECT_TRUE(f.avx512f);
  }
}

TEST(CpuFeatures, CacheSizesAndCoresAreAlwaysUsable) {
  const CpuFeatures& f = mpblas::cpu_features();
  EXPECT_GT(f.l1d_bytes, 0u);
  EXPECT_GE(f.l2_bytes, f.l1d_bytes);
  EXPECT_GE(f.l3_bytes, f.l2_bytes);
  EXPECT_GE(f.logical_cores, 1u);
  EXPECT_EQ(&f, &mpblas::cpu_features()) << "probe must run once";
}

TEST(CpuFeatures, ToStringListsEveryProbedFlag) {
  const CpuFeatures& f = mpblas::cpu_features();
  const std::string text = mpblas::to_string(f);
  EXPECT_EQ(contains(text, "avx512bw"), f.avx512bw) << text;
  EXPECT_EQ(contains(text, "avx512_vnni"), f.avx512_vnni) << text;
  EXPECT_EQ(contains(text, "avx512f"), f.avx512f) << text;
  EXPECT_TRUE(contains(text, "cores=")) << text;
}

TEST(CpuFeatures, ToStringFormatsSyntheticHosts) {
  CpuFeatures none;
  none.l1d_bytes = 1;
  none.l2_bytes = 2;
  none.l3_bytes = 3;
  EXPECT_EQ(mpblas::to_string(none),
            "baseline l1d=1 l2=2 l3=3 cores=1 (cache sizes assumed)");

  CpuFeatures vnni = none;
  vnni.avx2 = vnni.fma = vnni.avx512f = true;
  vnni.avx512bw = vnni.avx512_vnni = true;
  vnni.caches_probed = true;
  vnni.logical_cores = 4;
  EXPECT_EQ(mpblas::to_string(vnni),
            "avx2+fma+avx512f+avx512bw+avx512_vnni l1d=1 l2=2 l3=3 cores=4");
}

}  // namespace
}  // namespace kgwas
