// Same-host kernel regression guard: the blocked, packed mm at width 1 must
// beat the scalar reference mm_ref by a ratio floor. Both kernels run in
// this process on this host, so the floor needs no per-host GFLOPS
// baseline. mm_ref is one dependent fma chain per output element, so its
// speed tracks fma latency, while the micro-kernel's tracks vector fma
// throughput; the floor is set per vector ISA, between a micro-kernel
// whose accumulators go through memory on every contraction step and one
// that keeps them in registers.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "tensor/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MENOS_INSTRUMENTED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MENOS_INSTRUMENTED_BUILD 1
#endif
#endif

namespace menos {
namespace {

using tensor::Index;

/// How many times faster than mm_ref the blocked mm must be, per
/// kernels::vector_arch(). Measured at 512^3 on one AVX-512 host (the AVX2
/// and SSE2 builds via -march=haswell and MENOS_NATIVE_ARCH=OFF):
///   avx512: 67-75x in registers, 33x with a per-lane fmaf loop
///   avx2:   27-31x in registers, 8-10x with a per-lane fmaf loop
///   sse2:   10-15x (no fma; an unvectorized kernel would be ~1-2x)
double min_speedup(const std::string& arch) {
  if (arch == "avx512") return 45.0;
  if (arch == "avx2") return 18.0;
  return 6.0;
}

template <typename Fn>
double median_ms(int reps, const Fn& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

TEST(KernelSpeed, BlockedMmBeatsReferenceAt512Cubed) {
#if !defined(NDEBUG) || defined(MENOS_INSTRUMENTED_BUILD)
  GTEST_SKIP() << "kernel timing ratios are only meaningful in an "
                  "optimized, uninstrumented build";
#endif
  util::ThreadPool& pool = util::ThreadPool::instance();
  const int width = pool.num_threads();
  pool.set_num_threads(1);

  const Index n = 512;
  const std::size_t elems = static_cast<std::size_t>(n * n);
  std::vector<float> a(elems), b(elems), c(elems);
  util::Rng rng(7);
  rng.fill_normal(a.data(), elems, 1.0f);
  rng.fill_normal(b.data(), elems, 1.0f);

  const auto blocked = [&] {
    std::fill(c.begin(), c.end(), 0.0f);
    tensor::kernels::mm(a.data(), b.data(), c.data(), n, n, n);
  };
  const auto reference = [&] {
    std::fill(c.begin(), c.end(), 0.0f);
    tensor::kernels::mm_ref(a.data(), b.data(), c.data(), n, n, n);
  };
  blocked();  // warm the packing scratch and the caches
  const double blocked_ms = median_ms(31, blocked);
  const double reference_ms = median_ms(5, reference);
  pool.set_num_threads(width);

  const std::string arch = tensor::kernels::vector_arch();
  const double speedup = reference_ms / blocked_ms;
  std::printf("mm 512^3: blocked %.2f ms, mm_ref %.2f ms, %.2fx (%s)\n",
              blocked_ms, reference_ms, speedup, arch.c_str());
  EXPECT_GE(speedup, min_speedup(arch))
      << "blocked mm " << blocked_ms << " ms vs mm_ref " << reference_ms
      << " ms: the packed micro-kernel is no longer engaging";
}

}  // namespace
}  // namespace menos
