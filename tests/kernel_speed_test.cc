// Same-host kernel regression guard: the blocked, packed mm at width 1 must
// beat the scalar reference mm_ref by a ratio floor. Both kernels run in
// this process on this host, so the floor needs no per-host GFLOPS
// baseline. mm_ref is one dependent fma chain per output element, so its
// speed tracks fma latency, while the micro-kernel's tracks vector fma
// throughput; the floor is set per vector ISA, between a micro-kernel
// whose accumulators go through memory on every contraction step and one
// that keeps them in registers. A second case does the same for small
// products made only of partial (edge) tiles.
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

/// How many times faster than the *_ref kernels the blocked kernels must
/// run the edge-dominated shapes below, per kernels::vector_arch(). Edge
/// tiles run on the vector micro-kernel through a zero-padded tile; a
/// scalar edge kernel is one dependent fma chain per element, like *_ref.
/// Measured on one AVX-512 host (the AVX2 and SSE2 builds via
/// -march=haswell and MENOS_NATIVE_ARCH=OFF), range over the three shapes:
///   avx512: 7.0-11.7x; 0.9-1.4x with the scalar edge kernel
///   avx2:   3.5-9.2x;  1.2-1.4x with the scalar edge kernel
///   sse2:   4.3-8.5x either way: with MR x NR = 4 x 8 these shapes
///           tile exactly, so the case guards full tiles there
double min_edge_speedup(const std::string& arch) {
  if (arch == "avx512") return 3.0;
  return 2.0;
}

TEST(KernelSpeed, EdgeTilesBeatReference) {
#if !defined(NDEBUG) || defined(MENOS_INSTRUMENTED_BUILD)
  GTEST_SKIP() << "kernel timing ratios are only meaningful in an "
                  "optimized, uninstrumented build";
#endif
  util::ThreadPool& pool = util::ThreadPool::instance();
  const int width = pool.num_threads();
  pool.set_num_threads(1);

  struct Shape {
    const char* name;
    Index m, k, n;
    bool tn;  // mm_tn: C[k,n] = A[m,k]^T * B[m,n]
  };
  // LoRA rank 8 < NR; head_dim 16 < NR; 128 and 32 rows are not a
  // multiple of MR on AVX-512.
  const Shape shapes[] = {
      {"lora down mm [128x128]*[128x8]", 128, 128, 8, false},
      {"lora grad mm_tn [128x128]^T*[128x8]", 128, 128, 8, true},
      {"attention mm [32x32]*[32x16]", 32, 32, 16, false},
  };
  const std::string arch = tensor::kernels::vector_arch();
  constexpr int kCalls = 50;  // calls per timed sample
  util::Rng rng(11);
  for (const Shape& s : shapes) {
    const Index b_rows = s.tn ? s.m : s.k;
    const Index c_rows = s.tn ? s.k : s.m;
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> b(static_cast<std::size_t>(b_rows * s.n));
    std::vector<float> c(static_cast<std::size_t>(c_rows * s.n));
    rng.fill_normal(a.data(), a.size(), 1.0f);
    rng.fill_normal(b.data(), b.size(), 1.0f);
    using Kernel = void (*)(const float*, const float*, float*, Index,
                            Index, Index);
    const auto calls_ms = [&](int reps, Kernel kernel) {
      return median_ms(reps, [&] {
        std::fill(c.begin(), c.end(), 0.0f);
        for (int i = 0; i < kCalls; ++i) {
          kernel(a.data(), b.data(), c.data(), s.m, s.k, s.n);
        }
      });
    };
    const Kernel blocked =
        s.tn ? tensor::kernels::mm_tn : tensor::kernels::mm;
    const Kernel reference =
        s.tn ? tensor::kernels::mm_tn_ref : tensor::kernels::mm_ref;
    calls_ms(1, blocked);  // warm the packing scratch and the caches
    const double blocked_ms = calls_ms(31, blocked);
    const double reference_ms = calls_ms(9, reference);
    const double speedup = reference_ms / blocked_ms;
    std::printf("%s: blocked %.3f ms, ref %.3f ms per %d calls, %.2fx (%s)\n",
                s.name, blocked_ms, reference_ms, kCalls, speedup,
                arch.c_str());
    EXPECT_GE(speedup, min_edge_speedup(arch))
        << s.name << ": blocked " << blocked_ms << " ms vs reference "
        << reference_ms << " ms: edge tiles no longer run on the vector "
        << "micro-kernel";
  }
  pool.set_num_threads(width);
}

}  // namespace
}  // namespace menos
