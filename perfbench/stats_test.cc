// Unit test for perfbench's own arithmetic (stats.h). Run with
// `python3 perfbench/run.py --selftest` or `ctest` in the perfbench build.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile_selection() {
  using namespace perfbench;
  EXPECT(nearest_rank(0, 0.5) == 0);
  EXPECT(nearest_rank(1, 0.5) == 1);
  EXPECT(nearest_rank(10, 0.5) == 5);
  EXPECT(nearest_rank(100, 0.9) == 90);  // not 91 from 0.9 * 100 rounding
  EXPECT(nearest_rank(101, 0.9) == 91);
  EXPECT(nearest_rank(5, 0.0) == 1);
  EXPECT(nearest_rank(5, 1.0) == 5);

  EXPECT(percentile(one_to(100), 0.5) == 50.0);
  EXPECT(percentile(one_to(100), 0.9) == 90.0);
  EXPECT(percentile(one_to(7), 0.5) == 4.0);
  EXPECT(std::isnan(percentile({}, 0.5)));

  // Ten samples beyond: p50 needs 20 samples, p90 100, p99 1000.
  EXPECT(!tail_supported(19, 0.5));
  EXPECT(tail_supported(20, 0.5));
  EXPECT(!tail_supported(99, 0.9));
  EXPECT(tail_supported(100, 0.9));
  EXPECT(!tail_supported(999, 0.99));
  EXPECT(tail_supported(1000, 0.99));
  EXPECT(!tail_supported(0, 0.5));
}

void test_window_share() {
  using namespace perfbench;
  const Interval window{10.0, 20.0};
  EXPECT(near(window_share({12.0, 14.0}, window), 1.0));
  EXPECT(near(window_share({8.0, 12.0}, window), 0.5));
  EXPECT(near(window_share({19.0, 23.0}, window), 0.25));
  EXPECT(near(window_share({5.0, 25.0}, window), 0.5));
  EXPECT(window_share({1.0, 2.0}, window) == 0.0);
  EXPECT(window_share({15.0, 15.0}, window) == 1.0);
  EXPECT(window_share({20.0, 20.0}, window) == 0.0);
}

void test_window_rate() {
  using namespace perfbench;
  const Interval window{0.0, 10.0};
  // Steady work: one unit per second, steps straddling the window edges.
  std::vector<Work> steady;
  for (int i = -1; i < 10; ++i) steady.push_back({{i + 0.5, i + 1.5}, 1.0});
  EXPECT(near(window_rate(steady, window), 1.0));
  // A stall in part of the window lowers the rate by its share.
  std::vector<Work> stalled = {{{0.0, 2.0}, 4.0}, {{2.0, 4.0}, 4.0},
                               {{4.0, 6.0}, 0.0}, {{6.0, 8.0}, 4.0},
                               {{8.0, 10.0}, 4.0}};
  EXPECT(near(window_rate(stalled, window), 1.6));
  EXPECT(window_rate({}, window) == 0.0);
  EXPECT(window_rate(steady, {1.0, 1.0}) == 0.0);
}

void test_self_time() {
  using namespace perfbench;
  const Interval parent{0.0, 10.0};
  EXPECT(near(self_time(parent, {}), 10.0));
  // Disjoint children.
  EXPECT(near(self_time(parent, {{1.0, 3.0}, {5.0, 6.0}}), 7.0));
  // Overlapping children (two threads) count their union once.
  EXPECT(near(self_time(parent, {{1.0, 4.0}, {2.0, 5.0}}), 6.0));
  // Nested child inside a sibling.
  EXPECT(near(self_time(parent, {{1.0, 8.0}, {2.0, 3.0}}), 3.0));
  // Children are clipped to the parent.
  EXPECT(near(self_time(parent, {{-5.0, 2.0}, {9.0, 15.0}}), 7.0));
  // A child wholly outside covers nothing.
  EXPECT(near(self_time(parent, {{11.0, 12.0}}), 10.0));
  // Order of children does not matter.
  EXPECT(near(self_time(parent, {{7.0, 9.0}, {1.0, 2.0}, {1.5, 3.0}}), 6.0));
  // Touching children merge without a gap.
  EXPECT(near(covered_length(parent, {{1.0, 2.0}, {2.0, 4.0}}), 3.0));
}

void test_unattributed_share() {
  using namespace perfbench;
  EXPECT(near(unattributed_share(100.0, 20.0, 10.0, 60.0), 0.1));
  EXPECT(near(unattributed_share(100.0, 20.0, 20.0, 60.0), 0.0));
  // Double counting shows as a negative share rather than being hidden.
  EXPECT(near(unattributed_share(100.0, 30.0, 20.0, 60.0), -0.1));
  EXPECT(unattributed_share(0.0, 1.0, 1.0, 1.0) == 0.0);
}

}  // namespace

int main() {
  test_percentile_selection();
  test_window_share();
  test_window_rate();
  test_self_time();
  test_unattributed_share();
  if (failures != 0) {
    std::fprintf(stderr, "stats_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
