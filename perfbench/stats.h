// Arithmetic behind the numbers perfbench reports: nearest-rank
// percentiles under the ten-samples-beyond rule, interval overlap for
// counting work that straddles a window edge, rates over a window, span
// self time, and the share of a round that no measured component covers.
// Header-only so the unit test (stats_test.cc) links nothing else.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile `p` (in [0, 1]) among `n` samples:
/// the smallest rank r with r >= p * n. 0 when there are no samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps 0.9 * 100 (= 90.000000000000014) at rank 90.
  const double r = std::ceil(p * static_cast<double>(n) - 1e-9);
  if (r < 1.0) return 1;
  return std::min(n, static_cast<std::size_t>(r));
}

/// Samples ranked strictly above percentile `p` of `n` samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

/// A tail percentile is reportable only with at least `min_beyond` samples
/// beyond it (ten by default): p90 needs 100 samples, p99 needs 1000.
inline bool tail_supported(std::size_t n, double p,
                           std::size_t min_beyond = 10) {
  return n > 0 && samples_beyond(n, p) >= min_beyond;
}

/// Nearest-rank percentile; NaN for an empty sample.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

struct Interval {
  double begin = 0.0;
  double end = 0.0;
  double length() const { return end > begin ? end - begin : 0.0; }
};

/// Length of the intersection of two intervals (0 when disjoint).
inline double overlap(const Interval& a, const Interval& b) {
  return Interval{std::max(a.begin, b.begin), std::min(a.end, b.end)}
      .length();
}

/// Share of `work` that falls inside `window`. Work that straddles a window
/// edge counts for the part inside it, so a rate over the window carries no
/// whole-step quantization. A zero-length item counts if it lies inside.
inline double window_share(const Interval& work, const Interval& window) {
  if (work.length() == 0.0) {
    return work.begin >= window.begin && work.begin < window.end ? 1.0 : 0.0;
  }
  return overlap(work, window) / work.length();
}

/// An amount of work done over an interval (tokens of a step, or one
/// session lifecycle).
struct Work {
  Interval time;
  double amount = 1.0;
};

/// Rate of `work` per second over `window`: everything done inside it,
/// counting work that straddles an edge by the share inside, divided by the
/// window's length. A stall anywhere in the window lowers the rate.
inline double window_rate(const std::vector<Work>& work,
                          const Interval& window) {
  if (window.length() <= 0.0) return 0.0;
  double done = 0.0;
  for (const Work& w : work) done += w.amount * window_share(w.time, window);
  return done / window.length();
}

/// Length of `parent` covered by the union of `children` (each clipped to
/// the parent; overlapping children count once).
inline double covered_length(const Interval& parent,
                             std::vector<Interval> children) {
  for (auto& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double run_begin = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const auto& c : children) {
    if (c.length() == 0.0) continue;
    if (open && c.begin <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = c.begin;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return covered;
}

/// A span's self time: its duration minus the part its children cover.
inline double self_time(const Interval& parent,
                        const std::vector<Interval>& children) {
  return parent.length() - covered_length(parent, children);
}

/// Share of round time not covered by client compute, transit and server
/// residence. Not clamped: a negative share means the components overlap
/// (double counting), which is itself worth seeing.
inline double unattributed_share(double round_s, double client_compute_s,
                                 double transit_s, double residence_s) {
  if (round_s <= 0.0) return 0.0;
  return (round_s - client_compute_s - transit_s - residence_s) / round_s;
}

}  // namespace perfbench
