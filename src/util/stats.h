#pragma once

/// \file stats.h
/// Streaming statistics (Welford + P² quantiles) and simple aggregate
/// helpers used by benchmarks, the performance model, the radiation
/// service's latency SLO tracking, and accuracy tests.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace rmcrt {

/// Streaming estimator of one quantile via the P² algorithm (Jain &
/// Chlamtac, CACM 1985): five markers whose heights approximate the
/// q-quantile without storing samples — O(1) memory and O(1) per add(),
/// which is what a long-lived service needs to report p99 latency over
/// millions of requests. The first five samples are exact (held in the
/// marker array and sorted); from the sixth on, marker heights move by
/// piecewise-parabolic interpolation. Accuracy is that of the published
/// algorithm: a few percent of the true quantile for well-behaved
/// distributions (stats_test bounds it against sorted-sample references).
class P2Quantile {
 public:
  explicit P2Quantile(double q = 0.5) : m_q(q) {
    for (int i = 0; i < 5; ++i) m_pos[i] = i + 1;
    m_desired[0] = 1.0;
    m_desired[1] = 1.0 + 2.0 * q;
    m_desired[2] = 1.0 + 4.0 * q;
    m_desired[3] = 3.0 + 2.0 * q;
    m_desired[4] = 5.0;
    m_increment[0] = 0.0;
    m_increment[1] = q / 2.0;
    m_increment[2] = q;
    m_increment[3] = (1.0 + q) / 2.0;
    m_increment[4] = 1.0;
  }

  std::int64_t count() const { return m_n; }

  void add(double x) {
    if (m_n < 5) {
      m_height[static_cast<std::size_t>(m_n++)] = x;
      if (m_n == 5) std::sort(m_height.begin(), m_height.end());
      return;
    }
    ++m_n;
    // Which marker interval x lands in; clamp the extremes.
    int k;
    if (x < m_height[0]) {
      m_height[0] = x;
      k = 0;
    } else if (x >= m_height[4]) {
      m_height[4] = std::max(m_height[4], x);
      k = 3;
    } else {
      k = 0;
      while (k < 3 && x >= m_height[static_cast<std::size_t>(k + 1)]) ++k;
    }
    for (int i = k + 1; i < 5; ++i) ++m_pos[i];
    for (int i = 0; i < 5; ++i)
      m_desired[i] += m_increment[static_cast<std::size_t>(i)];
    // Adjust the three interior markers toward their desired positions.
    for (int i = 1; i <= 3; ++i) {
      const double d = m_desired[i] - static_cast<double>(m_pos[i]);
      const std::int64_t below = m_pos[i] - m_pos[i - 1];
      const std::int64_t above = m_pos[i + 1] - m_pos[i];
      if ((d >= 1.0 && above > 1) || (d <= -1.0 && below > 1)) {
        const int s = d >= 1.0 ? 1 : -1;
        double h = parabolic(i, s);
        if (!(m_height[static_cast<std::size_t>(i - 1)] < h &&
              h < m_height[static_cast<std::size_t>(i + 1)]))
          h = linear(i, s);  // parabolic left the bracket: fall back
        m_height[static_cast<std::size_t>(i)] = h;
        m_pos[i] += s;
      }
    }
  }

  /// Current estimate; exact for n <= 5, NaN when empty (the registry-wide
  /// "no data" convention — see RunningStats::min()).
  double value() const {
    if (m_n == 0) return std::numeric_limits<double>::quiet_NaN();
    if (m_n <= 5) {
      // The markers still hold the raw samples (sorted once n reaches 5;
      // adjustments only start on the 6th add) — report exactly. An
      // explicit insertion sort over the <= 5 samples: std::sort over a
      // runtime-length prefix of the array trips GCC -Warray-bounds false
      // positives once inlined.
      std::array<double, 5> h = m_height;
      for (std::size_t i = 1; i < static_cast<std::size_t>(m_n); ++i)
        for (std::size_t j = i; j > 0 && h[j] < h[j - 1]; --j)
          std::swap(h[j], h[j - 1]);
      const double rank = m_q * static_cast<double>(m_n - 1);
      const auto lo = static_cast<std::size_t>(rank);
      const std::size_t hi =
          std::min(lo + 1, static_cast<std::size_t>(m_n - 1));
      const double frac = rank - static_cast<double>(lo);
      return h[lo] + frac * (h[hi] - h[lo]);
    }
    return m_height[2];
  }

 private:
  double parabolic(int i, int s) const {
    const double d = static_cast<double>(s);
    const double qi = m_height[static_cast<std::size_t>(i)];
    const double qm = m_height[static_cast<std::size_t>(i - 1)];
    const double qp = m_height[static_cast<std::size_t>(i + 1)];
    const double nm = static_cast<double>(m_pos[i - 1]);
    const double ni = static_cast<double>(m_pos[i]);
    const double np = static_cast<double>(m_pos[i + 1]);
    return qi + d / (np - nm) *
                    ((ni - nm + d) * (qp - qi) / (np - ni) +
                     (np - ni - d) * (qi - qm) / (ni - nm));
  }
  double linear(int i, int s) const {
    const auto j = static_cast<std::size_t>(i + s);
    return m_height[static_cast<std::size_t>(i)] +
           static_cast<double>(s) *
               (m_height[j] - m_height[static_cast<std::size_t>(i)]) /
               static_cast<double>(m_pos[i + s] - m_pos[i]);
  }

  double m_q;
  std::int64_t m_n = 0;
  std::array<double, 5> m_height{};   // marker heights (first 5: raw samples)
  std::array<std::int64_t, 5> m_pos{};  // marker positions (1-based)
  std::array<double, 5> m_desired{};
  std::array<double, 5> m_increment{};
};

/// Online mean/variance/min/max accumulator (Welford's algorithm), plus
/// streaming p50/p99 via two embedded P² estimators — every component
/// that aggregates through RunningStats can now report tail latency, not
/// just means.
class RunningStats {
 public:
  void add(double x) {
    ++m_n;
    const double delta = x - m_mean;
    m_mean += delta / static_cast<double>(m_n);
    m_m2 += delta * (x - m_mean);
    m_min = std::min(m_min, x);
    m_max = std::max(m_max, x);
    m_sum += x;
    m_p50.add(x);
    m_p99.add(x);
  }

  std::int64_t count() const { return m_n; }
  double mean() const { return m_mean; }
  double sum() const { return m_sum; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const {
    return m_n > 1 ? m_m2 / static_cast<double>(m_n - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  /// NaN for an empty accumulator — a 0.0 would read as a real sample in
  /// metrics snapshots (and emission omits NaN-valued entries entirely).
  double min() const {
    return m_n ? m_min : std::numeric_limits<double>::quiet_NaN();
  }
  double max() const {
    return m_n ? m_max : std::numeric_limits<double>::quiet_NaN();
  }
  /// Streaming median / 99th-percentile estimates (P²; exact for n <= 5,
  /// NaN when empty). See P2Quantile for the accuracy contract.
  double p50() const { return m_p50.value(); }
  double p99() const { return m_p99.value(); }

 private:
  std::int64_t m_n = 0;
  double m_mean = 0.0;
  double m_m2 = 0.0;
  double m_sum = 0.0;
  double m_min = std::numeric_limits<double>::infinity();
  double m_max = -std::numeric_limits<double>::infinity();
  P2Quantile m_p50{0.5};
  P2Quantile m_p99{0.99};
};

/// Relative L2 error between two equally-sized samples:
/// ||a-b||_2 / ||b||_2 (with b the reference).
inline double relativeL2Error(const std::vector<double>& a,
                              const std::vector<double>& b) {
  double num = 0.0, den = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    num += d * d;
    den += b[i] * b[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// Max-norm error.
inline double maxAbsError(const std::vector<double>& a,
                          const std::vector<double>& b) {
  double m = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace rmcrt
