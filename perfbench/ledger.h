#pragma once

/// \file ledger.h
/// The benchmark's own arithmetic, kept free of rmcrt types so the
/// self-test (selftest.cc) covers it without building the library:
///  * percentiles — nearest-rank, plus the rule for the highest percentile
///    that still has at least ten samples beyond it;
///  * the span fold — a span's self time is its duration minus the part of
///    its interval that its child spans (same thread) cover;
///  * failure accounting — failed / attempted, where a rejected request,
///    a thrown step or an oracle mismatch all count as failed;
///  * a small ordered JSON writer that prints doubles with every digit.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, \p q in [0, 1]: the smallest sample with at
/// least q*n samples at or below it. NaN for an empty set.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// Samples strictly above the nearest-rank \p q percentile position of an
/// \p n-sample set.
inline std::size_t samplesBeyond(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t at = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return n > at ? n - at : 0;
}

/// The highest of the usual reporting percentiles (99.9, 99, 95, 90, 75,
/// 50) that leaves at least \p minBeyond samples above it, as a fraction;
/// 0 when even the median has fewer (n < 2 * minBeyond).
inline double highestResolvedPercentile(std::size_t n,
                                        std::size_t minBeyond = 10) {
  for (double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50})
    if (samplesBeyond(n, q) >= minBeyond) return q;
  return 0.0;
}

/// One closed span on one thread.
struct Span {
  std::uint32_t tid = 0;
  std::int64_t startNs = 0;
  std::int64_t durNs = 0;
  std::string cat;
  std::string name;
};

/// Self time of every span, index-aligned with \p spans. Spans nest by
/// containment per thread; a span's self time is its duration minus the
/// union of its direct children's intervals (clipped to the parent). A
/// child that starts inside the parent but overruns it still counts only
/// up to the parent's end.
inline std::vector<std::int64_t> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Per thread, by start; an enclosing span sorts before what it encloses.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.startNs != y.startNs) return x.startNs < y.startNs;
    return x.durNs > y.durNs;
  });
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].durNs;
  // Stack of open ancestors, with the end of the children coverage already
  // subtracted from each (children are visited in start order, so the
  // union reduces to tracking the furthest covered point).
  struct Open {
    std::size_t idx;
    std::int64_t end;
    std::int64_t coveredTo;
  };
  std::vector<Open> stack;
  std::uint32_t tid = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const Span& s = spans[i];
    if (k == 0 || s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    const std::int64_t end = s.startNs + s.durNs;
    while (!stack.empty() && stack.back().end <= s.startNs) stack.pop_back();
    if (!stack.empty()) {
      Open& parent = stack.back();
      const std::int64_t from = std::max(s.startNs, parent.coveredTo);
      const std::int64_t to = std::min(end, parent.end);
      if (to > from) {
        self[parent.idx] -= to - from;
        parent.coveredTo = to;
      }
    }
    stack.push_back(Open{i, end, s.startNs});
  }
  return self;
}

/// Failure accounting: every attempted operation is either ok or failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// An operation that was attempted, succeeded, but then disagreed with
  /// the oracle: it was counted ok, so move it to failed.
  void demote() {
    if (failed < attempted) ++failed;
  }
  double errorRate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Shortest round-trip text of a double ("null" for non-finite values).
inline std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// An insertion-ordered JSON object built from already-encoded values.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, std::string encoded) {
    m_items.emplace_back(key, std::move(encoded));
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, number(v));
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  JsonObject& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& obj(const std::string& key, const JsonObject& v) {
    return raw(key, v.text());
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += ',';
      s += number(v[i]);
    }
    return raw(key, s + "]");
  }
  JsonObject& objs(const std::string& key, const std::vector<JsonObject>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += ',';
      s += v[i].text();
    }
    return raw(key, s + "]");
  }

  std::string text() const {
    std::string s = "{";
    for (std::size_t i = 0; i < m_items.size(); ++i) {
      if (i) s += ", ";
      s += quoted(m_items[i].first) + ": " + m_items[i].second;
    }
    return s + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> m_items;
};

/// A named metric value with its unit, in emission order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

inline JsonObject metricsObject(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics)
    out.obj(m.name, JsonObject().num("value", m.value).str("unit", m.unit));
  return out;
}

}  // namespace perfbench
