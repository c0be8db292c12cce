#pragma once

/// \file metrics.h
/// Unified metrics registry (DESIGN.md §10): named monotone counters and
/// point-in-time gauges gathering the stats previously scattered across
/// SchedulerStats, ReliableChannelStats, DeviceStats, ArenaStats,
/// PoolStats, and the tracer's segment counter into one
/// emission path with per-timestep JSON/CSV snapshots.
///
/// Concurrency: counters and gauges are single atomics; add()/set() are
/// wait-free. Name lookup takes the registry mutex, so hot paths resolve
/// a counter once (e.g. a function-local static reference against the
/// global registry, which is never destroyed or compacted — registered
/// metrics are stable for the process lifetime; reset() zeroes values but
/// never invalidates references).
///
/// Emission: snapshot() captures every metric's current value;
/// recordTimestep() appends a labeled snapshot to an in-memory timeline;
/// writeJson()/writeCsv() emit the timeline plus the final state. Gauges
/// holding NaN are OMITTED from emission — NaN is the registry-wide
/// convention for "no data" (see RunningStats::min()/max() on an empty
/// accumulator), and an omitted metric cannot be mistaken for a real 0.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace rmcrt {

/// Monotonically-increasing event count.
class MetricsCounter {
 public:
  void add(std::uint64_t n) { m_v.fetch_add(n, std::memory_order_relaxed); }
  void increment() { add(1); }
  std::uint64_t value() const {
    return m_v.load(std::memory_order_relaxed);
  }
  void reset() { m_v.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> m_v{0};
};

/// Point-in-time value (may go up or down; NaN = "no data, omit").
class MetricsGauge {
 public:
  void set(double v) { m_v.store(v, std::memory_order_relaxed); }
  double value() const { return m_v.load(std::memory_order_relaxed); }
  void reset() { m_v.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> m_v{0.0};
};

class MetricsView;

class MetricsRegistry {
 public:
  static MetricsRegistry& global() {
    static MetricsRegistry g;
    return g;
  }

  /// One metric's value at snapshot time.
  struct SnapshotEntry {
    std::string name;
    double value = 0.0;
    bool isCounter = false;
  };
  /// All metrics at one instant, sorted by name.
  struct Snapshot {
    std::int64_t timestep = -1;  ///< -1: not tied to a timestep
    std::vector<SnapshotEntry> entries;

    const SnapshotEntry* find(const std::string& name) const {
      for (const auto& e : entries)
        if (e.name == name) return &e;
      return nullptr;
    }
  };

  /// Get or create. References stay valid for the process lifetime.
  MetricsCounter& counter(const std::string& name) {
    std::lock_guard<std::mutex> lk(m_mutex);
    auto& slot = m_counters[name];
    if (!slot) slot = std::make_unique<MetricsCounter>();
    return *slot;
  }
  MetricsGauge& gauge(const std::string& name) {
    std::lock_guard<std::mutex> lk(m_mutex);
    auto& slot = m_gauges[name];
    if (!slot) slot = std::make_unique<MetricsGauge>();
    return *slot;
  }

  /// Convenience single-shot forms (one lookup each — fine off hot paths).
  void addCounter(const std::string& name, std::uint64_t n) {
    counter(name).add(n);
  }
  void setGauge(const std::string& name, double v) { gauge(name).set(v); }

  /// A prefixed view of this registry — the multi-tenant carve-out (see
  /// MetricsView below). Defined after MetricsView.
  MetricsView view(const std::string& prefix);

  /// Snapshot restricted to metrics whose name starts with \p prefix —
  /// one tenant's slice of the registry without copying everything.
  Snapshot snapshotPrefixed(const std::string& prefix,
                            std::int64_t timestep = -1) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    Snapshot all = snapshotLocked(timestep);
    Snapshot out;
    out.timestep = timestep;
    for (auto& e : all.entries)
      if (e.name.compare(0, prefix.size(), prefix) == 0)
        out.entries.push_back(std::move(e));
    return out;
  }

  /// Capture every registered metric. NaN gauges are omitted.
  Snapshot snapshot(std::int64_t timestep = -1) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return snapshotLocked(timestep);
  }

  /// Append a snapshot labeled with \p timestep to the timeline.
  void recordTimestep(std::int64_t timestep) {
    std::lock_guard<std::mutex> lk(m_mutex);
    m_timeline.push_back(snapshotLocked(timestep));
  }

  std::vector<Snapshot> timeline() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_timeline;
  }

  /// Zero every metric and drop the timeline. Metric references obtained
  /// before reset() remain valid (values restart from zero).
  void reset() {
    std::lock_guard<std::mutex> lk(m_mutex);
    for (auto& [name, c] : m_counters) c->reset();
    for (auto& [name, g] : m_gauges) g->reset();
    m_timeline.clear();
  }

  /// {"snapshots":[{"timestep":N,"metrics":{...}},...],"final":{...}}
  void writeJson(std::ostream& os) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    os << "{\n\"snapshots\": [\n";
    for (std::size_t i = 0; i < m_timeline.size(); ++i) {
      os << "{\"timestep\": " << m_timeline[i].timestep
         << ", \"metrics\": ";
      writeMetricsObject(os, m_timeline[i]);
      os << "}" << (i + 1 < m_timeline.size() ? "," : "") << "\n";
    }
    os << "],\n\"final\": ";
    writeMetricsObject(os, snapshotLocked(-1));
    os << "\n}\n";
  }

  /// CSV: header `timestep,<name>,...` over the union of all names seen
  /// in the timeline plus the final state (emitted as timestep -1's row
  /// last); metrics absent from a snapshot emit an empty cell.
  void writeCsv(std::ostream& os) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    std::vector<Snapshot> rows = m_timeline;
    rows.push_back(snapshotLocked(-1));
    std::set<std::string> names;
    for (const auto& s : rows)
      for (const auto& e : s.entries) names.insert(e.name);
    os << "timestep";
    for (const auto& n : names) os << "," << n;
    os << "\n";
    for (const auto& s : rows) {
      os << s.timestep;
      for (const auto& n : names) {
        os << ",";
        if (const SnapshotEntry* e = s.find(n)) os << e->value;
      }
      os << "\n";
    }
  }

 private:
  Snapshot snapshotLocked(std::int64_t timestep) const {
    Snapshot s;
    s.timestep = timestep;
    for (const auto& [name, c] : m_counters)
      s.entries.push_back(SnapshotEntry{
          name, static_cast<double>(c->value()), true});
    for (const auto& [name, g] : m_gauges) {
      const double v = g->value();
      if (std::isnan(v)) continue;  // "no data" — omit, don't fake a 0
      s.entries.push_back(SnapshotEntry{name, v, false});
    }
    // Both maps are name-ordered; merge keeps entries sorted.
    std::inplace_merge(
        s.entries.begin(),
        s.entries.begin() + static_cast<std::ptrdiff_t>(m_counters.size()),
        s.entries.end(), [](const SnapshotEntry& a, const SnapshotEntry& b) {
          return a.name < b.name;
        });
    return s;
  }

  static void writeMetricsObject(std::ostream& os, const Snapshot& s) {
    os << "{";
    for (std::size_t i = 0; i < s.entries.size(); ++i) {
      os << "\"" << s.entries[i].name << "\": " << s.entries[i].value
         << (i + 1 < s.entries.size() ? ", " : "");
    }
    os << "}";
  }

  mutable std::mutex m_mutex;
  std::map<std::string, std::unique_ptr<MetricsCounter>> m_counters;
  std::map<std::string, std::unique_ptr<MetricsGauge>> m_gauges;
  std::vector<Snapshot> m_timeline;
};

/// A per-tenant (or per-component) carve-out of a MetricsRegistry: every
/// counter/gauge resolved through the view lands under `<prefix>.` in the
/// parent registry, so one emission path serves all tenants while each
/// tenant's slice stays separable (snapshot() filters by the prefix).
/// Views are cheap value objects; the parent registry must outlive them.
/// The returned metric references follow the registry's stability
/// contract (valid for the process lifetime, reset() keeps them valid).
class MetricsView {
 public:
  MetricsView(MetricsRegistry& reg, std::string prefix)
      : m_reg(&reg), m_prefix(std::move(prefix)) {
    if (!m_prefix.empty() && m_prefix.back() != '.') m_prefix += '.';
  }

  const std::string& prefix() const { return m_prefix; }

  MetricsCounter& counter(const std::string& name) {
    return m_reg->counter(m_prefix + name);
  }
  MetricsGauge& gauge(const std::string& name) {
    return m_reg->gauge(m_prefix + name);
  }
  void addCounter(const std::string& name, std::uint64_t n) {
    counter(name).add(n);
  }
  void setGauge(const std::string& name, double v) { gauge(name).set(v); }

  /// This view's slice of the parent registry.
  MetricsRegistry::Snapshot snapshot(std::int64_t timestep = -1) const {
    return m_reg->snapshotPrefixed(m_prefix, timestep);
  }

 private:
  MetricsRegistry* m_reg;
  std::string m_prefix;
};

inline MetricsView MetricsRegistry::view(const std::string& prefix) {
  return MetricsView(*this, prefix);
}

}  // namespace rmcrt
