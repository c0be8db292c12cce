#pragma once

/// \file timers.h
/// Lightweight wall-clock timers and an accumulating scoped timer used by
/// the scheduler and benchmarks to attribute time to phases (task execute,
/// MPI post/test, H2D/D2H staging, ...).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace rmcrt {

/// A simple wall-clock stopwatch.
class Timer {
 public:
  using clock = std::chrono::steady_clock;

  Timer() : m_start(clock::now()) {}

  void reset() { m_start = clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - m_start).count();
  }
  /// Nanoseconds elapsed.
  std::int64_t nanoseconds() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                m_start)
        .count();
  }

 private:
  clock::time_point m_start;
};

/// An atomically-accumulating time bucket; safe to add to from many
/// threads. Used for scheduler phase attribution ("local comm time").
class AtomicTimeAccumulator {
 public:
  void addNanoseconds(std::int64_t ns) {
    m_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  double seconds() const {
    return static_cast<double>(m_ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  void reset() { m_ns.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> m_ns{0};
};

/// RAII helper: adds the scope's wall time into an accumulator on exit.
class ScopedTimer {
 public:
  explicit ScopedTimer(AtomicTimeAccumulator& acc) : m_acc(acc) {}
  ~ScopedTimer() { m_acc.addNanoseconds(m_timer.nanoseconds()); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  AtomicTimeAccumulator& m_acc;
  Timer m_timer;
};

}  // namespace rmcrt
