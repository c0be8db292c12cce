#pragma once

/// \file fault_injector.h
/// Deterministic message-fault injection for the in-process communicator.
/// Attached to a Communicator (Communicator::setFaultInjector), it decides
/// the fate of every isend: deliver, drop, delay (deferred delivery via a
/// timer thread), duplicate, or reorder (held until the next message on
/// the same link overtakes it). Two ways to trigger faults:
///
///  * probabilities, one set for every link — each (src,dst) link draws
///    from its own seeded RNG stream, so a fixed seed plus a fixed
///    per-link send order reproduces the exact same fault pattern
///    regardless of cross-link thread interleaving;
///  * scripted one-shot faults — "drop the 3rd message from rank 2 with
///    tag T" (optionally permanent from the nth match onward), so tests
///    can target exact code paths.
///
/// Injection is off by default: a Communicator with no injector attached
/// pays a single null-pointer check per isend and nothing else. The timer
/// thread is created lazily on the first deferred action.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace rmcrt::comm {

/// What the injector decided to do with one message.
enum class FaultAction { Deliver, Drop, Delay, Duplicate, Reorder };

/// Per-link fault probabilities. Evaluated in the order drop, delay,
/// duplicate, reorder from a single uniform draw, so the sum must be <= 1.
struct FaultProbabilities {
  double drop = 0.0;
  double delay = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double delayMinMs = 0.2;  ///< uniform delay window for Delay faults
  double delayMaxMs = 2.0;
};

/// A scripted fault: applies to the \p nth message (1-based) matching
/// (src, dst, tag) — and, when \p permanent, to every later match too.
/// Wildcards: src/dst = kAnySource, tag = kAnyTag (see message.h).
struct ScriptedFault {
  int src = -1;  // kAnySource
  int dst = -1;  // kAnySource
  std::int64_t tag = -1;  // kAnyTag
  std::uint64_t nth = 1;
  FaultAction action = FaultAction::Drop;
  bool permanent = false;
};

/// Counters of injector activity.
struct FaultInjectorStats {
  std::uint64_t examined = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
};

class FaultInjector {
 public:
  /// One decision handed back to the communicator.
  struct Plan {
    FaultAction action = FaultAction::Deliver;
    double delayMs = 0.0;
  };

  explicit FaultInjector(std::uint64_t seed = 0x9e3779b97f4a7c15ull);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Probabilities applied to every link; each (src,dst) link draws from
  /// its own RNG stream.
  void setDefaultProbabilities(const FaultProbabilities& p);
  /// Register a scripted fault (matched before the probabilistic draw).
  void script(const ScriptedFault& f);

  /// Simulate whole-rank death: every message to or from \p rank is
  /// dropped from now on (counted as drops). The rank's own threads keep
  /// running until the harness unwinds them; the cluster-visible effect —
  /// total silence on every link touching the rank — is what matters for
  /// recovery testing.
  void killRank(int rank);
  bool isKilled(int rank) const;
  std::vector<int> killedRanks() const;

  /// Serialize the deterministic decision state — per-link RNG engines and
  /// draw counts, scripted-fault match counters, and the killed set — as an
  /// opaque text blob. Restoring it into an injector configured with the
  /// same seed/probabilities/scripts reproduces the exact fault sequence, a
  /// prerequisite for deterministic replay of a faulty window. Transient
  /// timer state (in-flight deferred deliveries) is intentionally excluded:
  /// snapshots are taken at quiescent step boundaries.
  std::string saveState() const;
  /// Restore state written by saveState(). Returns false (leaving the
  /// injector untouched) on a malformed or version-mismatched blob.
  bool restoreState(const std::string& blob);

  /// Decide the fate of one message. Called by Communicator::isend.
  Plan plan(int src, int dst, std::int64_t tag);

  /// Run \p fn after \p delayMs on the injector's timer thread (used for
  /// delayed delivery and for flushing held reordered messages).
  void deferMs(double delayMs, std::function<void()> fn);

  /// Discard every queued deferred action and wait for any in-flight one
  /// to finish. A Communicator calls this before it dies so no deferred
  /// delivery can touch a destroyed mailbox.
  void cancelPendingAndWait();

  FaultInjectorStats stats() const;

  /// How long reordered messages are held before a timed flush if no
  /// subsequent message overtakes them.
  double reorderHoldMs() const { return m_reorderHoldMs; }
  void setReorderHoldMs(double ms) { m_reorderHoldMs = ms; }

 private:
  struct LinkState {
    std::mt19937_64 rng;
    bool seeded = false;
    std::uint64_t count = 0;
  };
  struct ScriptState {
    ScriptedFault fault;
    std::uint64_t matches = 0;
  };
  struct Deferred {
    std::chrono::steady_clock::time_point due;
    std::uint64_t order;  // FIFO among equal deadlines
    std::function<void()> fn;
    bool operator>(const Deferred& o) const {
      return due != o.due ? due > o.due : order > o.order;
    }
  };

  void timerLoop();
  void ensureTimerThreadLocked();

  const std::uint64_t m_seed;
  double m_reorderHoldMs = 3.0;

  mutable std::mutex m_mutex;  // guards link/script state + config
  FaultProbabilities m_default;
  std::map<std::pair<int, int>, LinkState> m_links;
  std::vector<ScriptState> m_scripts;
  std::set<int> m_killed;

  std::mutex m_timerMutex;
  std::condition_variable m_timerCv;
  std::condition_variable m_timerIdleCv;
  std::priority_queue<Deferred, std::vector<Deferred>, std::greater<>>
      m_deferred;
  std::uint64_t m_deferredOrder = 0;
  bool m_timerStop = false;
  bool m_timerRunning = false;  ///< a deferred fn is executing right now
  std::thread m_timerThread;

  std::atomic<std::uint64_t> m_examined{0};
  std::atomic<std::uint64_t> m_dropped{0};
  std::atomic<std::uint64_t> m_delayed{0};
  std::atomic<std::uint64_t> m_duplicated{0};
  std::atomic<std::uint64_t> m_reordered{0};
};

}  // namespace rmcrt::comm
