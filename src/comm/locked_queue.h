#pragma once

/// \file locked_queue.h
/// The *legacy* Uintah design this paper replaced (Section IV-A): a
/// mutex/rwlock-protected vector of communication records processed with
/// MPI_Testsome()-style batch scans. Two modes are provided:
///
///  * Mode::Racy — faithful to the original bug: the ready-scan runs under
///    a shared (read) lock, so multiple threads can observe the same
///    request as ready and each "process" it, double-running completion
///    and leaking all but one staging buffer. The race is probabilistic;
///    tests hold one record's completion open until a second thread
///    enters it, so every run shows the leak in a BufferLedger.
///  * Mode::Serialized — the "more coarse-grained critical section [that]
///    was not feasible [because] it would have serialized a substantial
///    portion of the algorithm": the whole scan-and-process runs under an
///    exclusive lock. Correct, but every thread contends on one mutex —
///    this is the "before" series in Figure 1 / Table I.

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "comm/comm_node.h"

namespace rmcrt::comm {

/// Legacy mutex-protected request container (the paper's "before").
class LockedRequestQueue {
 public:
  enum class Mode {
    Racy,        ///< shared-lock scan; reproduces the leak race
    Serialized,  ///< exclusive-lock scan; correct but contended
  };

  explicit LockedRequestQueue(Mode mode = Mode::Serialized) : m_mode(mode) {}

  /// Add an outstanding record.
  void add(CommNode node) {
    std::unique_lock<std::shared_mutex> lk(m_lock);
    m_nodes.push_back(
        std::make_unique<Entry>(Entry{std::move(node), false}));
  }

  /// Test all outstanding requests (the Testsome pattern), running the
  /// completion action for each ready one, then compacting the vector.
  /// Returns the number of requests this call completed.
  ///
  /// In Racy mode this deliberately mirrors the original defect: the scan
  /// and completion run under a *shared* lock with a non-atomic
  /// "processed" flag, so two threads can both process the same entry.
  int processReady() {
    int completed = 0;
    if (m_mode == Mode::Racy) {
      {
        std::shared_lock<std::shared_mutex> lk(m_lock);
        for (auto& e : m_nodes) {
          if (e && !e->processed && e->node.test()) {
            // RACE WINDOW: another thread can pass the same check before
            // either sets `processed`. Both then run finishCommunication.
            e->node.finishCommunication();
            e->processed = true;
            ++completed;
          }
        }
      }
      compact();
    } else {
      std::unique_lock<std::shared_mutex> lk(m_lock);
      for (auto& e : m_nodes) {
        if (e && !e->processed && e->node.test()) {
          e->node.finishCommunication();
          e->processed = true;
          ++completed;
        }
      }
      compactLocked();
    }
    return completed;
  }

  /// Outstanding (unprocessed) records.
  std::size_t pending() const {
    std::shared_lock<std::shared_mutex> lk(m_lock);
    std::size_t n = 0;
    for (const auto& e : m_nodes)
      if (e && !e->processed) ++n;
    return n;
  }

 private:
  struct Entry {
    CommNode node;
    bool processed;  // non-atomic on purpose in Racy mode (legacy bug)
  };

  void compact() {
    std::unique_lock<std::shared_mutex> lk(m_lock);
    compactLocked();
  }
  void compactLocked() {
    std::vector<std::unique_ptr<Entry>> keep;
    keep.reserve(m_nodes.size());
    for (auto& e : m_nodes)
      if (e && !e->processed) keep.push_back(std::move(e));
    m_nodes.swap(keep);
  }

  Mode m_mode;
  mutable std::shared_mutex m_lock;
  std::vector<std::unique_ptr<Entry>> m_nodes;
};

}  // namespace rmcrt::comm
