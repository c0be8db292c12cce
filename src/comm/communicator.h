#pragma once

/// \file communicator.h
/// An in-process message-passing layer with MPI semantics: nonblocking
/// point-to-point sends/receives between ranks hosted in one process, a
/// request/test completion model, and MPI_THREAD_MULTIPLE-style thread
/// safety (any thread may post or test operations for any rank).
///
/// This substitutes for real MPI per DESIGN.md §2: the paper's
/// infrastructure contribution concerns how *threads* manage asynchronous
/// request handles, and this layer exposes the identical handle/test
/// surface — including the property that a request completes
/// asynchronously with respect to the threads polling it (the sender's
/// thread completes a matched receive), which is what made the legacy
/// locked-vector design racy.
///
/// Failure modes are first-class: a FaultInjector attached via
/// setFaultInjector() can drop, delay, duplicate, or reorder any message
/// (see comm/fault_injector.h), and abort() wakes every rank blocked in a
/// collective or blocking recv with a CommAborted exception so one failed
/// rank cannot hang the job. With no injector attached the send path is
/// byte-identical to the fault-free one apart from a null-pointer check.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/message.h"

namespace rmcrt::comm {

class FaultInjector;

/// Thrown out of blocking calls (collectives, recv) on a world that has
/// been abort()ed — e.g. by a scheduler whose timestep stalled.
class CommAborted : public std::runtime_error {
 public:
  explicit CommAborted(const std::string& reason)
      : std::runtime_error("communicator aborted: " + reason) {}
};

/// Completion state shared between the poster and pollers of an operation.
struct RequestState {
  std::atomic<bool> complete{false};
  // Filled in for receives on completion:
  int actualSource = -1;
  std::int64_t actualTag = -1;
  std::size_t actualBytes = 0;
  // Receive destination (unmatched posted recv):
  void* recvBuf = nullptr;
  std::size_t recvCapacity = 0;
  int wantSrc = kAnySource;
  std::int64_t wantTag = kAnyTag;
};

/// A nonblocking-operation handle, analogous to MPI_Request. Copyable;
/// all copies observe the same completion.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<RequestState> st) : m_state(std::move(st)) {}

  bool valid() const { return m_state != nullptr; }

  /// Nonblocking completion probe (MPI_Test). True once the operation has
  /// finished; receives are then fully delivered into their buffer.
  bool test() const {
    return m_state && m_state->complete.load(std::memory_order_acquire);
  }

  /// Source rank of the matched message (receives, after completion).
  int source() const { return m_state ? m_state->actualSource : -1; }
  std::int64_t tag() const { return m_state ? m_state->actualTag : -1; }
  std::size_t bytes() const { return m_state ? m_state->actualBytes : 0; }

  RequestState* state() { return m_state.get(); }
  const RequestState* state() const { return m_state.get(); }

 private:
  std::shared_ptr<RequestState> m_state;
};

/// Snapshot of world-level traffic counters. The *Injected fields are only
/// nonzero when a FaultInjector is attached.
struct CommStats {
  std::uint64_t messagesSent = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t recvsPosted = 0;
  std::uint64_t unexpectedMessages = 0;
  std::uint64_t dropsInjected = 0;
  std::uint64_t delaysInjected = 0;
  std::uint64_t duplicatesInjected = 0;
  std::uint64_t reordersInjected = 0;
};

/// A world of \p size ranks living in one process.
///
/// Thread-safety: every method may be called from any thread for any rank
/// concurrently (the simulated MPI_THREAD_MULTIPLE). Matching takes the
/// destination rank's mailbox mutex only; completion is published via an
/// atomic, so polling (Request::test) is lock-free.
class Communicator {
 public:
  /// Throws std::invalid_argument when \p size <= 0.
  explicit Communicator(int size);
  ~Communicator();

  int size() const { return m_size; }

  /// Attach (or detach with nullptr) a fault injector. All subsequent
  /// isends — including retransmissions and acks of any reliability layer
  /// above — pass through it.
  void setFaultInjector(std::shared_ptr<FaultInjector> injector);

  /// Nonblocking send: the payload is copied immediately (buffered-send
  /// semantics), so the returned request is complete at once — like an
  /// MPI_Isend whose data fit the eager buffer, the common case for
  /// Uintah's dependency messages.
  Request isend(int src, int dst, std::int64_t tag, const void* data,
                std::size_t bytes);

  /// Nonblocking receive into [buf, buf+capacity). Matches the oldest
  /// in-flight message from \p src (or kAnySource) with \p tag (or
  /// kAnyTag). Completion is observed via Request::test().
  Request irecv(int rank, int src, std::int64_t tag, void* buf, std::size_t capacity);

  /// Withdraw a still-unmatched posted receive. Returns true when the
  /// request was found posted and removed; false when it already matched
  /// (completed or mid-delivery). After a successful cancel the receive
  /// buffer will never be written.
  bool cancelRecv(int rank, const Request& r);

  /// Blocking helpers built on the nonblocking pair.
  void send(int src, int dst, std::int64_t tag, const void* data, std::size_t bytes) {
    isend(src, dst, tag, data, bytes);
  }
  void recv(int rank, int src, std::int64_t tag, void* buf, std::size_t capacity);

  /// Dissemination barrier across all ranks; call once per rank.
  void barrier(int rank);

  /// Bound the time any rank may wait inside a collective. <= 0 (the
  /// default) waits forever — correct when every rank is known alive. With
  /// a timeout set, a rank that waits longer aborts the whole world with a
  /// diagnostic naming the ranks that never arrived: this is how survivors
  /// of a lost rank escape a barrier the dead rank can never reach (the
  /// watchdog only covers the message-passing phase, not the barrier).
  void setCollectiveTimeout(double seconds) {
    std::lock_guard<std::mutex> lk(m_collMutex);
    m_collTimeoutSeconds = seconds;
  }

  /// Mark the world dead: every rank blocked in a collective or blocking
  /// recv (now or later) throws CommAborted instead of waiting forever.
  /// Idempotent; the first reason wins.
  void abort(const std::string& reason);
  bool aborted() const { return m_aborted.load(std::memory_order_acquire); }
  std::string abortReason() const;

  CommStats stats() const;
  void resetStats();

 private:
  struct PostedRecv {
    std::shared_ptr<RequestState> state;
  };

  struct Mailbox {
    std::mutex mutex;
    std::deque<Message> unexpected;
    std::deque<PostedRecv> posted;
  };

  /// Deliver \p msg into \p pr and publish completion.
  static void deliver(const Message& msg, RequestState& st);

  static bool matches(const RequestState& st, const Message& msg) {
    return (st.wantSrc == kAnySource || st.wantSrc == msg.src) &&
           (st.wantTag == kAnyTag || st.wantTag == msg.tag);
  }

  /// Fault-free delivery: match against posted receives or park in the
  /// unexpected queue. The tail of the pre-injection isend path.
  void deliverNow(Message msg);

  /// Injection path: consult the injector and drop / defer / duplicate /
  /// reorder accordingly.
  void routeThroughInjector(Message msg);

  /// Deliver the message (if any) held back for reordering on (src,dst).
  void flushReorderSlot(int src, int dst);

  /// Wait on m_collCv under \p lk until \p pred holds, honouring the
  /// collective timeout: on expiry, abort the world in place (the caller
  /// already holds m_collMutex, so Communicator::abort would deadlock)
  /// with a reason naming the laggard ranks.
  template <typename Pred>
  void collectiveWaitLocked(std::unique_lock<std::mutex>& lk, int rank,
                            Pred&& pred);

  /// "rank R timed out ... waiting for ranks [...]" — the laggards are the
  /// ranks whose collective-entry count trails ours.
  std::string collectiveTimeoutReasonLocked(int rank) const;

  int m_size;
  std::vector<std::unique_ptr<Mailbox>> m_boxes;

  std::shared_ptr<FaultInjector> m_injector;
  std::mutex m_reorderMutex;
  std::map<std::pair<int, int>, Message> m_reorderHeld;

  std::atomic<bool> m_aborted{false};

  // Barrier state; the barrier is the only collective.
  mutable std::mutex m_collMutex;
  std::condition_variable m_collCv;
  std::string m_abortReason;
  double m_collTimeoutSeconds = 0.0;  ///< <= 0: wait forever
  /// Collective entries per rank. Every rank runs the same collective
  /// sequence, so during a stall the laggards are exactly the ranks whose
  /// count trails the waiter's — cheap dead-rank identification.
  std::vector<std::uint64_t> m_collEntries;
  int m_barrierCount = 0;
  std::uint64_t m_barrierEpoch = 0;

  std::atomic<std::uint64_t> m_messagesSent{0};
  std::atomic<std::uint64_t> m_bytesSent{0};
  std::atomic<std::uint64_t> m_recvsPosted{0};
  std::atomic<std::uint64_t> m_unexpected{0};
};

}  // namespace rmcrt::comm
