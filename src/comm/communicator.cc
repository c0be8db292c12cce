#include "comm/communicator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "comm/fault_injector.h"
#include "util/backoff.h"

namespace rmcrt::comm {

Communicator::Communicator(int size) : m_size(size) {
  if (size <= 0)
    throw std::invalid_argument("Communicator: size must be positive, got " +
                                std::to_string(size));
  m_boxes.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i)
    m_boxes.push_back(std::make_unique<Mailbox>());
  m_collEntries.assign(static_cast<std::size_t>(size), 0);
}

std::string Communicator::collectiveTimeoutReasonLocked(int rank) const {
  std::ostringstream os;
  os << "rank " << rank << " timed out after " << m_collTimeoutSeconds
     << "s in a collective; waiting for ranks [";
  const std::uint64_t mine = m_collEntries[static_cast<std::size_t>(rank)];
  bool first = true;
  for (int r = 0; r < m_size; ++r) {
    if (m_collEntries[static_cast<std::size_t>(r)] >= mine) continue;
    os << (first ? " " : ", ") << r;
    first = false;
  }
  os << " ] (suspected dead or severely delayed)";
  return os.str();
}

template <typename Pred>
void Communicator::collectiveWaitLocked(std::unique_lock<std::mutex>& lk,
                                        int rank, Pred&& pred) {
  if (m_collTimeoutSeconds <= 0.0) {
    m_collCv.wait(lk, std::forward<Pred>(pred));
    return;
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(m_collTimeoutSeconds));
  if (!m_collCv.wait_until(lk, deadline, std::forward<Pred>(pred))) {
    // Abort inline: we already hold m_collMutex, so calling abort() here
    // would deadlock. The caller's epoch check turns this into CommAborted.
    if (m_abortReason.empty())
      m_abortReason = collectiveTimeoutReasonLocked(rank);
    m_aborted.store(true, std::memory_order_release);
    m_collCv.notify_all();
  }
}

Communicator::~Communicator() {
  // No deferred delivery may outlive the mailboxes it writes into.
  if (m_injector) m_injector->cancelPendingAndWait();
}

void Communicator::setFaultInjector(std::shared_ptr<FaultInjector> injector) {
  if (m_injector && !injector) m_injector->cancelPendingAndWait();
  m_injector = std::move(injector);
}

void Communicator::deliver(const Message& msg, RequestState& st) {
  const std::size_t n = std::min(msg.bytes(), st.recvCapacity);
  if (n > 0) std::memcpy(st.recvBuf, msg.payload->data(), n);
  st.actualSource = msg.src;
  st.actualTag = msg.tag;
  st.actualBytes = n;
  st.complete.store(true, std::memory_order_release);
}

Request Communicator::isend(int src, int dst, std::int64_t tag,
                            const void* data, std::size_t bytes) {
  assert(dst >= 0 && dst < m_size);
  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.tag = tag;
  msg.payload = makePayload(data, bytes);

  m_messagesSent.fetch_add(1, std::memory_order_relaxed);
  m_bytesSent.fetch_add(bytes, std::memory_order_relaxed);

  auto st = std::make_shared<RequestState>();
  st->complete.store(true, std::memory_order_release);  // buffered send

  if (m_injector)
    routeThroughInjector(std::move(msg));
  else
    deliverNow(std::move(msg));
  return Request(std::move(st));
}

void Communicator::deliverNow(Message msg) {
  Mailbox& box = *m_boxes[static_cast<std::size_t>(msg.dst)];
  std::shared_ptr<RequestState> target;
  {
    std::lock_guard<std::mutex> lk(box.mutex);
    for (auto it = box.posted.begin(); it != box.posted.end(); ++it) {
      if (matches(*it->state, msg)) {
        target = it->state;
        box.posted.erase(it);
        break;
      }
    }
    if (!target) {
      box.unexpected.push_back(std::move(msg));
      m_unexpected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // Deliver outside the mailbox lock: the state is exclusively ours now
  // (it was removed from the posted queue while the lock was held).
  deliver(msg, *target);
}

void Communicator::routeThroughInjector(Message msg) {
  const FaultInjector::Plan plan =
      m_injector->plan(msg.src, msg.dst, msg.tag);
  const int src = msg.src, dst = msg.dst;
  switch (plan.action) {
    case FaultAction::Drop:
      return;
    case FaultAction::Delay: {
      m_injector->deferMs(plan.delayMs, [this, m = std::move(msg)]() mutable {
        deliverNow(std::move(m));
      });
      return;
    }
    case FaultAction::Duplicate: {
      Message copy = msg;  // shares the payload; deliver never mutates it
      deliverNow(std::move(msg));
      deliverNow(std::move(copy));
      flushReorderSlot(src, dst);
      return;
    }
    case FaultAction::Reorder: {
      {
        std::lock_guard<std::mutex> lk(m_reorderMutex);
        auto [it, inserted] =
            m_reorderHeld.try_emplace(std::make_pair(src, dst));
        if (!inserted) {
          // Slot occupied: release the older hostage first, hold this one.
          Message prev = std::move(it->second);
          it->second = std::move(msg);
          deliverNow(std::move(prev));
        } else {
          it->second = std::move(msg);
        }
      }
      // Bound the holding time in case no later message overtakes it.
      m_injector->deferMs(m_injector->reorderHoldMs(),
                          [this, src, dst] { flushReorderSlot(src, dst); });
      return;
    }
    case FaultAction::Deliver:
      deliverNow(std::move(msg));
      flushReorderSlot(src, dst);
      return;
  }
}

void Communicator::flushReorderSlot(int src, int dst) {
  Message held;
  bool have = false;
  {
    std::lock_guard<std::mutex> lk(m_reorderMutex);
    auto it = m_reorderHeld.find({src, dst});
    if (it != m_reorderHeld.end()) {
      held = std::move(it->second);
      m_reorderHeld.erase(it);
      have = true;
    }
  }
  if (have) deliverNow(std::move(held));
}

Request Communicator::irecv(int rank, int src, std::int64_t tag, void* buf,
                            std::size_t capacity) {
  assert(rank >= 0 && rank < m_size);
  auto st = std::make_shared<RequestState>();
  st->recvBuf = buf;
  st->recvCapacity = capacity;
  st->wantSrc = src;
  st->wantTag = tag;

  m_recvsPosted.fetch_add(1, std::memory_order_relaxed);

  Mailbox& box = *m_boxes[static_cast<std::size_t>(rank)];
  Message matched;
  bool found = false;
  {
    std::lock_guard<std::mutex> lk(box.mutex);
    for (auto it = box.unexpected.begin(); it != box.unexpected.end(); ++it) {
      if ((src == kAnySource || src == it->src) &&
          (tag == kAnyTag || tag == it->tag)) {
        matched = std::move(*it);
        box.unexpected.erase(it);
        found = true;
        break;
      }
    }
    if (!found) {
      box.posted.push_back(PostedRecv{st});
      return Request(std::move(st));
    }
  }
  deliver(matched, *st);
  return Request(std::move(st));
}

bool Communicator::cancelRecv(int rank, const Request& r) {
  assert(rank >= 0 && rank < m_size);
  if (!r.valid()) return false;
  Mailbox& box = *m_boxes[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lk(box.mutex);
  for (auto it = box.posted.begin(); it != box.posted.end(); ++it) {
    if (it->state.get() == r.state()) {
      box.posted.erase(it);
      return true;
    }
  }
  return false;
}

void Communicator::recv(int rank, int src, std::int64_t tag, void* buf,
                        std::size_t capacity) {
  Request r = irecv(rank, src, tag, buf, capacity);
  util::Backoff backoff;
  while (!r.test()) {
    if (aborted()) throw CommAborted(abortReason());
    backoff.pause();
  }
}

void Communicator::abort(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lk(m_collMutex);
    if (m_abortReason.empty()) m_abortReason = reason;
  }
  m_aborted.store(true, std::memory_order_release);
  m_collCv.notify_all();
}

std::string Communicator::abortReason() const {
  std::lock_guard<std::mutex> lk(m_collMutex);
  return m_abortReason.empty() ? "(no reason recorded)" : m_abortReason;
}

void Communicator::barrier(int rank) {
  std::unique_lock<std::mutex> lk(m_collMutex);
  if (aborted()) throw CommAborted(m_abortReason);
  ++m_collEntries[static_cast<std::size_t>(rank)];
  const std::uint64_t epoch = m_barrierEpoch;
  if (++m_barrierCount == m_size) {
    m_barrierCount = 0;
    ++m_barrierEpoch;
    m_collCv.notify_all();
  } else {
    collectiveWaitLocked(lk, rank,
                         [&] { return m_barrierEpoch != epoch || aborted(); });
    if (m_barrierEpoch == epoch) throw CommAborted(m_abortReason);
  }
}

double Communicator::allReduceSum(int rank, double value) {
  std::unique_lock<std::mutex> lk(m_collMutex);
  if (aborted()) throw CommAborted(m_abortReason);
  ++m_collEntries[static_cast<std::size_t>(rank)];
  const std::uint64_t epoch = m_reduceEpoch;
  if (m_reduceCount == 0) m_reduceAcc = 0.0;
  m_reduceAcc += value;
  if (++m_reduceCount == m_size) {
    m_reduceResult = m_reduceAcc;
    m_reduceCount = 0;
    ++m_reduceEpoch;
    m_collCv.notify_all();
    return m_reduceResult;
  }
  collectiveWaitLocked(lk, rank,
                       [&] { return m_reduceEpoch != epoch || aborted(); });
  if (m_reduceEpoch == epoch) throw CommAborted(m_abortReason);
  return m_reduceResult;
}

double Communicator::allReduceMax(int rank, double value) {
  std::unique_lock<std::mutex> lk(m_collMutex);
  if (aborted()) throw CommAborted(m_abortReason);
  ++m_collEntries[static_cast<std::size_t>(rank)];
  const std::uint64_t epoch = m_reduceEpoch;
  if (m_reduceCount == 0)
    m_reduceAcc = value;
  else
    m_reduceAcc = std::max(m_reduceAcc, value);
  if (++m_reduceCount == m_size) {
    m_reduceResult = m_reduceAcc;
    m_reduceCount = 0;
    ++m_reduceEpoch;
    m_collCv.notify_all();
    return m_reduceResult;
  }
  collectiveWaitLocked(lk, rank,
                       [&] { return m_reduceEpoch != epoch || aborted(); });
  if (m_reduceEpoch == epoch) throw CommAborted(m_abortReason);
  return m_reduceResult;
}

void Communicator::allGather(int rank, const void* mine, std::size_t bytes,
                             void* out) {
  std::unique_lock<std::mutex> lk(m_collMutex);
  if (aborted()) throw CommAborted(m_abortReason);
  ++m_collEntries[static_cast<std::size_t>(rank)];
  const std::uint64_t epoch = m_gatherEpoch;
  std::vector<std::byte>& buf = m_gatherBuf[epoch & 1];
  if (m_gatherCount == 0)
    buf.assign(static_cast<std::size_t>(m_size) * bytes, std::byte{0});
  std::memcpy(buf.data() + static_cast<std::size_t>(rank) * bytes, mine,
              bytes);
  if (++m_gatherCount == m_size) {
    m_gatherCount = 0;
    ++m_gatherEpoch;
    m_collCv.notify_all();
  } else {
    collectiveWaitLocked(lk, rank,
                         [&] { return m_gatherEpoch != epoch || aborted(); });
    if (m_gatherEpoch == epoch) throw CommAborted(m_abortReason);
  }
  std::memcpy(out, buf.data(), static_cast<std::size_t>(m_size) * bytes);
}

CommStats Communicator::stats() const {
  CommStats s;
  s.messagesSent = m_messagesSent.load(std::memory_order_relaxed);
  s.bytesSent = m_bytesSent.load(std::memory_order_relaxed);
  s.recvsPosted = m_recvsPosted.load(std::memory_order_relaxed);
  s.unexpectedMessages = m_unexpected.load(std::memory_order_relaxed);
  if (m_injector) {
    const FaultInjectorStats fi = m_injector->stats();
    s.dropsInjected = fi.dropped;
    s.delaysInjected = fi.delayed;
    s.duplicatesInjected = fi.duplicated;
    s.reordersInjected = fi.reordered;
  }
  return s;
}

void Communicator::resetStats() {
  m_messagesSent.store(0, std::memory_order_relaxed);
  m_bytesSent.store(0, std::memory_order_relaxed);
  m_recvsPosted.store(0, std::memory_order_relaxed);
  m_unexpected.store(0, std::memory_order_relaxed);
}

}  // namespace rmcrt::comm
