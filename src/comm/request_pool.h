#pragma once

/// \file request_pool.h
/// Drop-in replacement for LockedRequestQueue built on the wait-free pool
/// — the direct transliteration of the paper's Algorithm 1:
///
///   RecvCommList& recv_list = m_recv_lists[id];
///   auto ready_request = [](CommNode const& n) -> bool { return n.test(); };
///   iterator = recv_list.find_any(ready_request);
///   if (iterator) {
///     iterator->finishCommunication(...);
///     recv_list.erase(iterator);
///   }
///
/// Both containers satisfy the same informal concept (add / processReady /
/// pending), so the Figure-1 benchmark and the scaling-model calibration
/// are templated over the container choice. The scheduler uses this one.

#include <cstddef>

#include "comm/comm_node.h"
#include "comm/waitfree_pool.h"

namespace rmcrt::comm {

/// Wait-free request container (the paper's "after").
class WaitFreeRequestPool {
 public:
  using RecvCommList = WaitFreePool<CommNode>;

  /// Add an outstanding record. Wait-free.
  void add(CommNode node) { m_list.emplace(std::move(node)); }

  /// Complete at most every currently-ready request, one exclusive claim
  /// at a time (Algorithm 1 applied until no ready request remains).
  /// Returns the number completed by this call.
  int processReady() {
    int completed = 0;
    for (;;) {
      auto ready_request = [](CommNode const& n) -> bool { return n.test(); };
      auto it = m_list.find_any(ready_request);
      if (!it) break;
      it->finishCommunication();
      m_list.erase(it);
      ++completed;
    }
    return completed;
  }

  std::size_t pending() const { return m_list.size(); }

 private:
  RecvCommList m_list;
};

}  // namespace rmcrt::comm
