#pragma once

/// \file container_workload.h
/// The simulated-MPI workload both request-container suites drive
/// (request_containers_test.cc over a clean transport,
/// fault_injection_test.cc through a FaultInjector), so the contrast
/// between the designs is measured on literally the same traffic.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "comm/comm_node.h"
#include "comm/communicator.h"
#include "comm/fault_injector.h"

namespace rmcrt::comm {

/// How long record 0's first completion waits for a second thread.
inline constexpr std::chrono::milliseconds kRecordZeroHold{100};

/// Posts \p nMessages receives on rank 1, each with a completion callback
/// that simulates the legacy processing pattern: allocate a staging buffer
/// (ledger.allocated), unpack, release (ledger.released). Double
/// processing allocates twice but releases once — the paper's leak.
///
/// Record 0 holds its completion window open: the first thread to run its
/// action waits (up to kRecordZeroHold) for a second thread to enter it,
/// and the pollers start only once record 0 is ready, so every poller's
/// first scan reaches it while the window is open. A container that lets
/// two threads into one record therefore double-processes on every run,
/// not only when the scheduler happens to interleave two scans; an
/// exactly-once container keeps the others out and the wait times out.
///
/// With \p injector attached the transport may duplicate, delay and
/// reorder (it must never drop: the pollers await full delivery).
template <typename Container>
void runContainerWorkload(Container& container, int nMessages,
                          int nPollThreads, BufferLedger& ledger,
                          std::shared_ptr<FaultInjector> injector = nullptr) {
  Communicator world(2);
  if (injector) world.setFaultInjector(std::move(injector));
  std::vector<std::unique_ptr<double[]>> buffers;
  buffers.reserve(static_cast<std::size_t>(nMessages));
  // Per-message once-guard modeling the real deallocation: every thread
  // that believes it is processing the message allocates a staging buffer,
  // but the deallocating callback can only run once per message — exactly
  // the paper's leak structure.
  auto releasedOnce =
      std::make_shared<std::vector<std::atomic<bool>>>(nMessages);
  auto recordZeroEntrants = std::make_shared<std::atomic<int>>(0);

  Request recordZero;
  for (int i = 0; i < nMessages; ++i) {
    buffers.push_back(std::make_unique<double[]>(8));
    Request r = world.irecv(1, 0, i, buffers.back().get(), 8 * sizeof(double));
    if (i == 0) recordZero = r;
    container.add(CommNode(std::move(r), [&ledger, releasedOnce,
                                          recordZeroEntrants,
                                          i](const Request&) {
      ledger.allocated.fetch_add(1, std::memory_order_relaxed);
      if (i == 0 && recordZeroEntrants->fetch_add(1) == 0) {
        const auto until = std::chrono::steady_clock::now() + kRecordZeroHold;
        while (recordZeroEntrants->load() < 2 &&
               std::chrono::steady_clock::now() < until)
          std::this_thread::yield();
      }
      // Emulate unpack work so the race window is realistically wide.
      volatile double sink = 0;
      for (int k = 0; k < 50; ++k) sink = sink + k;
      if (!(*releasedOnce)[static_cast<std::size_t>(i)].exchange(true))
        ledger.released.fetch_add(1, std::memory_order_relaxed);
    }));
  }

  std::atomic<bool> sendsDone{false};
  std::thread sender([&] {
    double payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < nMessages; ++i)
      world.isend(0, 1, i, payload, sizeof payload);
    sendsDone.store(true);
  });

  while (!recordZero.test()) std::this_thread::yield();
  std::vector<std::thread> pollers;
  for (int t = 0; t < nPollThreads; ++t) {
    pollers.emplace_back([&] {
      while (!sendsDone.load() || container.pending() > 0)
        container.processReady();
    });
  }
  sender.join();
  for (auto& t : pollers) t.join();
}

}  // namespace rmcrt::comm
