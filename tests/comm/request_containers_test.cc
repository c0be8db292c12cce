/// Tests of the two request-container designs from paper Section IV-A:
/// the legacy mutex-protected vector (with its buffer-leak race) and the
/// wait-free pool replacement (Algorithm 1). The harness drives both
/// through the same simulated-MPI workload so the behavioural contrast is
/// direct: the pool never double-processes, the racy legacy mode leaks.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "comm/comm_node.h"
#include "comm/communicator.h"
#include "comm/locked_queue.h"
#include "comm/request_pool.h"

namespace rmcrt::comm {
namespace {

/// Posts \p nMessages receives on rank 1, each with a completion callback
/// that simulates the legacy processing pattern: allocate a staging buffer
/// (ledger.allocated), process, release (ledger.released). Double
/// processing allocates twice but releases once — the paper's leak.
template <typename Container>
void runWorkload(Container& container, int nMessages, int nPollThreads,
                 BufferLedger& ledger) {
  Communicator world(2);
  std::vector<std::unique_ptr<double[]>> buffers;
  buffers.reserve(static_cast<std::size_t>(nMessages));
  // Per-message once-guard modeling the real deallocation: every thread
  // that believes it is processing the message allocates a staging buffer,
  // but the deallocating callback can only run once per message — exactly
  // the paper's leak structure.
  auto releasedOnce =
      std::make_shared<std::vector<std::atomic<bool>>>(nMessages);

  for (int i = 0; i < nMessages; ++i) {
    buffers.push_back(std::make_unique<double[]>(8));
    Request r = world.irecv(1, 0, i, buffers.back().get(), 8 * sizeof(double));
    container.add(CommNode(std::move(r), [&ledger, releasedOnce,
                                          i](const Request&) {
      ledger.allocated.fetch_add(1, std::memory_order_relaxed);
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

TEST(WaitFreeRequestPool, CompletesAllMessagesExactlyOnce) {
  WaitFreeRequestPool pool;
  BufferLedger ledger;
  std::atomic<int> callbackRuns{0};

  Communicator world(2);
  std::vector<std::unique_ptr<int[]>> bufs;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    bufs.push_back(std::make_unique<int[]>(1));
    Request r = world.irecv(1, 0, i, bufs.back().get(), sizeof(int));
    pool.add(CommNode(std::move(r),
                      [&callbackRuns](const Request&) { callbackRuns++; }));
  }
  for (int i = 0; i < n; ++i) world.isend(0, 1, i, &i, sizeof i);

  std::vector<std::thread> pollers;
  for (int t = 0; t < 8; ++t) {
    pollers.emplace_back([&pool] {
      while (pool.pending() > 0) pool.processReady();
    });
  }
  for (auto& t : pollers) t.join();
  EXPECT_EQ(callbackRuns.load(), n);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(WaitFreeRequestPool, NoLeakUnderHeavyContention) {
  WaitFreeRequestPool pool;
  BufferLedger ledger;
  runWorkload(pool, 4000, 8, ledger);
  EXPECT_EQ(ledger.leaked(), 0);
  EXPECT_EQ(ledger.allocated.load(), 4000);
}

TEST(LockedRequestQueue, SerializedModeIsCorrect) {
  LockedRequestQueue q(LockedRequestQueue::Mode::Serialized);
  BufferLedger ledger;
  runWorkload(q, 4000, 8, ledger);
  EXPECT_EQ(ledger.leaked(), 0);
  EXPECT_EQ(ledger.allocated.load(), 4000);
}

// Reproduces the paper's race: "multiple threads simultaneously processing
// the same received message, with all threads allocating a buffer for the
// same MPI message, and only one thread actually ... invoking the callback
// to deallocate its buffer." In our ledger model a double-process shows up
// as allocated > nMessages. The race is probabilistic; we try several
// rounds and accept the first reproduction. If the scheduler never
// interleaves unluckily (possible on a 1-core box), we skip rather than
// fail — the property under test is "the race EXISTS", demonstrated when
// any round leaks.
TEST(LockedRequestQueue, RacyModeDoubleProcessesUnderContention) {
  std::int64_t extra = 0;
  for (int round = 0; round < 20 && extra == 0; ++round) {
    LockedRequestQueue q(LockedRequestQueue::Mode::Racy);
    BufferLedger ledger;
    runWorkload(q, 3000, 8, ledger);
    extra = ledger.allocated.load() - 3000;
  }
  if (extra == 0 && std::thread::hardware_concurrency() < 2)
    GTEST_SKIP() << "single hardware thread: race cannot interleave";
  EXPECT_GT(extra, 0) << "legacy racy mode did not double-process; the "
                         "defect should reproduce under contention";
}

TEST(LockedRequestQueue, PendingCountsUnprocessed) {
  LockedRequestQueue q;
  Communicator world(2);
  int out = 0;
  Request r = world.irecv(1, 0, 0, &out, sizeof out);
  q.add(CommNode(std::move(r), nullptr));
  EXPECT_EQ(q.pending(), 1u);
  const int v = 3;
  world.isend(0, 1, 0, &v, sizeof v);
  q.processReady();
  EXPECT_EQ(q.pending(), 0u);
}

TEST(RequestContainers, BothDrainInterleavedSendRecv) {
  // Same traffic through both containers, single-threaded: identical
  // completion counts.
  for (int variant = 0; variant < 2; ++variant) {
    Communicator world(2);
    std::atomic<int> done{0};
    WaitFreeRequestPool pool;
    LockedRequestQueue queue(LockedRequestQueue::Mode::Serialized);
    std::vector<std::unique_ptr<int[]>> bufs;
    for (int i = 0; i < 100; ++i) {
      bufs.push_back(std::make_unique<int[]>(1));
      Request r = world.irecv(1, 0, i, bufs.back().get(), sizeof(int));
      CommNode node(std::move(r), [&done](const Request&) { done++; });
      if (variant == 0)
        pool.add(std::move(node));
      else
        queue.add(std::move(node));
      world.isend(0, 1, i, &i, sizeof i);
      if (variant == 0)
        pool.processReady();
      else
        queue.processReady();
    }
    EXPECT_EQ(done.load(), 100) << "variant " << variant;
  }
}

}  // namespace
}  // namespace rmcrt::comm
