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
#include "container_workload.h"

namespace rmcrt::comm {
namespace {

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
  runContainerWorkload(pool, 4000, 8, ledger);
  EXPECT_EQ(ledger.leaked(), 0);
  EXPECT_EQ(ledger.allocated.load(), 4000);
}

TEST(LockedRequestQueue, SerializedModeIsCorrect) {
  LockedRequestQueue q(LockedRequestQueue::Mode::Serialized);
  BufferLedger ledger;
  runContainerWorkload(q, 4000, 8, ledger);
  EXPECT_EQ(ledger.leaked(), 0);
  EXPECT_EQ(ledger.allocated.load(), 4000);
}

// Reproduces the paper's race: "multiple threads simultaneously processing
// the same received message, with all threads allocating a buffer for the
// same MPI message, and only one thread actually ... invoking the callback
// to deallocate its buffer." In our ledger model a double-process shows up
// as allocated > nMessages. The workload holds record 0's completion
// window open until a second poller enters it, so the first round
// reproduces on any host, one hardware thread included (the holder
// yields); later rounds only cover a poller that was not scheduled within
// the hold. The property under test is "the race EXISTS".
TEST(LockedRequestQueue, RacyModeDoubleProcessesUnderContention) {
  std::int64_t extra = 0;
  for (int round = 0; round < 20 && extra == 0; ++round) {
    LockedRequestQueue q(LockedRequestQueue::Mode::Racy);
    BufferLedger ledger;
    runContainerWorkload(q, 3000, 8, ledger);
    extra = ledger.allocated.load() - 3000;
  }
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
