/// Tests of the deterministic fault injector: seeded per-link
/// reproducibility, scripted one-shot faults, each fault action's observable
/// effect on the communicator, and — the regression the containers need —
/// that the three request-container designs keep (or, for the racy legacy
/// mode, fail to keep) their guarantees when messages duplicate, delay, and
/// reorder underneath them.

#include "comm/fault_injector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

using namespace std::chrono_literals;

/// Poll until \p pred holds or \p timeout elapses.
template <typename Pred>
bool waitFor(Pred pred, std::chrono::milliseconds timeout = 2000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(FaultInjector, SameSeedSamePerLinkDecisions) {
  FaultProbabilities p;
  p.drop = 0.2;
  p.delay = 0.2;
  p.duplicate = 0.2;
  p.reorder = 0.2;

  auto runSequence = [&](bool interleaveOtherLink) {
    FaultInjector inj(/*seed=*/42);
    inj.setDefaultProbabilities(p);
    std::vector<FaultAction> actions;
    for (int i = 0; i < 200; ++i) {
      // Traffic on an unrelated link must not perturb link (0,1)'s stream.
      if (interleaveOtherLink) inj.plan(2, 3, i);
      actions.push_back(inj.plan(0, 1, i).action);
    }
    return actions;
  };

  const auto a = runSequence(false);
  const auto b = runSequence(true);
  EXPECT_EQ(a, b);
  // Sanity: the stream actually exercises several actions.
  int faults = 0;
  for (FaultAction act : a)
    if (act != FaultAction::Deliver) ++faults;
  EXPECT_GT(faults, 20);
}

TEST(FaultInjector, CertainDropNeverDelivers) {
  Communicator world(2);
  auto inj = std::make_shared<FaultInjector>();
  FaultProbabilities p;
  p.drop = 1.0;
  inj->setDefaultProbabilities(p);
  world.setFaultInjector(inj);

  int out = 0;
  Request r = world.irecv(1, 0, 7, &out, sizeof out);
  const int v = 99;
  for (int i = 0; i < 10; ++i) world.isend(0, 1, 7, &v, sizeof v);
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(r.test());
  EXPECT_EQ(world.stats().dropsInjected, 10u);
}

TEST(FaultInjector, ScriptedNthDropSkipsExactlyOneMessage) {
  Communicator world(2);
  auto inj = std::make_shared<FaultInjector>();
  inj->script(ScriptedFault{/*src=*/0, /*dst=*/1, /*tag=*/7, /*nth=*/3,
                            FaultAction::Drop, /*permanent=*/false});
  world.setFaultInjector(inj);

  std::vector<int> out(4, -1);
  std::vector<Request> recvs;
  for (int i = 0; i < 4; ++i)
    recvs.push_back(world.irecv(1, 0, 7, &out[i], sizeof(int)));
  for (int v = 1; v <= 5; ++v) world.isend(0, 1, 7, &v, sizeof v);

  ASSERT_TRUE(waitFor([&] {
    for (const auto& r : recvs)
      if (!r.test()) return false;
    return true;
  }));
  // The 3rd send vanished; in-order matching hands recvs 1, 2, 4, 5.
  EXPECT_EQ(out, (std::vector<int>{1, 2, 4, 5}));
  EXPECT_EQ(world.stats().dropsInjected, 1u);
}

TEST(FaultInjector, ScriptedDuplicateArrivesTwice) {
  Communicator world(2);
  auto inj = std::make_shared<FaultInjector>();
  inj->script(ScriptedFault{0, 1, kAnyTag, 1, FaultAction::Duplicate, false});
  world.setFaultInjector(inj);

  int a = 0, b = 0;
  Request r1 = world.irecv(1, 0, 5, &a, sizeof a);
  Request r2 = world.irecv(1, 0, 5, &b, sizeof b);
  const int v = 31;
  world.isend(0, 1, 5, &v, sizeof v);
  ASSERT_TRUE(waitFor([&] { return r1.test() && r2.test(); }));
  EXPECT_EQ(a, 31);
  EXPECT_EQ(b, 31);
  EXPECT_EQ(world.stats().duplicatesInjected, 1u);
}

TEST(FaultInjector, ScriptedDelayDefersDelivery) {
  Communicator world(2);
  auto inj = std::make_shared<FaultInjector>();
  FaultProbabilities p;  // window for the scripted delay to draw from
  p.delayMinMs = 50.0;
  p.delayMaxMs = 50.0;
  inj->setDefaultProbabilities(p);
  inj->script(ScriptedFault{0, 1, kAnyTag, 1, FaultAction::Delay, false});
  world.setFaultInjector(inj);

  int out = 0;
  Request r = world.irecv(1, 0, 1, &out, sizeof out);
  const int v = 8;
  world.isend(0, 1, 1, &v, sizeof v);
  EXPECT_FALSE(r.test());  // 50 ms out; cannot have landed yet
  ASSERT_TRUE(waitFor([&] { return r.test(); }));
  EXPECT_EQ(out, 8);
  EXPECT_EQ(world.stats().delaysInjected, 1u);
}

TEST(FaultInjector, ScriptedReorderSwapsAdjacentMessages) {
  Communicator world(2);
  auto inj = std::make_shared<FaultInjector>();
  // Long hold so the flush-by-timer path cannot win the race against the
  // second send on a loaded machine: the successor must do the flushing.
  inj->setReorderHoldMs(500.0);
  inj->script(ScriptedFault{0, 1, kAnyTag, 1, FaultAction::Reorder, false});
  world.setFaultInjector(inj);

  int a = 0, b = 0;
  Request r1 = world.irecv(1, 0, kAnyTag, &a, sizeof a);
  Request r2 = world.irecv(1, 0, kAnyTag, &b, sizeof b);
  const int first = 1, second = 2;
  world.isend(0, 1, 10, &first, sizeof first);   // held back
  world.isend(0, 1, 11, &second, sizeof second);  // overtakes, flushes
  ASSERT_TRUE(waitFor([&] { return r1.test() && r2.test(); }));
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(world.stats().reordersInjected, 1u);
}

TEST(FaultInjector, HeldReorderFlushesByTimerWithoutSuccessor) {
  Communicator world(2);
  auto inj = std::make_shared<FaultInjector>();
  inj->setReorderHoldMs(5.0);
  inj->script(ScriptedFault{0, 1, kAnyTag, 1, FaultAction::Reorder, false});
  world.setFaultInjector(inj);

  int out = 0;
  Request r = world.irecv(1, 0, kAnyTag, &out, sizeof out);
  const int v = 77;
  world.isend(0, 1, 0, &v, sizeof v);  // held; nothing ever overtakes it
  ASSERT_TRUE(waitFor([&] { return r.test(); }));
  EXPECT_EQ(out, 77);
}

/// ---- request containers under an unreliable transport (satellite) ------
///
/// Same workload as request_containers_test.cc (container_workload.h), but
/// the transport duplicates, delays, and reorders (never drops: the
/// workload awaits full delivery). Duplicates land in the unexpected queue
/// after the posted recv completes, so every request still completes
/// exactly once — the containers' exactly-once processing is what is under
/// test here.
std::shared_ptr<FaultInjector> unreliableTransport(std::uint64_t seed) {
  auto inj = std::make_shared<FaultInjector>(seed);
  FaultProbabilities p;
  p.delay = 0.10;
  p.duplicate = 0.10;
  p.reorder = 0.05;
  p.delayMinMs = 0.05;
  p.delayMaxMs = 0.5;
  inj->setDefaultProbabilities(p);
  inj->setReorderHoldMs(0.5);
  return inj;
}

TEST(FaultyTransportContainers, WaitFreePoolNoLeak) {
  WaitFreeRequestPool pool;
  BufferLedger ledger;
  runContainerWorkload(pool, 3000, 8, ledger,
                       unreliableTransport(/*seed=*/7));
  EXPECT_EQ(ledger.leaked(), 0);
  EXPECT_EQ(ledger.allocated.load(), 3000);
}

TEST(FaultyTransportContainers, LockedSerializedNoLeak) {
  LockedRequestQueue q(LockedRequestQueue::Mode::Serialized);
  BufferLedger ledger;
  runContainerWorkload(q, 3000, 8, ledger, unreliableTransport(/*seed=*/7));
  EXPECT_EQ(ledger.leaked(), 0);
  EXPECT_EQ(ledger.allocated.load(), 3000);
}

// The legacy racy container still double-processes when the transport
// misbehaves — fault injection does not mask the paper's race. Same
// protocol as the fault-free regression: the workload holds record 0's
// window open, so the first round reproduces; later rounds only cover a
// poller that was not scheduled within the hold.
TEST(FaultyTransportContainers, LockedRacyStillLeaks) {
  std::int64_t extra = 0;
  for (int round = 0; round < 20 && extra == 0; ++round) {
    LockedRequestQueue q(LockedRequestQueue::Mode::Racy);
    BufferLedger ledger;
    runContainerWorkload(
        q, 2000, 8, ledger,
        unreliableTransport(100 + static_cast<std::uint64_t>(round)));
    extra = ledger.allocated.load() - 2000;
  }
  EXPECT_GT(extra, 0) << "legacy racy mode did not double-process under "
                         "an unreliable transport";
}

}  // namespace
}  // namespace rmcrt::comm
