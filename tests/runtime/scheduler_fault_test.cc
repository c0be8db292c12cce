/// Resilience tests of the scheduler: a full RMCRT timestep over a lossy,
/// duplicating, delaying, reordering transport must produce bitwise the
/// same divQ as the fault-free run (recovered by the reliable channel);
/// and with recovery disabled, the watchdog must convert a permanent stall
/// into a structured TimestepStalled instead of a hang.

#include <gtest/gtest.h>

#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault_injector.h"
#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "grid/load_balancer.h"
#include "runtime/scheduler.h"

namespace rmcrt::runtime {
namespace {

using core::RmcrtComponent;
using core::RmcrtLabels;
using core::RmcrtSetup;
using grid::CCVariable;
using grid::Grid;
using grid::LoadBalancer;

double fingerprint(const IntVector& c, int level) {
  return 1000.0 * level + c.x() + 0.001 * c.y() + 0.000001 * c.z();
}

Task makeFillTask(const std::string& label, int level) {
  Task t("fill:" + label, level, [label, level](const TaskContext& ctx) {
    auto& v = ctx.newDW->getModifiable<double>(label, ctx.patch->id());
    for (const auto& c : ctx.patch->cells()) v[c] = fingerprint(c, level);
  });
  t.addComputes(Computes{label, VarType::Double, 0});
  return t;
}

/// A transport that drops, delays, duplicates, and reorders — roughly 1 in
/// 5 messages suffers some fault.
std::shared_ptr<comm::FaultInjector> chaosInjector(std::uint64_t seed) {
  auto inj = std::make_shared<comm::FaultInjector>(seed);
  comm::FaultProbabilities p;
  p.drop = 0.05;
  p.delay = 0.05;
  p.duplicate = 0.05;
  p.reorder = 0.03;
  p.delayMinMs = 0.1;
  p.delayMaxMs = 1.0;
  inj->setDefaultProbabilities(p);
  inj->setReorderHoldMs(0.5);
  return inj;
}

/// Channel tuned for test speed: retransmit quickly instead of waiting out
/// production backoff.
SchedulerConfig fastReliableConfig() {
  SchedulerConfig cfg;
  cfg.channel.baseBackoffMs = 2.0;
  cfg.channel.maxBackoffMs = 20.0;
  cfg.channel.progressIntervalMs = 0.5;
  return cfg;
}

TEST(SchedulerFault, ChaosTimestepMatchesSerialBitwise) {
  // The acceptance scenario: a multi-rank, multi-level RMCRT timestep over
  // a transport injecting ~5% drops plus delays, duplicates, and reorders
  // completes and the result is EXACTLY the fault-free answer.
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(4), IntVector(4));
  RmcrtSetup setup;
  setup.problem = core::burnsChriston();
  setup.trace.nDivQRays = 12;
  setup.trace.seed = 21;
  setup.roiHalo = 3;

  const int numRanks = 3;
  auto lb = std::make_shared<LoadBalancer>(*grid, numRanks);
  comm::Communicator world(numRanks);
  world.setFaultInjector(chaosInjector(/*seed=*/2024));

  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < numRanks; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r,
                                                 fastReliableConfig()));

  // Two timesteps: the second reuses the first's message tags, so any
  // stale duplicate or late retransmit parked in the unexpected queue
  // from timestep 1 is matched by timestep 2's receives — where only the
  // channel's sequence numbers keep it from corrupting fresh data.
  std::vector<std::thread> threads;
  for (int r = 0; r < numRanks; ++r) {
    threads.emplace_back([&, r] {
      RmcrtComponent::registerTwoLevelPipeline(*scheds[r], setup);
      scheds[r]->executeTimestep();
      scheds[r]->executeTimestep();
    });
  }
  for (auto& t : threads) t.join();

  // Faults actually happened, and the channel actually repaired them.
  const comm::CommStats cs = world.stats();
  EXPECT_GT(cs.dropsInjected, 0u);
  EXPECT_GT(cs.duplicatesInjected, 0u);
  std::uint64_t retransmits = 0, dupsDiscarded = 0;
  for (auto& s : scheds) {
    retransmits += s->stats().retransmits;
    dupsDiscarded += s->stats().duplicatesDiscarded;
  }
  EXPECT_GT(retransmits, 0u) << "drops must have forced retransmission";
  EXPECT_GT(dupsDiscarded, 0u)
      << "stale frames under reused tags must be caught by seq dedup";

  // Bitwise equality with the serial solver — the reliability layer must
  // be invisible to the physics.
  CCVariable<double> serial = RmcrtComponent::solveSerialTwoLevel(*grid, setup);
  for (auto& s : scheds) {
    for (int pid : s->loadBalancer().patchesOf(s->rank(), *grid,
                                               grid->numLevels() - 1)) {
      const auto& divQ = s->newDW().get<double>(RmcrtLabels::divQ, pid);
      for (const auto& c : grid->patchById(pid)->cells())
        ASSERT_EQ(divQ[c], serial[c])
            << "patch " << pid << " cell " << c;
    }
  }
}

TEST(SchedulerFault, WatchdogRaisesTimestepStalledOnPermanentLoss) {
  // Retransmission disabled + a scripted permanent drop of every message
  // rank 0 -> rank 1: rank 1 can never receive its ghost data. The
  // watchdog must dump diagnostics, strike out, abort the world, and
  // throw TimestepStalled — within the configured deadlines, not hang.
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(4));
  const int numRanks = 2;
  auto lb = std::make_shared<LoadBalancer>(*grid, numRanks);
  comm::Communicator world(numRanks);
  auto inj = std::make_shared<comm::FaultInjector>();
  inj->script(comm::ScriptedFault{/*src=*/0, /*dst=*/1, comm::kAnyTag,
                                  /*nth=*/1, comm::FaultAction::Drop,
                                  /*permanent=*/true});
  world.setFaultInjector(inj);

  SchedulerConfig cfg = fastReliableConfig();
  cfg.channel.retransmit = false;  // loss is detected but never repaired
  cfg.watchdogDeadlineSeconds = 0.15;
  cfg.watchdogMaxStrikes = 2;

  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < numRanks; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r, cfg));

  enum class Outcome { Completed, Stalled, Aborted, Other };
  std::vector<Outcome> outcome(numRanks, Outcome::Other);
  std::vector<std::string> what(numRanks);
  std::vector<std::vector<TimestepStalled::Suspect>> suspects(numRanks);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int r = 0; r < numRanks; ++r) {
    threads.emplace_back([&, r] {
      Scheduler& s = *scheds[r];
      s.addTask(makeFillTask("phi", 0));
      Task consume("consume", 0, [](const TaskContext& ctx) {
        (void)ctx.getGhosted<double>("phi", 1);
      });
      consume.addRequires(Requires{"phi", VarType::Double, 0, 1, false});
      s.addTask(std::move(consume));
      try {
        s.executeTimestep();
        outcome[static_cast<std::size_t>(r)] = Outcome::Completed;
      } catch (const TimestepStalled& e) {
        outcome[static_cast<std::size_t>(r)] = Outcome::Stalled;
        what[static_cast<std::size_t>(r)] = e.what();
        suspects[static_cast<std::size_t>(r)] = e.suspects();
      } catch (const comm::CommAborted& e) {
        outcome[static_cast<std::size_t>(r)] = Outcome::Aborted;
        what[static_cast<std::size_t>(r)] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Rank 1 is the starved rank: it must fail structurally, with the
  // diagnostic naming the stalled phase, after exactly maxStrikes windows.
  EXPECT_EQ(outcome[1], Outcome::Stalled);
  EXPECT_NE(what[1].find("stalled in phase"), std::string::npos) << what[1];
  EXPECT_NE(what[1].find("pending recvs"), std::string::npos) << what[1];
  EXPECT_GE(scheds[1]->stats().watchdogStrikes, 2u);
  // The stall is attributed to rank 0 and classified SLOW: rank 1's send
  // link back to rank 0 is alive (only 0 -> 1 traffic is scripted away),
  // so the starved rank has no evidence its peer is dead.
  ASSERT_EQ(suspects[1].size(), 1u);
  EXPECT_EQ(suspects[1][0].rank, 0);
  EXPECT_FALSE(suspects[1][0].dead);
  EXPECT_GT(suspects[1][0].pendingRecvs, 0u);
  EXPECT_NE(what[1].find("suspect rank 0: SLOW"), std::string::npos)
      << what[1];
  // Rank 0 had all its data; it either finished the timestep before the
  // abort or was woken out of the phase barrier by it.
  EXPECT_TRUE(outcome[0] == Outcome::Completed ||
              outcome[0] == Outcome::Aborted);
  // The whole failure took strike windows, not retry-forever.
  EXPECT_LT(elapsed, 10.0);
  EXPECT_TRUE(world.aborted());
}

TEST(SchedulerFault, KillRankClassifiedDeadInStallDiagnostic) {
  // FaultInjector::killRank silences every message touching rank 0 while
  // retransmission stays on: rank 1's frames to the corpse exhaust the
  // retry budget, flipping linkDead — the watchdog must classify rank 0
  // as DEAD (restore + repartition territory), not merely SLOW.
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(4));
  const int numRanks = 2;
  auto lb = std::make_shared<LoadBalancer>(*grid, numRanks);
  comm::Communicator world(numRanks);
  auto inj = std::make_shared<comm::FaultInjector>();
  inj->killRank(0);
  world.setFaultInjector(inj);
  EXPECT_TRUE(inj->isKilled(0));
  EXPECT_FALSE(inj->isKilled(1));

  // Rank 1 gets the short deadline so IT strikes out and classifies;
  // rank 0 (also starved — its inbound traffic is dropped too) would
  // otherwise race rank 1 to the abort and turn rank 1's failure into a
  // bare CommAborted.
  SchedulerConfig cfg = fastReliableConfig();
  cfg.channel.maxRetries = 3;
  cfg.watchdogMaxStrikes = 2;
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < numRanks; ++r) {
    cfg.watchdogDeadlineSeconds = r == 1 ? 0.3 : 30.0;
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r, cfg));
  }

  std::vector<std::vector<TimestepStalled::Suspect>> suspects(numRanks);
  std::vector<std::string> what(numRanks);
  std::vector<std::thread> threads;
  for (int r = 0; r < numRanks; ++r) {
    threads.emplace_back([&, r] {
      Scheduler& s = *scheds[r];
      s.addTask(makeFillTask("phi", 0));
      Task consume("consume", 0, [](const TaskContext& ctx) {
        (void)ctx.getGhosted<double>("phi", 1);
      });
      consume.addRequires(Requires{"phi", VarType::Double, 0, 1, false});
      s.addTask(std::move(consume));
      try {
        s.executeTimestep();
      } catch (const TimestepStalled& e) {
        suspects[static_cast<std::size_t>(r)] = e.suspects();
        what[static_cast<std::size_t>(r)] = e.what();
      } catch (const comm::CommAborted&) {
      }
    });
  }
  for (auto& t : threads) t.join();

  // Rank 1 starved on the killed rank and its send link retry-capped:
  // the structured suspect list says rank 0, DEAD.
  ASSERT_FALSE(suspects[1].empty()) << "rank 1 must stall structurally";
  EXPECT_EQ(suspects[1][0].rank, 0);
  EXPECT_TRUE(suspects[1][0].dead);
  EXPECT_NE(what[1].find("suspect rank 0: DEAD"), std::string::npos)
      << what[1];
  EXPECT_TRUE(scheds[1]->channel()->linkDead(0));
  EXPECT_GT(inj->stats().dropped, 0u);
}

}  // namespace
}  // namespace rmcrt::runtime
