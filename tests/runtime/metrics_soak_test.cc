/// Multi-rank soak under chaos: the full RMCRT pipeline driven by the
/// SimulationController for several timesteps over a dropping/reordering
/// transport, with the unified metrics registry wired in. The channel
/// must absorb every fault (no watchdog abort, all steps complete) and
/// the metrics must reconcile: retransmits happened, per-step message
/// accounting balances across ranks, the timeline is well-formed, and
/// the JSON emission parses.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../util/mini_json.h"
#include "comm/fault_injector.h"
#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "grid/load_balancer.h"
#include "runtime/simulation_controller.h"
#include "util/metrics.h"

namespace rmcrt::runtime {
namespace {

using core::RmcrtComponent;
using core::RmcrtSetup;
using grid::Grid;
using grid::LoadBalancer;

TEST(MetricsSoak, ChaosTimestepsReconcileInRegistry) {
  constexpr int kRanks = 3;
  constexpr int kSteps = 6;

  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(4), IntVector(4));
  RmcrtSetup setup;
  setup.problem = core::burnsChriston();
  setup.trace.nDivQRays = 8;
  setup.trace.seed = 33;
  setup.roiHalo = 3;

  auto lb = std::make_shared<LoadBalancer>(*grid, kRanks);
  comm::Communicator world(kRanks);
  auto inj = std::make_shared<comm::FaultInjector>(/*seed=*/404);
  comm::FaultProbabilities p;
  p.drop = 0.05;
  p.reorder = 0.05;
  inj->setDefaultProbabilities(p);
  inj->setReorderHoldMs(0.5);
  world.setFaultInjector(inj);

  SchedulerConfig cfg;
  cfg.channel.baseBackoffMs = 2.0;
  cfg.channel.maxBackoffMs = 20.0;
  cfg.channel.progressIntervalMs = 0.5;

  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < kRanks; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r, cfg));

  MetricsRegistry reg;  // private registry: no cross-test contamination
  std::vector<std::vector<TimestepRecord>> records(kRanks);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      SimulationController ctl(
          *scheds[r],
          [&setup](Scheduler& s) {
            RmcrtComponent::registerTwoLevelPipeline(s, setup);
          },
          [](Scheduler& s) {
            s.addTask(makeCarryForwardTask({core::RmcrtLabels::divQ},
                                           s.grid().numLevels() - 1));
          });
      ctl.setRadiationInterval(2);
      // Only rank 0 stamps the shared timeline so each step yields one
      // snapshot; every rank publishes its own gauges.
      ctl.setMetrics(&reg, "rank" + std::to_string(r) + ".",
                     /*ownsTimeline=*/r == 0);
      records[static_cast<std::size_t>(r)] = ctl.run(kSteps);
    });
  }
  for (auto& t : threads) t.join();

  // Every rank completed every step; the watchdog never fired.
  for (int r = 0; r < kRanks; ++r) {
    ASSERT_EQ(records[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(kSteps));
    EXPECT_EQ(reg.counter("rank" + std::to_string(r) +
                          ".timesteps_completed").value(),
              static_cast<std::uint64_t>(kSteps));
    EXPECT_EQ(reg.gauge("rank" + std::to_string(r) + ".watchdog_strikes")
                  .value(),
              0.0);
    for (const TimestepRecord& rec : records[static_cast<std::size_t>(r)])
      EXPECT_EQ(rec.stats.watchdogStrikes, 0u)
          << "rank " << r << " step " << rec.step;
  }
  EXPECT_FALSE(world.aborted());

  // Faults were injected and the channel repaired them invisibly:
  // retransmits happened, yet the per-step logical message accounting
  // balances exactly across ranks (retransmits live below this layer).
  EXPECT_GT(world.stats().dropsInjected, 0u);
  std::uint64_t retransmits = 0;
  for (auto& s : scheds) retransmits += s->stats().retransmits;
  EXPECT_GT(retransmits, 0u) << "drops must have forced retransmission";
  for (int step = 0; step < kSteps; ++step) {
    std::uint64_t sent = 0, received = 0, bytesSent = 0, bytesRecv = 0;
    for (int r = 0; r < kRanks; ++r) {
      const SchedulerStats& st =
          records[static_cast<std::size_t>(r)][static_cast<std::size_t>(
              step)].stats;
      sent += st.messagesSent;
      received += st.messagesReceived;
      bytesSent += st.bytesSent;
      bytesRecv += st.bytesReceived;
    }
    EXPECT_EQ(sent, received) << "unbalanced messages at step " << step;
    EXPECT_EQ(bytesSent, bytesRecv) << "unbalanced bytes at step " << step;
  }
  // Radiation steps move ghost data; carry-forward steps are local-only.
  EXPECT_GT(records[0][0].stats.messagesSent, 0u);

  // The channel's own counters reached the registry via the scheduler
  // export path (comm coverage of the unified emission).
  std::uint64_t channelRetransmits = 0;
  for (int r = 0; r < kRanks; ++r)
    channelRetransmits += static_cast<std::uint64_t>(
        reg.gauge("rank" + std::to_string(r) + ".channel.retransmits")
            .value());
  EXPECT_EQ(channelRetransmits, retransmits);

  // Timeline: one snapshot per step, labeled in order, with the step
  // counter monotone across it.
  const auto timeline = reg.timeline();
  ASSERT_EQ(timeline.size(), static_cast<std::size_t>(kSteps));
  double prevCompleted = 0.0;
  for (int step = 0; step < kSteps; ++step) {
    EXPECT_EQ(timeline[static_cast<std::size_t>(step)].timestep, step);
    const auto* c = timeline[static_cast<std::size_t>(step)].find(
        "rank0.timesteps_completed");
    ASSERT_NE(c, nullptr);
    EXPECT_GT(c->value, prevCompleted);
    prevCompleted = c->value;
  }

  // And the whole registry emits parseable JSON with those snapshots.
  std::ostringstream os;
  reg.writeJson(os);
  minijson::Value doc;
  ASSERT_NO_THROW(doc = minijson::parse(os.str()));
  EXPECT_EQ(doc.at("snapshots").array.size(),
            static_cast<std::size_t>(kSteps));
  EXPECT_DOUBLE_EQ(
      doc.at("final").at("rank0.timesteps_completed").number,
      static_cast<double>(kSteps));
}

}  // namespace
}  // namespace rmcrt::runtime
