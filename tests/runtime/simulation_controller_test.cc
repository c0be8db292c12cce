#include "runtime/simulation_controller.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "grid/load_balancer.h"

namespace rmcrt::runtime {
namespace {

using grid::Grid;
using grid::LoadBalancer;

/// Multi-rank controller run: radiation every `interval` steps with
/// carry-forward in between; returns per-rank records.
std::vector<std::vector<TimestepRecord>> runControlled(
    std::shared_ptr<const Grid> grid, int ranks, int steps, int interval) {
  auto lb = std::make_shared<LoadBalancer>(*grid, ranks);
  comm::Communicator world(ranks);
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < ranks; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r));

  core::RmcrtSetup setup;
  setup.problem = core::burnsChriston();
  setup.trace.nDivQRays = 4;
  setup.roiHalo = 2;

  std::vector<std::vector<TimestepRecord>> records(
      static_cast<std::size_t>(ranks));
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      SimulationController ctl(
          *scheds[r],
          [&](Scheduler& s) {
            core::RmcrtComponent::registerTwoLevelPipeline(s, setup);
          },
          [&](Scheduler& s) {
            s.addTask(makeCarryForwardTask({core::RmcrtLabels::divQ},
                                           grid->numLevels() - 1));
          });
      ctl.setRadiationInterval(interval);
      records[static_cast<std::size_t>(r)] = ctl.run(steps);
    });
  }
  for (auto& t : threads) t.join();
  // Schedulers hold the final state; verify divQ survived the carries.
  for (int r = 0; r < ranks; ++r) {
    for (int pid : lb->patchesOf(r, *grid, grid->numLevels() - 1)) {
      EXPECT_TRUE(
          scheds[r]->newDW().exists(core::RmcrtLabels::divQ, pid))
          << "divQ missing after run on patch " << pid;
    }
  }
  return records;
}

std::shared_ptr<Grid> smallGrid() {
  return Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                            IntVector(4), IntVector(8), IntVector(4));
}

TEST(SimulationController, RunsRequestedTimesteps) {
  auto records = runControlled(smallGrid(), 2, 5, 1);
  for (const auto& rankRecords : records) {
    ASSERT_EQ(rankRecords.size(), 5u);
    for (const auto& rec : rankRecords) {
      EXPECT_TRUE(rec.radiationStep);  // interval 1 = every step
      EXPECT_GT(rec.stats.tasksExecuted, 0u);
    }
  }
}

TEST(SimulationController, LooseCouplingSkipsRadiation) {
  // Interval 3 over 7 steps: radiation at steps 0, 3, 6.
  auto records = runControlled(smallGrid(), 2, 7, 3);
  for (const auto& rankRecords : records) {
    ASSERT_EQ(rankRecords.size(), 7u);
    for (const auto& rec : rankRecords) {
      EXPECT_EQ(rec.radiationStep, rec.step % 3 == 0) << "step " << rec.step;
    }
    // Carry-forward steps are much cheaper than radiation steps.
    EXPECT_LT(rankRecords[1].stats.taskExecSeconds,
              rankRecords[0].stats.taskExecSeconds);
  }
}

TEST(SimulationController, CarryForwardPreservesDivQExactly) {
  auto grid = smallGrid();
  auto lb = std::make_shared<LoadBalancer>(*grid, 1);
  comm::Communicator world(1);
  Scheduler sched(grid, lb, world, 0);

  core::RmcrtSetup setup;
  setup.problem = core::burnsChriston();
  setup.trace.nDivQRays = 6;
  setup.roiHalo = 2;

  SimulationController ctl(
      sched,
      [&](Scheduler& s) {
        core::RmcrtComponent::registerTwoLevelPipeline(s, setup);
      },
      [&](Scheduler& s) {
        s.addTask(makeCarryForwardTask({core::RmcrtLabels::divQ},
                                       grid->numLevels() - 1));
      });
  ctl.setRadiationInterval(100);  // radiation only at step 0
  ctl.run(4);

  // After 3 carry-forwards the divQ field equals the radiation solve.
  const grid::CCVariable<double> serial =
      core::RmcrtComponent::solveSerialTwoLevel(*grid, setup);
  for (int pid : lb->patchesOf(0, *grid, grid->numLevels() - 1)) {
    const auto& divQ = sched.newDW().get<double>(core::RmcrtLabels::divQ, pid);
    for (const auto& c : grid->patchById(pid)->cells())
      EXPECT_EQ(divQ[c], serial[c]);
  }
}

TEST(SimulationController, StatsResetPerTimestep) {
  auto records = runControlled(smallGrid(), 1, 3, 1);
  // Each record's stats describe that step only (reset between steps):
  // roughly equal task counts per radiation step.
  const auto& r = records[0];
  EXPECT_EQ(r[0].stats.tasksExecuted, r[1].stats.tasksExecuted);
  EXPECT_EQ(r[1].stats.tasksExecuted, r[2].stats.tasksExecuted);
}

TEST(CarryForwardTask, DeclaresRequiresAndComputes) {
  Task t = makeCarryForwardTask({"a", "b"}, 1);
  EXPECT_EQ(t.requiresList().size(), 2u);
  EXPECT_EQ(t.computesList().size(), 2u);
  EXPECT_TRUE(t.requiresList()[0].fromOldDW);
  EXPECT_EQ(t.level(), 1);
}

}  // namespace
}  // namespace rmcrt::runtime
