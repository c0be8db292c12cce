/// Property sweeps (TEST_P) over the distributed RMCRT pipeline: for any
/// combination of fine patch size, rank count and load-balancing
/// strategy, divQ must equal the serial two-level solve BITWISE — the
/// decomposition-independence property the counter-based RNG guarantees
/// and the staging machinery must preserve.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "grid/load_balancer.h"
#include "runtime/scheduler.h"

namespace rmcrt::core {
namespace {

using grid::Grid;
using grid::LbStrategy;
using grid::LoadBalancer;
using runtime::Scheduler;

using SweepParam = std::tuple<int /*patchSize*/, int /*ranks*/, LbStrategy>;

class PipelineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PipelineSweep, DistributedMatchesSerialBitwise) {
  const auto [patchSize, ranks, strategy] = GetParam();
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(patchSize),
                                 IntVector(2));
  RmcrtSetup setup;
  setup.problem = burnsChriston();
  setup.trace.nDivQRays = 6;
  setup.trace.seed = 31;
  setup.roiHalo = 2;

  auto lb = std::make_shared<LoadBalancer>(*grid, ranks, strategy);
  comm::Communicator world(ranks);
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < ranks; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r));
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      RmcrtComponent::registerTwoLevelPipeline(*scheds[r], setup);
      scheds[r]->executeTimestep();
    });
  }
  for (auto& t : threads) t.join();

  const grid::CCVariable<double> serial =
      RmcrtComponent::solveSerialTwoLevel(*grid, setup);
  for (auto& s : scheds) {
    for (int pid :
         s->loadBalancer().patchesOf(s->rank(), *grid, 1)) {
      const auto& divQ = s->newDW().get<double>(RmcrtLabels::divQ, pid);
      for (const auto& c : grid->patchById(pid)->cells())
        ASSERT_EQ(divQ[c], serial[c])
            << "patch " << pid << " cell " << c;
    }
  }
}

std::string sweepName(
    const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [patch, ranks, strategy] = info.param;
  const char* s = strategy == LbStrategy::Block
                      ? "Block"
                      : (strategy == LbStrategy::RoundRobin ? "RoundRobin"
                                                            : "Morton");
  return "p" + std::to_string(patch) + "_r" + std::to_string(ranks) + "_" +
         s;
}

INSTANTIATE_TEST_SUITE_P(
    PatchRankStrategy, PipelineSweep,
    ::testing::Combine(::testing::Values(4, 8, 16),
                       ::testing::Values(1, 2, 5),
                       ::testing::Values(LbStrategy::Block,
                                         LbStrategy::Morton)),
    sweepName);

/// Refinement-ratio sweep for the serial two-level tracer: RR 2 and RR 4
/// (the paper says "typically 2 or 4") must both approximate the
/// single-level answer, with RR 2 at least as accurate.
class RefinementRatioSweep : public ::testing::TestWithParam<int> {};

TEST_P(RefinementRatioSweep, TwoLevelTracksSingleLevel) {
  const int rr = GetParam();
  auto grid2 = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                  IntVector(rr), IntVector(4),
                                  IntVector(std::max(1, 16 / rr / 2)));
  auto grid1 = Grid::makeSingleLevel(Vector(0.0), Vector(1.0),
                                     IntVector(16), IntVector(16));
  RmcrtSetup setup;
  setup.problem = burnsChriston();
  setup.trace.nDivQRays = 120;
  setup.trace.seed = 8;
  setup.roiHalo = 3;

  const auto two = RmcrtComponent::solveSerialTwoLevel(*grid2, setup);
  const auto one = RmcrtComponent::solveSerialSingleLevel(*grid1, setup);
  double num = 0, den = 0;
  for (const auto& c : two.window()) {
    num += (two[c] - one[c]) * (two[c] - one[c]);
    den += one[c] * one[c];
  }
  EXPECT_LT(std::sqrt(num / den), 0.10)
      << "RR " << rr << " deviates too much from single-level";
}

INSTANTIATE_TEST_SUITE_P(RR, RefinementRatioSweep, ::testing::Values(2, 4),
                         [](const auto& info) {
                           return "RR" + std::to_string(info.param);
                         });

/// Ray-count sweep: divQ variance shrinks monotonically (in aggregate)
/// with rays per cell.
class RayCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(RayCountSweep, DivQWithinPhysicalBounds) {
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(8));
  RmcrtSetup setup;
  setup.problem = burnsChriston();
  setup.trace.nDivQRays = GetParam();
  const auto divQ = RmcrtComponent::solveSerialSingleLevel(*grid, setup);
  // Physical bounds: 0 <= divQ <= 4*pi*kappa*sigmaT4/pi = 4*kappa*sigmaT4
  // (cold walls: no cell can gain, none can lose more than it emits).
  for (const auto& c : divQ.window()) {
    EXPECT_GT(divQ[c], -0.3);  // small MC noise below zero allowed
    EXPECT_LT(divQ[c], 4.0 * 1.0 * 1.0 + 0.3);
  }
}

INSTANTIATE_TEST_SUITE_P(Rays, RayCountSweep,
                         ::testing::Values(1, 10, 50, 100),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rmcrt::core
