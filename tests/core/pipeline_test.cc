/// End-to-end pipeline tests: the full distributed RMCRT task pipeline
/// (init -> coarsen -> trace) over the scheduler/comm substrate, on CPU
/// and on the simulated GPU, validated against the serial solver. The
/// counter-based RNG makes the comparison EXACT: any staging, coarsening
/// or kernel defect shows up as a bitwise difference.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "grid/load_balancer.h"
#include "mem/mmap_arena.h"
#include "runtime/scheduler.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::Grid;
using grid::LoadBalancer;
using runtime::Scheduler;

RmcrtSetup smallSetup() {
  RmcrtSetup setup;
  setup.problem = burnsChriston();
  setup.trace.nDivQRays = 12;
  setup.trace.seed = 21;
  setup.roiHalo = 3;
  return setup;
}

/// Run the distributed pipeline on \p numRanks ranks; returns the
/// schedulers (owning the per-rank results).
std::vector<std::unique_ptr<Scheduler>> runDistributed(
    std::shared_ptr<const Grid> grid, int numRanks, const RmcrtSetup& setup,
    bool gpu, std::vector<std::unique_ptr<gpu::GpuDevice>>* /*devices*/,
    std::vector<std::unique_ptr<gpu::GpuDataWarehouse>>* gdws) {
  auto lb = std::make_shared<LoadBalancer>(*grid, numRanks);
  auto world = std::make_shared<comm::Communicator>(numRanks);
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < numRanks; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, *world, r));

  std::vector<std::thread> threads;
  for (int r = 0; r < numRanks; ++r) {
    threads.emplace_back([&, r] {
      if (gpu) {
        RmcrtComponent::registerTwoLevelGpuPipeline(*scheds[r], setup,
                                                    *(*gdws)[r]);
      } else {
        RmcrtComponent::registerTwoLevelPipeline(*scheds[r], setup);
      }
      scheds[r]->executeTimestep();
    });
  }
  for (auto& t : threads) t.join();
  // Keep world alive as long as schedulers (captured by shared_ptr trick):
  // schedulers reference it only during executeTimestep, so we are safe.
  static std::vector<std::shared_ptr<comm::Communicator>> keepAlive;
  keepAlive.push_back(world);
  return scheds;
}

void compareToSerial(const Grid& grid, const RmcrtSetup& setup,
                     std::vector<std::unique_ptr<Scheduler>>& scheds) {
  CCVariable<double> serial = RmcrtComponent::solveSerialTwoLevel(grid, setup);
  for (auto& s : scheds) {
    for (int pid : s->loadBalancer().patchesOf(
             s->rank(), grid, grid.numLevels() - 1)) {
      const auto& divQ = s->newDW().get<double>(RmcrtLabels::divQ, pid);
      for (const auto& c : grid.patchById(pid)->cells())
        ASSERT_EQ(divQ[c], serial[c]) << "patch " << pid << " cell " << c;
    }
  }
}

TEST(RmcrtPipeline, DistributedCpuMatchesSerialExactly) {
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(4), IntVector(4));
  const RmcrtSetup setup = smallSetup();
  auto scheds = runDistributed(grid, 4, setup, false, nullptr, nullptr);
  compareToSerial(*grid, setup, scheds);
}

TEST(RmcrtPipeline, DistributedCpuSingleRankMatches) {
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(8), IntVector(4));
  const RmcrtSetup setup = smallSetup();
  auto scheds = runDistributed(grid, 1, setup, false, nullptr, nullptr);
  compareToSerial(*grid, setup, scheds);
}

TEST(RmcrtPipeline, ResultIndependentOfRankCount) {
  // 2 ranks vs 3 ranks: identical divQ (the decomposition-independence
  // the counter-based RNG buys; paper relies on this for validation).
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(4), IntVector(4));
  const RmcrtSetup setup = smallSetup();
  auto s2 = runDistributed(grid, 2, setup, false, nullptr, nullptr);
  auto s3 = runDistributed(grid, 3, setup, false, nullptr, nullptr);
  compareToSerial(*grid, setup, s2);
  compareToSerial(*grid, setup, s3);
}

TEST(RmcrtPipeline, GpuPipelineMatchesSerialExactly) {
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(4), IntVector(4));
  const RmcrtSetup setup = smallSetup();
  const int numRanks = 2;
  std::vector<std::unique_ptr<gpu::GpuDevice>> devices;
  std::vector<std::unique_ptr<gpu::GpuDataWarehouse>> gdws;
  for (int r = 0; r < numRanks; ++r) {
    gpu::GpuDevice::Config cfg;
    cfg.globalMemoryBytes = 256 << 20;
    devices.push_back(std::make_unique<gpu::GpuDevice>(cfg));
    gdws.push_back(std::make_unique<gpu::GpuDataWarehouse>(*devices.back()));
  }
  auto scheds = runDistributed(grid, numRanks, setup, true, &devices, &gdws);
  compareToSerial(*grid, setup, scheds);
  // The level database held exactly one shared copy of the fused coarse
  // records (abskg + sigmaT4 + cellType travel as one PackedCell array),
  // and after the run it is all that stays resident: every patch task
  // freed its ROI records and divQ.
  const std::size_t levelBytes = mem::MmapArena::roundToPages(
      static_cast<std::size_t>(grid->coarseLevel().cells().volume()) *
      sizeof(PackedCell));
  for (auto& gdw : gdws) EXPECT_EQ(gdw->numLevelVarCopies(), 1u);
  for (auto& dev : devices) EXPECT_EQ(dev->bytesInUse(), levelBytes);
  // PCIe traffic flowed both ways.
  for (auto& dev : devices) {
    EXPECT_GT(dev->stats().h2dBytes, 0u);
    EXPECT_GT(dev->stats().d2hBytes, 0u);
  }
}

TEST(RmcrtPipeline, SingleLevelPipelineMatchesSerial) {
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                    IntVector(4));
  RmcrtSetup setup = smallSetup();

  auto lb = std::make_shared<LoadBalancer>(*grid, 3);
  comm::Communicator world(3);
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < 3; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r));
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      RmcrtComponent::registerSingleLevelPipeline(*scheds[r], setup);
      scheds[r]->executeTimestep();
    });
  }
  for (auto& t : threads) t.join();

  CCVariable<double> serial =
      RmcrtComponent::solveSerialSingleLevel(*grid, setup);
  for (auto& s : scheds) {
    for (int pid : s->loadBalancer().patchesOf(s->rank())) {
      const auto& divQ = s->newDW().get<double>(RmcrtLabels::divQ, pid);
      for (const auto& c : grid->patchById(pid)->cells())
        ASSERT_EQ(divQ[c], serial[c]);
    }
  }
}

TEST(RmcrtPipeline, TwoLevelMovesLessDataThanSingleLevel) {
  // The paper's reason for the AMR scheme: per-rank received bytes for
  // whole-level replication shrink by ~RR^3 when the radiation mesh is
  // the coarse level.
  // Needs a grid large enough that whole-level replication dominates the
  // halo traffic (at toy sizes the fixed halo overhead of the 2-level
  // scheme swamps the saved replication; the paper's win is asymptotic in
  // N_fine / RR^3).
  RmcrtSetup setup = smallSetup();
  setup.problem = uniformMedium(8.0, 1.0);  // short rays: cheap trace
  setup.trace.nDivQRays = 4;
  setup.roiHalo = 1;
  const int P = 4;

  auto run = [&](bool twoLevel) -> std::uint64_t {
    std::shared_ptr<Grid> grid;
    if (twoLevel)
      grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(32),
                                IntVector(4), IntVector(8), IntVector(4));
    else
      grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(32),
                                   IntVector(8));
    auto lb = std::make_shared<LoadBalancer>(*grid, P);
    comm::Communicator world(P);
    std::vector<std::unique_ptr<Scheduler>> scheds;
    for (int r = 0; r < P; ++r)
      scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r));
    std::vector<std::thread> threads;
    for (int r = 0; r < P; ++r) {
      threads.emplace_back([&, r] {
        if (twoLevel)
          RmcrtComponent::registerTwoLevelPipeline(*scheds[r], setup);
        else
          RmcrtComponent::registerSingleLevelPipeline(*scheds[r], setup);
        scheds[r]->executeTimestep();
      });
    }
    for (auto& t : threads) t.join();
    std::uint64_t bytes = 0;
    for (auto& s : scheds) bytes += s->stats().bytesReceived;
    return bytes;
  };

  const std::uint64_t singleLevelBytes = run(false);
  const std::uint64_t twoLevelBytes = run(true);
  EXPECT_LT(twoLevelBytes, singleLevelBytes / 2)
      << "AMR scheme must cut replication volume substantially";
}

}  // namespace
}  // namespace rmcrt::core
