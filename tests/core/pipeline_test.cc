/// End-to-end pipeline tests: the full distributed RMCRT task pipeline
/// (init -> coarsen -> trace) over the scheduler/comm substrate, on CPU
/// and on the simulated GPU, validated against the serial solver. The
/// counter-based RNG makes the comparison EXACT: any staging, coarsening
/// or kernel defect shows up as a bitwise difference.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
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

RmcrtSetup smallSetup(BandModel bands = grayBand(), bool simd = true) {
  RmcrtSetup setup;
  setup.problem = burnsChriston();
  setup.trace.nDivQRays = 12;
  setup.trace.seed = 21;
  setup.trace.bands = std::move(bands);
  setup.trace.useSimd = simd;
  setup.roiHalo = 3;
  return setup;
}

/// "scalar, gray", "packet, three bands", ...: the oracle tests' scope.
std::string dispatchAndBands(bool simd, const BandModel& bands) {
  return std::string(simd ? "packet" : "scalar") + ", " +
         (bands.size() == 1 ? "gray" : "three bands");
}

/// Run the distributed pipeline on \p numRanks ranks, one radiation step
/// per entry of \p steps on the same schedulers: between steps every rank
/// clears its tasks, rolls its DataWarehouses and registers the next
/// setup, as SimulationController does. Returns the schedulers (owning
/// the per-rank results of the last step).
std::vector<std::unique_ptr<Scheduler>> runSteps(
    std::shared_ptr<const Grid> grid, int numRanks,
    const std::vector<RmcrtSetup>& steps, bool gpu,
    std::vector<std::unique_ptr<gpu::GpuDataWarehouse>>* gdws) {
  auto lb = std::make_shared<LoadBalancer>(*grid, numRanks);
  auto world = std::make_shared<comm::Communicator>(numRanks);
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < numRanks; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, *world, r));

  std::vector<std::thread> threads;
  for (int r = 0; r < numRanks; ++r) {
    threads.emplace_back([&, r] {
      for (std::size_t step = 0; step < steps.size(); ++step) {
        if (step > 0) {
          scheds[r]->clearTasks();
          scheds[r]->advanceDataWarehouses();
        }
        if (gpu) {
          RmcrtComponent::registerTwoLevelGpuPipeline(*scheds[r],
                                                      steps[step],
                                                      *(*gdws)[r]);
        } else {
          RmcrtComponent::registerTwoLevelPipeline(*scheds[r], steps[step]);
        }
        scheds[r]->executeTimestep();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Keep world alive as long as schedulers (captured by shared_ptr trick):
  // schedulers reference it only during executeTimestep, so we are safe.
  static std::vector<std::shared_ptr<comm::Communicator>> keepAlive;
  keepAlive.push_back(world);
  return scheds;
}

/// One radiation step of the distributed pipeline on fresh schedulers.
std::vector<std::unique_ptr<Scheduler>> runDistributed(
    std::shared_ptr<const Grid> grid, int numRanks, const RmcrtSetup& setup,
    bool gpu, std::vector<std::unique_ptr<gpu::GpuDevice>>* /*devices*/,
    std::vector<std::unique_ptr<gpu::GpuDataWarehouse>>* gdws) {
  return runSteps(std::move(grid), numRanks, {setup}, gpu, gdws);
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

/// One simulated device and level-database warehouse per rank.
void makeDevices(int numRanks,
                 std::vector<std::unique_ptr<gpu::GpuDevice>>& devices,
                 std::vector<std::unique_ptr<gpu::GpuDataWarehouse>>& gdws) {
  for (int r = 0; r < numRanks; ++r) {
    gpu::GpuDevice::Config cfg;
    cfg.globalMemoryBytes = 256 << 20;
    devices.push_back(std::make_unique<gpu::GpuDevice>(cfg));
    gdws.push_back(std::make_unique<gpu::GpuDataWarehouse>(*devices.back()));
  }
}

TEST(RmcrtPipeline, DistributedCpuMatchesSerialExactly) {
  // Gray and banded: the band loop runs inside the same trace task. Both
  // dispatches: the scalar march and the packet march.
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(4), IntVector(4));
  for (const bool simd : {false, true}) {
    for (const BandModel& bands : {grayBand(), threeband()}) {
      SCOPED_TRACE(dispatchAndBands(simd, bands));
      const RmcrtSetup setup = smallSetup(bands, simd);
      auto scheds = runDistributed(grid, 4, setup, false, nullptr, nullptr);
      compareToSerial(*grid, setup, scheds);
    }
  }
  const IntVector probe(8, 8, 8);
  EXPECT_NE(RmcrtComponent::solveSerialTwoLevel(*grid, smallSetup())[probe],
            RmcrtComponent::solveSerialTwoLevel(
                *grid, smallSetup(threeband()))[probe])
      << "the band model must reach the trace";
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
  // Gray and banded: every band of the kernel marches the same device
  // records, so the band model adds no level-DB copy. Both dispatches:
  // the scalar march and the packet march.
  for (const bool simd : {false, true}) {
    for (const BandModel& bands : {grayBand(), threeband()}) {
      SCOPED_TRACE(dispatchAndBands(simd, bands));
      const RmcrtSetup setup = smallSetup(bands, simd);
      const int numRanks = 2;
      std::vector<std::unique_ptr<gpu::GpuDevice>> devices;
      std::vector<std::unique_ptr<gpu::GpuDataWarehouse>> gdws;
      makeDevices(numRanks, devices, gdws);
      auto scheds =
          runDistributed(grid, numRanks, setup, true, &devices, &gdws);
      compareToSerial(*grid, setup, scheds);
      // The level database held exactly one shared copy of the fused
      // coarse records (abskg + sigmaT4 + cellType travel as one PackedCell
      // array), and after the run it is all that stays resident: every
      // patch task freed its ROI records and divQ.
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
  }
}

TEST(RmcrtPipeline, GpuCoTraceOfMultiTilePatchesMatchesSerialExactly) {
  // 8^3 patches split into eight 64-cell tiles, which the kernel and the
  // rank thread claim between them; the merged divQ must be the serial
  // one, and every tile is counted on exactly one side.
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(8), IntVector(4));
  const int numRanks = 2;
  for (const BandModel& bands : {grayBand(), threeband()}) {
    SCOPED_TRACE(bands.size() == 1 ? "gray" : "three bands");
    const RmcrtSetup setup = smallSetup(bands);
    std::vector<std::unique_ptr<gpu::GpuDevice>> devices;
    std::vector<std::unique_ptr<gpu::GpuDataWarehouse>> gdws;
    makeDevices(numRanks, devices, gdws);
    auto scheds =
        runDistributed(grid, numRanks, setup, true, &devices, &gdws);
    compareToSerial(*grid, setup, scheds);
    std::uint64_t tiles = 0;
    for (auto& dev : devices) {
      EXPECT_EQ(dev->stats().cpuFallbacks, 0u);
      tiles += dev->stats().deviceTiles + dev->stats().hostTiles;
    }
    const std::size_t patches = grid->fineLevel().patches().size();
    EXPECT_EQ(tiles, patches * 8);
  }
}

/// Two radiation steps on the same schedulers (and, for the GPU pipeline,
/// the same devices) with a problem that changes between them: the second
/// step must match the serial solve of its own problem bitwise, so no
/// host or device coarse record set may outlive its registration.
void expectCoarseRecordsRefreshEachStep(bool gpu) {
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(4), IntVector(4));
  const int numRanks = 2;
  std::vector<std::unique_ptr<gpu::GpuDevice>> devices;
  std::vector<std::unique_ptr<gpu::GpuDataWarehouse>> gdws;
  makeDevices(numRanks, devices, gdws);
  RmcrtSetup changed = smallSetup();
  changed.problem = uniformMedium(0.5, 2.0);
  auto scheds =
      runSteps(grid, numRanks, {smallSetup(), changed}, gpu, &gdws);
  compareToSerial(*grid, changed, scheds);
  if (gpu) {
    for (auto& gdw : gdws) EXPECT_EQ(gdw->numLevelVarCopies(), 1u);
  }
}

TEST(RmcrtPipeline, GpuLevelDatabaseRefreshesEachStep) {
  // The coarse level-database copy and the host records it is uploaded
  // from live one radiation step; otherwise the kernel and the host half
  // would march the first step's coarse records.
  expectCoarseRecordsRefreshEachStep(/*gpu=*/true);
}

TEST(RmcrtPipeline, CpuPipelineRefreshesEachStep) {
  // The CPU trace tasks' shared coarse record set lives one registration.
  expectCoarseRecordsRefreshEachStep(/*gpu=*/false);
}

TEST(RmcrtPipeline, GpuMatchesCpuOnAdaptiveFineLevel) {
  // Two 16^3 fine patches cover two of the eight coarse octants, so every
  // ROI reaches into uncovered fine space. Both trace tasks prolong the
  // coarse properties there before packing, so the co-traced GPU pipeline
  // is bitwise the CPU pipeline on every fine patch.
  auto grid = Grid::makeAdaptive(
      Vector(0.0), Vector(1.0), IntVector(8), IntVector(4), IntVector(4),
      {CellRange(IntVector(0), IntVector(4)),
       CellRange(IntVector(4), IntVector(8))});
  const int numRanks = 2;
  for (const BandModel& bands : {grayBand(), threeband()}) {
    SCOPED_TRACE(bands.size() == 1 ? "gray" : "three bands");
    RmcrtSetup setup = smallSetup(bands);
    setup.trace.nDivQRays = 8;
    setup.trace.seed = 5;
    setup.roiHalo = 4;
    auto cpu = runDistributed(grid, numRanks, setup, false, nullptr, nullptr);
    std::vector<std::unique_ptr<gpu::GpuDevice>> devices;
    std::vector<std::unique_ptr<gpu::GpuDataWarehouse>> gdws;
    makeDevices(numRanks, devices, gdws);
    auto gpu = runDistributed(grid, numRanks, setup, true, &devices, &gdws);

    const int fine = grid->numLevels() - 1;
    std::size_t cells = 0;
    for (int r = 0; r < numRanks; ++r)
      for (int pid : gpu[r]->loadBalancer().patchesOf(r, *grid, fine)) {
        const auto& want = cpu[r]->newDW().get<double>(RmcrtLabels::divQ, pid);
        const auto& got = gpu[r]->newDW().get<double>(RmcrtLabels::divQ, pid);
        for (const auto& c : grid->patchById(pid)->cells()) {
          ASSERT_EQ(got[c], want[c]) << "patch " << pid << " cell " << c;
          ++cells;
        }
      }
    EXPECT_EQ(cells, 8192u);

    // 16^3 patches co-trace as 64 tiles of 4^3 each.
    std::uint64_t tiles = 0;
    for (auto& dev : devices) {
      EXPECT_EQ(dev->stats().cpuFallbacks, 0u);
      tiles += dev->stats().deviceTiles + dev->stats().hostTiles;
    }
    EXPECT_EQ(tiles, grid->fineLevel().patches().size() * 64);
  }
}

TEST(RmcrtPipeline, RegistrationRejectsInvalidSetup) {
  // Every register* entry point refuses a setup the trace task could not
  // run, before it adds a task.
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(4), IntVector(4));
  auto lb = std::make_shared<LoadBalancer>(*grid, 1);
  comm::Communicator world(1);
  Scheduler sched(grid, lb, world, 0);
  gpu::GpuDevice device;
  gpu::GpuDataWarehouse gdw(device);
  RmcrtSetup noRays = smallSetup();
  noRays.trace.nDivQRays = 0;
  RmcrtSetup badBand = smallSetup();
  badBand.trace.bands = {SpectralBand{1.0, -1.0}};
  RmcrtSetup badHalo = smallSetup();
  badHalo.roiHalo = -1;
  for (const RmcrtSetup& bad : {noRays, badBand, badHalo}) {
    EXPECT_THROW(RmcrtComponent::registerTwoLevelPipeline(sched, bad),
                 std::invalid_argument);
    EXPECT_THROW(RmcrtComponent::registerSingleLevelPipeline(sched, bad),
                 std::invalid_argument);
    EXPECT_THROW(
        RmcrtComponent::registerTwoLevelGpuPipeline(sched, bad, gdw),
        std::invalid_argument);
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
