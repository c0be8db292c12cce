/// AmrEngine lifecycle tests: regrid decisions, task-graph recompiles,
/// migration through the scheduler, rebalance hysteresis, divQ
/// determinism across rank counts on a regridded grid, and the
/// Burns & Christon acceptance run (>= 30% fewer fine cells than the
/// uniform fine grid with a post-rebalance measured-cost imbalance
/// <= 1.15 on 8 simulated ranks).

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "amr/amr_engine.h"
#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "gpu/gpu_data_warehouse.h"
#include "grid/load_balancer.h"
#include "runtime/scheduler.h"
#include "runtime/simulation_controller.h"
#include "util/metrics.h"

namespace rmcrt::amr {
namespace {

using core::RmcrtComponent;
using core::RmcrtLabels;
using core::RmcrtSetup;
using grid::CCVariable;
using grid::Grid;
using grid::LoadBalancer;
using runtime::Scheduler;
using runtime::SimulationController;

RmcrtSetup smallSetup(int rays = 8) {
  RmcrtSetup setup;
  setup.problem = core::burnsChriston();
  setup.trace.nDivQRays = rays;
  setup.trace.seed = 71;
  setup.roiHalo = 2;
  return setup;
}

AmrConfig smallConfig() {
  AmrConfig cfg;
  cfg.regridEvery = 2;
  cfg.estimator.refineThreshold = 0.10;
  cfg.cluster.minPatchSize = 2;
  cfg.cluster.maxPatchSize = 2;
  cfg.cluster.fillRatio = 0.7;
  return cfg;
}

struct AdaptiveRun {
  std::shared_ptr<AmrEngine> engine;
  // Schedulers hold channels into the communicator; keep it alive past
  // them (members destroy in reverse declaration order).
  std::shared_ptr<comm::Communicator> world;
  std::vector<std::unique_ptr<Scheduler>> scheds;
};

/// Drive the full adaptive lifecycle on \p numRanks simulated ranks.
AdaptiveRun runAdaptive(int numRanks, int steps, const RmcrtSetup& setup,
                        const AmrConfig& cfg, const IntVector& coarseCells,
                        const IntVector& coarsePatchSize,
                        MetricsRegistry* metrics = nullptr) {
  auto grid =
      Grid::makeTwoLevel(Vector(0.0), Vector(1.0), coarseCells * IntVector(2),
                         IntVector(2), coarsePatchSize * IntVector(2),
                         coarsePatchSize);
  auto lb = std::make_shared<LoadBalancer>(*grid, numRanks);

  AdaptiveRun run;
  run.engine = std::make_shared<AmrEngine>(grid, lb, numRanks, cfg);
  run.engine->setPropertySampler(
      RmcrtComponent::makePropertySampler(setup.problem));
  if (metrics) run.engine->setMetrics(metrics);
  run.world = std::make_shared<comm::Communicator>(numRanks);
  for (int r = 0; r < numRanks; ++r)
    run.scheds.push_back(
        std::make_unique<Scheduler>(grid, lb, *run.world, r));

  std::vector<std::thread> threads;
  for (int r = 0; r < numRanks; ++r) {
    threads.emplace_back([&, r] {
      Scheduler& sched = *run.scheds[r];
      SimulationController ctl(
          sched,
          [&](Scheduler& s) {
            RmcrtComponent::registerTwoLevelPipeline(
                s, setup, &run.engine->costModel());
          },
          [&](Scheduler& s) {
            s.addTask(runtime::makeCarryForwardTask(
                {RmcrtLabels::divQ}, s.grid().numLevels() - 1));
          });
      ctl.setRegridHook(
          [&](int step) { return run.engine->maybeRegrid(step, sched); });
      if (metrics && r == 0)
        ctl.setMetrics(metrics, "sim.", /*ownsTimeline=*/true);
      ctl.run(steps);
    });
  }
  for (auto& t : threads) t.join();
  return run;
}

TEST(AmrEngine, RequiresTwoLevelUniformCoarseGrid) {
  auto single = Grid::makeSingleLevel(Vector(0.0), Vector(1.0),
                                      IntVector(8), IntVector(4));
  auto lb = std::make_shared<LoadBalancer>(*single, 1);
  EXPECT_THROW(AmrEngine(single, lb, 1, AmrConfig{}), std::invalid_argument);
}

TEST(AmrEngine, RegridProducesAdaptiveGridAndRecompilesGraph) {
  MetricsRegistry metrics;
  auto run = runAdaptive(1, 5, smallSetup(), smallConfig(), IntVector(8),
                         IntVector(4), &metrics);
  const auto stats = run.engine->stats();
  EXPECT_GE(stats.regrids, 1);
  const auto grid = run.engine->grid();
  ASSERT_EQ(grid->numLevels(), 2);
  EXPECT_FALSE(grid->fineLevel().uniformlyTiled());
  EXPECT_LT(grid->fineLevel().coveredCells(),
            grid->fineLevel().numCells());
  EXPECT_GT(grid->fineLevel().numPatches(), 0u);
  // Scheduler was rewired onto the engine's grid.
  EXPECT_EQ(&run.scheds[0]->grid(), grid.get());
  // The controller recompiled and validated the graph on regrid steps.
  const auto snap = metrics.snapshot();
  const auto* recompiles = snap.find("sim.graph_recompiles");
  ASSERT_NE(recompiles, nullptr);
  EXPECT_GE(recompiles->value, 1.0);
  // The regrid lifecycle counters made it to the registry.
  const auto* regrids = snap.find("rmcrt.amr.regrids");
  ASSERT_NE(regrids, nullptr);
  EXPECT_GE(regrids->value, 1.0);
  // S2: the imbalance gauge is exported and live.
  const auto* gauge = snap.find("rmcrt.lb.imbalance");
  ASSERT_NE(gauge, nullptr);
  EXPECT_GE(gauge->value, 1.0);
}

TEST(AmrEngine, DivQDeterministicAcrossRankCounts) {
  // The complete adaptive lifecycle (estimate, cluster, regrid, migrate,
  // rebalance, trace) must produce the identical grid AND bitwise
  // identical divQ regardless of the rank decomposition.
  const RmcrtSetup setup = smallSetup(12);
  const AmrConfig cfg = smallConfig();
  auto r1 = runAdaptive(1, 5, setup, cfg, IntVector(8), IntVector(4));
  auto r2 = runAdaptive(2, 5, setup, cfg, IntVector(8), IntVector(4));
  auto r3 = runAdaptive(3, 5, setup, cfg, IntVector(8), IntVector(4));

  const auto g1 = r1.engine->grid();
  for (const auto& other : {r2.engine->grid(), r3.engine->grid()}) {
    ASSERT_EQ(g1->numPatches(), other->numPatches());
    for (int id = 0; id < g1->numPatches(); ++id)
      ASSERT_TRUE(g1->patchById(id)->cells() == other->patchById(id)->cells())
          << "patch " << id << " differs between rank counts";
  }

  auto divQOf = [&](AdaptiveRun& run, int pid) -> const CCVariable<double>& {
    const int owner = run.engine->loadBalancer()->rankOf(pid);
    return run.scheds[static_cast<std::size_t>(owner)]
        ->newDW()
        .get<double>(RmcrtLabels::divQ, pid);
  };
  const int fineLevel = g1->numLevels() - 1;
  for (const auto& p : g1->level(fineLevel).patches()) {
    const auto& a = divQOf(r1, p.id());
    const auto& b = divQOf(r2, p.id());
    const auto& c = divQOf(r3, p.id());
    for (const IntVector& cell : p.cells()) {
      ASSERT_EQ(a[cell], b[cell]) << "patch " << p.id();
      ASSERT_EQ(a[cell], c[cell]) << "patch " << p.id();
    }
  }
}

TEST(AmrEngine, MigrationCarriesDivQAcrossRegrid) {
  // With radiation every 2 steps and a regrid on the off-step, the
  // carry-forward right after the regrid must read migrated divQ (old
  // ids are gone); the run completing with finite divQ everywhere means
  // migration + DW rewiring held together.
  const RmcrtSetup setup = smallSetup();
  AmrConfig cfg = smallConfig();
  cfg.regridEvery = 3;

  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(2), IntVector(8), IntVector(4));
  auto lb = std::make_shared<LoadBalancer>(*grid, 1);
  auto engine = std::make_shared<AmrEngine>(grid, lb, 1, cfg);
  engine->setPropertySampler(
      RmcrtComponent::makePropertySampler(setup.problem));
  comm::Communicator world(1);
  Scheduler sched(grid, lb, world, 0);
  SimulationController ctl(
      sched,
      [&](Scheduler& s) {
        RmcrtComponent::registerTwoLevelPipeline(s, setup,
                                                 &engine->costModel());
      },
      [&](Scheduler& s) {
        s.addTask(runtime::makeCarryForwardTask(
            {RmcrtLabels::divQ}, s.grid().numLevels() - 1));
      });
  ctl.setRadiationInterval(2);
  ctl.setRegridHook([&](int step) { return engine->maybeRegrid(step, sched); });
  const auto records = ctl.run(5);  // regrid at step 3 (a carry-forward step)
  ASSERT_TRUE(records[3].regridded);
  ASSERT_FALSE(records[3].radiationStep);
  EXPECT_GE(engine->stats().regrids, 1);
  const auto g = engine->grid();
  for (const auto& p : g->fineLevel().patches()) {
    const auto& divQ = sched.newDW().get<double>(RmcrtLabels::divQ, p.id());
    for (const IntVector& c : p.cells())
      ASSERT_TRUE(std::isfinite(divQ[c])) << "patch " << p.id();
  }
}

TEST(AmrEngine, GpuLevelDatabaseInvalidatedOnRegrid) {
  gpu::GpuDevice dev{[] {
    gpu::GpuDevice::Config c;
    c.globalMemoryBytes = 64 << 20;
    return c;
  }()};
  gpu::GpuDataWarehouse gdw(dev);
  CCVariable<double> coarse(CellRange(IntVector(0), IntVector(8)), 1.0);
  gdw.getOrUploadLevelVar("abskg", 0, coarse);
  gdw.getOrUploadLevelVar("sigmaT4OverPi", 1, coarse);
  ASSERT_EQ(gdw.numLevelVarCopies(), 2u);
  EXPECT_GT(gdw.invalidateLevel(0), 0u);
  EXPECT_EQ(gdw.numLevelVarCopies(), 1u);  // level 1 entry survives
  EXPECT_GT(gdw.invalidateLevel(1), 0u);
  EXPECT_EQ(gdw.numLevelVarCopies(), 0u);
}

TEST(AmrEngine, RebalanceHysteresisSkipsMarginalGains) {
  // Feed the cost model a perfectly uniform workload: measured imbalance
  // stays at 1.0, below the threshold, so no rebalance ever fires.
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(2), IntVector(8), IntVector(4));
  auto lb = std::make_shared<LoadBalancer>(*grid, 2);
  AmrConfig cfg;
  cfg.regridEvery = 0;  // isolate the rebalance path
  AmrEngine engine(grid, lb, 2, cfg);
  for (const auto& p : grid->fineLevel().patches())
    engine.costModel().record(p.id(), 100.0);
  comm::Communicator world(2);
  Scheduler s0(grid, lb, world, 0);
  EXPECT_FALSE(engine.maybeRegrid(1, s0));
  EXPECT_EQ(engine.stats().rebalances, 0);
  EXPECT_DOUBLE_EQ(engine.stats().lastImbalance,
                   lb->imbalance(*grid, engine.costModel().measuredCosts(*grid)));
}

TEST(AmrEngine, BurnsChristonAcceptance8Ranks) {
  // The PR's acceptance demo: adaptive Burns & Christon on 8 simulated
  // ranks refines <= 70% of the uniform fine grid while the
  // measured-cost imbalance gauge lands at or below 1.15 after
  // rebalancing.
  MetricsRegistry metrics;
  RmcrtSetup setup = smallSetup(6);
  AmrConfig cfg;
  cfg.regridEvery = 2;
  cfg.estimator.refineThreshold = 0.10;
  cfg.cluster.minPatchSize = 2;
  cfg.cluster.maxPatchSize = 2;
  auto run = runAdaptive(8, 7, setup, cfg, IntVector(16), IntVector(8),
                         &metrics);
  const auto stats = run.engine->stats();
  const auto grid = run.engine->grid();
  ASSERT_GE(stats.regrids, 1);
  const double uniformFine =
      static_cast<double>(grid->fineLevel().numCells());
  const double adaptiveFine = static_cast<double>(stats.fineCoveredCells);
  EXPECT_LE(adaptiveFine, 0.70 * uniformFine)
      << "adaptive grid must save >= 30% of fine cells";
  EXPECT_GT(adaptiveFine, 0.0);
  EXPECT_LE(stats.lastImbalance, 1.15)
      << "post-rebalance measured-cost imbalance too high";
  const auto snap = metrics.snapshot();
  const auto* gauge = snap.find("rmcrt.lb.imbalance");
  ASSERT_NE(gauge, nullptr);
  EXPECT_LE(gauge->value, 1.15);
}

}  // namespace
}  // namespace rmcrt::amr
