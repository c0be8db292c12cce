/// \file burns_christon.cpp
/// Accuracy study on the Burns & Christon benchmark (the paper's
/// validation problem, refs [30]/[3]): Monte Carlo convergence of the
/// single-level tracer, and the multi-level (AMR) tracer's deviation as
/// a function of the region-of-interest halo — the accuracy/communication
/// tradeoff at the heart of the paper's scheme.
///
/// Part 3 drives the adaptive regridding engine on 8 simulated ranks:
/// the error estimator flags the tent-profile gradients, the clusterer
/// boxes them into fine patches, and the measured-cost balancer
/// partitions the result — printing fine-cell savings and the
/// rmcrt.lb.imbalance gauge.
///
///   ./examples/burns_christon [cellsPerSide=16]
///       [--regrid-every=N] [--regrid-threshold=X]

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "amr/amr_engine.h"
#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "grid/load_balancer.h"
#include "runtime/simulation_controller.h"
#include "util/metrics.h"
#include "util/observability_cli.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  const rmcrt::ObservabilityOptions obs =
      rmcrt::parseObservabilityFlags(argc, argv);
  using namespace rmcrt;
  using namespace rmcrt::core;

  int regridEvery = 2;
  double regridThreshold = 0.10;
  int n = 16;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--regrid-every=", 15) == 0)
      regridEvery = std::atoi(argv[i] + 15);
    else if (std::strncmp(argv[i], "--regrid-threshold=", 19) == 0)
      regridThreshold = std::atof(argv[i] + 19);
    else if (argv[i][0] != '-')
      n = std::atoi(argv[i]);
  }
  std::cout << "Burns & Christon accuracy study, " << n << "^3 fine mesh\n";

  auto grid1 = grid::Grid::makeSingleLevel(Vector(0.0), Vector(1.0),
                                           IntVector(n), IntVector(n));

  // --- Part 1: Monte Carlo convergence (error ~ 1/sqrt(rays)). --------
  RmcrtSetup truth;
  truth.problem = burnsChriston();
  truth.trace.nDivQRays = 8192;
  truth.trace.seed = 1;
  std::cout << "\n[1] computing 8192-ray reference..." << std::flush;
  grid::CCVariable<double> ref =
      RmcrtComponent::solveSerialSingleLevel(*grid1, truth);
  std::cout << " done\n\n";

  std::cout << std::setw(10) << "rays" << std::setw(16) << "rel L2 error"
            << std::setw(18) << "err*sqrt(rays)\n";
  for (int rays : {25, 50, 100, 200, 400, 800}) {
    RmcrtSetup s = truth;
    s.trace.nDivQRays = rays;
    s.trace.seed = 77;  // independent of the reference stream
    grid::CCVariable<double> q =
        RmcrtComponent::solveSerialSingleLevel(*grid1, s);
    std::vector<double> a, b;
    for (const auto& c : q.window()) {
      a.push_back(q[c]);
      b.push_back(ref[c]);
    }
    const double err = relativeL2Error(a, b);
    std::cout << std::setw(10) << rays << std::setw(16) << std::scientific
              << std::setprecision(3) << err << std::setw(16) << std::fixed
              << std::setprecision(4) << err * std::sqrt(double(rays))
              << "\n";
  }
  std::cout << "(constant err*sqrt(rays) = the expected Monte Carlo "
               "convergence reported in Hunsaker et al. [3])\n";

  // --- Part 2: multi-level deviation vs ROI halo. ----------------------
  std::cout << "\n[2] 2-level tracer (RR 4) deviation from single-level, "
               "100 rays:\n\n";
  RmcrtSetup base;
  base.problem = burnsChriston();
  base.trace.nDivQRays = 100;
  base.trace.seed = 5;
  grid::CCVariable<double> one =
      RmcrtComponent::solveSerialSingleLevel(*grid1, base);

  std::cout << std::setw(10) << "ROI halo" << std::setw(20)
            << "rel L2 vs 1-level" << "\n";
  for (int halo : {1, 2, 4, 8, n}) {
    auto grid2 = grid::Grid::makeTwoLevel(
        Vector(0.0), Vector(1.0), IntVector(n), IntVector(4),
        IntVector(std::max(4, n / 4)), IntVector(std::max(1, n / 8)));
    RmcrtSetup s = base;
    s.roiHalo = halo;
    grid::CCVariable<double> two =
        RmcrtComponent::solveSerialTwoLevel(*grid2, s);
    std::vector<double> a, b;
    for (const auto& c : two.window()) {
      a.push_back(two[c]);
      b.push_back(one[c]);
    }
    std::cout << std::setw(10) << halo << std::setw(16) << std::scientific
              << std::setprecision(3) << relativeL2Error(a, b) << "\n";
  }
  std::cout << "(deviation -> 0 as the ROI covers the level: the coarse "
               "continuation is the only approximation the AMR scheme "
               "introduces)\n";

  // --- Part 3: adaptive regridding on 8 simulated ranks. ---------------
  if (regridEvery > 0) {
    using runtime::Scheduler;
    using runtime::SimulationController;
    std::cout << "\n[3] adaptive regrid (every " << regridEvery
              << " steps, threshold " << std::fixed << std::setprecision(2)
              << regridThreshold << ") on 8 simulated ranks:\n\n";

    const int numRanks = 8;
    const int steps = 2 * regridEvery + 1;
    MetricsRegistry reg;
    auto grid = grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0),
                                         IntVector(2 * n), IntVector(2),
                                         IntVector(n / 2), IntVector(n / 4));
    auto lb = std::make_shared<grid::LoadBalancer>(*grid, numRanks);

    RmcrtSetup setup;
    setup.problem = burnsChriston();
    setup.trace.nDivQRays = 8;
    setup.trace.seed = 71;
    setup.roiHalo = 2;

    amr::AmrConfig cfg;
    cfg.regridEvery = regridEvery;
    cfg.estimator.refineThreshold = regridThreshold;
    cfg.cluster.minPatchSize = 2;
    cfg.cluster.maxPatchSize = 2;
    auto engine = std::make_shared<amr::AmrEngine>(grid, lb, numRanks, cfg);
    engine->setPropertySampler(
        RmcrtComponent::makePropertySampler(setup.problem));
    engine->setMetrics(&reg);

    comm::Communicator world(numRanks);
    std::vector<std::unique_ptr<Scheduler>> scheds;
    for (int r = 0; r < numRanks; ++r)
      scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r));
    std::vector<std::thread> threads;
    for (int r = 0; r < numRanks; ++r) {
      threads.emplace_back([&, r] {
        Scheduler& sched = *scheds[r];
        // Per-rank coarse-record cache: each radiation step's
        // re-registration repacks only regrid-migrated coverage.
        RmcrtSetup rankSetup = setup;
        rankSetup.packedCache = std::make_shared<PackedLevelCache>();
        SimulationController ctl(
            sched,
            [&, rankSetup](Scheduler& s) {
              RmcrtComponent::registerTwoLevelPipeline(
                  s, rankSetup, &engine->costModel());
            },
            [&](Scheduler& s) {
              s.addTask(runtime::makeCarryForwardTask(
                  {RmcrtLabels::divQ}, s.grid().numLevels() - 1));
            });
        ctl.setRegridHook(
            [&](int step) { return engine->maybeRegrid(step, sched); });
        ctl.run(steps);
      });
    }
    for (auto& t : threads) t.join();

    const auto stats = engine->stats();
    const grid::Level& fine = engine->grid()->fineLevel();
    const double saved = 1.0 - static_cast<double>(fine.coveredCells()) /
                                   static_cast<double>(fine.numCells());
    double gauge = 0.0;
    if (const auto* e = reg.snapshot().find("rmcrt.lb.imbalance"))
      gauge = e->value;
    std::cout << std::fixed << std::setprecision(1) << "  regrids="
              << stats.regrids << " rebalances=" << stats.rebalances
              << " skipped=" << stats.rebalancesSkipped << "\n"
              << "  fine cells " << fine.coveredCells() << " / "
              << fine.numCells() << " uniform (" << saved * 100.0
              << "% saved)\n"
              << std::setprecision(3) << "  rmcrt.lb.imbalance gauge "
              << gauge << " (measured " << stats.lastImbalance << ")\n"
              << "(refinement follows the tent-profile gradients; the "
                 "balancer packs the surviving patches by measured segment "
                 "cost)\n";
  }
  rmcrt::writeObservabilityOutputs(obs);
  return 0;
}
