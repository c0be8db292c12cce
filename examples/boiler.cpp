/// \file boiler.cpp
/// The paper's motivating application shape: a boiler-like radiation
/// solve (hot flame core, absorbing medium, emissive walls) run through
/// the FULL distributed pipeline — multiple ranks (threads) over the
/// simulated MPI layer, the 2-level AMR mesh, and the simulated-GPU
/// trace task with the shared level database. Reports the quantity the
/// CCMSC cares about: radiative heat flux to the walls.
///
///   ./examples/boiler [ranks=4] [fineCells=32] [rays=32]
///
/// ranks and rays must be positive and fineCells a positive multiple of 8;
/// anything else prints the usage and exits 2.

#include <climits>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "core/problems.h"
#include "core/radiometer.h"
#include "core/rmcrt_component.h"
#include "grid/load_balancer.h"
#include "grid/regridder.h"
#include "grid/vtk_writer.h"
#include "runtime/scheduler.h"
#include "util/observability_cli.h"

namespace {

/// Positional argument \p i as a whole number: \p fallback when absent,
/// 0 when malformed (rejected like any other non-positive value).
int intArg(int argc, char** argv, int i, int fallback) {
  if (i >= argc) return fallback;
  char* end = nullptr;
  const long v = std::strtol(argv[i], &end, 10);
  if (end == argv[i] || *end != '\0' || v < INT_MIN || v > INT_MAX) return 0;
  return static_cast<int>(v);
}

}  // namespace

int main(int argc, char** argv) {
  const rmcrt::ObservabilityOptions obs =
      rmcrt::parseObservabilityFlags(argc, argv);
  using namespace rmcrt;
  using namespace rmcrt::core;

  const int ranks = intArg(argc, argv, 1, 4);
  const int n = intArg(argc, argv, 2, 32);
  const int rays = intArg(argc, argv, 3, 32);
  // Refinement ratio 4 with fine patches of n/4 and coarse patches of n/8
  // cells per side: both tile the grid only when 8 divides n.
  if (ranks < 1 || rays < 1 || n < 8 || n % 8 != 0) {
    std::cerr << "usage: boiler [ranks=4] [fineCells=32] [rays=32]\n"
                 "  ranks >= 1, rays >= 1, fineCells a positive multiple "
                 "of 8\n";
    return 2;
  }

  std::cout << "Synthetic boiler radiation solve: " << n << "^3 fine / "
            << n / 4 << "^3 coarse, " << ranks
            << " ranks, GPU trace task, " << rays << " rays/cell\n\n";

  auto grid =
      grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(n),
                               IntVector(4), IntVector(n / 4),
                               IntVector(std::max(1, n / 8)));
  auto lb = std::make_shared<grid::LoadBalancer>(*grid, ranks,
                                                 grid::LbStrategy::Morton);
  comm::Communicator world(ranks);

  RmcrtSetup setup;
  setup.problem = syntheticBoiler();
  setup.trace.nDivQRays = rays;
  setup.trace.seed = 11;
  setup.roiHalo = 4;

  // One simulated K20X per rank (1 GPU per node, as on Titan).
  std::vector<std::unique_ptr<gpu::GpuDevice>> devices;
  std::vector<std::unique_ptr<gpu::GpuDataWarehouse>> gdws;
  std::vector<std::unique_ptr<runtime::Scheduler>> scheds;
  for (int r = 0; r < ranks; ++r) {
    devices.push_back(std::make_unique<gpu::GpuDevice>());
    gdws.push_back(std::make_unique<gpu::GpuDataWarehouse>(*devices.back()));
    scheds.push_back(
        std::make_unique<runtime::Scheduler>(grid, lb, world, r));
  }

  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      RmcrtComponent::registerTwoLevelGpuPipeline(*scheds[r], setup,
                                                  *gdws[r]);
      scheds[r]->executeTimestep();
    });
  }
  for (auto& t : threads) t.join();

  // Aggregate divQ statistics over the whole fine level.
  double minQ = 1e300, maxQ = -1e300, sum = 0.0;
  std::int64_t cells = 0;
  for (int r = 0; r < ranks; ++r) {
    for (int pid :
         lb->patchesOf(r, *grid, grid->numLevels() - 1)) {
      const auto& divQ =
          scheds[r]->newDW().get<double>(RmcrtLabels::divQ, pid);
      for (const auto& c : grid->patchById(pid)->cells()) {
        minQ = std::min(minQ, divQ[c]);
        maxQ = std::max(maxQ, divQ[c]);
        sum += divQ[c];
        ++cells;
      }
    }
  }
  std::cout << "divQ over " << cells << " cells: min " << std::fixed
            << std::setprecision(1) << minQ / 1000 << " kW/m^3, max "
            << maxQ / 1000 << " kW/m^3, mean " << sum / cells / 1000
            << " kW/m^3\n"
            << "(positive = net emitter: the flame core; negative = net "
               "absorber: cool gas heated by the core)\n\n";

  // Wall heat flux along the midline of the -x wall (serial tracer over
  // the same fields; the CCMSC quantity of interest).
  grid::CCVariable<double> abskg(grid->fineLevel().cells(), 0.0);
  grid::CCVariable<double> sig(grid->fineLevel().cells(), 0.0);
  grid::CCVariable<grid::CellType> ct(grid->fineLevel().cells(),
                                      grid::CellType::Flow);
  initializeProperties(grid->fineLevel(), setup.problem, abskg, sig, ct);
  const PackedLevelField records(
      RadiationFieldsView{FieldView<double>::fromHost(abskg),
                          FieldView<double>::fromHost(sig),
                          FieldView<grid::CellType>::fromHost(ct)});
  const TraceLevel tl{LevelGeom::from(grid->fineLevel()),
                      grid->fineLevel().cells(), records.view()};
  Tracer tracer({tl},
                WallProperties{setup.problem.wallSigmaT4OverPi,
                               setup.problem.wallEmissivity},
                setup.trace);
  std::cout << "incident radiative flux on the -x wall (z midplane):\n"
            << std::setw(8) << "y" << std::setw(16) << "q_in [kW/m^2]\n";
  for (int y = 0; y < n; y += std::max(1, n / 8)) {
    const double q =
        tracer.boundaryFlux(IntVector(0, y, n / 2), IntVector(-1, 0, 0), 200);
    std::cout << std::setw(8) << std::fixed << std::setprecision(3)
              << (y + 0.5) / n << std::setw(14) << std::setprecision(1)
              << q / 1000 << "\n";
  }

  // Gather divQ into a level image and dump it (plus the inputs) as
  // legacy VTK for ParaView/VisIt.
  {
    std::vector<grid::CCVariable<double>> patchVars;
    for (const grid::Patch& p : grid->fineLevel().patches()) {
      const int owner = lb->rankOf(p.id());
      grid::CCVariable<double> v(p, 0);
      const auto& src =
          scheds[owner]->newDW().get<double>(RmcrtLabels::divQ, p.id());
      v.copyRegion(src, p.cells());
      patchVars.push_back(std::move(v));
    }
    const grid::CCVariable<double> divQImage =
        grid::gatherFromPatches(patchVars, grid->fineLevel());
    if (grid::writeVtkLevel("boiler_divQ.vtk", grid->fineLevel(),
                            {{"divQ", &divQImage}})) {
      std::cout << "wrote boiler_divQ.vtk (load in ParaView/VisIt)\n\n";
    }
  }

  // A virtual radiometer mounted in the -x wall aimed at the flame core
  // (the instrument model used in the CCMSC validation campaigns).
  RadiometerSpec rad;
  rad.position = Vector(0.05, 0.5, 0.4);
  rad.viewDirection = Vector(1.0, 0.0, 0.0);
  rad.halfAngleRadians = 0.3;
  rad.nRays = 400;
  const RadiometerReading reading = evaluateRadiometer(tracer, rad);
  std::cout << "\nvirtual radiometer at (0.05, 0.5, 0.4) aimed +x: mean "
               "intensity "
            << std::setprecision(1) << reading.meanIntensity / 1000
            << " kW/m^2/sr over " << std::setprecision(3)
            << reading.solidAngle << " sr -> flux "
            << std::setprecision(1) << reading.flux / 1000 << " kW/m^2\n";

  // Spectral (3-band WSGG) divQ at the flame core versus gray — the
  // paper's future-work extension in action.
  TraceConfig bandCfg = setup.trace;
  bandCfg.bands = threeband();
  Tracer spectral({tl},
                  WallProperties{setup.problem.wallSigmaT4OverPi,
                                 setup.problem.wallEmissivity},
                  bandCfg);
  const IntVector core(n / 2, n / 2, 2 * n / 5);
  grid::CCVariable<double> sdivQ(CellRange(core, core + IntVector(1)), 0.0);
  spectral.computeDivQ(sdivQ.window(),
                       MutableFieldView<double>::fromHost(sdivQ));
  const double grayI = tracer.meanIncomingIntensity(core);
  const double grayQ = 4.0 * M_PI * abskg[core] * (sig[core] - grayI);
  std::cout << "flame-core divQ: gray " << std::setprecision(1)
            << grayQ / 1000 << " kW/m^3 vs 3-band spectral "
            << sdivQ[core] / 1000 << " kW/m^3\n";

  // Runtime/GPU accounting: the level database held ONE coarse copy.
  std::cout << "\nper-rank accounting:\n";
  for (int r = 0; r < ranks; ++r) {
    const auto& st = scheds[r]->stats();
    const auto ds = devices[r]->stats();
    std::cout << "  rank " << r << ": " << st.tasksExecuted << " tasks, "
              << st.messagesSent << " msgs sent, "
              << st.bytesReceived / 1024 << " KiB recvd | GPU: "
              << ds.kernelsLaunched << " kernels, H2D "
              << ds.h2dBytes / 1024 << " KiB, D2H " << ds.d2hBytes / 1024
              << " KiB, level-DB copies " << gdws[r]->numLevelVarCopies()
              << "\n";
  }
  if (obs.any()) {
    MetricsRegistry& reg = MetricsRegistry::global();
    for (int r = 0; r < ranks; ++r) {
      const std::string pfx = "rank" + std::to_string(r) + ".";
      scheds[r]->exportMetrics(reg, "scheduler." + pfx);
      gpu::exportMetrics(devices[r]->stats(), reg, "gpu." + pfx);
    }
    reg.recordTimestep(0);
  }
  rmcrt::writeObservabilityOutputs(obs);
  return 0;
}
