/// \file bench_scaling.cc
/// Regenerates paper Figures 2 and 3: GPU strong scaling of the 2-level
/// RMCRT benchmark (RR:4, 100 rays/cell) for patch sizes 16^3 / 32^3 /
/// 64^3 — Figure 2 on the MEDIUM problem (256^3 fine CFD mesh, 64^3
/// coarse radiation mesh), Figure 3 on the LARGE one (512^3 fine / 128^3
/// coarse, 136.31M cells) to 16,384 GPUs, with the Section V
/// parallel-efficiency headline numbers (Eq. 3): 96% from 4096->8192
/// GPUs and 89% from 4096->16,384.
///
/// Parts:
///  1. google-benchmark diagnostics, skipped by --smoke: the REAL
///     distributed pipeline at laptop scale (scheduler + comm + tracer
///     end to end) and the multi-level kernel at one-patch scale (the
///     quantity the model is calibrated from);
///  2. the Figure 2 and Figure 3 tables from the machine model, both at
///     Titan defaults and calibrated from the committed kernel baseline
///     (BENCH_rmcrt_kernel.json — override with --calibration=<path>);
///  3. the full study — MEDIUM + LARGE sweeps, Table I comm rows, Eq. 3
///     headlines, for the Titan-default and kernel-calibrated machine
///     models — written as JSON (--json=<path>, default
///     BENCH_scaling.json), the artifact CI's shape gate
///     (scaling_reproduction_test + check_bench_regression.py --mode
///     scaling) verifies. The study is pure deterministic model
///     arithmetic and is always complete.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "grid/load_balancer.h"
#include "runtime/scheduler.h"
#include "sim/calibration.h"
#include "sim/scaling_report.h"
#include "sim/scaling_study.h"
#include "util/observability_cli.h"

namespace {

using namespace rmcrt;

/// Real end-to-end pipeline at reduced scale: 32^3 fine / 8^3 coarse.
void BM_DistributedPipeline(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  core::RmcrtSetup setup;
  setup.problem = core::burnsChriston();
  setup.trace.nDivQRays = 4;
  setup.roiHalo = 2;
  auto grid =
      grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(32),
                               IntVector(4), IntVector(8), IntVector(4));
  for (auto _ : state) {
    auto lb = std::make_shared<grid::LoadBalancer>(*grid, ranks);
    comm::Communicator world(ranks);
    std::vector<std::unique_ptr<runtime::Scheduler>> scheds;
    for (int r = 0; r < ranks; ++r)
      scheds.push_back(
          std::make_unique<runtime::Scheduler>(grid, lb, world, r));
    std::vector<std::thread> threads;
    for (int r = 0; r < ranks; ++r) {
      threads.emplace_back([&, r] {
        core::RmcrtComponent::registerTwoLevelPipeline(*scheds[r], setup);
        scheds[r]->executeTimestep();
      });
    }
    for (auto& t : threads) t.join();
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 32);
}
BENCHMARK(BM_DistributedPipeline)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// The real multi-level kernel at one-patch scale — the quantity the
/// model is calibrated from.
void BM_MultiLevelTracePatch(benchmark::State& state) {
  const int patchSize = static_cast<int>(state.range(0));
  auto grid = grid::Grid::makeTwoLevel(
      Vector(0.0), Vector(1.0), IntVector(std::max(16, 2 * patchSize)),
      IntVector(4), IntVector(patchSize),
      IntVector(std::max(1, std::max(16, 2 * patchSize) / 4)));
  core::RmcrtSetup setup;
  setup.problem = core::burnsChriston();
  setup.trace.nDivQRays = 2;
  setup.roiHalo = 4;
  for (auto _ : state) {
    auto divQ = core::RmcrtComponent::solveSerialTwoLevel(*grid, setup);
    benchmark::DoNotOptimize(divQ.data());
  }
  state.SetItemsProcessed(state.iterations() * grid->fineLevel().numCells() *
                          setup.trace.nDivQRays);
}
BENCHMARK(BM_MultiLevelTracePatch)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void printFigure2(const rmcrt::sim::Calibration& c) {
  using namespace rmcrt::sim;
  std::cout << "\n=== Paper Figure 2 reproduction ===\n\n";
  std::cout << "[Titan-default machine model]\n";
  mediumStudy().print(std::cout, titan());

  std::cout << "\n[calibrated: " << c.detail << " = "
            << c.hostSegmentsPerSecond / 1e6
            << " Mseg/s, K20X scale 12x]\n";
  mediumStudy().print(std::cout, calibrate(titan(), c));
  std::cout << "\nExpected shape (paper): larger patches are faster per "
               "GPU; each curve scales until patches/GPU reaches 1; the "
               "16^3 curve extends furthest.\n";
}

void printFigure3(const rmcrt::sim::Calibration& c) {
  using namespace rmcrt::sim;
  std::cout << "\n=== Paper Figure 3 reproduction ===\n\n";
  const MachineModel m = titan();
  std::cout << "[Titan-default machine model]\n";
  largeStudy().print(std::cout, m);

  const MachineModel cal = calibrate(titan(), c);
  std::cout << "\n[calibrated: " << c.detail << " = "
            << c.hostSegmentsPerSecond / 1e6 << " Mseg/s, K20X scale 12x]\n";
  largeStudy().print(std::cout, cal);

  std::cout << "\nParallel efficiency per Eq. 3 (16^3 patches):\n";
  for (const MachineModel* mm : {&m, &cal}) {
    std::cout << "  " << (mm == &m ? "default " : "calibrated")
              << ": eff(4096->8192) = " << std::fixed << std::setprecision(1)
              << largeProblemEfficiency(*mm, 16, 4096, 8192) * 100
              << "%,  eff(4096->16384) = "
              << largeProblemEfficiency(*mm, 16, 4096, 16384) * 100 << "%\n";
  }
  std::cout << "  paper   : eff(4096->8192) = 96%, eff(4096->16384) = 89%\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Flags (bench_rmcrt_kernel conventions, consumed before
  // google-benchmark sees the command line):
  //   --smoke               skip the google-benchmark diagnostics;
  //                         print the study tables and write the JSON only
  //   --json=<path>         scaling-study output (default BENCH_scaling.json)
  //   --calibration=<path>  kernel baseline to calibrate from (default
  //                         BENCH_rmcrt_kernel.json; deterministic
  //                         fallback constants if missing)
  const rmcrt::ObservabilityOptions obs =
      rmcrt::parseObservabilityFlags(argc, argv);
  bool smoke = false;
  std::string jsonPath = "BENCH_scaling.json";
  std::string calibrationPath = "BENCH_rmcrt_kernel.json";
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      jsonPath = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--calibration=", 14) == 0) {
      calibrationPath = argv[i] + 14;
    } else {
      argv[keep++] = argv[i];
    }
  }
  argc = keep;

  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }

  const rmcrt::sim::Calibration c =
      rmcrt::sim::calibrationFromBenchJson(calibrationPath);
  printFigure2(c);
  printFigure3(c);

  const rmcrt::sim::ScalingReport report =
      rmcrt::sim::collectScalingReport(c);
  std::ofstream out(jsonPath);
  rmcrt::sim::writeScalingReportJson(out, report, smoke);
  std::cout << "\nScaling study written to " << jsonPath
            << " (calibration source: "
            << rmcrt::sim::calibrationSourceName(c.source) << ")\n";

  rmcrt::writeObservabilityOutputs(obs);
  return 0;
}
