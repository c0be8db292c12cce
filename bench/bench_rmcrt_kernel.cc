/// \file bench_rmcrt_kernel.cc
/// The RMCRT kernel itself (paper Sections III/V setup): marching
/// throughput versus patch size (the 16^3/32^3/64^3 sweep that drives
/// the scaling figures), versus ray count, single- versus multi-level,
/// and the DOM baseline for contrast (the solver RMCRT replaces inside
/// ARCHES). Ends with the measured segments/s per patch size — the
/// calibration inputs of the performance model.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/dom_solver.h"
#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "grid/load_balancer.h"
#include "mem/mmap_arena.h"
#include "sim/calibration.h"
#include "util/observability_cli.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timers.h"

namespace {

using namespace rmcrt;
using namespace rmcrt::core;

/// The Burns & Christon fields of an n^3 single-level grid, packed once
/// into the records every Tracer of the fixture marches.
struct KernelFixture {
  std::shared_ptr<grid::Grid> grid;
  grid::CCVariable<double> abskg, sig;
  grid::CCVariable<grid::CellType> ct;
  PackedLevelField records;

  explicit KernelFixture(int n)
      : grid(grid::Grid::makeSingleLevel(Vector(0.0), Vector(1.0),
                                         IntVector(n), IntVector(n))),
        abskg(grid->fineLevel().cells(), 0.0),
        sig(grid->fineLevel().cells(), 0.0),
        ct(grid->fineLevel().cells(), grid::CellType::Flow) {
    initializeProperties(grid->fineLevel(), burnsChriston(), abskg, sig, ct);
    records.pack(views());
  }

  RadiationFieldsView views() const {
    return {FieldView<double>::fromHost(abskg),
            FieldView<double>::fromHost(sig),
            FieldView<grid::CellType>::fromHost(ct)};
  }

  /// The whole level over the fixture's records.
  TraceLevel level() const {
    return {LevelGeom::from(grid->fineLevel()), grid->fineLevel().cells(),
            records.view()};
  }

  Tracer tracer(int rays) const {
    TraceConfig cfg;
    cfg.nDivQRays = rays;
    // The scalar march: the thread sweep's committed baseline was
    // measured on it, so a collapse of the golden reference still trips
    // the gate. simd_microbench measures the packet path.
    cfg.useSimd = false;
    return Tracer({level()}, WallProperties{0.0, 1.0}, cfg);
  }
};

void BM_TraceSingleLevel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int rays = static_cast<int>(state.range(1));
  KernelFixture fx(n);
  Tracer tracer = fx.tracer(rays);
  grid::CCVariable<double> divQ(fx.grid->fineLevel().cells(), 0.0);
  for (auto _ : state) {
    tracer.computeDivQ(fx.grid->fineLevel().cells(),
                       MutableFieldView<double>::fromHost(divQ));
    benchmark::DoNotOptimize(divQ.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          fx.grid->fineLevel().numCells() * rays);
  state.counters["Mseg/s"] = benchmark::Counter(
      static_cast<double>(tracer.segmentCount()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceSingleLevel)
    ->Args({16, 4})
    ->Args({16, 16})
    ->Args({16, 64})
    ->Args({32, 4})
    ->Unit(benchmark::kMillisecond);

void BM_TraceSingleLevelThreaded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int rays = static_cast<int>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  KernelFixture fx(n);
  Tracer tracer = fx.tracer(rays);
  ThreadPool pool(static_cast<std::size_t>(threads));
  grid::CCVariable<double> divQ(fx.grid->fineLevel().cells(), 0.0);
  for (auto _ : state) {
    tracer.computeDivQ(fx.grid->fineLevel().cells(),
                       MutableFieldView<double>::fromHost(divQ),
                       threads > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(divQ.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          fx.grid->fineLevel().numCells() * rays);
  state.counters["Mseg/s"] = benchmark::Counter(
      static_cast<double>(tracer.segmentCount()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceSingleLevelThreaded)
    ->Args({32, 16, 1})
    ->Args({32, 16, 2})
    ->Args({32, 16, 4})
    ->Args({32, 16, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_DomSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int order = static_cast<int>(state.range(1));
  KernelFixture fx(n);
  DomSolver solver(LevelGeom::from(fx.grid->fineLevel()), fx.views(),
                   WallProperties{0.0, 1.0}, order);
  grid::CCVariable<double> divQ(fx.grid->fineLevel().cells(), 0.0);
  for (auto _ : state) {
    solver.computeDivQ(fx.grid->fineLevel().cells(),
                       MutableFieldView<double>::fromHost(divQ));
    benchmark::DoNotOptimize(divQ.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          fx.grid->fineLevel().numCells());
}
BENCHMARK(BM_DomSolve)->Args({16, 2})->Args({16, 4})->Args({32, 4})
    ->Unit(benchmark::kMillisecond);

void BM_BoundaryFlux(benchmark::State& state) {
  KernelFixture fx(16);
  Tracer tracer = fx.tracer(4);
  for (auto _ : state) {
    const double q =
        tracer.boundaryFlux(IntVector(0, 8, 8), IntVector(-1, 0, 0), 100);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BoundaryFlux);

/// A/B of the scalar packed march against the SIMD packet march
/// (DESIGN.md §14) on a fixed isotropic ray bundle from the domain
/// center, through the batched Tracer::traceRays entry point both sides
/// use in production. The SIMD path agrees with the scalar golden reference
/// only within a ULP tolerance (vectorized exp), so the report carries
/// the measured worst-case relative error instead of a bitwise flag.
struct SimdReport {
  bool supported = false;  ///< Tracer::simdSupported() on this host
  const char* isa = "none";  ///< Tracer::simdIsa(): kernel the host picked
  int gridN = 0;           ///< fixture edge cells (full mode: 128, the
                           ///< paper's per-rank patch scale, DRAM-resident)
  double scalarMsegPerS = 0.0;
  double simdMsegPerS = 0.0;
  double speedup = 0.0;
  double maxRelErr = 0.0;  ///< worst per-ray |simd - scalar| / |scalar|
};

SimdReport measureSimdAB(bool smoke) {
  // Full mode uses a 128-cell fixture: that matches the paper's
  // per-rank patch scale, the property field no longer fits in L2, and
  // the scalar march goes memory-latency-bound — the regime the packet
  // kernels are built for (their gathers overlap misses across lanes
  // and packets). Smoke mode keeps the small L2-resident grid for CI
  // turnaround.
  const int n = smoke ? 16 : 128;
  const int repeats = smoke ? 3 : 5;
  const int nRays = smoke ? 20000 : 100000;
  KernelFixture fx(n);
  SimdReport rep;
  rep.supported = Tracer::simdSupported();
  rep.isa = Tracer::simdIsa();
  rep.gridN = n;

  // A deterministic isotropic bundle from the domain center, batched so
  // both paths go through traceRays.
  const Vector center = fx.grid->fineLevel().physLow() +
                        (fx.grid->fineLevel().physHigh() -
                         fx.grid->fineLevel().physLow()) *
                            Vector(0.5);
  std::vector<Vector> origins(static_cast<std::size_t>(nRays), center);
  std::vector<Vector> dirs(static_cast<std::size_t>(nRays));
  for (int i = 0; i < nRays; ++i) {
    Rng rng(/*domainSeed=*/97, IntVector(i, 0, 0), /*ray=*/0);
    dirs[static_cast<std::size_t>(i)] = isotropicDirection(rng);
  }

  const auto timeBatch = [&](bool simd, std::vector<double>& out) {
    TraceConfig cfg;
    cfg.nDivQRays = 16;
    cfg.useSimd = simd;
    Tracer tracer({fx.level()}, WallProperties{0.0, 1.0}, cfg);
    out.assign(static_cast<std::size_t>(nRays), 0.0);
    double best = std::numeric_limits<double>::infinity();
    std::uint64_t segments = 0;
    for (int r = 0; r < repeats; ++r) {
      tracer.resetSegmentCount();
      Timer timer;
      tracer.traceRays(nRays, origins.data(), dirs.data(), out.data());
      best = std::min(best, timer.seconds());
      segments = tracer.segmentCount();
    }
    return static_cast<double>(segments) / best / 1e6;
  };
  std::vector<double> iScalar, iSimd;
  rep.scalarMsegPerS = timeBatch(/*simd=*/false, iScalar);
  rep.simdMsegPerS = timeBatch(/*simd=*/true, iSimd);
  rep.speedup = rep.simdMsegPerS / rep.scalarMsegPerS;
  for (int i = 0; i < nRays; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    const double denom = std::max(std::abs(iScalar[s]), 1e-300);
    rep.maxRelErr =
        std::max(rep.maxRelErr, std::abs(iSimd[s] - iScalar[s]) / denom);
  }
  return rep;
}

/// Sweep thread counts over the Burns & Christon single-level trace and
/// write a machine-readable baseline (BENCH_rmcrt_kernel.json) so later
/// PRs have a perf trajectory to compare against. Also cross-checks that
/// every threaded result is bitwise identical to the serial one, and
/// appends the scalar-vs-SIMD packet march A/B.
void writeThreadSweepJson(const std::string& path, bool smoke) {
  // The sweep fixture is identical in smoke and full mode so a CI smoke
  // run is directly comparable to the committed full-mode baseline (the
  // perf gate divides one by the other; a smaller smoke problem would
  // shift the per-ray-setup/per-segment cost ratio and skew Mseg/s).
  // Smoke saves its time by measuring fewer repeats and thread counts.
  const int n = 32;
  const int rays = 16;
  const int repeats = smoke ? 2 : 5;
  KernelFixture fx(n);
  Tracer tracer = fx.tracer(rays);
  const CellRange cells = fx.grid->fineLevel().cells();

  grid::CCVariable<double> serial(cells, 0.0);
  tracer.computeDivQ(cells, MutableFieldView<double>::fromHost(serial));

  struct Sample {
    int threads;
    double seconds;
    double msegPerS;
    double speedup;
    bool bitwise;
    /// More workers than hardware threads: the sample measures scheduling
    /// overhead, not scaling — the regression gate must not treat a
    /// sub-1.0 speedup here as a regression (CI runners vary in width).
    bool oversubscribed;
  };
  std::vector<Sample> samples;
  double serialSeconds = 0.0;
  const std::vector<int> threadCounts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  for (int threads : threadCounts) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    grid::CCVariable<double> divQ(cells, 0.0);
    double best = std::numeric_limits<double>::infinity();
    std::uint64_t segments = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      tracer.resetSegmentCount();
      Timer timer;
      tracer.computeDivQ(cells, MutableFieldView<double>::fromHost(divQ),
                         threads > 1 ? &pool : nullptr);
      best = std::min(best, timer.seconds());
      segments = tracer.segmentCount();
    }
    bool bitwise = true;
    for (const auto& c : cells)
      if (divQ[c] != serial[c]) bitwise = false;
    if (threads == 1) serialSeconds = best;
    samples.push_back(Sample{threads, best,
                             static_cast<double>(segments) / best / 1e6,
                             serialSeconds / best, bitwise,
                             static_cast<unsigned>(threads) >
                                 std::thread::hardware_concurrency()});
  }

  const SimdReport simd = measureSimdAB(smoke);

  std::ofstream out(path);
  out << std::setprecision(6) << std::fixed;
  out << "{\n"
      << "  \"benchmark\": \"rmcrt_kernel_thread_sweep\",\n"
      << "  \"problem\": \"burns_christon\",\n"
      << "  \"patch\": " << n << ",\n"
      << "  \"rays_per_cell\": " << rays << ",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"hardware_threads\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    out << "    {\"threads\": " << s.threads << ", \"seconds\": "
        << s.seconds << ", \"mseg_per_s\": " << s.msegPerS
        << ", \"speedup_vs_serial\": " << s.speedup
        << ", \"bitwise_match\": " << (s.bitwise ? "true" : "false")
        << ", \"oversubscribed\": " << (s.oversubscribed ? "true" : "false")
        << "}" << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"simd_microbench\": {\"supported\": "
      << (simd.supported ? "true" : "false") << ", \"isa\": \"" << simd.isa
      << "\", \"grid_n\": " << simd.gridN << ", \"scalar_mseg_per_s\": "
      << simd.scalarMsegPerS << ", \"simd_mseg_per_s\": "
      << simd.simdMsegPerS << ", \"speedup\": " << simd.speedup
      << ", \"max_rel_err\": " << std::scientific << simd.maxRelErr
      << std::fixed << "}\n";
  out << "}\n";
  std::cout << "\nThread sweep baseline written to " << path << "\n";
  for (const Sample& s : samples)
    std::cout << "  threads=" << s.threads << "  " << std::setw(8)
              << s.seconds * 1e3 << " ms  speedup=" << std::setprecision(2)
              << s.speedup << std::setprecision(6)
              << (s.bitwise ? "" : "  [BITWISE MISMATCH]") << "\n";
  std::cout << std::setprecision(2) << "  simd microbench: ";
  if (simd.supported)
    std::cout << simd.isa << " " << simd.simdMsegPerS << " Mseg/s vs scalar "
              << simd.scalarMsegPerS << " Mseg/s (" << simd.speedup
              << "x) at " << simd.gridN << "^3, max rel err "
              << std::scientific << simd.maxRelErr << std::fixed
              << std::setprecision(6) << "\n";
  else
    std::cout << "not supported on this host (scalar dispatch verified, "
              << std::setprecision(2) << simd.scalarMsegPerS
              << " Mseg/s)" << std::setprecision(6) << "\n";
}

/// Observability mode (--trace-out / --metrics-out): run one radiation
/// timestep of the distributed two-level GPU pipeline on 2 simulated
/// ranks with tracing enabled, so the emitted trace and metrics snapshot
/// cover every instrumented subsystem — scheduler task lifecycle, comm
/// channel, GPU staging/kernels, and the tracer's ray/segment counters.
void runObservabilityPipeline() {
  using runtime::Scheduler;

  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset();
  TraceRecorder::global().clear();

  auto grid = grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0),
                                       IntVector(16), IntVector(4),
                                       IntVector(4), IntVector(4));
  RmcrtSetup setup;
  setup.problem = burnsChriston();
  setup.trace.nDivQRays = 8;
  setup.trace.seed = 42;
  setup.roiHalo = 3;

  const int numRanks = 2;
  auto lb = std::make_shared<grid::LoadBalancer>(*grid, numRanks);
  comm::Communicator world(numRanks);
  std::vector<std::unique_ptr<gpu::GpuDevice>> devices;
  std::vector<std::unique_ptr<gpu::GpuDataWarehouse>> gdws;
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < numRanks; ++r) {
    gpu::GpuDevice::Config cfg;
    cfg.globalMemoryBytes = 256 << 20;
    devices.push_back(std::make_unique<gpu::GpuDevice>(cfg));
    gdws.push_back(std::make_unique<gpu::GpuDataWarehouse>(*devices.back()));
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r));
  }
  std::vector<std::thread> threads;
  for (int r = 0; r < numRanks; ++r) {
    threads.emplace_back([&, r] {
      core::RmcrtComponent::registerTwoLevelGpuPipeline(*scheds[r], setup,
                                                        *gdws[r]);
      scheds[r]->executeTimestep();
    });
  }
  for (auto& t : threads) t.join();

  for (int r = 0; r < numRanks; ++r) {
    const std::string rank = "rank" + std::to_string(r) + ".";
    scheds[r]->exportMetrics(reg, "scheduler." + rank);
    gpu::exportMetrics(devices[r]->stats(), reg, "gpu." + rank);
  }
  mem::exportMetrics(mem::MmapArena::stats(), reg, "mem.arena.");
  reg.recordTimestep(0);
  std::cout << "observability pipeline: 2 ranks, 16^3/4^3 two-level GPU "
               "trace, 1 radiation timestep\n";
}

/// Variance-adaptive sampling + spectral banding bench (--adaptive-rays):
/// solves the Burns & Christon golden fixture (41^3, 64 rays/cell,
/// seed 71 — the configuration the golden centerline test pins) with the
/// fixed fan and with the variance-adaptive budget controller, and
/// reports the segment reduction at measured accuracy plus the bitwise
/// neutrality gates the CI regression checker enforces:
///   - adaptiveRays=false with the knobs set is bitwise the fixed fan
///   - adaptiveRays=true with pilot == cap == nDivQRays is bitwise too
///     (the pilot is a prefix of the fixed fan, same RNG streams)
///   - a single {weight=1, kappaScale=1} spectral band is bitwise gray
/// The spectral section then runs the WSGG band model, fixed-fan and
/// adaptive. Band b's throughput comes from a single-band {1, s_b} solve
/// on band b's seed, which traces exactly band b's rays.
void runAdaptiveSamplingBench(bool smoke, const std::string& jsonPath,
                              int pilotRays, double errorTarget,
                              int bandCount) {
  const int n = 41;
  const int rays = 64;
  const int repeats = smoke ? 1 : 3;
  KernelFixture fx(n);
  const CellRange cells = fx.grid->fineLevel().cells();
  const WallProperties walls{0.0, 1.0};
  TraceConfig fixedCfg;
  fixedCfg.nDivQRays = rays;
  fixedCfg.seed = 71;
  // The scalar march, which the committed throughputs were measured on.
  fixedCfg.useSimd = false;

  struct Solve {
    std::vector<double> divQ;
    std::uint64_t segments = 0;
    double msegPerS = 0.0;
  };
  const auto collect = [&](const grid::CCVariable<double>& f) {
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(cells.volume()));
    for (const auto& c : cells) out.push_back(f[c]);
    return out;
  };
  const auto solve = [&](const TraceConfig& cfg) {
    Tracer tracer({fx.level()}, walls, cfg);
    grid::CCVariable<double> divQ(cells, 0.0);
    Solve s;
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
      tracer.resetSegmentCount();
      Timer timer;
      tracer.computeDivQ(cells, MutableFieldView<double>::fromHost(divQ));
      best = std::min(best, timer.seconds());
      s.segments = tracer.segmentCount();
    }
    s.msegPerS = static_cast<double>(s.segments) / best / 1e6;
    s.divQ = collect(divQ);
    return s;
  };
  const auto bitwise = [](const Solve& a, const Solve& b) {
    return a.divQ == b.divQ;
  };
  const auto centerline = [&](const Solve& s) {
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(n));
    const int mid = n / 2;
    grid::CCVariable<double> f(cells, 0.0);
    std::size_t i = 0;
    for (const auto& c : cells) f[c] = s.divQ[i++];
    for (int x = 0; x < n; ++x)
      out.push_back(f[IntVector(x, mid, mid)]);
    return out;
  };

  // Fixed fan: the reference answer and the segment denominator.
  const Solve fixed = solve(fixedCfg);

  // Off-path neutrality: adaptive knobs set but adaptiveRays=false must
  // leave the fixed fan untouched (guards against knob leakage into the
  // always-on march, e.g. the kappaScale multiply).
  TraceConfig offCfg = fixedCfg;
  offCfg.adaptiveRays = false;
  offCfg.nPilotRays = 8;
  offCfg.errorTarget = 0.5;
  offCfg.nMaxRays = 32;
  const bool offIdentical = bitwise(solve(offCfg), fixed);

  // Saturated controller: pilot == cap == nDivQRays traces exactly the
  // fixed fan (pilot rays are a prefix of it, same counter-based RNG
  // streams, same left-to-right sum order).
  TraceConfig satCfg = fixedCfg;
  satCfg.adaptiveRays = true;
  satCfg.nPilotRays = rays;
  satCfg.nMaxRays = rays;
  const bool satIdentical = bitwise(solve(satCfg), fixed);

  // The calibrated operating point.
  TraceConfig adCfg = fixedCfg;
  adCfg.adaptiveRays = true;
  adCfg.nPilotRays = pilotRays;
  adCfg.errorTarget = errorTarget;
  adCfg.nMaxRays = 0;  // cap at nDivQRays
  const Solve adaptive = solve(adCfg);
  const double raysMean =
      MetricsRegistry::global().gauge("tracer.rays_per_cell_mean").value();
  const double raysMax =
      MetricsRegistry::global().gauge("tracer.rays_per_cell_max").value();
  const double reduction =
      static_cast<double>(fixed.segments) /
      static_cast<double>(std::max<std::uint64_t>(1, adaptive.segments));
  const double relL2 = relativeL2Error(adaptive.divQ, fixed.divQ);
  const double relL2Center =
      relativeL2Error(centerline(adaptive), centerline(fixed));

  // Spectral section: an explicit single gray band must be bitwise the
  // gray solver; the multi-band model runs fixed-fan and adaptive.
  TraceConfig grayCfg = fixedCfg;
  grayCfg.bands = {SpectralBand{1.0, 1.0}};
  const bool singleBandIdentical = bitwise(solve(grayCfg), fixed);
  const BandModel bands = bandCount == 1 ? grayBand() : threeband();
  TraceConfig bandCfg = fixedCfg;
  bandCfg.bands = bands;
  const Solve spectralFixed = solve(bandCfg);
  std::vector<double> bandRates;
  for (std::size_t b = 0; b < bands.size(); ++b) {
    TraceConfig oneBand = fixedCfg;
    oneBand.seed = fixedCfg.seed + kBandSeedStride * b;
    oneBand.bands = {SpectralBand{1.0, bands[b].kappaScale}};
    bandRates.push_back(solve(oneBand).msegPerS);
  }
  TraceConfig adBandCfg = adCfg;
  adBandCfg.bands = bands;
  const Solve spectralAdaptive = solve(adBandCfg);

  std::ofstream out(jsonPath);
  out << std::setprecision(6) << std::fixed;
  out << "{\n"
      << "  \"benchmark\": \"rmcrt_adaptive_sampling\",\n"
      << "  \"problem\": \"burns_christon\",\n"
      << "  \"grid_n\": " << n << ",\n"
      << "  \"rays_per_cell\": " << rays << ",\n"
      << "  \"seed\": " << fixedCfg.seed << ",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"adaptive\": {\n"
      << "    \"pilot_rays\": " << pilotRays << ",\n"
      << "    \"error_target\": " << errorTarget << ",\n"
      << "    \"max_rays\": " << rays << ",\n"
      << "    \"fixed_segments\": " << fixed.segments << ",\n"
      << "    \"adaptive_segments\": " << adaptive.segments << ",\n"
      << "    \"segment_reduction\": " << reduction << ",\n"
      << "    \"rel_l2_error\": " << std::scientific << relL2 << ",\n"
      << "    \"rel_l2_centerline\": " << relL2Center << std::fixed << ",\n"
      << "    \"rays_per_cell_mean\": " << raysMean << ",\n"
      << "    \"rays_per_cell_max\": " << raysMax << ",\n"
      << "    \"fixed_mseg_per_s\": " << fixed.msegPerS << ",\n"
      << "    \"adaptive_mseg_per_s\": " << adaptive.msegPerS << ",\n"
      << "    \"bitwise_off_identical\": "
      << (offIdentical ? "true" : "false") << ",\n"
      << "    \"bitwise_saturated_identical\": "
      << (satIdentical ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"spectral\": {\n"
      << "    \"bands\": " << bands.size() << ",\n"
      << "    \"planck_mean_scale\": " << planckMeanScale(bands) << ",\n"
      << "    \"bitwise_single_band\": "
      << (singleBandIdentical ? "true" : "false") << ",\n"
      << "    \"gray_segments\": " << fixed.segments << ",\n"
      << "    \"band_segments\": " << spectralFixed.segments << ",\n"
      << "    \"adaptive_band_segments\": " << spectralAdaptive.segments
      << ",\n"
      << "    \"band_mseg_per_s\": [";
  for (std::size_t b = 0; b < bandRates.size(); ++b)
    out << (b ? ", " : "") << bandRates[b];
  out << "]\n"
      << "  }\n"
      << "}\n";

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "adaptive sampling bench (" << n << "^3, " << rays
            << " rays/cell, seed " << fixedCfg.seed << ")\n"
            << "  fixed " << fixed.segments << " segments, adaptive "
            << adaptive.segments << " (" << reduction << "x reduction)\n"
            << "  rel L2 " << std::scientific << relL2 << " (centerline "
            << relL2Center << ")" << std::fixed << ", rays/cell mean "
            << raysMean << " max " << raysMax << "\n"
            << "  bitwise: off=" << (offIdentical ? "ok" : "MISMATCH")
            << " saturated=" << (satIdentical ? "ok" : "MISMATCH")
            << " single-band=" << (singleBandIdentical ? "ok" : "MISMATCH")
            << "\n"
            << "  spectral " << bands.size() << "-band: fixed "
            << spectralFixed.segments << " segments, adaptive "
            << spectralAdaptive.segments << "\n"
            << "  written to " << jsonPath << "\n";
}

void printCalibrationTable() {
  using namespace rmcrt::sim;
  std::cout << "\n=== Kernel throughput per patch size (model calibration "
               "inputs; paper Section V patch sweep) ===\n\n";
  std::cout << std::setw(12) << "patch" << std::setw(18) << "host Mseg/s"
            << std::setw(22) << "modeled K20X Mseg/s\n";
  for (int ps : {16, 32, 64}) {
    const double seg = measureKernelSegmentsPerSecond(ps, 2);
    std::cout << std::setw(9) << ps << "^3" << std::setw(18) << std::fixed
              << std::setprecision(2) << seg / 1e6 << std::setw(20)
              << seg * 12.0 / 1e6 << "\n";
  }
  std::cout << "\n(The multi-level trace cost per cell grows with patch "
               "size — longer in-ROI paths — while GPU occupancy improves; "
               "the machine model composes both.)\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Our flags, consumed before google-benchmark sees the command line:
  //   --smoke        quick thread sweep + JSON only (CI smoke mode)
  //   --json=<path>  baseline output path (default BENCH_rmcrt_kernel.json)
  //   --trace-out/--metrics-out  observability outputs (runs a dedicated
  //       mini distributed pipeline instead of the benchmark suite)
  //   --adaptive-rays[=N]    variance-adaptive sampling + spectral banding
  //       bench into BENCH_adaptive.json (N = pilot rays, default 16)
  //   --error-target=X       adaptive relative-error target (default 0.015)
  //   --bands=K              spectral section band count (1 = gray band,
  //       anything else = the 3-band WSGG model)
  const rmcrt::ObservabilityOptions obs =
      rmcrt::parseObservabilityFlags(argc, argv);
  bool smoke = false;
  std::string jsonPath = "BENCH_rmcrt_kernel.json";
  bool jsonPathSet = false;
  int adaptivePilot = 0;  // >0 runs the adaptive sampling bench
  double errorTarget = 0.015;
  int bandCount = 3;
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      jsonPath = argv[i] + 7;
      jsonPathSet = true;
    } else if (std::strncmp(argv[i], "--adaptive-rays=", 16) == 0) {
      adaptivePilot = std::atoi(argv[i] + 16);
    } else if (std::strcmp(argv[i], "--adaptive-rays") == 0) {
      adaptivePilot = 16;
    } else if (std::strncmp(argv[i], "--error-target=", 15) == 0) {
      errorTarget = std::atof(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--bands=", 8) == 0) {
      bandCount = std::atoi(argv[i] + 8);
    } else {
      argv[keep++] = argv[i];
    }
  }
  argc = keep;

  if (adaptivePilot > 0) {
    runAdaptiveSamplingBench(smoke,
                             jsonPathSet ? jsonPath : "BENCH_adaptive.json",
                             adaptivePilot, errorTarget, bandCount);
    return 0;
  }
  if (obs.any()) {
    rmcrt::TraceRecorder::global().setEnabled(true);
    runObservabilityPipeline();
    rmcrt::writeObservabilityOutputs(obs);
    return 0;
  }
  if (smoke) {
    writeThreadSweepJson(jsonPath, /*smoke=*/true);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  writeThreadSweepJson(jsonPath, /*smoke=*/false);
  printCalibrationTable();
  return 0;
}
