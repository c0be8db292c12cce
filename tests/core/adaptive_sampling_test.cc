/// Variance-adaptive per-cell ray budgets (DESIGN.md §17): config
/// validation, the bitwise neutrality contract (knobs off = fixed fan;
/// saturated controller = fixed fan), determinism of the budgets across
/// thread counts / tile shapes / patch decompositions (a budget is a
/// pure function of (seed, cell)), the segment savings at bounded error,
/// and the ray-accounting observability surface.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/problems.h"
#include "core/ray_tracer.h"
#include "grid/grid.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::CellType;
using grid::Grid;

struct Harness {
  std::shared_ptr<Grid> grid;
  CCVariable<double> abskg, sig;
  CCVariable<CellType> ct;
  PackedLevelField records;
  WallProperties walls;

  explicit Harness(const RadiationProblem& prob, int n = 16)
      : grid(Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(n),
                                   IntVector(n))),
        abskg(grid->fineLevel().cells(), 0.0),
        sig(grid->fineLevel().cells(), 0.0),
        ct(grid->fineLevel().cells(), CellType::Flow),
        walls{prob.wallSigmaT4OverPi, prob.wallEmissivity} {
    initializeProperties(grid->fineLevel(), prob, abskg, sig, ct);
    records.pack(RadiationFieldsView{FieldView<double>::fromHost(abskg),
                                     FieldView<double>::fromHost(sig),
                                     FieldView<CellType>::fromHost(ct)});
  }

  Tracer makeTracer(const TraceConfig& cfg) const {
    TraceLevel tl{LevelGeom::from(grid->fineLevel()),
                  grid->fineLevel().cells(), records.view()};
    return Tracer({tl}, walls, cfg);
  }

  CCVariable<double> solve(const TraceConfig& cfg,
                           ThreadPool* pool = nullptr) const {
    Tracer tracer = makeTracer(cfg);
    CCVariable<double> divQ(grid->fineLevel().cells(), 0.0);
    tracer.computeDivQ(grid->fineLevel().cells(),
                       MutableFieldView<double>::fromHost(divQ), pool);
    return divQ;
  }
};

TraceConfig fixedCfg() {
  TraceConfig cfg;
  cfg.nDivQRays = 16;
  cfg.seed = 1234;
  return cfg;
}

TraceConfig adaptiveCfg() {
  TraceConfig cfg = fixedCfg();
  cfg.adaptiveRays = true;
  cfg.nPilotRays = 4;
  cfg.errorTarget = 0.05;
  cfg.nMaxRays = 0;  // cap at nDivQRays
  return cfg;
}

void expectBitwiseEqual(const CCVariable<double>& a,
                        const CCVariable<double>& b) {
  for (const auto& c : a.window())
    ASSERT_EQ(a[c], b[c]) << "cell " << c;  // exact, not NEAR
}

std::vector<double> flatten(const CCVariable<double>& f) {
  std::vector<double> out;
  for (const auto& c : f.window()) out.push_back(f[c]);
  return out;
}

TEST(AdaptiveConfig, RejectsNonPositiveKnobs) {
  Harness h(burnsChriston());
  {
    TraceConfig cfg = adaptiveCfg();
    cfg.nPilotRays = 0;
    EXPECT_THROW(h.makeTracer(cfg), std::invalid_argument);
  }
  {
    TraceConfig cfg = adaptiveCfg();
    cfg.errorTarget = 0.0;
    EXPECT_THROW(h.makeTracer(cfg), std::invalid_argument);
  }
  {
    TraceConfig cfg = adaptiveCfg();
    cfg.errorTarget = -1.0;
    EXPECT_THROW(h.makeTracer(cfg), std::invalid_argument);
  }
  {
    TraceConfig cfg = adaptiveCfg();
    cfg.nMaxRays = -3;
    EXPECT_THROW(h.makeTracer(cfg), std::invalid_argument);
  }
  // With the controller off the knobs are dormant and unvalidated — the
  // defaults of a config that never asked for adaptivity must not throw.
  {
    TraceConfig cfg = fixedCfg();
    cfg.nPilotRays = 0;
    EXPECT_NO_THROW(h.makeTracer(cfg));
  }
}

TEST(AdaptiveConfig, RejectsNonPositiveFluxRays) {
  Harness h(burnsChriston());
  TraceConfig cfg = fixedCfg();
  cfg.nFluxRays = 0;
  EXPECT_THROW(h.makeTracer(cfg), std::invalid_argument);
  cfg.nFluxRays = -5;
  EXPECT_THROW(h.makeTracer(cfg), std::invalid_argument);
}

TEST(AdaptiveConfig, BoundaryFluxDefaultsToConfiguredFluxRays) {
  Harness h(burnsChriston());
  TraceConfig cfg = fixedCfg();
  cfg.nFluxRays = 32;
  Tracer tracer = h.makeTracer(cfg);
  const IntVector cell(0, 8, 8), face(-1, 0, 0);
  // Omitting the count (or passing 0) uses TraceConfig::nFluxRays, so the
  // split from nDivQRays is observable end to end.
  EXPECT_EQ(tracer.boundaryFlux(cell, face),
            tracer.boundaryFlux(cell, face, 32));
  EXPECT_EQ(tracer.boundaryFlux(cell, face, 0),
            tracer.boundaryFlux(cell, face, 32));
}

TEST(AdaptiveSampling, KnobsOffIsBitwiseTheFixedFan) {
  Harness h(burnsChriston());
  TraceConfig off = fixedCfg();
  off.adaptiveRays = false;
  off.nPilotRays = 2;
  off.errorTarget = 0.5;
  off.nMaxRays = 8;
  expectBitwiseEqual(h.solve(fixedCfg()), h.solve(off));
}

TEST(AdaptiveSampling, SaturatedControllerIsBitwiseTheFixedFan) {
  // pilot == cap == nDivQRays: the pilot pass traces the entire fixed
  // fan (same (seed, cell, ray) streams, same left-to-right sum), the
  // top-up adds nothing, and the estimator divides by the same count.
  Harness h(burnsChriston());
  TraceConfig sat = fixedCfg();
  sat.adaptiveRays = true;
  sat.nPilotRays = sat.nDivQRays;
  sat.nMaxRays = sat.nDivQRays;
  expectBitwiseEqual(h.solve(fixedCfg()), h.solve(sat));
}

TEST(AdaptiveSampling, BitwiseIdenticalAcrossThreadCounts) {
  Harness h(burnsChriston());
  const CCVariable<double> serial = h.solve(adaptiveCfg());
  for (int threads : {2, 3, 8}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    expectBitwiseEqual(serial, h.solve(adaptiveCfg(), &pool));
  }
}

TEST(AdaptiveSampling, BitwiseIdenticalAcrossTileShapes) {
  Harness h(burnsChriston());
  const CCVariable<double> serial = h.solve(adaptiveCfg());
  ThreadPool pool(4);
  for (const IntVector& ts :
       {IntVector(1, 16, 16), IntVector(4, 4, 4), IntVector(5, 3, 2),
        IntVector(3, 64, 1)}) {
    TraceConfig cfg = adaptiveCfg();
    cfg.tileSize = ts;
    expectBitwiseEqual(serial, h.solve(cfg, &pool));
  }
}

TEST(AdaptiveSampling, BudgetIsPureFunctionOfSeedAndCell) {
  // Patch-by-patch assembly over an uneven decomposition reproduces the
  // whole-range solve bitwise: a cell's pilot statistics (hence budget)
  // never depend on which tile or patch evaluated it.
  Harness h(burnsChriston());
  const CCVariable<double> whole = h.solve(adaptiveCfg());
  Tracer tracer = h.makeTracer(adaptiveCfg());
  const CellRange all = h.grid->fineLevel().cells();
  CCVariable<double> assembled(all, 0.0);
  for (const CellRange& patch :
       {CellRange(IntVector(0, 0, 0), IntVector(7, 16, 16)),
        CellRange(IntVector(7, 0, 0), IntVector(16, 5, 16)),
        CellRange(IntVector(7, 5, 0), IntVector(16, 16, 16))})
    tracer.computeDivQ(patch, MutableFieldView<double>::fromHost(assembled));
  expectBitwiseEqual(whole, assembled);
}

TEST(AdaptiveSampling, SavesRaysAtBoundedError) {
  Harness h(burnsChriston());
  Tracer fixed = h.makeTracer(fixedCfg());
  Tracer adaptive = h.makeTracer(adaptiveCfg());
  const CellRange cells = h.grid->fineLevel().cells();
  CCVariable<double> qFixed(cells, 0.0), qAdaptive(cells, 0.0);
  fixed.computeDivQ(cells, MutableFieldView<double>::fromHost(qFixed));
  adaptive.computeDivQ(cells, MutableFieldView<double>::fromHost(qAdaptive));

  EXPECT_LT(adaptive.raysTraced(), fixed.raysTraced());
  EXPECT_LT(adaptive.segmentCount(), fixed.segmentCount());
  // The loose in-test error band; the golden test pins the calibrated 1%
  // operating point on the 41^3 benchmark fixture.
  EXPECT_LT(relativeL2Error(flatten(qAdaptive), flatten(qFixed)), 0.10);
}

TEST(AdaptiveSampling, RayAccountingIsExactForTheFixedFan) {
  // A cell counts once per band, so rays per cell stay per band.
  Harness h(burnsChriston());
  for (const BandModel& bands : {grayBand(), threeband()}) {
    TraceConfig cfg = fixedCfg();
    cfg.bands = bands;
    Tracer tracer = h.makeTracer(cfg);
    const CellRange cells = h.grid->fineLevel().cells();
    CCVariable<double> divQ(cells, 0.0);
    tracer.computeDivQ(cells, MutableFieldView<double>::fromHost(divQ));
    const std::uint64_t nCellBands =
        static_cast<std::uint64_t>(cells.volume()) * bands.size();
    EXPECT_EQ(tracer.cellsTraced(), nCellBands);
    EXPECT_EQ(tracer.raysTraced(),
              nCellBands * static_cast<std::uint64_t>(cfg.nDivQRays));
    EXPECT_EQ(tracer.maxRayBudget(),
              static_cast<std::uint64_t>(cfg.nDivQRays));
    tracer.resetRayStats();
    EXPECT_EQ(tracer.raysTraced(), 0u);
    EXPECT_EQ(tracer.cellsTraced(), 0u);
    EXPECT_EQ(tracer.maxRayBudget(), 0u);
  }
}

TEST(AdaptiveSampling, BudgetsRespectPilotAndCapBounds) {
  Harness h(burnsChriston());
  TraceConfig cfg = adaptiveCfg();
  Tracer tracer = h.makeTracer(cfg);
  const CellRange cells = h.grid->fineLevel().cells();
  CCVariable<double> divQ(cells, 0.0);
  tracer.computeDivQ(cells, MutableFieldView<double>::fromHost(divQ));
  const std::uint64_t nCells = static_cast<std::uint64_t>(cells.volume());
  EXPECT_GE(tracer.raysTraced(),
            nCells * static_cast<std::uint64_t>(cfg.nPilotRays));
  EXPECT_LE(tracer.raysTraced(),
            nCells * static_cast<std::uint64_t>(cfg.nDivQRays));
  EXPECT_LE(tracer.maxRayBudget(),
            static_cast<std::uint64_t>(cfg.nDivQRays));
  EXPECT_GE(tracer.maxRayBudget(),
            static_cast<std::uint64_t>(cfg.nPilotRays));
}

}  // namespace
}  // namespace rmcrt::core
