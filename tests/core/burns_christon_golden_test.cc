/// Golden-accuracy regression for the Burns & Christon benchmark: divQ
/// along the x centerline of a 41^3 single-level grid (the benchmark's
/// standard cut) against stored reference values.
///
/// The reference table was produced by this exact configuration (seed 71,
/// 64 rays/cell) with the counter-based RNG, which makes the computation
/// deterministic: every (seed, cell, ray) triple fixes the ray exactly.
/// On an identical libm the match is bitwise; the explicit 1% relative
/// tolerance absorbs math-library variation across platforms (a different
/// exp/log ULP can discretely reroute a single ray, worth at most
/// ~1/64 ~ 1.6% in one cell). Any real regression — RNG stream change,
/// marching defect, property initialization drift — moves many cells by
/// far more than that.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "core/problems.h"
#include "core/ray_tracer.h"
#include "grid/grid.h"
#include "util/stats.h"

namespace rmcrt::core {
namespace {

constexpr int kN = 41;
constexpr int kRays = 64;
constexpr std::uint64_t kSeed = 71;

/// divQ[x][20][20] for x = 0..40, generated as described above.
constexpr std::array<double, kN> kGoldenCenterline = {
    4.4609552858e-01, 6.0735124046e-01, 7.4960017701e-01, 9.2637246677e-01,
    1.0605447602e+00, 1.1962102243e+00, 1.3365321144e+00, 1.4811385839e+00,
    1.6443201582e+00, 1.7296060636e+00, 1.8964217596e+00, 1.9522157961e+00,
    2.0828674300e+00, 2.2192070741e+00, 2.3250959275e+00, 2.4341513432e+00,
    2.5688594937e+00, 2.6971807247e+00, 2.8209346024e+00, 2.9339498704e+00,
    3.0726095031e+00, 2.9470250045e+00, 2.8305977772e+00, 2.7013526027e+00,
    2.5760049502e+00, 2.4683274155e+00, 2.3414789189e+00, 2.2078016498e+00,
    2.1069885560e+00, 1.9786492472e+00, 1.8821203239e+00, 1.7618952821e+00,
    1.5920575489e+00, 1.5020508657e+00, 1.3213515024e+00, 1.2148171283e+00,
    1.0592060024e+00, 9.1384618418e-01, 7.6595689079e-01, 6.0016928224e-01,
    4.5270648797e-01};

TEST(BurnsChristonGolden, CenterlineDivQMatchesReference) {
  auto grid = grid::Grid::makeSingleLevel(Vector(0.0), Vector(1.0),
                                          IntVector(kN), IntVector(kN));
  grid::CCVariable<double> abskg(grid->fineLevel().cells(), 0.0);
  grid::CCVariable<double> sig(grid->fineLevel().cells(), 0.0);
  grid::CCVariable<grid::CellType> ct(grid->fineLevel().cells(),
                                      grid::CellType::Flow);
  initializeProperties(grid->fineLevel(), burnsChriston(), abskg, sig, ct);

  const PackedLevelField records(
      RadiationFieldsView{FieldView<double>::fromHost(abskg),
                          FieldView<double>::fromHost(sig),
                          FieldView<grid::CellType>::fromHost(ct)});
  TraceLevel tl{LevelGeom::from(grid->fineLevel()), grid->fineLevel().cells(),
                records.view()};
  TraceConfig cfg;
  cfg.nDivQRays = kRays;
  cfg.seed = kSeed;
  Tracer tracer({tl}, WallProperties{0.0, 1.0}, cfg);

  grid::CCVariable<double> divQ(grid->fineLevel().cells(), 0.0);
  const int mid = kN / 2;
  const CellRange line(IntVector(0, mid, mid),
                       IntVector(kN, mid + 1, mid + 1));
  tracer.computeDivQ(line, MutableFieldView<double>::fromHost(divQ));

  for (int x = 0; x < kN; ++x) {
    const double got = divQ[IntVector(x, mid, mid)];
    const double want = kGoldenCenterline[static_cast<std::size_t>(x)];
    EXPECT_NEAR(got, want, 0.01 * std::abs(want))
        << "centerline cell x=" << x;
  }
}

TEST(BurnsChristonGolden, AdaptiveCenterlineWithinOnePercentOfFixed) {
  // The calibrated adaptive operating point (pilot 16, error target
  // 0.015, cap at nDivQRays) must hold the benchmark centerline within
  // the same 1% band the golden table enforces — measured as relative L2
  // against the fixed-fan answer computed in-process, so the gate is
  // libm-independent — while tracing measurably fewer segments.
  auto grid = grid::Grid::makeSingleLevel(Vector(0.0), Vector(1.0),
                                          IntVector(kN), IntVector(kN));
  grid::CCVariable<double> abskg(grid->fineLevel().cells(), 0.0);
  grid::CCVariable<double> sig(grid->fineLevel().cells(), 0.0);
  grid::CCVariable<grid::CellType> ct(grid->fineLevel().cells(),
                                      grid::CellType::Flow);
  initializeProperties(grid->fineLevel(), burnsChriston(), abskg, sig, ct);
  const PackedLevelField records(
      RadiationFieldsView{FieldView<double>::fromHost(abskg),
                          FieldView<double>::fromHost(sig),
                          FieldView<grid::CellType>::fromHost(ct)});
  TraceLevel tl{LevelGeom::from(grid->fineLevel()), grid->fineLevel().cells(),
                records.view()};
  TraceConfig fixedCfg;
  fixedCfg.nDivQRays = kRays;
  fixedCfg.seed = kSeed;
  TraceConfig adaptiveCfg = fixedCfg;
  adaptiveCfg.adaptiveRays = true;
  adaptiveCfg.nPilotRays = 16;
  adaptiveCfg.errorTarget = 0.015;
  adaptiveCfg.nMaxRays = 0;  // cap at nDivQRays

  const int mid = kN / 2;
  const CellRange line(IntVector(0, mid, mid),
                       IntVector(kN, mid + 1, mid + 1));
  const auto solveLine = [&](const TraceConfig& cfg, std::uint64_t* segs) {
    Tracer tracer({tl}, WallProperties{0.0, 1.0}, cfg);
    grid::CCVariable<double> divQ(grid->fineLevel().cells(), 0.0);
    tracer.computeDivQ(line, MutableFieldView<double>::fromHost(divQ));
    *segs = tracer.segmentCount();
    std::vector<double> out;
    for (int x = 0; x < kN; ++x) out.push_back(divQ[IntVector(x, mid, mid)]);
    return out;
  };
  std::uint64_t fixedSegs = 0, adaptiveSegs = 0;
  const std::vector<double> fixed = solveLine(fixedCfg, &fixedSegs);
  const std::vector<double> adaptive = solveLine(adaptiveCfg, &adaptiveSegs);

  EXPECT_LT(adaptiveSegs, fixedSegs) << "controller saved nothing";
  EXPECT_LT(relativeL2Error(adaptive, fixed), 0.01);
  // And the adaptive answer still sits inside the golden table's band
  // (the table tolerance plus the adaptive budget's own error).
  for (int x = 0; x < kN; ++x) {
    const double want = kGoldenCenterline[static_cast<std::size_t>(x)];
    EXPECT_NEAR(adaptive[static_cast<std::size_t>(x)], want,
                0.05 * std::abs(want))
        << "centerline cell x=" << x;
  }
}

TEST(BurnsChristonGolden, CenterlineHasBenchmarkShape) {
  // Physics sanity independent of the stored table: cold black walls
  // drain a hot emitting medium, so divQ > 0 everywhere, peaking at the
  // domain center where the absorption coefficient (hence emission)
  // peaks, and roughly symmetric about it (Monte Carlo noise at 64
  // rays/cell stays well under the 15% band used here).
  const auto& g = kGoldenCenterline;
  const int mid = kN / 2;
  for (int x = 0; x < kN; ++x) {
    EXPECT_GT(g[static_cast<std::size_t>(x)], 0.0) << "x=" << x;
    EXPECT_LE(g[static_cast<std::size_t>(x)],
              g[static_cast<std::size_t>(mid)] + 1e-12)
        << "peak must be at the center; x=" << x;
  }
  for (int x = 0; x < kN; ++x) {
    const double a = g[static_cast<std::size_t>(x)];
    const double b = g[static_cast<std::size_t>(kN - 1 - x)];
    EXPECT_NEAR(a, b, 0.15 * std::max(a, b))
        << "asymmetry beyond Monte Carlo noise at x=" << x;
  }
}

}  // namespace
}  // namespace rmcrt::core
