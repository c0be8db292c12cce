#include "core/ray_tracer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/problems.h"
#include "grid/grid.h"
#include "grid/operators.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::CellType;
using grid::Grid;

/// Builds a single-level tracer over an analytic problem.
struct SingleLevelHarness {
  std::shared_ptr<Grid> grid;
  CCVariable<double> abskg, sig;
  CCVariable<CellType> ct;
  PackedLevelField records;
  WallProperties walls;

  SingleLevelHarness(const RadiationProblem& prob, int n)
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
};

TEST(IsotropicDirection, UnitLengthAndZeroMean) {
  Rng rng(17);
  Vector mean(0.0);
  for (int i = 0; i < 20000; ++i) {
    const Vector d = isotropicDirection(rng);
    ASSERT_NEAR(d.length(), 1.0, 1e-12);
    mean += d;
  }
  mean = mean / 20000.0;
  EXPECT_NEAR(mean.x(), 0.0, 0.02);
  EXPECT_NEAR(mean.y(), 0.0, 0.02);
  EXPECT_NEAR(mean.z(), 0.0, 0.02);
}

TEST(LevelGeom, CellAtInvertsCellCenter) {
  auto g = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                 IntVector(8));
  const LevelGeom geom = LevelGeom::from(g->fineLevel());
  for (const auto& c : geom.cells)
    EXPECT_EQ(geom.cellAt(geom.cellCenter(c)), c);
}

TEST(Tracer, EquilibriumMediumHasZeroDivQ) {
  // Uniform medium with walls at the same temperature: incoming intensity
  // equals local emission along every ray, so divQ = 0 to MC precision
  // (here: exactly, because every ray integrates to sigmaT4/pi).
  SingleLevelHarness h(uniformMedium(5.0, 1.0), 8);
  TraceConfig cfg;
  cfg.nDivQRays = 16;
  cfg.threshold = 1e-12;
  Tracer tracer = h.makeTracer(cfg);
  CCVariable<double> divQ(h.grid->fineLevel().cells(), 0.0);
  tracer.computeDivQ(h.grid->fineLevel().cells(),
                     MutableFieldView<double>::fromHost(divQ));
  for (const auto& c : divQ.window())
    EXPECT_NEAR(divQ[c], 0.0, 1e-9) << "cell " << c;
}

TEST(Tracer, ColdWallsGiveNetEmission) {
  // Cold black walls: every cell loses energy, divQ > 0 everywhere, and
  // boundary cells lose more than the center (their rays escape sooner).
  RadiationProblem prob = uniformMedium(1.0, 1.0);
  prob.wallSigmaT4OverPi = 0.0;
  SingleLevelHarness h(prob, 16);
  TraceConfig cfg;
  cfg.nDivQRays = 64;
  Tracer tracer = h.makeTracer(cfg);
  CCVariable<double> divQ(h.grid->fineLevel().cells(), 0.0);
  tracer.computeDivQ(h.grid->fineLevel().cells(),
                     MutableFieldView<double>::fromHost(divQ));
  const IntVector center(8, 8, 8), corner(0, 0, 0);
  EXPECT_GT(divQ[center], 0.0);
  EXPECT_GT(divQ[corner], divQ[center]);
}

TEST(Tracer, OpticallyThickCenterApproachesEquilibrium) {
  // kappa = 50 on a unit domain: the center cell cannot see the cold
  // walls; its incoming intensity approaches local emission.
  RadiationProblem prob = uniformMedium(50.0, 1.0);
  prob.wallSigmaT4OverPi = 0.0;
  SingleLevelHarness h(prob, 16);
  TraceConfig cfg;
  cfg.nDivQRays = 32;
  cfg.threshold = 1e-10;
  Tracer tracer = h.makeTracer(cfg);
  const double meanI = tracer.meanIncomingIntensity(IntVector(8, 8, 8));
  EXPECT_NEAR(meanI, 1.0 / M_PI, 0.01 / M_PI);
}

TEST(Tracer, DeterministicAcrossCallsAndDecompositions) {
  SingleLevelHarness h(burnsChriston(), 16);
  TraceConfig cfg;
  cfg.nDivQRays = 10;
  cfg.seed = 99;
  Tracer tracer = h.makeTracer(cfg);
  const IntVector probe(5, 9, 13);
  const double first = tracer.meanIncomingIntensity(probe);
  // Same cell, fresh tracer: bitwise identical (counter-based RNG).
  Tracer tracer2 = h.makeTracer(cfg);
  EXPECT_EQ(tracer2.meanIncomingIntensity(probe), first);
  // Different seed differs.
  TraceConfig cfg2 = cfg;
  cfg2.seed = 100;
  Tracer tracer3 = h.makeTracer(cfg2);
  EXPECT_NE(tracer3.meanIncomingIntensity(probe), first);
}

TEST(Tracer, RaySeesFarSideOfDomain) {
  // Medium transparent except for one hot emitting slab on the +x side;
  // a cell on the -x side must receive energy from it (nonlocal physics).
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                    IntVector(16));
  CCVariable<double> abskg(grid->fineLevel().cells(), 1e-6);
  CCVariable<double> sig(grid->fineLevel().cells(), 0.0);
  CCVariable<CellType> ct(grid->fineLevel().cells(), CellType::Flow);
  for (const auto& c : abskg.window()) {
    if (c.x() >= 14) {
      abskg[c] = 100.0;  // optically thick hot slab
      sig[c] = 1.0;
    }
  }
  const PackedLevelField records(
      RadiationFieldsView{FieldView<double>::fromHost(abskg),
                          FieldView<double>::fromHost(sig),
                          FieldView<CellType>::fromHost(ct)});
  TraceLevel tl{LevelGeom::from(grid->fineLevel()), grid->fineLevel().cells(),
                records.view()};
  TraceConfig cfg;
  cfg.nDivQRays = 2000;
  Tracer tracer({tl}, WallProperties{0.0, 1.0}, cfg);
  const double meanI = tracer.meanIncomingIntensity(IntVector(1, 8, 8));
  // The slab subtends a noticeable solid angle from across the domain.
  EXPECT_GT(meanI, 0.01);
}

TEST(Tracer, WallCellsTerminateRays) {
  // An interior wall bisecting the domain: cells on the cold side with a
  // hot wall see the wall's emission.
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                    IntVector(16));
  CCVariable<double> abskg(grid->fineLevel().cells(), 1e-8);
  CCVariable<double> sig(grid->fineLevel().cells(), 0.0);
  CCVariable<CellType> ct(grid->fineLevel().cells(), CellType::Flow);
  for (const auto& c : ct.window()) {
    if (c.x() == 8) {
      ct[c] = CellType::Wall;
      sig[c] = 2.0;  // hot interior wall
    }
  }
  const PackedLevelField records(
      RadiationFieldsView{FieldView<double>::fromHost(abskg),
                          FieldView<double>::fromHost(sig),
                          FieldView<CellType>::fromHost(ct)});
  TraceLevel tl{LevelGeom::from(grid->fineLevel()), grid->fineLevel().cells(),
                records.view()};
  TraceConfig cfg;
  cfg.nDivQRays = 500;
  Tracer tracer({tl}, WallProperties{0.0, 1.0}, cfg);
  // Cell adjacent to the hot wall: roughly half its rays hit the wall.
  const double nearWall = tracer.meanIncomingIntensity(IntVector(7, 8, 8));
  EXPECT_NEAR(nearWall, 1.0, 0.15);  // ~0.5 * 2.0
  // Cell far away in the corner sees the wall under a smaller solid angle.
  const double far = tracer.meanIncomingIntensity(IntVector(0, 0, 0));
  EXPECT_LT(far, nearWall);
  EXPECT_GT(far, 0.0);
}

TEST(Tracer, MonteCarloConvergenceRate) {
  // RMS error over a probe plane should fall like 1/sqrt(N): quadrupling
  // the rays should roughly halve the error.
  SingleLevelHarness h(burnsChriston(), 8);
  TraceConfig truthCfg;
  truthCfg.nDivQRays = 16384;
  truthCfg.seed = 1;
  Tracer truth = h.makeTracer(truthCfg);

  auto rmsError = [&](int rays, std::uint64_t seed) {
    TraceConfig cfg;
    cfg.nDivQRays = rays;
    cfg.seed = seed;
    Tracer t = h.makeTracer(cfg);
    double sum2 = 0.0;
    int n = 0;
    for (int x = 0; x < 8; ++x) {
      const IntVector c(x, 4, 4);
      const double e =
          t.meanIncomingIntensity(c) - truth.meanIncomingIntensity(c);
      sum2 += e * e;
      ++n;
    }
    return std::sqrt(sum2 / n);
  };

  // Average over several independent seeds to stabilize the ratio.
  double e100 = 0.0, e400 = 0.0;
  for (std::uint64_t s = 10; s < 14; ++s) {
    e100 += rmsError(100, s);
    e400 += rmsError(400, s);
  }
  const double ratio = e100 / e400;
  EXPECT_GT(ratio, 1.4) << "error must shrink with more rays";
  EXPECT_LT(ratio, 3.0) << "and roughly like 1/sqrt(N)";
}

TEST(Tracer, BoundaryFluxBlackbodyLimit) {
  // Optically thick uniform medium at sigmaT4 = 1: the wall receives the
  // blackbody flux sigma*T^4 = 1.
  RadiationProblem prob = uniformMedium(200.0, 1.0);
  SingleLevelHarness h(prob, 8);
  TraceConfig cfg;
  cfg.threshold = 1e-10;
  Tracer tracer = h.makeTracer(cfg);
  const double q =
      tracer.boundaryFlux(IntVector(0, 4, 4), IntVector(-1, 0, 0), 2000);
  EXPECT_NEAR(q, 1.0, 0.02);
}

TEST(Tracer, ThresholdTruncationBiasIsBounded) {
  SingleLevelHarness h(burnsChriston(), 8);
  TraceConfig tight;
  tight.nDivQRays = 400;
  tight.threshold = 1e-10;
  TraceConfig loose = tight;
  loose.threshold = 0.05;  // Uintah's production default
  const IntVector c(4, 4, 4);
  const double iTight = h.makeTracer(tight).meanIncomingIntensity(c);
  const double iLoose = h.makeTracer(loose).meanIncomingIntensity(c);
  // Same rays, so the difference is pure truncation bias; it must be
  // small and one-sided (truncation can only lose intensity).
  EXPECT_LE(iLoose, iTight + 1e-12);
  EXPECT_NEAR(iLoose, iTight, 0.05 * iTight);
}

}  // namespace
}  // namespace rmcrt::core
