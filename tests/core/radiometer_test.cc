#include "core/radiometer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/problems.h"
#include "grid/grid.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::CellType;
using grid::Grid;

/// A transparent cold 16^3 medium; a test that edits the fields repacks
/// the records before building its tracer.
struct RadiometerHarness {
  std::shared_ptr<Grid> grid;
  CCVariable<double> abskg, sig;
  CCVariable<CellType> ct;
  PackedLevelField records;

  RadiometerHarness()
      : grid(Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                   IntVector(16))),
        abskg(grid->fineLevel().cells(), 1e-6),
        sig(grid->fineLevel().cells(), 0.0),
        ct(grid->fineLevel().cells(), CellType::Flow) {
    pack();
  }

  void pack() {
    records.pack(RadiationFieldsView{FieldView<double>::fromHost(abskg),
                                     FieldView<double>::fromHost(sig),
                                     FieldView<CellType>::fromHost(ct)});
  }

  Tracer tracer(const WallProperties& walls) const {
    TraceLevel tl{LevelGeom::from(grid->fineLevel()),
                  grid->fineLevel().cells(), records.view()};
    TraceConfig cfg;
    cfg.threshold = 1e-10;
    return Tracer({tl}, walls, cfg);
  }
};

TEST(Radiometer, SolidAngleFormula) {
  RadiometerHarness h;
  Tracer t = h.tracer(WallProperties{0.0, 1.0});
  RadiometerSpec spec;
  spec.position = Vector(0.5, 0.5, 0.5);
  spec.viewDirection = Vector(1, 0, 0);
  spec.halfAngleRadians = M_PI / 2.0;  // hemisphere
  spec.nRays = 10;
  const auto r = evaluateRadiometer(t, spec);
  EXPECT_NEAR(r.solidAngle, 2.0 * M_PI, 1e-12);
  spec.halfAngleRadians = 0.1;
  EXPECT_NEAR(evaluateRadiometer(t, spec).solidAngle,
              2.0 * M_PI * (1.0 - std::cos(0.1)), 1e-12);
}

TEST(Radiometer, SeesUniformHotWallsAsBlackbody) {
  // Transparent medium, hot black walls at sigmaT4 = 1: every ray ends
  // on a wall, so mean intensity = 1/pi regardless of aim or cone.
  RadiometerHarness h;
  Tracer t = h.tracer(WallProperties{1.0 / M_PI, 1.0});
  for (double halfAngle : {0.1, 0.5, 1.2}) {
    RadiometerSpec spec;
    spec.position = Vector(0.5, 0.5, 0.5);
    spec.viewDirection = Vector(0.3, -0.5, 0.8);
    spec.halfAngleRadians = halfAngle;
    spec.nRays = 200;
    const auto r = evaluateRadiometer(t, spec);
    // Tolerance: the near-transparent medium (kappa = 1e-6) absorbs a
    // ~1e-6 fraction of each wall ray.
    EXPECT_NEAR(r.meanIntensity, 1.0 / M_PI, 1e-5);
    EXPECT_NEAR(r.flux, r.solidAngle / M_PI, 1e-5);
  }
}

TEST(Radiometer, NarrowConeResolvesAHotSpot) {
  // A hot emitting slab on the +x side of a cold transparent domain: a
  // radiometer aimed at the slab reads high; aimed away it reads ~0.
  RadiometerHarness h;
  for (const auto& c : h.abskg.window()) {
    if (c.x() >= 14) {
      h.abskg[c] = 200.0;
      h.sig[c] = 1.0;
    }
  }
  h.pack();
  Tracer t = h.tracer(WallProperties{0.0, 1.0});
  RadiometerSpec toward;
  toward.position = Vector(0.2, 0.5, 0.5);
  toward.viewDirection = Vector(1, 0, 0);
  toward.halfAngleRadians = 0.15;
  toward.nRays = 300;
  RadiometerSpec away = toward;
  away.viewDirection = Vector(-1, 0, 0);

  const double hot = evaluateRadiometer(t, toward).meanIntensity;
  const double cold = evaluateRadiometer(t, away).meanIntensity;
  EXPECT_NEAR(hot, 1.0, 0.05);  // optically thick slab = blackbody at 1
  EXPECT_NEAR(cold, 0.0, 1e-9);
}

TEST(Radiometer, WiderConeDilutesAPointSource) {
  // Aimed at a small hot region, a wider cone averages in cold
  // background: mean intensity decreases with cone angle.
  RadiometerHarness h;
  for (const auto& c : h.abskg.window()) {
    const IntVector d = c - IntVector(14, 8, 8);
    if (d.x() * d.x() + d.y() * d.y() + d.z() * d.z() <= 2) {
      h.abskg[c] = 400.0;
      h.sig[c] = 1.0;
    }
  }
  h.pack();
  Tracer t = h.tracer(WallProperties{0.0, 1.0});
  RadiometerSpec spec;
  spec.position = Vector(0.1, 0.53, 0.53);
  spec.viewDirection = (Vector(14.5 / 16, 8.5 / 16, 8.5 / 16) - spec.position)
                           .normalized();
  spec.nRays = 2000;
  spec.halfAngleRadians = 0.06;
  const double narrow = evaluateRadiometer(t, spec).meanIntensity;
  spec.halfAngleRadians = 0.8;
  const double wide = evaluateRadiometer(t, spec).meanIntensity;
  EXPECT_GT(narrow, 3.0 * wide);
}

}  // namespace
}  // namespace rmcrt::core
