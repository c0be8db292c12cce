/// Edge-case and robustness tests for the marching kernel: anisotropic
/// cells, axis-aligned directions (zero direction components), domains
/// not anchored at the origin, center-emission mode, and DOM mesh
/// convergence.

#include <gtest/gtest.h>

#include <cmath>

#include "core/dom_solver.h"
#include "core/problems.h"
#include "core/ray_tracer.h"
#include "grid/grid.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::CellType;
using grid::Grid;

TEST(TracerEdge, AnisotropicCellsPreserveEquilibrium) {
  // A 2:1:4 aspect-ratio domain with matching cell counts -> anisotropic
  // dx. Equilibrium (uniform medium, hot walls) must still give divQ = 0:
  // any DDA bookkeeping error in per-axis crossing distances breaks it.
  auto grid = Grid::makeSingleLevel(Vector(0.0, 0.0, 0.0),
                                    Vector(2.0, 1.0, 4.0), IntVector(8),
                                    IntVector(8));
  RadiationProblem prob = uniformMedium(3.0, 1.0);
  CCVariable<double> abskg(grid->fineLevel().cells(), 0.0);
  CCVariable<double> sig(grid->fineLevel().cells(), 0.0);
  CCVariable<CellType> ct(grid->fineLevel().cells(), CellType::Flow);
  initializeProperties(grid->fineLevel(), prob, abskg, sig, ct);

  const PackedLevelField records(
      RadiationFieldsView{FieldView<double>::fromHost(abskg),
                          FieldView<double>::fromHost(sig),
                          FieldView<CellType>::fromHost(ct)});
  TraceLevel tl{LevelGeom::from(grid->fineLevel()), grid->fineLevel().cells(),
                records.view()};
  TraceConfig cfg;
  cfg.nDivQRays = 16;
  cfg.threshold = 1e-12;
  Tracer tracer({tl}, WallProperties{prob.wallSigmaT4OverPi, 1.0}, cfg);
  CCVariable<double> divQ(grid->fineLevel().cells(), 0.0);
  tracer.computeDivQ(grid->fineLevel().cells(),
                     MutableFieldView<double>::fromHost(divQ));
  for (const auto& c : divQ.window()) EXPECT_NEAR(divQ[c], 0.0, 1e-9);
}

TEST(TracerEdge, AxisAlignedRaysHaveZeroComponents) {
  // Rays exactly along +x must march without NaNs (tMax/tDelta are
  // infinite on y/z) and hit the wall with the correct attenuation.
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(8));
  CCVariable<double> abskg(grid->fineLevel().cells(), 2.0);
  CCVariable<double> sig(grid->fineLevel().cells(), 0.0);
  CCVariable<CellType> ct(grid->fineLevel().cells(), CellType::Flow);
  const PackedLevelField records(
      RadiationFieldsView{FieldView<double>::fromHost(abskg),
                          FieldView<double>::fromHost(sig),
                          FieldView<CellType>::fromHost(ct)});
  TraceLevel tl{LevelGeom::from(grid->fineLevel()), grid->fineLevel().cells(),
                records.view()};
  TraceConfig cfg;
  cfg.threshold = 1e-14;
  Tracer tracer({tl}, WallProperties{1.0 / M_PI, 1.0}, cfg);
  // From the center straight to the +x wall: path 0.5, transmissivity
  // exp(-2*0.5); wall emits 1/pi.
  const double I =
      tracer.traceRay(Vector(0.5, 0.5, 0.5), Vector(1, 0, 0));
  EXPECT_NEAR(I, (1.0 / M_PI) * std::exp(-1.0), 1e-9);
  // Diagonal in x-y (z component zero).
  const double Id = tracer.traceRay(Vector(0.5, 0.5, 0.5),
                                    Vector(std::sqrt(0.5), std::sqrt(0.5), 0));
  const double path = std::sqrt(2.0) * 0.5;
  EXPECT_NEAR(Id, (1.0 / M_PI) * std::exp(-2.0 * path), 1e-9);
}

TEST(TracerEdge, DomainNotAnchoredAtOrigin) {
  auto grid = Grid::makeSingleLevel(Vector(-3.0, 5.0, 10.0),
                                    Vector(-2.0, 6.0, 11.0), IntVector(8),
                                    IntVector(8));
  RadiationProblem prob = uniformMedium(4.0, 1.0);
  CCVariable<double> abskg(grid->fineLevel().cells(), 0.0);
  CCVariable<double> sig(grid->fineLevel().cells(), 0.0);
  CCVariable<CellType> ct(grid->fineLevel().cells(), CellType::Flow);
  initializeProperties(grid->fineLevel(), prob, abskg, sig, ct);
  const PackedLevelField records(
      RadiationFieldsView{FieldView<double>::fromHost(abskg),
                          FieldView<double>::fromHost(sig),
                          FieldView<CellType>::fromHost(ct)});
  TraceLevel tl{LevelGeom::from(grid->fineLevel()), grid->fineLevel().cells(),
                records.view()};
  TraceConfig cfg;
  cfg.nDivQRays = 8;
  cfg.threshold = 1e-12;
  Tracer tracer({tl}, WallProperties{1.0 / M_PI, 1.0}, cfg);
  CCVariable<double> divQ(grid->fineLevel().cells(), 0.0);
  tracer.computeDivQ(grid->fineLevel().cells(),
                     MutableFieldView<double>::fromHost(divQ));
  for (const auto& c : divQ.window()) EXPECT_NEAR(divQ[c], 0.0, 1e-9);
}

TEST(TracerEdge, CellCenterEmissionModeIsDeterministic) {
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(8));
  RadiationProblem prob = burnsChriston();
  CCVariable<double> abskg(grid->fineLevel().cells(), 0.0);
  CCVariable<double> sig(grid->fineLevel().cells(), 0.0);
  CCVariable<CellType> ct(grid->fineLevel().cells(), CellType::Flow);
  initializeProperties(grid->fineLevel(), prob, abskg, sig, ct);
  const PackedLevelField records(
      RadiationFieldsView{FieldView<double>::fromHost(abskg),
                          FieldView<double>::fromHost(sig),
                          FieldView<CellType>::fromHost(ct)});
  TraceLevel tl{LevelGeom::from(grid->fineLevel()), grid->fineLevel().cells(),
                records.view()};
  TraceConfig cfg;
  cfg.nDivQRays = 10;
  cfg.jitterRayOrigin = false;
  Tracer a({tl}, WallProperties{0.0, 1.0}, cfg);
  Tracer b({tl}, WallProperties{0.0, 1.0}, cfg);
  const IntVector probe(3, 4, 5);
  EXPECT_EQ(a.meanIncomingIntensity(probe), b.meanIncomingIntensity(probe));
}

TEST(DomConvergence, RefiningTheMeshConverges) {
  // Successive mesh refinement of DOM on Burns & Christon: the change
  // between successive resolutions shrinks (false scattering is a
  // discretization error, paper Section III-A).
  auto solveCenter = [](int n) {
    auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0),
                                      IntVector(n), IntVector(n));
    RadiationProblem prob = burnsChriston();
    CCVariable<double> abskg(grid->fineLevel().cells(), 0.0);
    CCVariable<double> sig(grid->fineLevel().cells(), 0.0);
    CCVariable<CellType> ct(grid->fineLevel().cells(), CellType::Flow);
    initializeProperties(grid->fineLevel(), prob, abskg, sig, ct);
    DomSolver solver(
        LevelGeom::from(grid->fineLevel()),
        RadiationFieldsView{FieldView<double>::fromHost(abskg),
                            FieldView<double>::fromHost(sig),
                            FieldView<CellType>::fromHost(ct)},
        WallProperties{0.0, 1.0}, 4);
    CCVariable<double> G(grid->fineLevel().cells(), 0.0);
    solver.computeIncidentRadiation(G);
    const IntVector c(n / 2, n / 2, n / 2);
    return 4.0 * M_PI * abskg[c] * (sig[c] - G[c] / (4.0 * M_PI));
  };
  const double q8 = solveCenter(8);
  const double q16 = solveCenter(16);
  const double q32 = solveCenter(32);
  EXPECT_LT(std::abs(q32 - q16), std::abs(q16 - q8));
  // All in a physically sensible band.
  for (double q : {q8, q16, q32}) {
    EXPECT_GT(q, 1.0);
    EXPECT_LT(q, 4.0);
  }
}

}  // namespace
}  // namespace rmcrt::core
