#include "core/dom_solver.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/problems.h"
#include "grid/grid.h"
#include "util/stats.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::CellType;
using grid::Grid;

class QuadratureOrders : public ::testing::TestWithParam<int> {};

TEST_P(QuadratureOrders, WeightsSumToFourPi) {
  const auto quad = levelSymmetricQuadrature(GetParam());
  double sum = 0.0;
  for (const auto& o : quad) sum += o.weight;
  EXPECT_NEAR(sum, 4.0 * M_PI, 1e-12);
}

TEST_P(QuadratureOrders, DirectionsAreUnitVectors) {
  for (const auto& o : levelSymmetricQuadrature(GetParam()))
    EXPECT_NEAR(o.dir.length(), 1.0, 1e-6);
}

TEST_P(QuadratureOrders, FirstMomentVanishes) {
  Vector m(0.0);
  for (const auto& o : levelSymmetricQuadrature(GetParam()))
    m += o.dir * o.weight;
  EXPECT_NEAR(m.x(), 0.0, 1e-12);
  EXPECT_NEAR(m.y(), 0.0, 1e-12);
  EXPECT_NEAR(m.z(), 0.0, 1e-12);
}

TEST_P(QuadratureOrders, SecondMomentIsIsotropic) {
  // Integral of s_i s_j dOmega = (4*pi/3) delta_ij for exact quadrature.
  double xx = 0, yy = 0, zz = 0, xy = 0;
  for (const auto& o : levelSymmetricQuadrature(GetParam())) {
    xx += o.weight * o.dir.x() * o.dir.x();
    yy += o.weight * o.dir.y() * o.dir.y();
    zz += o.weight * o.dir.z() * o.dir.z();
    xy += o.weight * o.dir.x() * o.dir.y();
  }
  EXPECT_NEAR(xx, 4.0 * M_PI / 3.0, 1e-9);
  EXPECT_NEAR(yy, 4.0 * M_PI / 3.0, 1e-9);
  EXPECT_NEAR(zz, 4.0 * M_PI / 3.0, 1e-9);
  EXPECT_NEAR(xy, 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(S2S4, QuadratureOrders, ::testing::Values(2, 4),
                         [](const auto& info) {
                           return std::string("S").append(
                               std::to_string(info.param));
                         });

TEST(QuadratureCounts, S2Has8S4Has24) {
  EXPECT_EQ(levelSymmetricQuadrature(2).size(), 8u);
  EXPECT_EQ(levelSymmetricQuadrature(4).size(), 24u);
}

struct DomHarness {
  std::shared_ptr<Grid> grid;
  CCVariable<double> abskg, sig;
  CCVariable<CellType> ct;
  WallProperties walls;

  DomHarness(const RadiationProblem& prob, int n)
      : grid(Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(n),
                                   IntVector(n))),
        abskg(grid->fineLevel().cells(), 0.0),
        sig(grid->fineLevel().cells(), 0.0),
        ct(grid->fineLevel().cells(), CellType::Flow),
        walls{prob.wallSigmaT4OverPi, prob.wallEmissivity} {
    initializeProperties(grid->fineLevel(), prob, abskg, sig, ct);
  }

  DomSolver makeSolver(int order = 4) const {
    return DomSolver(LevelGeom::from(grid->fineLevel()),
                     RadiationFieldsView{FieldView<double>::fromHost(abskg),
                                         FieldView<double>::fromHost(sig),
                                         FieldView<CellType>::fromHost(ct)},
                     walls, order);
  }
};

TEST(DomSolver, EquilibriumGivesZeroDivQ) {
  DomHarness h(uniformMedium(3.0, 1.0), 8);
  DomSolver solver = h.makeSolver();
  CCVariable<double> divQ(h.grid->fineLevel().cells(), -1.0);
  solver.computeDivQ(h.grid->fineLevel().cells(),
                     MutableFieldView<double>::fromHost(divQ));
  for (const auto& c : divQ.window())
    EXPECT_NEAR(divQ[c], 0.0, 1e-10) << "cell " << c;
}

TEST(DomSolver, ColdWallsLoseEnergyEverywhere) {
  RadiationProblem prob = uniformMedium(1.0, 1.0);
  prob.wallSigmaT4OverPi = 0.0;
  DomHarness h(prob, 16);
  DomSolver solver = h.makeSolver();
  CCVariable<double> divQ(h.grid->fineLevel().cells(), 0.0);
  solver.computeDivQ(h.grid->fineLevel().cells(),
                     MutableFieldView<double>::fromHost(divQ));
  for (const auto& c : divQ.window()) EXPECT_GT(divQ[c], 0.0);
  EXPECT_GT(divQ[IntVector(0, 0, 0)], divQ[IntVector(8, 8, 8)]);
}

TEST(DomSolver, SymmetryOfBurnsChristonField) {
  DomHarness h(burnsChriston(), 16);
  DomSolver solver = h.makeSolver();
  CCVariable<double> divQ(h.grid->fineLevel().cells(), 0.0);
  solver.computeDivQ(h.grid->fineLevel().cells(),
                     MutableFieldView<double>::fromHost(divQ));
  // The problem is symmetric under reflection through the domain center.
  for (int x = 0; x < 8; ++x) {
    const double a = divQ[IntVector(x, 8, 8)];
    const double b = divQ[IntVector(15 - x, 8, 8)];
    EXPECT_NEAR(a, b, 1e-9) << "x " << x;
  }
}

TEST(DomSolver, AgreesWithRmcrtOnBurnsChriston) {
  // The two methods approximate the same RTE: centerline divQ should
  // agree within combined discretization + Monte Carlo error.
  DomHarness h(burnsChriston(), 16);
  DomSolver dom = h.makeSolver(4);
  CCVariable<double> domQ(h.grid->fineLevel().cells(), 0.0);
  dom.computeDivQ(h.grid->fineLevel().cells(),
                  MutableFieldView<double>::fromHost(domQ));

  const PackedLevelField records(
      RadiationFieldsView{FieldView<double>::fromHost(h.abskg),
                          FieldView<double>::fromHost(h.sig),
                          FieldView<CellType>::fromHost(h.ct)});
  TraceLevel tl{LevelGeom::from(h.grid->fineLevel()),
                h.grid->fineLevel().cells(), records.view()};
  TraceConfig cfg;
  cfg.nDivQRays = 400;
  cfg.threshold = 1e-8;
  Tracer tracer({tl}, h.walls, cfg);
  CCVariable<double> mcQ(h.grid->fineLevel().cells(), 0.0);
  std::vector<double> a, b;
  for (int x = 0; x < 16; ++x) {
    const IntVector c(x, 8, 8);
    const double meanI = tracer.meanIncomingIntensity(c);
    a.push_back(4.0 * M_PI * h.abskg[c] * (h.sig[c] - meanI));
    b.push_back(domQ[c]);
  }
  EXPECT_LT(relativeL2Error(a, b), 0.12)
      << "RMCRT and S4 DOM should agree within ~12% on the centerline";
}

TEST(DomSolver, S4RefinesOverS2) {
  // Against a high-ray-count RMCRT reference, S4 should be at least as
  // accurate as S2 on the benchmark centerline (ray effects shrink).
  DomHarness h(burnsChriston(), 16);
  const PackedLevelField records(
      RadiationFieldsView{FieldView<double>::fromHost(h.abskg),
                          FieldView<double>::fromHost(h.sig),
                          FieldView<CellType>::fromHost(h.ct)});
  TraceLevel tl{LevelGeom::from(h.grid->fineLevel()),
                h.grid->fineLevel().cells(), records.view()};
  TraceConfig cfg;
  cfg.nDivQRays = 3000;
  cfg.threshold = 1e-8;
  Tracer tracer({tl}, h.walls, cfg);
  std::vector<double> ref;
  for (int x = 0; x < 16; ++x) {
    const IntVector c(x, 8, 8);
    ref.push_back(4.0 * M_PI * h.abskg[c] *
                  (h.sig[c] - tracer.meanIncomingIntensity(c)));
  }
  auto domError = [&](int order) {
    DomSolver solver = h.makeSolver(order);
    CCVariable<double> q(h.grid->fineLevel().cells(), 0.0);
    solver.computeDivQ(h.grid->fineLevel().cells(),
                       MutableFieldView<double>::fromHost(q));
    std::vector<double> v;
    for (int x = 0; x < 16; ++x) v.push_back(q[IntVector(x, 8, 8)]);
    return relativeL2Error(v, ref);
  };
  EXPECT_LE(domError(4), domError(2) * 1.1);
}

TEST(DomSolver, InteriorWallBlocksTransport) {
  // A cold interior wall between a hot slab and a probe cell: the probe's
  // incident radiation must be much smaller than without the wall.
  auto makeG = [&](bool withWall) {
    auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0),
                                      IntVector(16), IntVector(16));
    CCVariable<double> abskg(grid->fineLevel().cells(), 0.01);
    CCVariable<double> sig(grid->fineLevel().cells(), 0.0);
    CCVariable<CellType> ct(grid->fineLevel().cells(), CellType::Flow);
    for (const auto& c : abskg.window()) {
      if (c.x() >= 13) {
        abskg[c] = 50.0;
        sig[c] = 1.0;
      }
      if (withWall && c.x() == 8) ct[c] = CellType::Wall;
    }
    DomSolver solver(
        LevelGeom::from(grid->fineLevel()),
        RadiationFieldsView{FieldView<double>::fromHost(abskg),
                            FieldView<double>::fromHost(sig),
                            FieldView<CellType>::fromHost(ct)},
        WallProperties{0.0, 1.0}, 4);
    CCVariable<double> G(grid->fineLevel().cells(), 0.0);
    solver.computeIncidentRadiation(G);
    return G[IntVector(2, 8, 8)];
  };
  const double open = makeG(false);
  const double blocked = makeG(true);
  EXPECT_LT(blocked, 0.2 * open);
}

}  // namespace
}  // namespace rmcrt::core
