/// Tests of the multi-level (AMR) tracer against the single-level
/// reference: the coarse continuation must preserve the radiation physics
/// to within the coarsening error, and the ROI switch must be seamless.

#include <gtest/gtest.h>

#include <cmath>

#include "core/problems.h"
#include "core/ray_tracer.h"
#include "core/rmcrt_component.h"
#include "grid/grid.h"
#include "grid/operators.h"
#include "util/stats.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::CellType;
using grid::Grid;

TEST(MultiLevelTracer, HugeRoiMatchesSingleLevelExactly) {
  // With the ROI covering the whole fine level, rays never reach the
  // coarse level: two-level result must equal single-level bitwise.
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(16), IntVector(4));
  RmcrtSetup setup;
  setup.problem = burnsChriston();
  setup.trace.nDivQRays = 20;
  setup.trace.seed = 3;
  setup.roiHalo = 64;  // ROI >> level: never leaves the fine mesh

  CCVariable<double> two = RmcrtComponent::solveSerialTwoLevel(*grid, setup);

  auto grid1 = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                     IntVector(16));
  CCVariable<double> one =
      RmcrtComponent::solveSerialSingleLevel(*grid1, setup);

  for (const auto& c : two.window())
    EXPECT_DOUBLE_EQ(two[c], one[c]) << "cell " << c;
}

TEST(MultiLevelTracer, SmallRoiApproximatesSingleLevel) {
  // The production configuration: small ROI, rays continue on a 4x
  // coarser level. Accuracy should degrade only mildly (paper Sec. III-B;
  // the coarse level carries conservatively averaged properties).
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(32),
                                 IntVector(4), IntVector(8), IntVector(8));
  RmcrtSetup setup;
  setup.problem = burnsChriston();
  setup.trace.nDivQRays = 200;
  setup.trace.seed = 7;
  setup.roiHalo = 4;

  CCVariable<double> two = RmcrtComponent::solveSerialTwoLevel(*grid, setup);

  auto grid1 = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(32),
                                     IntVector(32));
  CCVariable<double> one =
      RmcrtComponent::solveSerialSingleLevel(*grid1, setup);

  // Compare along the centerline (the benchmark's QoI).
  std::vector<double> a, b;
  for (int x = 0; x < 32; ++x) {
    a.push_back(two[IntVector(x, 16, 16)]);
    b.push_back(one[IntVector(x, 16, 16)]);
  }
  EXPECT_LT(relativeL2Error(a, b), 0.08)
      << "multi-level centerline should track single-level within ~8%";
}

TEST(MultiLevelTracer, EquilibriumPreservedAcrossLevelSwitch) {
  // Equilibrium (uniform medium, matching hot walls) must survive the
  // fine->coarse handoff exactly: coarsening a uniform field is exact.
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(4), IntVector(4));
  RmcrtSetup setup;
  setup.problem = uniformMedium(5.0, 1.0);
  setup.trace.nDivQRays = 16;
  setup.trace.threshold = 1e-12;
  setup.roiHalo = 2;

  CCVariable<double> divQ = RmcrtComponent::solveSerialTwoLevel(*grid, setup);
  for (const auto& c : divQ.window())
    EXPECT_NEAR(divQ[c], 0.0, 1e-9) << "cell " << c;
}

TEST(MultiLevelTracer, RoiSizeSweepConvergesToSingleLevel) {
  // Property sweep: growing the ROI monotonically (within MC noise)
  // shrinks the deviation from the single-level answer.
  auto grid1 = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                     IntVector(16));
  RmcrtSetup ref;
  ref.problem = burnsChriston();
  ref.trace.nDivQRays = 150;
  ref.trace.seed = 11;
  CCVariable<double> one = RmcrtComponent::solveSerialSingleLevel(*grid1, ref);

  auto errorForHalo = [&](int halo) {
    auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                   IntVector(4), IntVector(4), IntVector(4));
    RmcrtSetup setup = ref;
    setup.roiHalo = halo;
    CCVariable<double> two =
        RmcrtComponent::solveSerialTwoLevel(*grid, setup);
    std::vector<double> a, b;
    for (const auto& c : two.window()) {
      a.push_back(two[c]);
      b.push_back(one[c]);
    }
    return relativeL2Error(a, b);
  };

  const double eTiny = errorForHalo(1);
  const double eBig = errorForHalo(12);
  EXPECT_LT(eBig, 1e-12) << "halo 12 covers the 16-cell level entirely";
  EXPECT_GT(eTiny, eBig);
  EXPECT_LT(eTiny, 0.15) << "even a 1-cell ROI stays in the right regime";
}

TEST(MultiLevelTracer, ThreeLevelStackTraces) {
  // A 3-level hierarchy (the generalization the design supports).
  auto grid = Grid::makeMultiLevel(
      Vector(0.0), Vector(1.0), IntVector(16), IntVector(2),
      {IntVector(4), IntVector(8), IntVector(16)});
  const grid::Level& fine = grid->fineLevel();

  // Build per-level fields by sampling/coarsening, and pack each level.
  RadiationProblem prob = burnsChriston();
  std::vector<PackedLevelField> records;
  for (int l = 0; l < 3; ++l) {
    const grid::Level& lev = grid->level(l);
    CCVariable<double> abs(lev.cells(), 0.0), sig(lev.cells(), 0.0);
    CCVariable<CellType> ct(lev.cells(), CellType::Flow);
    initializeProperties(lev, prob, abs, sig, ct);
    records.emplace_back(
        RadiationFieldsView{FieldView<double>::fromHost(abs),
                            FieldView<double>::fromHost(sig),
                            FieldView<CellType>::fromHost(ct)});
  }

  std::vector<TraceLevel> levels;
  // Fine ROI: central patch + halo.
  const grid::Patch* p = fine.patchContaining(IntVector(8, 8, 8));
  levels.push_back(TraceLevel{LevelGeom::from(fine),
                              p->ghostWindow(2).intersect(fine.cells()),
                              records[2].view()});
  levels.push_back(TraceLevel{
      LevelGeom::from(grid->level(1)),
      // mid level allowed: a wider box around the patch
      p->ghostWindow(6).intersect(fine.cells()).coarsened(IntVector(2)),
      records[1].view()});
  levels.push_back(TraceLevel{LevelGeom::from(grid->level(0)),
                              grid->level(0).cells(), records[0].view()});

  TraceConfig cfg;
  cfg.nDivQRays = 50;
  Tracer tracer(std::move(levels), WallProperties{0.0, 1.0}, cfg);
  CCVariable<double> divQ(p->cells(), 0.0);
  tracer.computeDivQ(p->cells(), MutableFieldView<double>::fromHost(divQ));
  for (const auto& c : p->cells()) {
    EXPECT_GT(divQ[c], 0.0);
    EXPECT_LT(divQ[c], 6.0);
  }
}

}  // namespace
}  // namespace rmcrt::core
