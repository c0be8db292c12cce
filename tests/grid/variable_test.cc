#include "grid/variable.h"

#include <gtest/gtest.h>

#include "grid/operators.h"

namespace rmcrt::grid {
namespace {

TEST(CCVariable, AllocatesInteriorPlusGhosts) {
  Patch p(0, 0, CellRange(IntVector(4, 4, 4), IntVector(8, 8, 8)));
  CCVariable<double> v(p, 2, 0.0);
  EXPECT_EQ(v.interior(), p.cells());
  EXPECT_EQ(v.window(), p.cells().grown(2));
  EXPECT_EQ(v.numGhost(), 2);
  EXPECT_EQ(v.sizeCells(), 8 * 8 * 8);
  EXPECT_EQ(v.sizeBytes(), 8 * 8 * 8 * 8);
  v[IntVector(2, 2, 2)] = 5.0;  // ghost cell below interior
  EXPECT_DOUBLE_EQ(v[IntVector(2, 2, 2)], 5.0);
}

TEST(CCVariable, UsesMmapStorage) {
  const auto before = mem::MmapArena::stats().bytesMapped;
  {
    Patch p(0, 0, CellRange(IntVector(0), IntVector(32)));
    CCVariable<double> v(p, 1, 1.0);
    EXPECT_GT(mem::MmapArena::stats().bytesMapped, before);
  }
  EXPECT_EQ(mem::MmapArena::stats().bytesMapped, before);
}

TEST(CCVariable, SmallVariableCyclesMapNothingAfterWarmUp) {
  const CellRange window(IntVector(0), IntVector(4));
  { CCVariable<double> warm(window, 0.0); }
  const auto before = mem::MmapArena::stats().totalMapCalls;
  for (int i = 0; i < 1000; ++i) {
    CCVariable<double> v(window, 1.0);
    v[IntVector(3, 3, 3)] = 2.0;
  }
  EXPECT_EQ(mem::MmapArena::stats().totalMapCalls - before, 0u);
}

TEST(CCVariable, WindowConstructorForLevelWideVars) {
  CCVariable<float> v(CellRange(IntVector(0), IntVector(64)), 3.0f);
  EXPECT_EQ(v.sizeCells(), 64 * 64 * 64);
  EXPECT_FLOAT_EQ(v[IntVector(63, 63, 63)], 3.0f);
}

TEST(CCVariable, CopyRegionGhostExchange) {
  Patch a(0, 0, CellRange(IntVector(0, 0, 0), IntVector(4, 4, 4)));
  Patch b(1, 0, CellRange(IntVector(4, 0, 0), IntVector(8, 4, 4)));
  CCVariable<double> va(a, 0);
  CCVariable<double> vb(b, 1, -1.0);
  va.fill(7.0);
  // b's ghost window overlaps a's interior in the x face.
  const CellRange overlap = vb.window().intersect(va.interior());
  EXPECT_EQ(overlap, CellRange(IntVector(3, -1, -1), IntVector(4, 4, 4))
                         .intersect(va.interior()));
  vb.copyRegion(va, overlap);
  EXPECT_DOUBLE_EQ(vb[IntVector(3, 2, 2)], 7.0);
  EXPECT_DOUBLE_EQ(vb[IntVector(4, 2, 2)], -1.0);  // own interior untouched
}

TEST(VarLabel, EqualityByName) {
  VarLabel a("divQ"), b("divQ"), c("abskg");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.name(), "divQ");
}

TEST(Operators, CoarsenAverageExactForConstantField) {
  CCVariable<double> fine(CellRange(IntVector(0), IntVector(8)), 3.5);
  CCVariable<double> coarse(CellRange(IntVector(0), IntVector(2)), 0.0);
  coarsenAverage(fine, IntVector(4), coarse, coarse.window());
  for (const auto& c : coarse.window()) EXPECT_DOUBLE_EQ(coarse[c], 3.5);
}

TEST(Operators, CoarsenAveragePreservesMean) {
  CCVariable<double> fine(CellRange(IntVector(0), IntVector(8)), 0.0);
  double fineSum = 0.0;
  for (const auto& c : fine.window()) {
    fine[c] = c.x() + 2.0 * c.y() + 3.0 * c.z();
    fineSum += fine[c];
  }
  CCVariable<double> coarse(CellRange(IntVector(0), IntVector(4)), 0.0);
  coarsenAverage(fine, IntVector(2), coarse, coarse.window());
  double coarseSum = 0.0;
  for (const auto& c : coarse.window()) coarseSum += coarse[c];
  EXPECT_NEAR(coarseSum * 8.0, fineSum, 1e-9);
}

TEST(Operators, CoarsenAverageLinearFieldExact) {
  // The mean of a linear function over a block equals its value at the
  // block centroid.
  CCVariable<double> fine(CellRange(IntVector(0), IntVector(4)), 0.0);
  for (const auto& c : fine.window()) fine[c] = 2.0 * c.x();
  CCVariable<double> coarse(CellRange(IntVector(0), IntVector(2)), 0.0);
  coarsenAverage(fine, IntVector(2), coarse, coarse.window());
  EXPECT_DOUBLE_EQ(coarse[IntVector(0, 0, 0)], 1.0);   // mean of 0,2
  EXPECT_DOUBLE_EQ(coarse[IntVector(1, 0, 0)], 5.0);   // mean of 4,6
}

TEST(Operators, CoarsenCellTypeWallDominates) {
  CCVariable<CellType> fine(CellRange(IntVector(0), IntVector(4)),
                            CellType::Flow);
  fine[IntVector(3, 3, 3)] = CellType::Wall;
  CCVariable<CellType> coarse(CellRange(IntVector(0), IntVector(2)),
                              CellType::Flow);
  coarsenCellType(fine, IntVector(2), coarse, coarse.window());
  EXPECT_EQ(coarse[IntVector(1, 1, 1)], CellType::Wall);
  EXPECT_EQ(coarse[IntVector(0, 0, 0)], CellType::Flow);
}

TEST(Operators, RefineConstantRoundTripsConstants) {
  CCVariable<double> coarse(CellRange(IntVector(0), IntVector(2)), 0.0);
  for (const auto& c : coarse.window())
    coarse[c] = c.x() + 10.0 * c.y() + 100.0 * c.z();
  CCVariable<double> fine(CellRange(IntVector(0), IntVector(8)), 0.0);
  refineConstant(coarse, IntVector(4), fine, fine.window());
  for (const auto& fc : fine.window()) {
    const IntVector cc(fc.x() / 4, fc.y() / 4, fc.z() / 4);
    EXPECT_DOUBLE_EQ(fine[fc], coarse[cc]);
  }
  // And coarsening back reproduces the coarse field exactly.
  CCVariable<double> back(CellRange(IntVector(0), IntVector(2)), 0.0);
  coarsenAverage(fine, IntVector(4), back, back.window());
  for (const auto& c : coarse.window())
    EXPECT_NEAR(back[c], coarse[c], 1e-12);
}

}  // namespace
}  // namespace rmcrt::grid
