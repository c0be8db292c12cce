/// Migration round-trips: windowed copy is bit-exact where old patches
/// covered, coarse interpolation fills newly refined space, restriction
/// projects derefined fine data back, and a refine -> derefine cycle of
/// coarse-constant data is exact. Also the trace-side prolongation
/// (fillUncoveredFromCoarser) used by the two-level trace task on
/// adaptive fine levels.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "amr/migrator.h"
#include "grid/grid.h"
#include "runtime/data_warehouse.h"

namespace rmcrt::amr {
namespace {

using grid::CCVariable;
using grid::Grid;
using runtime::DataWarehouse;

double cellValue(const IntVector& c) {
  return 1.0 + c.x() + 100.0 * c.y() + 10000.0 * c.z();
}

TEST(Migrator, WindowedCopyIsBitExactAcrossRelayout) {
  // Same extent, different fine patch layout old -> new: every fine cell
  // covered by both keeps its exact value.
  auto oldGrid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                    IntVector(2), IntVector(4), IntVector(4));
  auto newGrid = Grid::makeAdaptive(
      Vector(0.0), Vector(1.0), IntVector(8), IntVector(4), IntVector(2),
      {CellRange(IntVector(0), IntVector(4)),
       CellRange(IntVector(4, 0, 0), IntVector(8, 4, 4))});

  DataWarehouse dw;
  const int fineLevel = 1;
  for (const auto& p : oldGrid->level(fineLevel).patches()) {
    CCVariable<double> v(p, 0, 0.0);
    for (const IntVector& c : p.cells()) v[c] = cellValue(c);
    dw.put("divQ", p.id(), std::move(v));
  }

  Migrator mig(*oldGrid, *newGrid);
  std::vector<int> ids;
  for (const auto& p : newGrid->level(fineLevel).patches())
    ids.push_back(p.id());
  const auto out = mig.migratePatchVar<double>("divQ", fineLevel, dw, ids);
  ASSERT_EQ(out.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const grid::Patch* p = newGrid->patchById(ids[i]);
    for (const IntVector& c : p->cells())
      ASSERT_DOUBLE_EQ(out[i][c], cellValue(c)) << "cell " << c;
  }
}

TEST(Migrator, NewlyRefinedCellsTakeCoarseParentValues) {
  // Old grid has NO fine patches; the new fine patch must be prolonged
  // entirely from the coarse source.
  auto oldGrid = Grid::makeAdaptive(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(4), IntVector(2), {});
  auto newGrid = Grid::makeAdaptive(
      Vector(0.0), Vector(1.0), IntVector(8), IntVector(4), IntVector(2),
      {CellRange(IntVector(2, 2, 2), IntVector(6))});

  DataWarehouse dw;  // empty: no old fine data
  CCVariable<double> coarse(oldGrid->coarseLevel().cells(), 0.0);
  for (const IntVector& c : coarse.window()) coarse[c] = cellValue(c);

  Migrator mig(*oldGrid, *newGrid);
  std::vector<int> ids;
  for (const auto& p : newGrid->fineLevel().patches()) ids.push_back(p.id());
  const auto out =
      mig.migratePatchVar<double>("divQ", 1, dw, ids, &coarse);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const grid::Patch* p = newGrid->patchById(ids[i]);
    for (const IntVector& c : p->cells()) {
      const IntVector cc(c.x() / 2, c.y() / 2, c.z() / 2);
      ASSERT_DOUBLE_EQ(out[i][c], cellValue(cc));
    }
  }
}

TEST(Migrator, RefineThenDerefineIsExactForCoarseConstantData) {
  // Prolong coarse data to fine (piecewise constant), then restrict the
  // fine image back: averaging rr^3 identical children recovers the
  // original coarse values exactly, cell for cell.
  auto coarseOnly = Grid::makeAdaptive(Vector(0.0), Vector(1.0), IntVector(8),
                                       IntVector(4), IntVector(2), {});
  auto refined = Grid::makeAdaptive(
      Vector(0.0), Vector(1.0), IntVector(8), IntVector(4), IntVector(2),
      {CellRange(IntVector(0), IntVector(8))});  // fully refined

  CCVariable<double> coarse(coarseOnly->coarseLevel().cells(), 0.0);
  for (const IntVector& c : coarse.window()) coarse[c] = cellValue(c);

  DataWarehouse dw;
  Migrator refineMig(*coarseOnly, *refined);
  std::vector<int> ids;
  for (const auto& p : refined->fineLevel().patches()) ids.push_back(p.id());
  auto fineVars =
      refineMig.migratePatchVar<double>("divQ", 1, dw, ids, &coarse);

  // Stash the refined data as the "old" DW of the derefining regrid.
  DataWarehouse fineDW;
  for (std::size_t i = 0; i < ids.size(); ++i)
    fineDW.put("divQ", ids[i], std::move(fineVars[i]));

  Migrator derefMig(*refined, *coarseOnly);
  const LevelImage<double> img =
      gatherAvailable<double>(fineDW, "divQ", refined->fineLevel());
  CCVariable<double> restored(coarseOnly->coarseLevel().cells(), -1.0);
  derefMig.restrictToCoarse<double>(img, 1, restored);
  for (const IntVector& c : restored.window())
    ASSERT_DOUBLE_EQ(restored[c], coarse[c]) << "coarse cell " << c;
}

TEST(Migrator, RestrictionSkipsPartialBlocks) {
  auto refined = Grid::makeAdaptive(
      Vector(0.0), Vector(1.0), IntVector(8), IntVector(4), IntVector(2),
      {CellRange(IntVector(0), IntVector(4))});  // quarter refined
  auto coarseOnly = Grid::makeAdaptive(Vector(0.0), Vector(1.0), IntVector(8),
                                       IntVector(4), IntVector(2), {});
  DataWarehouse dw;
  for (const auto& p : refined->fineLevel().patches()) {
    CCVariable<double> v(p, 0, 7.0);
    dw.put("divQ", p.id(), std::move(v));
  }
  Migrator mig(*refined, *coarseOnly);
  const auto img = gatherAvailable<double>(dw, "divQ", refined->fineLevel());
  CCVariable<double> coarse(coarseOnly->coarseLevel().cells(), -3.0);
  mig.restrictToCoarse<double>(img, 1, coarse);
  const CellRange coveredCoarse(IntVector(0), IntVector(4));
  for (const IntVector& c : coarse.window()) {
    if (coveredCoarse.contains(c))
      EXPECT_DOUBLE_EQ(coarse[c], 7.0);
    else
      EXPECT_DOUBLE_EQ(coarse[c], -3.0);  // untouched
  }
}

TEST(FillUncovered, ProlongsOnlyUncoveredCells) {
  auto grid = Grid::makeAdaptive(
      Vector(0.0), Vector(1.0), IntVector(8), IntVector(4), IntVector(2),
      {CellRange(IntVector(0), IntVector(4))});
  const grid::Level& fine = grid->fineLevel();
  CCVariable<double> coarse(grid->coarseLevel().cells(), 0.0);
  for (const IntVector& c : coarse.window()) coarse[c] = cellValue(c);

  const CellRange region(IntVector(4), IntVector(12));  // straddles the box
  CCVariable<double> v(region, -5.0);
  fillUncoveredFromCoarser(v, region, fine, coarse);
  const CellRange coveredFine(IntVector(0), IntVector(8));
  for (const IntVector& c : region) {
    if (coveredFine.contains(c)) {
      EXPECT_DOUBLE_EQ(v[c], -5.0) << "covered cell overwritten at " << c;
    } else {
      const IntVector cc(c.x() / 2, c.y() / 2, c.z() / 2);
      EXPECT_DOUBLE_EQ(v[c], cellValue(cc)) << "cell " << c;
    }
  }
}

}  // namespace
}  // namespace rmcrt::amr
