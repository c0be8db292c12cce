/// Satellites around the regrid lifecycle: regridWithPatchSize input
/// validation (S1), VTK refinement-flag / patch-ownership cell fields
/// (S4), and grid-structure checkpoints that survive a regrid (S3).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "grid/grid.h"
#include "grid/load_balancer.h"
#include "grid/regridder.h"
#include "grid/vtk_writer.h"
#include "runtime/data_archiver.h"

namespace rmcrt::grid {
namespace {

std::shared_ptr<Grid> adaptiveGrid() {
  return Grid::makeAdaptive(
      Vector(0.0), Vector(1.0), IntVector(8), IntVector(4), IntVector(2),
      {CellRange(IntVector(0), IntVector(4)),
       CellRange(IntVector(4, 4, 4), IntVector(8))});
}

TEST(Regridder, RejectsAdaptiveGrids) {
  auto grid = adaptiveGrid();
  try {
    regridWithPatchSize(*grid, 4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("AmrEngine"), std::string::npos)
        << "error should point at the adaptive regrid path: " << e.what();
  }
}

TEST(Regridder, RejectsNonDividingPatchSizeWithDescriptiveError) {
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(2), IntVector(4), IntVector(4));
  try {
    regridWithPatchSize(*grid, 5);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("16"), std::string::npos) << msg;
  }
  EXPECT_THROW(regridWithPatchSize(*grid, 0), std::invalid_argument);
}

TEST(VtkWriter, RefinementFlagFieldMarksCoveredCoarseCells) {
  auto grid = adaptiveGrid();
  const auto field =
      refinementFlagField(grid->coarseLevel(), grid->fineLevel());
  for (const IntVector& c : grid->coarseLevel().cells()) {
    const bool covered = CellRange(IntVector(0), IntVector(4)).contains(c) ||
                         CellRange(IntVector(4), IntVector(8)).contains(c);
    EXPECT_DOUBLE_EQ(field[c], covered ? 1.0 : 0.0) << "cell " << c;
  }
}

TEST(VtkWriter, OwnershipFieldTracksLoadBalancerRanks) {
  auto grid = adaptiveGrid();
  LoadBalancer lb(*grid, 2);
  const auto field = ownershipField(grid->fineLevel(), lb);
  for (const auto& p : grid->fineLevel().patches())
    for (const IntVector& c : p.cells())
      EXPECT_DOUBLE_EQ(field[c], static_cast<double>(lb.rankOf(p.id())));
  // Cells outside every fine patch carry the -1 sentinel.
  EXPECT_DOUBLE_EQ(field[IntVector(0, 0, 15)], -1.0);
}

TEST(DataArchiver, GridRoundTripsThroughCheckpoint) {
  const std::string dir = "amr_ckpt_grid_test";
  auto grid = adaptiveGrid();
  ASSERT_TRUE(runtime::DataArchiver::checkpointGrid(dir, *grid));
  auto restored = runtime::DataArchiver::restoreGrid(dir);
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->numLevels(), grid->numLevels());
  for (int l = 0; l < grid->numLevels(); ++l) {
    const Level& a = grid->level(l);
    const Level& b = restored->level(l);
    EXPECT_TRUE(a.cells() == b.cells());
    EXPECT_EQ(a.uniformlyTiled(), b.uniformlyTiled());
    EXPECT_TRUE(a.refinementRatio() == b.refinementRatio());
    ASSERT_EQ(a.numPatches(), b.numPatches());
    for (std::size_t i = 0; i < a.numPatches(); ++i) {
      EXPECT_TRUE(a.patch(i).cells() == b.patch(i).cells());
      EXPECT_EQ(a.patch(i).id(), b.patch(i).id());
    }
    EXPECT_DOUBLE_EQ(a.dx().x(), b.dx().x());
  }
  std::remove((dir + "/grid.txt").c_str());
  std::remove(dir.c_str());
}

TEST(DataArchiver, RestoreGridRejectsMissingOrCorruptRecord) {
  EXPECT_EQ(runtime::DataArchiver::restoreGrid("no_such_dir"), nullptr);
}

}  // namespace
}  // namespace rmcrt::grid
