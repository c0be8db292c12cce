/// VTK refinement-flag and patch-ownership cell fields around the regrid
/// lifecycle. Grid-structure checkpoints that survive a regrid are
/// covered by the snapshot manifest tests (snapshot_replay_test).

#include <gtest/gtest.h>

#include <memory>

#include "grid/grid.h"
#include "grid/load_balancer.h"
#include "grid/vtk_writer.h"

namespace rmcrt::grid {
namespace {

std::shared_ptr<Grid> adaptiveGrid() {
  return Grid::makeAdaptive(
      Vector(0.0), Vector(1.0), IntVector(8), IntVector(4), IntVector(2),
      {CellRange(IntVector(0), IntVector(4)),
       CellRange(IntVector(4, 4, 4), IntVector(8))});
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

}  // namespace
}  // namespace rmcrt::grid
