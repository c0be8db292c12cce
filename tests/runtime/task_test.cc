/// Unit tests of requiredWindow, the one rule that turns a Requires into
/// the cells a task on a patch needs.

#include "runtime/task.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rmcrt::runtime {
namespace {

using grid::Grid;
using grid::Patch;

const Patch& patchAt(const Grid& grid, int level, const IntVector& low) {
  for (const Patch& p : grid.level(level).patches())
    if (p.low() == low) return p;
  throw std::logic_error("no patch at " + low.toString());
}

CellRange cube(int lo, int hi) {
  return CellRange(IntVector(lo), IntVector(hi));
}

TEST(RequiredWindow, CoversEveryBranchAndClipsToTheLevel) {
  // Level 0: 6^3 coarse cells in 3^3 patches. Level 1: 24^3 fine cells in
  // 6^3 patches, refinement ratio 4, so a fine patch covers coarse cells
  // only partly and its coarse window rounds outward.
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(24),
                                 IntVector(4), IntVector(6), IntVector(3));
  const Patch& fineInterior = patchAt(*grid, 1, IntVector(6));
  const Patch& fineCorner = patchAt(*grid, 1, IntVector(18));
  const Patch& coarseLow = patchAt(*grid, 0, IntVector(0));
  const Patch& coarseHigh = patchAt(*grid, 0, IntVector(3));
  auto req = [](int level, int numGhost, bool wholeLevel = false) {
    return Requires{"phi", VarType::Double, level, numGhost, wholeLevel};
  };

  // Same level: the patch grown by numGhost, clipped at the domain edge.
  EXPECT_EQ(requiredWindow(*grid, fineInterior, req(1, 2)), cube(4, 14));
  EXPECT_EQ(requiredWindow(*grid, fineCorner, req(1, 2)), cube(16, 24));
  EXPECT_EQ(requiredWindow(*grid, coarseLow, req(0, 1)), cube(0, 4));

  // Finer: the patch refined to the required level, then grown.
  EXPECT_EQ(requiredWindow(*grid, coarseLow, req(1, 0)), cube(0, 12));
  EXPECT_EQ(requiredWindow(*grid, coarseHigh, req(1, 2)), cube(10, 24));

  // Coarser: the coarse cells covering the patch ([6,12) covers coarse
  // [1,3)), then grown.
  EXPECT_EQ(requiredWindow(*grid, fineInterior, req(0, 0)), cube(1, 3));
  EXPECT_EQ(requiredWindow(*grid, fineInterior, req(0, 1)), cube(0, 4));
  EXPECT_EQ(requiredWindow(*grid, fineCorner, req(0, 1)), cube(3, 6));

  // Whole level: the level's extent, whatever the patch and numGhost.
  EXPECT_EQ(requiredWindow(*grid, fineCorner, req(0, 3, true)), cube(0, 6));
  EXPECT_EQ(requiredWindow(*grid, coarseLow, req(1, 0, true)), cube(0, 24));
  EXPECT_EQ(requiredWindow(*grid, fineInterior, req(1, 0, true)),
            grid->level(1).cells());
}

}  // namespace
}  // namespace rmcrt::runtime
