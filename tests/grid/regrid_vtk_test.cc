#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "grid/regridder.h"
#include "grid/vtk_writer.h"

namespace rmcrt::grid {
namespace {

TEST(Regridder, ScatterGatherRoundTrip) {
  auto g = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4));
  CCVariable<double> levelVar(g->fineLevel().cells(), 0.0);
  for (const auto& c : levelVar.window())
    levelVar[c] = c.x() + 100.0 * c.y() + 10000.0 * c.z();

  const auto patchVars = scatterToPatches(levelVar, g->fineLevel());
  ASSERT_EQ(patchVars.size(), g->fineLevel().numPatches());
  for (std::size_t i = 0; i < patchVars.size(); ++i) {
    for (const auto& c : g->fineLevel().patch(i).cells())
      EXPECT_DOUBLE_EQ(patchVars[i][c], levelVar[c]);
  }
  const CCVariable<double> back =
      gatherFromPatches(patchVars, g->fineLevel());
  for (const auto& c : levelVar.window())
    EXPECT_DOUBLE_EQ(back[c], levelVar[c]);
}

TEST(Regridder, ScatterWithGhostsClipsAtBoundary) {
  auto g = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                 IntVector(4));
  CCVariable<double> levelVar(g->fineLevel().cells(), 7.0);
  const auto patchVars =
      scatterToPatches(levelVar, g->fineLevel(), /*numGhost=*/2);
  // Interior + in-domain ghosts carry data; out-of-domain ghosts remain
  // default-initialized.
  const auto& v = patchVars[0];  // patch at the low corner
  EXPECT_DOUBLE_EQ(v[IntVector(0, 0, 0)], 7.0);
  EXPECT_DOUBLE_EQ(v[IntVector(5, 5, 5)], 7.0);   // in-domain ghost
  EXPECT_DOUBLE_EQ(v[IntVector(-1, 0, 0)], 0.0);  // outside the domain
}

TEST(Regridder, MigrationAcrossPatchSizes) {
  // Full D4 workflow: gather from the old decomposition, scatter to the
  // new one — data identical cell by cell.
  auto old = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                   IntVector(8));
  CCVariable<double> levelVar(old->fineLevel().cells(), 0.0);
  for (const auto& c : levelVar.window()) levelVar[c] = 3.0 * c.x() - c.z();
  auto oldPatchVars = scatterToPatches(levelVar, old->fineLevel());

  auto fresh = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                     IntVector(4));
  const auto image = gatherFromPatches(oldPatchVars, old->fineLevel());
  auto newPatchVars = scatterToPatches(image, fresh->fineLevel());
  for (std::size_t i = 0; i < newPatchVars.size(); ++i) {
    for (const auto& c : fresh->fineLevel().patch(i).cells())
      EXPECT_DOUBLE_EQ(newPatchVars[i][c], levelVar[c]);
  }
}

TEST(VtkWriter, WritesParsableStructuredPoints) {
  auto g = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(4),
                                 IntVector(4));
  CCVariable<double> divQ(g->fineLevel().cells(), 0.0);
  for (const auto& c : divQ.window()) divQ[c] = c.x() + 0.5;
  const std::string path = "/tmp/rmcrt_vtk_test.vtk";
  ASSERT_TRUE(writeVtkLevel(path, g->fineLevel(), {{"divQ", &divQ}}));

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string content = ss.str();
  EXPECT_NE(content.find("DATASET STRUCTURED_POINTS"), std::string::npos);
  EXPECT_NE(content.find("DIMENSIONS 4 4 4"), std::string::npos);
  EXPECT_NE(content.find("SCALARS divQ double 1"), std::string::npos);
  EXPECT_NE(content.find("POINT_DATA 64"), std::string::npos);
  // First value = cell (0,0,0) -> 0.5 (x fastest ordering).
  const auto pos = content.find("LOOKUP_TABLE default\n");
  ASSERT_NE(pos, std::string::npos);
  std::istringstream vals(content.substr(pos + 21));
  double first = -1, second = -1;
  vals >> first >> second;
  EXPECT_DOUBLE_EQ(first, 0.5);
  EXPECT_DOUBLE_EQ(second, 1.5);
  std::remove(path.c_str());
}

TEST(VtkWriter, MultipleFieldsAndFailurePaths) {
  auto g = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(2),
                                 IntVector(2));
  CCVariable<double> a(g->fineLevel().cells(), 1.0);
  CCVariable<double> b(g->fineLevel().cells(), 2.0);
  const std::string path = "/tmp/rmcrt_vtk_test2.vtk";
  ASSERT_TRUE(
      writeVtkLevel(path, g->fineLevel(), {{"a", &a}, {"b", &b}}));
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_NE(ss.str().find("SCALARS a double"), std::string::npos);
  EXPECT_NE(ss.str().find("SCALARS b double"), std::string::npos);
  std::remove(path.c_str());

  // Unwritable path and undersized variable both fail cleanly.
  EXPECT_FALSE(writeVtkLevel("/nonexistent-dir/x.vtk", g->fineLevel(),
                             {{"a", &a}}));
  CCVariable<double> tooSmall(
      CellRange(IntVector(0), IntVector(1)), 0.0);
  EXPECT_FALSE(writeVtkLevel(path, g->fineLevel(), {{"a", &tooSmall}}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rmcrt::grid
