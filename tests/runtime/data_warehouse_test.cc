#include "runtime/data_warehouse.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace rmcrt::runtime {
namespace {

grid::Patch makePatch(int id = 0) {
  return grid::Patch(id, 0, CellRange(IntVector(0), IntVector(8)));
}

TEST(DataWarehouse, PutGetPatchVariable) {
  DataWarehouse dw;
  grid::CCVariable<double> v(makePatch(), 0, 1.5);
  v[IntVector(3, 3, 3)] = 9.0;
  dw.put("abskg", 0, std::move(v));
  EXPECT_TRUE(dw.exists("abskg", 0));
  EXPECT_FALSE(dw.exists("abskg", 1));
  EXPECT_FALSE(dw.exists("sigmaT4", 0));
  const auto& got = dw.get<double>("abskg", 0);
  EXPECT_DOUBLE_EQ(got[IntVector(3, 3, 3)], 9.0);
  EXPECT_DOUBLE_EQ(got[IntVector(0, 0, 0)], 1.5);
}

TEST(DataWarehouse, GetModifiableWritesThrough) {
  DataWarehouse dw;
  dw.put("divQ", 5, grid::CCVariable<double>(makePatch(5), 0, 0.0));
  dw.getModifiable<double>("divQ", 5)[IntVector(1, 1, 1)] = 4.2;
  EXPECT_DOUBLE_EQ(dw.get<double>("divQ", 5)[IntVector(1, 1, 1)], 4.2);
}

TEST(DataWarehouse, CellTypeVariable) {
  DataWarehouse dw;
  grid::CCVariable<grid::CellType> ct(makePatch(), 0, grid::CellType::Flow);
  ct[IntVector(0, 0, 0)] = grid::CellType::Wall;
  dw.put("cellType", 0, std::move(ct));
  EXPECT_EQ(dw.get<grid::CellType>("cellType", 0)[IntVector(0, 0, 0)],
            grid::CellType::Wall);
}

TEST(DataWarehouse, RegionVariablesKeyedByWindow) {
  DataWarehouse dw;
  const CellRange w1(IntVector(0), IntVector(4));
  const CellRange w2(IntVector(-1), IntVector(5));
  dw.putRegion("abskg", 1, grid::CCVariable<double>(w1, 1.0));
  dw.putRegion("abskg", 1, grid::CCVariable<double>(w2, 2.0));
  EXPECT_TRUE(dw.existsRegion("abskg", 1, w1));
  EXPECT_TRUE(dw.existsRegion("abskg", 1, w2));
  EXPECT_FALSE(dw.existsRegion("abskg", 0, w1));
  EXPECT_DOUBLE_EQ(dw.getRegion<double>("abskg", 1, w1)[IntVector(0)], 1.0);
  EXPECT_DOUBLE_EQ(dw.getRegion<double>("abskg", 1, w2)[IntVector(0)], 2.0);
}

TEST(DataWarehouse, LiveBytesAccounting) {
  DataWarehouse dw;
  EXPECT_EQ(dw.liveBytes(), 0);
  dw.put("a", 0, grid::CCVariable<double>(makePatch(), 0, 0.0));
  EXPECT_EQ(dw.liveBytes(), 8 * 8 * 8 * 8);
  dw.putRegion("b", 0,
               grid::CCVariable<grid::CellType>(
                   CellRange(IntVector(0), IntVector(4)), grid::CellType::Flow));
  EXPECT_EQ(dw.liveBytes(), 8 * 8 * 8 * 8 + 4 * 4 * 4 * 4);
}

TEST(DataWarehouse, ClearDropsEverything) {
  DataWarehouse dw;
  dw.put("a", 0, grid::CCVariable<double>(makePatch(), 0, 0.0));
  const CellRange window(IntVector(0), IntVector(2));
  dw.putRegion("b", 0, grid::CCVariable<double>(window, 0.0));
  dw.clear();
  EXPECT_FALSE(dw.exists("a", 0));
  EXPECT_FALSE(dw.existsRegion("b", 0, window));
  EXPECT_EQ(dw.liveBytes(), 0);
}

TEST(DataWarehouse, OverwriteReplacesVariable) {
  DataWarehouse dw;
  dw.put("a", 0, grid::CCVariable<double>(makePatch(), 0, 1.0));
  dw.put("a", 0, grid::CCVariable<double>(makePatch(), 2, 7.0));
  const auto& got = dw.get<double>("a", 0);
  EXPECT_EQ(got.numGhost(), 2);
  EXPECT_DOUBLE_EQ(got[IntVector(-2, -2, -2)], 7.0);
}

TEST(DataWarehouse, ConcurrentReadersWithWriter) {
  DataWarehouse dw;
  for (int i = 0; i < 64; ++i)
    dw.put("v", i, grid::CCVariable<double>(makePatch(i), 0, i * 1.0));
  std::atomic<bool> bad{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&dw, &bad] {
      for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 64; ++i) {
          if (dw.get<double>("v", i)[IntVector(0)] != i * 1.0)
            bad.store(true);
        }
      }
    });
  }
  std::thread writer([&dw] {
    for (int i = 64; i < 256; ++i)
      dw.put("v", i, grid::CCVariable<double>(makePatch(i), 0, i * 1.0));
  });
  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(dw.numPatchVars(), 256u);
}

}  // namespace
}  // namespace rmcrt::runtime
