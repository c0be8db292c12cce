#include "util/array3.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/allocators.h"

namespace rmcrt {
namespace {

TEST(Array3, AllocateAndIndex) {
  CellRange w(IntVector(0, 0, 0), IntVector(4, 4, 4));
  Array3<double> a(w, 1.5);
  EXPECT_EQ(a.size(), 64);
  EXPECT_TRUE(a.allocated());
  for (const auto& c : w) EXPECT_DOUBLE_EQ(a[c], 1.5);
  a[IntVector(2, 3, 1)] = -7.0;
  EXPECT_DOUBLE_EQ(a.at(2, 3, 1), -7.0);
}

TEST(Array3, NegativeWindowIndices) {
  CellRange w(IntVector(-2, -2, -2), IntVector(2, 2, 2));
  Array3<int> a(w, 0);
  a[IntVector(-2, -2, -2)] = 1;
  a[IntVector(1, 1, 1)] = 2;
  EXPECT_EQ(a[IntVector(-2, -2, -2)], 1);
  EXPECT_EQ(a[IntVector(1, 1, 1)], 2);
}

TEST(Array3, XFastestLayout) {
  CellRange w(IntVector(0, 0, 0), IntVector(3, 2, 2));
  Array3<int> a(w, 0);
  EXPECT_EQ(a.offset(IntVector(1, 0, 0)) - a.offset(IntVector(0, 0, 0)), 1);
  EXPECT_EQ(a.offset(IntVector(0, 1, 0)) - a.offset(IntVector(0, 0, 0)), 3);
  EXPECT_EQ(a.offset(IntVector(0, 0, 1)) - a.offset(IntVector(0, 0, 0)), 6);
}

TEST(Array3, CopyAndMove) {
  CellRange w(IntVector(0, 0, 0), IntVector(2, 2, 2));
  Array3<double> a(w, 3.0);
  a[IntVector(1, 1, 1)] = 9.0;
  Array3<double> b = a;  // copy
  EXPECT_DOUBLE_EQ(b[IntVector(1, 1, 1)], 9.0);
  b[IntVector(1, 1, 1)] = 4.0;
  EXPECT_DOUBLE_EQ(a[IntVector(1, 1, 1)], 9.0);  // deep copy

  Array3<double> c = std::move(a);  // move steals storage
  EXPECT_DOUBLE_EQ(c[IntVector(1, 1, 1)], 9.0);
  EXPECT_FALSE(a.allocated());  // NOLINT(bugprone-use-after-move)
}

TEST(Array3, Fill) {
  Array3<float> a(CellRange(IntVector(0, 0, 0), IntVector(3, 3, 3)), 0.0f);
  a.fill(2.5f);
  for (const auto& c : a.window()) EXPECT_FLOAT_EQ(a[c], 2.5f);
}

TEST(Array3, CopyRegionBetweenOverlappingWindows) {
  // Simulates a ghost exchange: source patch [0,4)^3, destination window
  // [2,6)^3 with the overlap [2,4)^3 copied across.
  Array3<double> src(CellRange(IntVector(0, 0, 0), IntVector(4, 4, 4)), 0.0);
  for (const auto& c : src.window())
    src[c] = c.x() + 10.0 * c.y() + 100.0 * c.z();
  Array3<double> dst(CellRange(IntVector(2, 2, 2), IntVector(6, 6, 6)), -1.0);
  CellRange overlap = src.window().intersect(dst.window());
  dst.copyRegion(src, overlap);
  for (const auto& c : overlap)
    EXPECT_DOUBLE_EQ(dst[c], c.x() + 10.0 * c.y() + 100.0 * c.z());
  EXPECT_DOUBLE_EQ(dst[IntVector(5, 5, 5)], -1.0);  // untouched
}

TEST(Array3, PackUnpackRoundTrip) {
  Array3<double> src(CellRange(IntVector(-1, -1, -1), IntVector(3, 3, 3)),
                     0.0);
  for (const auto& c : src.window())
    src[c] = 1.0 * c.x() - 2.0 * c.y() + 3.5 * c.z();
  CellRange region(IntVector(0, -1, 0), IntVector(2, 2, 3));
  std::vector<double> buf(static_cast<std::size_t>(region.volume()));
  EXPECT_EQ(src.packRegion(region, buf.data()), region.volume());

  Array3<double> dst(src.window(), 0.0);
  EXPECT_EQ(dst.unpackRegion(region, buf.data()), region.volume());
  for (const auto& c : region) EXPECT_DOUBLE_EQ(dst[c], src[c]);
}

TEST(Array3, NonTrivialElementType) {
  Array3<std::string> a(CellRange(IntVector(0, 0, 0), IntVector(2, 2, 2)),
                        std::string("x"));
  a[IntVector(1, 0, 1)] = "hello";
  Array3<std::string> b = a;
  EXPECT_EQ(b[IntVector(1, 0, 1)], "hello");
  EXPECT_EQ(b[IntVector(0, 0, 0)], "x");
}

TEST(Array3, WithPooledAllocator) {
  using A = Array3<double, mem::PooledAllocator<double>>;
  const auto before = mem::MmapArena::stats().bytesMapped;
  {
    A a(CellRange(IntVector(0, 0, 0), IntVector(32, 32, 32)), 1.0);
    EXPECT_GT(mem::MmapArena::stats().bytesMapped, before);
    EXPECT_DOUBLE_EQ(a[IntVector(31, 31, 31)], 1.0);
  }
  EXPECT_EQ(mem::MmapArena::stats().bytesMapped, before);  // all unmapped
}

TEST(Array3, EmptyWindow) {
  Array3<double> a;
  EXPECT_FALSE(a.allocated());
  EXPECT_EQ(a.size(), 0);
}

}  // namespace
}  // namespace rmcrt
