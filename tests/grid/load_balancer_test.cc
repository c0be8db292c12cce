#include "grid/load_balancer.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

namespace rmcrt::grid {
namespace {

class LoadBalancerStrategies : public ::testing::TestWithParam<LbStrategy> {};

TEST_P(LoadBalancerStrategies, EveryPatchOwnedByExactlyOneRank) {
  auto g = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(32),
                              IntVector(2), IntVector(8), IntVector(8));
  const int P = 7;  // deliberately not a divisor of the patch count
  LoadBalancer lb(*g, P, GetParam());
  std::set<int> seen;
  for (int r = 0; r < P; ++r) {
    for (int id : lb.patchesOf(r)) {
      EXPECT_TRUE(seen.insert(id).second) << "patch " << id << " owned twice";
      EXPECT_EQ(lb.rankOf(id), r);
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), g->numPatches());
}

TEST_P(LoadBalancerStrategies, EveryRankOwnsFinePatchesWhenEnough) {
  auto g = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(64),
                              IntVector(4), IntVector(16), IntVector(8));
  const int P = 8;
  LoadBalancer lb(*g, P, GetParam());
  for (int r = 0; r < P; ++r) {
    EXPECT_FALSE(lb.patchesOf(r, *g, g->numLevels() - 1).empty())
        << "rank " << r << " has no fine patches";
  }
}

TEST_P(LoadBalancerStrategies, BalancedWithinOnePatch) {
  auto g = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(32),
                                 IntVector(8));  // 64 patches
  const int P = 8;
  LoadBalancer lb(*g, P, GetParam());
  for (int r = 0; r < P; ++r)
    EXPECT_EQ(lb.patchesOf(r).size(), 8u);
  EXPECT_DOUBLE_EQ(lb.imbalance(*g), 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, LoadBalancerStrategies,
                         ::testing::Values(LbStrategy::Block,
                                           LbStrategy::RoundRobin,
                                           LbStrategy::Morton),
                         [](const auto& info) {
                           switch (info.param) {
                             case LbStrategy::Block: return "Block";
                             case LbStrategy::RoundRobin: return "RoundRobin";
                             default: return "Morton";
                           }
                         });

TEST(LoadBalancer, MortonKeepsBlocksSpatiallyCompact) {
  // With a Morton ordering, the 8 patches owned by one rank out of a
  // 4x4x4 layout should form a 2x2x2 octant — bounding box volume equals
  // the owned volume. Block (id) ordering produces slabs with a larger
  // bounding box in at least one rank.
  auto g = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(32),
                                 IntVector(8));  // 4x4x4 patches
  LoadBalancer morton(*g, 8, LbStrategy::Morton);
  for (int r = 0; r < 8; ++r) {
    CellRange bbox;
    std::int64_t owned = 0;
    for (int id : morton.patchesOf(r)) {
      const Patch* p = g->patchById(id);
      bbox = bbox.unionWith(p->cells());
      owned += p->numCells();
    }
    EXPECT_EQ(bbox.volume(), owned) << "rank " << r << " not an octant";
  }
}

TEST(LoadBalancer, MortonEncodeInterleavesBits) {
  EXPECT_EQ(mortonEncode(0, 0, 0), 0u);
  EXPECT_EQ(mortonEncode(1, 0, 0), 1u);
  EXPECT_EQ(mortonEncode(0, 1, 0), 2u);
  EXPECT_EQ(mortonEncode(0, 0, 1), 4u);
  EXPECT_EQ(mortonEncode(1, 1, 1), 7u);
  EXPECT_EQ(mortonEncode(2, 0, 0), 8u);
}

TEST(LoadBalancer, SingleRankOwnsEverything) {
  auto g = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                              IntVector(2), IntVector(8), IntVector(8));
  LoadBalancer lb(*g, 1);
  EXPECT_EQ(static_cast<int>(lb.patchesOf(0).size()), g->numPatches());
}

TEST(LoadBalancer, MoreRanksThanPatches) {
  auto g = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(16));  // 1 patch
  LoadBalancer lb(*g, 4);
  int owners = 0;
  for (int r = 0; r < 4; ++r) owners += static_cast<int>(lb.patchesOf(r).size());
  EXPECT_EQ(owners, 1);
}

TEST(LoadBalancer, RejectsNonPositiveRankCount) {
  auto g = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                 IntVector(4));
  const std::vector<double> costs(static_cast<std::size_t>(g->numPatches()),
                                  1.0);
  for (int ranks : {0, -1, -16}) {
    EXPECT_THROW((LoadBalancer{*g, ranks}), std::invalid_argument) << ranks;
    EXPECT_THROW((LoadBalancer{*g, ranks, costs}), std::invalid_argument)
        << ranks;
  }
}

}  // namespace
}  // namespace rmcrt::grid
