#include "mem/allocators.h"

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <thread>
#include <vector>

namespace rmcrt::mem {
namespace {

TEST(PoolRouter, ClassOfMapsSizesToPowerOfTwoClasses) {
  EXPECT_EQ(PoolRouter::classOf(1), 0u);    // 16
  EXPECT_EQ(PoolRouter::classOf(16), 0u);   // 16
  EXPECT_EQ(PoolRouter::classOf(17), 1u);   // 32
  EXPECT_EQ(PoolRouter::classOf(32), 1u);   // 32
  EXPECT_EQ(PoolRouter::classOf(33), 2u);   // 64
  EXPECT_EQ(PoolRouter::classOf(4096), 8u); // 4096
}

TEST(PoolRouter, SmallAllocationsComeFromPools) {
  auto& r = PoolRouter::instance();
  const auto before = r.poolStats(PoolRouter::classOf(100)).allocations;
  void* p = r.allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(r.poolStats(PoolRouter::classOf(100)).allocations, before + 1);
  r.deallocate(p, 100);
}

TEST(PoolRouter, LargeAllocationsGoToMmap) {
  auto& r = PoolRouter::instance();
  const auto before = MmapArena::stats().bytesMapped;
  void* p = r.allocate(1 << 20);
  ASSERT_NE(p, nullptr);
  EXPECT_GT(MmapArena::stats().bytesMapped, before);
  r.deallocate(p, 1 << 20);
  EXPECT_EQ(MmapArena::stats().bytesMapped, before);
}

TEST(PooledAllocator, WorksWithStdContainers) {
  std::vector<int, PooledAllocator<int>> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v[999], 999);
  std::list<double, PooledAllocator<double>> l;
  for (int i = 0; i < 100; ++i) l.push_back(i * 0.5);
  EXPECT_DOUBLE_EQ(l.back(), 49.5);
}

TEST(PooledAllocator, MapWithPooledNodes) {
  std::map<int, int, std::less<int>,
           PooledAllocator<std::pair<const int, int>>> m;
  for (int i = 0; i < 500; ++i) m[i] = i * i;
  EXPECT_EQ(m[22], 484);
}

TEST(Allocators, EqualityIsStateless) {
  EXPECT_TRUE(PooledAllocator<int>() == PooledAllocator<double>());
}

TEST(PoolRouter, ConcurrentMixedSizes) {
  auto& r = PoolRouter::instance();
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&r, t] {
      std::vector<std::pair<void*, std::size_t>> live;
      for (int i = 0; i < 2000; ++i) {
        const std::size_t sz = 16u << ((i + t) % 8);
        void* p = r.allocate(sz);
        ASSERT_NE(p, nullptr);
        live.emplace_back(p, sz);
        if (live.size() > 32) {
          r.deallocate(live.front().first, live.front().second);
          live.erase(live.begin());
        }
      }
      for (auto& [p, sz] : live) r.deallocate(p, sz);
    });
  }
  for (auto& th : threads) th.join();
  SUCCEED();
}

}  // namespace
}  // namespace rmcrt::mem
