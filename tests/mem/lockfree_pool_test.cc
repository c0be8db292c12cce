#include "mem/lockfree_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

namespace rmcrt::mem {
namespace {

TEST(LockFreePool, AllocateDistinctBlocks) {
  LockFreePool pool(64, 16);
  std::set<void*> seen;
  std::vector<void*> blocks;
  for (int i = 0; i < 100; ++i) {
    void* p = pool.allocate();
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate block";
    blocks.push_back(p);
  }
  for (void* p : blocks) pool.deallocate(p);
  EXPECT_EQ(pool.stats().liveBlocks, 0u);
}

TEST(LockFreePool, BlockSizeRoundedTo16) {
  LockFreePool pool(1);
  EXPECT_EQ(pool.blockSize(), 16u);
  LockFreePool pool2(17);
  EXPECT_EQ(pool2.blockSize(), 32u);
  LockFreePool pool3(64);
  EXPECT_EQ(pool3.blockSize(), 64u);
}

TEST(LockFreePool, BlocksAreWritableToFullSize) {
  LockFreePool pool(256, 8);
  void* p = pool.allocate();
  std::memset(p, 0x5A, pool.blockSize());
  pool.deallocate(p);
}

TEST(LockFreePool, ReusesFreedBlocks) {
  LockFreePool pool(32, 4);
  void* a = pool.allocate();
  pool.deallocate(a);
  // LIFO free list: the same block should come back.
  void* b = pool.allocate();
  EXPECT_EQ(a, b);
  pool.deallocate(b);
}

TEST(LockFreePool, GrowsAcrossSlabs) {
  LockFreePool pool(32, 4);  // tiny slabs force growth
  std::vector<void*> blocks;
  for (int i = 0; i < 20; ++i) blocks.push_back(pool.allocate());
  EXPECT_GE(pool.stats().slabCount, 5u);
  std::set<void*> unique(blocks.begin(), blocks.end());
  EXPECT_EQ(unique.size(), blocks.size());
  for (void* p : blocks) pool.deallocate(p);
}

TEST(LockFreePool, StatsCountAllocations) {
  LockFreePool pool(48, 8);
  void* a = pool.allocate();
  void* b = pool.allocate();
  EXPECT_EQ(pool.stats().allocations, 2u);
  EXPECT_EQ(pool.stats().liveBlocks, 2u);
  pool.deallocate(a);
  pool.deallocate(b);
  EXPECT_EQ(pool.stats().deallocations, 2u);
  EXPECT_EQ(pool.stats().liveBlocks, 0u);
}

// The concurrency property the paper needs: many threads allocating and
// freeing small transient objects with no lock contention and no
// corruption. Each thread stamps its blocks and verifies the stamp before
// freeing — overlap between two live blocks would trip the check.
TEST(LockFreePool, ConcurrentAllocateFreeNoCorruption) {
  LockFreePool pool(64, 256);
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &failed, t] {
      std::vector<void*> mine;
      for (int i = 0; i < kIters; ++i) {
        void* p = pool.allocate();
        if (!p) {
          failed.store(true);
          return;
        }
        std::memset(p, t + 1, 64);
        mine.push_back(p);
        if (mine.size() >= 16) {
          // Verify stamps then free half.
          for (std::size_t k = 0; k < mine.size(); k += 2) {
            auto* bytes = static_cast<unsigned char*>(mine[k]);
            for (int j = 0; j < 64; ++j) {
              if (bytes[j] != static_cast<unsigned char>(t + 1)) {
                failed.store(true);
                return;
              }
            }
          }
          for (std::size_t k = 0; k < mine.size(); k += 2)
            pool.deallocate(mine[k]);
          std::vector<void*> keep;
          for (std::size_t k = 1; k < mine.size(); k += 2)
            keep.push_back(mine[k]);
          mine.swap(keep);
        }
      }
      for (void* p : mine) pool.deallocate(p);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(pool.stats().liveBlocks, 0u);
}

// ABA stress: tight alloc/free ping-pong across threads exercises the
// tagged-head CAS. A classic ABA corruption manifests as two threads
// receiving the same block concurrently.
TEST(LockFreePool, AbaStressNoDuplicateLiveBlocks) {
  LockFreePool pool(16, 64);
  constexpr int kThreads = 8;
  std::atomic<bool> duplicate{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &duplicate] {
      for (int i = 0; i < 20000; ++i) {
        void* p = pool.allocate();
        auto* flag = static_cast<std::atomic<std::uint32_t>*>(p);
        // Claim the block exclusively via its own memory.
        std::uint32_t expected = flag->load(std::memory_order_relaxed);
        flag->store(0xDEADBEEF, std::memory_order_relaxed);
        (void)expected;
        // If another thread holds this same block live, both write and
        // one later sees a torn pattern; approximate by re-checking.
        if (flag->load(std::memory_order_relaxed) != 0xDEADBEEF)
          duplicate.store(true);
        flag->store(0, std::memory_order_relaxed);
        pool.deallocate(p);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(duplicate.load());
  EXPECT_EQ(pool.stats().liveBlocks, 0u);
}

// A block's bytes belong to its owner alone: the free-list links live
// outside the blocks, so a thread that loses the pop race never reads a
// byte the block's new owner is writing. Plain byte stores over the whole
// block (not memset) are what lets ThreadSanitizer see a link kept inside
// a block; tiny slabs keep many threads popping the same few blocks.
TEST(LockFreePool, OwnerStoresNeverRaceThePopOfAnotherThread) {
  LockFreePool pool(16, 4);
  constexpr int kThreads = 8;
  constexpr int kCycles = 200000;
  std::atomic<bool> exhausted{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &exhausted, t] {
      const auto stamp = static_cast<unsigned char>(t + 1);
      for (int i = 0; i < kCycles; ++i) {
        auto* bytes = static_cast<unsigned char*>(pool.allocate());
        if (!bytes) {
          exhausted.store(true);
          return;
        }
        for (std::size_t k = 0; k < pool.blockSize(); ++k) bytes[k] = stamp;
        pool.deallocate(bytes);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(exhausted.load());
  EXPECT_EQ(pool.stats().liveBlocks, 0u);
}

}  // namespace
}  // namespace rmcrt::mem
