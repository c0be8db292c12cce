#pragma once

/// \file lockfree_pool.h
/// A lock-free fixed-block memory pool built on top of the mmap arena,
/// per the paper's Section IV-B: "To manage our small transient objects,
/// i.e. objects that are frequently created and destroyed, we developed a
/// lock-free memory pool on top of our mmap allocator to avoid the heap
/// and to maximize throughput."
///
/// Free blocks live on a Treiber stack. The ABA problem is defeated by
/// addressing blocks with 32-bit ids (slab index * blocks-per-slab +
/// offset) packed with a 32-bit version tag into one 64-bit word, so a
/// plain 8-byte CAS suffices on every platform. Slabs are only ever added,
/// never removed, so ids stay valid for the pool's lifetime; slab growth
/// is the one (rare) path that takes a spinlock.
///
/// The stack's links live in an array of atomics at the tail of each slab,
/// never in the blocks themselves: a thread that loses the pop race still
/// reads the link of a block another thread now owns, and that read must
/// not touch the owner's bytes. It also leaves free blocks free of
/// allocator state, so a sanitizer build may poison them (PoolRouter).

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/mmap_arena.h"

namespace rmcrt::mem {

/// Statistics snapshot for a pool.
struct PoolStats {
  std::uint64_t allocations = 0;
  std::uint64_t deallocations = 0;
  std::uint64_t slabCount = 0;
  std::uint64_t blocksPerSlab = 0;
  std::uint64_t blockSize = 0;
  std::uint64_t liveBlocks = 0;
};

/// Lock-free pool of equally-sized blocks.
///
/// allocate()/deallocate() are lock-free in the steady state (every step,
/// at least one contending thread makes progress); only the path that maps
/// a fresh slab serializes briefly. Blocks are at least 16 bytes and
/// 16-byte aligned; the pool never reads or writes a block's bytes.
class LockFreePool {
 public:
  /// \param blockSize      usable bytes per block (rounded up to 16)
  /// \param blocksPerSlab  blocks added per slab growth (power of two not
  ///                       required)
  explicit LockFreePool(std::size_t blockSize,
                        std::uint32_t blocksPerSlab = 1024);

  ~LockFreePool();

  LockFreePool(const LockFreePool&) = delete;
  LockFreePool& operator=(const LockFreePool&) = delete;

  /// Pop a block; maps a new slab if the free list is empty. Never returns
  /// nullptr except on address-space exhaustion.
  void* allocate();

  /// Push a block back. \p p must have come from this pool.
  void deallocate(void* p);

  std::size_t blockSize() const { return m_blockSize; }

  PoolStats stats() const;

 private:
  static constexpr std::uint32_t kNilId = 0xFFFFFFFFu;

  // Head word layout: [ tag:32 | id:32 ].
  static constexpr std::uint64_t packHead(std::uint32_t id,
                                          std::uint32_t tag) {
    return (static_cast<std::uint64_t>(tag) << 32) | id;
  }
  static constexpr std::uint32_t headId(std::uint64_t h) {
    return static_cast<std::uint32_t>(h);
  }
  static constexpr std::uint32_t headTag(std::uint64_t h) {
    return static_cast<std::uint32_t>(h >> 32);
  }

  std::byte* blockAddress(std::uint32_t id) const {
    const std::uint32_t slab = id / m_blocksPerSlab;
    const std::uint32_t off = id % m_blocksPerSlab;
    return m_slabs[slab].base + static_cast<std::size_t>(off) * m_blockSize;
  }

  /// The id of the free block after \p id on the stack; meaningful only
  /// while \p id is free.
  std::atomic<std::uint32_t>& nextOf(std::uint32_t id) const {
    return m_slabs[id / m_blocksPerSlab].next[id % m_blocksPerSlab];
  }

  void growSlab();

  /// One mapping: blocksPerSlab blocks, then blocksPerSlab links.
  struct Slab {
    std::byte* base = nullptr;
    std::size_t bytes = 0;
    std::atomic<std::uint32_t>* next = nullptr;
  };

  std::size_t m_blockSize;
  std::uint32_t m_blocksPerSlab;
  std::atomic<std::uint64_t> m_head{packHead(kNilId, 0)};

  // Slab table: append-only; readers index it without locks because slots,
  // once published via m_slabCount (release), never change.
  mutable std::vector<Slab> m_slabs;
  std::atomic<std::uint32_t> m_slabCount{0};
  std::atomic_flag m_growLock = ATOMIC_FLAG_INIT;

  std::atomic<std::uint64_t> m_allocs{0};
  std::atomic<std::uint64_t> m_deallocs{0};
};

}  // namespace rmcrt::mem
