#pragma once

/// \file allocators.h
/// The allocation policy the paper's Section IV-B describes, and the one
/// policy for every host buffer the runtime allocates: frequent small
/// transient objects go to lock-free pools, large buffers go straight to
/// mmap, and everything else stays on the general heap. Comm buffers,
/// CCVariable storage and simulated device memory all allocate through
/// PoolRouter, so which memory backs a buffer is decided here alone.
///
/// Pool blocks are recycled, not zeroed. In an AddressSanitizer build the
/// router poisons a small block while it is free and the class slack past
/// the requested size while it is live, so a use-after-free or an overrun
/// of a pooled buffer is reported as it would be on the heap.

#include <array>
#include <cstddef>
#include <memory>
#include <new>

#include <sanitizer/asan_interface.h>  // no-op macros outside ASan builds

#include "mem/lockfree_pool.h"
#include "mem/mmap_arena.h"

namespace rmcrt::mem {

/// Routes allocations by size class:
///   <= 4 KiB : lock-free pools (16B..4KiB in power-of-two classes)
///   >  4 KiB : direct mmap
/// A process-wide singleton mirrors how Uintah installs its allocators
/// once for the whole runtime.
class PoolRouter {
 public:
  static constexpr std::size_t kSmallLimit = 4096;
  static constexpr std::size_t kNumClasses = 9;  // 16,32,...,4096

  /// Never destroyed, so a buffer freed by another static's destructor at
  /// exit still finds its pool.
  static PoolRouter& instance() {
    static PoolRouter* const g = new PoolRouter;
    return *g;
  }

  void* allocate(std::size_t bytes) {
    if (bytes == 0) bytes = 1;
    if (bytes > kSmallLimit) return MmapArena::map(bytes);
    LockFreePool& pool = *m_pools[classOf(bytes)];
    void* p = pool.allocate();
    if (p) {
      ASAN_UNPOISON_MEMORY_REGION(p, bytes);
      ASAN_POISON_MEMORY_REGION(static_cast<std::byte*>(p) + bytes,
                                pool.blockSize() - bytes);
    }
    return p;
  }

  void deallocate(void* p, std::size_t bytes) {
    if (!p) return;
    if (bytes == 0) bytes = 1;
    if (bytes > kSmallLimit) {
      MmapArena::unmap(p, bytes);
      return;
    }
    LockFreePool& pool = *m_pools[classOf(bytes)];
    // Before the push: once the block is free another thread may pop it.
    ASAN_POISON_MEMORY_REGION(p, pool.blockSize());
    pool.deallocate(p);
  }

  /// Size class index for a small allocation.
  static std::size_t classOf(std::size_t bytes) {
    std::size_t cls = 0;
    std::size_t sz = 16;
    while (sz < bytes) {
      sz <<= 1;
      ++cls;
    }
    return cls;
  }

  PoolStats poolStats(std::size_t cls) const { return m_pools[cls]->stats(); }

 private:
  PoolRouter() {
    std::size_t sz = 16;
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      // Fewer blocks per slab for the big classes to bound slab size.
      const std::uint32_t perSlab =
          static_cast<std::uint32_t>(sz <= 256 ? 4096 : 256);
      m_pools[c] = std::make_unique<LockFreePool>(sz, perSlab);
      sz <<= 1;
    }
  }

  std::array<std::unique_ptr<LockFreePool>, kNumClasses> m_pools;
};

/// std::allocator adapter over PoolRouter — small element batches come
/// from the lock-free pools, large arrays from mmap. Stateless; all
/// instances compare equal. Pool blocks are 16-byte aligned.
template <typename T>
class PooledAllocator {
 public:
  using value_type = T;

  PooledAllocator() = default;
  template <typename U>
  PooledAllocator(const PooledAllocator<U>&) {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= 16, "pool blocks are 16-byte aligned");
    void* p = PoolRouter::instance().allocate(n * sizeof(T));
    if (!p) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) {
    PoolRouter::instance().deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PooledAllocator<U>&) const {
    return true;
  }
};

}  // namespace rmcrt::mem
