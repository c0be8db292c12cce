#pragma once

/// \file allocators.h
/// The allocation policy layer the paper's Section IV-B describes:
/// frequent small transient objects go to lock-free pools, large buffers
/// (MPI messages, GridVariables) go straight to mmap, and everything else
/// stays on the general heap. Exposed both as a singleton router
/// (PoolRouter) and as std::allocator-compatible adapters usable by
/// Array3/CCVariable and the comm layer's buffers.

#include <array>
#include <cstddef>
#include <memory>
#include <new>

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

  static PoolRouter& instance() {
    static PoolRouter g;
    return g;
  }

  void* allocate(std::size_t bytes) {
    if (bytes == 0) bytes = 1;
    if (bytes <= kSmallLimit) {
      return m_pools[classOf(bytes)]->allocate();
    }
    return MmapArena::map(bytes);
  }

  void deallocate(void* p, std::size_t bytes) {
    if (!p) return;
    if (bytes == 0) bytes = 1;
    if (bytes <= kSmallLimit) {
      m_pools[classOf(bytes)]->deallocate(p);
    } else {
      MmapArena::unmap(p, bytes);
    }
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
/// instances compare equal.
template <typename T>
class PooledAllocator {
 public:
  using value_type = T;

  PooledAllocator() = default;
  template <typename U>
  PooledAllocator(const PooledAllocator<U>&) {}

  T* allocate(std::size_t n) {
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

/// std::allocator adapter that always uses mmap — for GridVariables and
/// MPI buffers, which are the "large transient" class in the paper.
template <typename T>
class MmapAllocator {
 public:
  using value_type = T;

  MmapAllocator() = default;
  template <typename U>
  MmapAllocator(const MmapAllocator<U>&) {}

  T* allocate(std::size_t n) {
    void* p = MmapArena::map(n * sizeof(T));
    if (!p) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) {
    MmapArena::unmap(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const MmapAllocator<U>&) const {
    return true;
  }
};

}  // namespace rmcrt::mem
