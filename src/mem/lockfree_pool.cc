#include "mem/lockfree_pool.h"

#include <new>

namespace rmcrt::mem {

namespace {
// Fixed capacity for the append-only slab table so it never reallocates
// while readers index into it concurrently. 64Ki slabs of (default) 1024
// blocks covers 2^26 blocks per pool — far beyond any realistic load.
constexpr std::size_t kMaxSlabs = 65536;
}  // namespace

LockFreePool::LockFreePool(std::size_t blockSize,
                           std::uint32_t blocksPerSlab)
    : m_blockSize((blockSize + 15) / 16 * 16),
      m_blocksPerSlab(blocksPerSlab == 0 ? 1 : blocksPerSlab) {
  if (m_blockSize < 16) m_blockSize = 16;
  m_slabs.reserve(kMaxSlabs);
}

LockFreePool::~LockFreePool() {
  const std::uint32_t n = m_slabCount.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i)
    MmapArena::unmap(m_slabs[i].base, m_slabs[i].bytes);
}

void LockFreePool::growSlab() {
  // Serialize growth; contending threads spin briefly then retry the fast
  // path (another thread's new slab feeds their allocation).
  while (m_growLock.test_and_set(std::memory_order_acquire)) {
    // spin
  }
  const std::uint32_t slabIdx = m_slabCount.load(std::memory_order_relaxed);
  // Re-check: someone may have grown while we waited and the free list is
  // non-empty again; growing anyway is harmless, so proceed (keeps the
  // logic simple and growth rare).
  assert(slabIdx < kMaxSlabs && "LockFreePool exceeded slab capacity");
  const std::size_t blockBytes =
      static_cast<std::size_t>(m_blocksPerSlab) * m_blockSize;
  Slab slab;
  slab.bytes =
      blockBytes + m_blocksPerSlab * sizeof(std::atomic<std::uint32_t>);
  slab.base = static_cast<std::byte*>(MmapArena::map(slab.bytes));
  if (!slab.base) {
    m_growLock.clear(std::memory_order_release);
    return;  // exhaustion: allocate() will return nullptr
  }
  slab.next = reinterpret_cast<std::atomic<std::uint32_t>*>(slab.base +
                                                            blockBytes);

  // Thread the new slab's blocks into a local chain, then splice the whole
  // chain onto the global free stack with a single CAS loop.
  const std::uint32_t firstId = slabIdx * m_blocksPerSlab;
  const std::uint32_t lastId = firstId + m_blocksPerSlab - 1;
  for (std::uint32_t i = 0; i < m_blocksPerSlab; ++i)
    new (&slab.next[i]) std::atomic<std::uint32_t>(firstId + i + 1);
  m_slabs.push_back(slab);
  m_slabCount.store(slabIdx + 1, std::memory_order_release);

  std::uint64_t head = m_head.load(std::memory_order_acquire);
  for (;;) {
    nextOf(lastId).store(headId(head), std::memory_order_relaxed);
    const std::uint64_t newHead = packHead(firstId, headTag(head) + 1);
    if (m_head.compare_exchange_weak(head, newHead,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      break;
    }
  }
  m_growLock.clear(std::memory_order_release);
}

void* LockFreePool::allocate() {
  for (;;) {
    std::uint64_t head = m_head.load(std::memory_order_acquire);
    while (headId(head) != kNilId) {
      const std::uint32_t id = headId(head);
      const std::uint32_t next = nextOf(id).load(std::memory_order_relaxed);
      const std::uint64_t newHead = packHead(next, headTag(head) + 1);
      if (m_head.compare_exchange_weak(head, newHead,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        m_allocs.fetch_add(1, std::memory_order_relaxed);
        return blockAddress(id);
      }
    }
    const std::uint32_t before = m_slabCount.load(std::memory_order_acquire);
    growSlab();
    if (m_slabCount.load(std::memory_order_acquire) == before &&
        headId(m_head.load(std::memory_order_acquire)) == kNilId) {
      return nullptr;  // mapping failed and nothing was freed meanwhile
    }
  }
}

void LockFreePool::deallocate(void* p) {
  if (!p) return;
  // Recover the block id from the address.
  const std::uint32_t nSlabs = m_slabCount.load(std::memory_order_acquire);
  std::uint32_t id = kNilId;
  auto* bp = static_cast<std::byte*>(p);
  for (std::uint32_t s = 0; s < nSlabs; ++s) {
    const Slab& slab = m_slabs[s];
    if (bp >= slab.base && bp < reinterpret_cast<std::byte*>(slab.next)) {
      id = s * m_blocksPerSlab +
           static_cast<std::uint32_t>((bp - slab.base) / m_blockSize);
      break;
    }
  }
  assert(id != kNilId && "pointer not from this pool");
  std::uint64_t head = m_head.load(std::memory_order_acquire);
  for (;;) {
    nextOf(id).store(headId(head), std::memory_order_relaxed);
    const std::uint64_t newHead = packHead(id, headTag(head) + 1);
    if (m_head.compare_exchange_weak(head, newHead,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      m_deallocs.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

PoolStats LockFreePool::stats() const {
  PoolStats s;
  s.allocations = m_allocs.load(std::memory_order_relaxed);
  s.deallocations = m_deallocs.load(std::memory_order_relaxed);
  s.slabCount = m_slabCount.load(std::memory_order_relaxed);
  s.blocksPerSlab = m_blocksPerSlab;
  s.blockSize = m_blockSize;
  s.liveBlocks = s.allocations - s.deallocations;
  return s;
}

}  // namespace rmcrt::mem
