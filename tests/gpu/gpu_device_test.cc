#include "gpu/gpu_device.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "mem/mmap_arena.h"

namespace rmcrt::gpu {
namespace {

GpuDevice::Config smallConfig(std::size_t bytes = 1 << 20) {
  GpuDevice::Config cfg;
  cfg.globalMemoryBytes = bytes;
  cfg.workerSlots = 2;
  return cfg;
}

TEST(GpuDevice, AllocateAndFreeTracksUsage) {
  GpuDevice dev(smallConfig());
  EXPECT_EQ(dev.bytesInUse(), 0u);
  void* p = dev.allocate(100 * 1024);
  EXPECT_GE(dev.bytesInUse(), 100u * 1024);
  dev.free(p, 100 * 1024);
  EXPECT_EQ(dev.bytesInUse(), 0u);
}

TEST(GpuDevice, ThrowsWhenCapacityExceeded) {
  GpuDevice dev(smallConfig(256 * 1024));
  void* p = dev.allocate(200 * 1024);
  EXPECT_THROW(dev.allocate(100 * 1024), DeviceOutOfMemory);
  EXPECT_EQ(dev.stats().allocFailures, 1u);
  dev.free(p, 200 * 1024);
  // After freeing, the allocation succeeds.
  void* q = dev.allocate(100 * 1024);
  dev.free(q, 100 * 1024);
}

TEST(GpuDevice, PeakTracksHighWater) {
  GpuDevice dev(smallConfig());
  void* a = dev.allocate(64 * 1024);
  void* b = dev.allocate(64 * 1024);
  const auto peak = dev.stats().peakBytesInUse;
  dev.free(a, 64 * 1024);
  dev.free(b, 64 * 1024);
  EXPECT_EQ(dev.stats().peakBytesInUse, peak);
  EXPECT_GE(peak, 128u * 1024);
}

TEST(GpuDevice, SmallAllocationCyclesMapNothingAfterWarmUp) {
  GpuDevice dev(smallConfig());
  dev.free(dev.allocate(512), 512);
  const auto before = mem::MmapArena::stats().totalMapCalls;
  for (int i = 0; i < 1000; ++i) dev.free(dev.allocate(512), 512);
  EXPECT_EQ(mem::MmapArena::stats().totalMapCalls - before, 0u);
  EXPECT_EQ(dev.bytesInUse(), 0u);
}

TEST(GpuDevice, SynchronousCopiesMeterBytes) {
  GpuDevice dev(smallConfig());
  std::vector<double> host(1024, 3.0);
  void* d = dev.allocate(1024 * sizeof(double));
  dev.copyToDevice(d, host.data(), 1024 * sizeof(double));
  std::vector<double> back(1024, 0.0);
  dev.copyToHost(back.data(), d, 1024 * sizeof(double));
  EXPECT_DOUBLE_EQ(back[512], 3.0);
  const auto st = dev.stats();
  EXPECT_EQ(st.h2dBytes, 1024 * sizeof(double));
  EXPECT_EQ(st.d2hBytes, 1024 * sizeof(double));
  EXPECT_EQ(st.h2dTransfers, 1u);
  EXPECT_EQ(st.d2hTransfers, 1u);
  dev.free(d, 1024 * sizeof(double));
}

TEST(GpuStream, OpsRunInOrder) {
  GpuDevice dev(smallConfig());
  auto stream = dev.createStream();
  std::vector<int> order;
  std::mutex m;
  for (int i = 0; i < 50; ++i) {
    stream->enqueueKernel([&, i] {
      std::lock_guard<std::mutex> lk(m);
      order.push_back(i);
    });
  }
  stream->synchronize();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(GpuStream, CopyKernelCopyPipeline) {
  GpuDevice dev(smallConfig());
  const std::size_t n = 256;
  std::vector<double> in(n, 2.0), out(n, 0.0);
  void* d = dev.allocate(n * sizeof(double));
  auto stream = dev.createStream();
  stream->enqueueCopyToDevice(d, in.data(), n * sizeof(double));
  stream->enqueueKernel([d, n] {
    auto* v = static_cast<double*>(d);
    for (std::size_t i = 0; i < n; ++i) v[i] *= 3.0;
  });
  stream->enqueueCopyToHost(out.data(), d, n * sizeof(double));
  stream->synchronize();
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(out[i], 6.0);
  EXPECT_EQ(dev.stats().kernelsLaunched, 1u);
  dev.free(d, n * sizeof(double));
}

TEST(GpuStream, MultipleStreamsInterleaveButEachStaysOrdered) {
  GpuDevice dev(smallConfig());
  auto s1 = dev.createStream();
  auto s2 = dev.createStream();
  std::atomic<int> c1{0}, c2{0};
  std::atomic<bool> bad{false};
  for (int i = 0; i < 100; ++i) {
    s1->enqueueKernel([&, i] {
      if (c1.fetch_add(1) != i) bad.store(true);
    });
    s2->enqueueKernel([&, i] {
      if (c2.fetch_add(1) != i) bad.store(true);
    });
  }
  s1->synchronize();
  s2->synchronize();
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(c1.load(), 100);
  EXPECT_EQ(c2.load(), 100);
}

TEST(GpuDevice, SynchronizeDrainsAllStreams) {
  GpuDevice dev(smallConfig());
  auto s1 = dev.createStream();
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i)
    s1->enqueueKernel([&done] { done.fetch_add(1); });
  dev.synchronize();
  EXPECT_EQ(done.load(), 20);
}

TEST(GpuDevice, ConcurrentAllocationsRespectCapacity) {
  GpuDevice dev(smallConfig(4 << 20));
  std::atomic<std::uint64_t> granted{0};
  std::vector<std::thread> threads;
  std::mutex m;
  std::vector<std::pair<void*, std::size_t>> live;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        try {
          void* p = dev.allocate(64 * 1024);
          granted.fetch_add(64 * 1024);
          std::lock_guard<std::mutex> lk(m);
          live.emplace_back(p, 64 * 1024);
        } catch (const DeviceOutOfMemory&) {
          // acceptable under pressure
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(dev.bytesInUse(), dev.capacity());
  for (auto& [p, sz] : live) dev.free(p, sz);
  EXPECT_EQ(dev.bytesInUse(), 0u);
}

}  // namespace
}  // namespace rmcrt::gpu
