#pragma once

/// \file gpu_device.h
/// A simulated GPU device (DESIGN.md §2): bounded "device global memory"
/// and in-order streams executed by a worker pool (kernels from different
/// streams may interleave, as on the K20X's concurrent-kernel hardware).
/// Copies are stream operations on the same workers; their bytes are
/// metered, and sim::MachineModel turns them into PCIe cost over its
/// modeled copy engines. Device memory is uninitialised host memory from
/// mem::PoolRouter; the *accounting* (capacity in whole pages, failure on
/// exhaustion, peak usage) reproduces the 6 GB constraint that motivated
/// the paper's level-database design.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "util/metrics.h"
#include "util/thread_pool.h"

namespace rmcrt::gpu {

/// Thrown when a device allocation would exceed global-memory capacity —
/// the failure mode that per-patch coarse copies hit on the K20X.
class DeviceOutOfMemory : public std::runtime_error {
 public:
  explicit DeviceOutOfMemory(std::size_t requested, std::size_t free)
      : std::runtime_error("device out of memory: requested " +
                           std::to_string(requested) + " bytes, " +
                           std::to_string(free) + " free") {}
};

/// Transfer/occupancy counters for one device.
struct DeviceStats {
  std::uint64_t h2dBytes = 0;
  std::uint64_t d2hBytes = 0;
  std::uint64_t h2dTransfers = 0;
  std::uint64_t d2hTransfers = 0;
  std::uint64_t kernelsLaunched = 0;
  std::uint64_t bytesInUse = 0;
  std::uint64_t peakBytesInUse = 0;
  std::uint64_t allocFailures = 0;
  std::uint64_t cpuFallbacks = 0;  ///< patches rerouted to the CPU tracer
  /// Tiles of co-traced patches marched by the kernel and by the rank
  /// thread beside it (DESIGN.md §9).
  std::uint64_t deviceTiles = 0;
  std::uint64_t hostTiles = 0;
};

/// Publish one device's counters into \p reg as gauges under \p prefix
/// (e.g. "gpu.device."), for the unified per-timestep emission path.
inline void exportMetrics(const DeviceStats& s, MetricsRegistry& reg,
                          const std::string& prefix) {
  reg.setGauge(prefix + "h2d_bytes", static_cast<double>(s.h2dBytes));
  reg.setGauge(prefix + "d2h_bytes", static_cast<double>(s.d2hBytes));
  reg.setGauge(prefix + "h2d_transfers",
               static_cast<double>(s.h2dTransfers));
  reg.setGauge(prefix + "d2h_transfers",
               static_cast<double>(s.d2hTransfers));
  reg.setGauge(prefix + "kernels_launched",
               static_cast<double>(s.kernelsLaunched));
  reg.setGauge(prefix + "bytes_in_use", static_cast<double>(s.bytesInUse));
  reg.setGauge(prefix + "peak_bytes_in_use",
               static_cast<double>(s.peakBytesInUse));
  reg.setGauge(prefix + "alloc_failures",
               static_cast<double>(s.allocFailures));
  reg.setGauge(prefix + "cpu_fallbacks",
               static_cast<double>(s.cpuFallbacks));
  reg.setGauge(prefix + "device_tiles", static_cast<double>(s.deviceTiles));
  reg.setGauge(prefix + "host_tiles", static_cast<double>(s.hostTiles));
}

class GpuStream;

/// The simulated device.
///
/// The memory default is the Nvidia K20X's 6 GB; worker slots stand in
/// for its 14 SMX units at a host-sized count.
class GpuDevice {
 public:
  struct Config {
    std::size_t globalMemoryBytes = 6ull << 30;
    int workerSlots = 2;  ///< threads executing stream operations
  };

  explicit GpuDevice(const Config& cfg);
  GpuDevice() : GpuDevice(Config{}) {}
  ~GpuDevice();

  GpuDevice(const GpuDevice&) = delete;
  GpuDevice& operator=(const GpuDevice&) = delete;

  std::size_t capacity() const { return m_cfg.globalMemoryBytes; }
  std::size_t bytesInUse() const {
    return m_inUse.load(std::memory_order_relaxed);
  }

  /// Allocate uninitialised device global memory. Throws
  /// DeviceOutOfMemory when the capacity would be exceeded. free() takes
  /// the same \p bytes.
  void* allocate(std::size_t bytes);
  void free(void* p, std::size_t bytes);

  /// Synchronous host<->device copies (stream-less, like cudaMemcpy).
  void copyToDevice(void* dst, const void* src, std::size_t bytes);
  void copyToHost(void* dst, const void* src, std::size_t bytes);

  /// Create an in-order stream. Streams may execute concurrently with one
  /// another, sharing the device's worker slots.
  std::unique_ptr<GpuStream> createStream();

  /// Block until every stream operation submitted so far has finished.
  void synchronize();

  /// Record that a patch fell back to the CPU tracer after this device
  /// could not accommodate it (graceful-degradation accounting).
  void noteCpuFallback() {
    m_cpuFallbacks.fetch_add(1, std::memory_order_relaxed);
  }

  /// Record one co-traced patch: \p deviceTiles marched by the kernel and
  /// \p hostTiles by the rank thread while the kernel ran.
  void noteCoTracedTiles(std::uint64_t deviceTiles, std::uint64_t hostTiles) {
    m_deviceTiles.fetch_add(deviceTiles, std::memory_order_relaxed);
    m_hostTiles.fetch_add(hostTiles, std::memory_order_relaxed);
  }

  DeviceStats stats() const;
  void resetStats();

 private:
  friend class GpuStream;

  void noteKernel() { m_kernels.fetch_add(1, std::memory_order_relaxed); }

  Config m_cfg;
  ThreadPool m_workers;
  std::atomic<std::uint64_t> m_inUse{0};
  std::atomic<std::uint64_t> m_peak{0};
  std::atomic<std::uint64_t> m_h2dBytes{0};
  std::atomic<std::uint64_t> m_d2hBytes{0};
  std::atomic<std::uint64_t> m_h2dCount{0};
  std::atomic<std::uint64_t> m_d2hCount{0};
  std::atomic<std::uint64_t> m_kernels{0};
  std::atomic<std::uint64_t> m_allocFailures{0};
  std::atomic<std::uint64_t> m_cpuFallbacks{0};
  std::atomic<std::uint64_t> m_deviceTiles{0};
  std::atomic<std::uint64_t> m_hostTiles{0};
};

/// An in-order operation queue on a device (CUDA-stream-like). Operations
/// submitted to one stream run in submission order; operations in
/// different streams may interleave. enqueue* returns immediately;
/// synchronize() blocks until this stream drains.
class GpuStream {
 public:
  explicit GpuStream(GpuDevice& dev) : m_dev(dev) {}
  /// Drains the stream. A captured operation error is logged, never
  /// thrown — destructors must not std::terminate the process.
  ~GpuStream();

  GpuStream(const GpuStream&) = delete;
  GpuStream& operator=(const GpuStream&) = delete;

  /// Asynchronous H2D copy (the source must stay valid until synchronize).
  void enqueueCopyToDevice(void* dst, const void* src, std::size_t bytes);
  /// Asynchronous D2H copy.
  void enqueueCopyToHost(void* dst, const void* src, std::size_t bytes);
  /// Asynchronous kernel: an arbitrary callable run on a device worker.
  void enqueueKernel(std::function<void()> kernel);

  /// Block the calling thread until all enqueued work completes. If any
  /// operation threw, the first exception is rethrown here (then cleared),
  /// mirroring how CUDA reports async errors at the next sync point;
  /// operations submitted behind the faulting one, up to this call, were
  /// discarded.
  void synchronize();

  /// True while a captured operation error awaits the next synchronize().
  bool failed() const;

 private:
  void enqueue(std::function<void()> op);
  /// Run the next queued op on a device worker, then hand the slot back
  /// (so other streams interleave) and reschedule if more ops remain.
  void pump();

  GpuDevice& m_dev;
  mutable std::mutex m_mutex;
  std::condition_variable m_cv;
  std::uint64_t m_submitted = 0;
  std::uint64_t m_completed = 0;
  bool m_running = false;  ///< an op for this stream is on a worker
  std::deque<std::function<void()>> m_queue;
  std::exception_ptr m_error;  ///< first op failure, until synchronize
};

}  // namespace rmcrt::gpu
