#include "gpu/gpu_device.h"

#include <cassert>
#include <utility>

#include "mem/allocators.h"
#include "util/logger.h"
#include "util/trace_recorder.h"

namespace rmcrt::gpu {

GpuDevice::GpuDevice(const Config& cfg)
    : m_cfg(cfg),
      m_workers(static_cast<std::size_t>(
          cfg.workerSlots > 0 ? cfg.workerSlots : 1)) {}

GpuDevice::~GpuDevice() { synchronize(); }

void* GpuDevice::allocate(std::size_t bytes) {
  const std::uint64_t rounded = mem::MmapArena::roundToPages(bytes);
  std::uint64_t prev = m_inUse.load(std::memory_order_relaxed);
  for (;;) {
    if (prev + rounded > m_cfg.globalMemoryBytes) {
      m_allocFailures.fetch_add(1, std::memory_order_relaxed);
      throw DeviceOutOfMemory(bytes, m_cfg.globalMemoryBytes - prev);
    }
    if (m_inUse.compare_exchange_weak(prev, prev + rounded,
                                      std::memory_order_acq_rel)) {
      break;
    }
  }
  std::uint64_t peak = m_peak.load(std::memory_order_relaxed);
  const std::uint64_t now = prev + rounded;
  while (peak < now &&
         !m_peak.compare_exchange_weak(peak, now,
                                       std::memory_order_relaxed)) {
  }
  void* p = mem::PoolRouter::instance().allocate(bytes);
  if (!p) {
    m_inUse.fetch_sub(rounded, std::memory_order_relaxed);
    throw DeviceOutOfMemory(bytes, 0);
  }
  return p;
}

void GpuDevice::free(void* p, std::size_t bytes) {
  if (!p) return;
  mem::PoolRouter::instance().deallocate(p, bytes);
  m_inUse.fetch_sub(mem::MmapArena::roundToPages(bytes),
                    std::memory_order_relaxed);
}

void GpuDevice::copyToDevice(void* dst, const void* src, std::size_t bytes) {
  std::memcpy(dst, src, bytes);
  m_h2dBytes.fetch_add(bytes, std::memory_order_relaxed);
  m_h2dCount.fetch_add(1, std::memory_order_relaxed);
}

void GpuDevice::copyToHost(void* dst, const void* src, std::size_t bytes) {
  std::memcpy(dst, src, bytes);
  m_d2hBytes.fetch_add(bytes, std::memory_order_relaxed);
  m_d2hCount.fetch_add(1, std::memory_order_relaxed);
}

std::unique_ptr<GpuStream> GpuDevice::createStream() {
  return std::make_unique<GpuStream>(*this);
}

void GpuDevice::synchronize() { m_workers.waitIdle(); }

DeviceStats GpuDevice::stats() const {
  DeviceStats s;
  s.h2dBytes = m_h2dBytes.load(std::memory_order_relaxed);
  s.d2hBytes = m_d2hBytes.load(std::memory_order_relaxed);
  s.h2dTransfers = m_h2dCount.load(std::memory_order_relaxed);
  s.d2hTransfers = m_d2hCount.load(std::memory_order_relaxed);
  s.kernelsLaunched = m_kernels.load(std::memory_order_relaxed);
  s.bytesInUse = m_inUse.load(std::memory_order_relaxed);
  s.peakBytesInUse = m_peak.load(std::memory_order_relaxed);
  s.allocFailures = m_allocFailures.load(std::memory_order_relaxed);
  s.cpuFallbacks = m_cpuFallbacks.load(std::memory_order_relaxed);
  s.deviceTiles = m_deviceTiles.load(std::memory_order_relaxed);
  s.hostTiles = m_hostTiles.load(std::memory_order_relaxed);
  return s;
}

void GpuDevice::resetStats() {
  m_h2dBytes.store(0, std::memory_order_relaxed);
  m_d2hBytes.store(0, std::memory_order_relaxed);
  m_h2dCount.store(0, std::memory_order_relaxed);
  m_d2hCount.store(0, std::memory_order_relaxed);
  m_kernels.store(0, std::memory_order_relaxed);
  m_allocFailures.store(0, std::memory_order_relaxed);
  m_cpuFallbacks.store(0, std::memory_order_relaxed);
  m_deviceTiles.store(0, std::memory_order_relaxed);
  m_hostTiles.store(0, std::memory_order_relaxed);
  m_peak.store(m_inUse.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

void GpuStream::enqueue(std::function<void()> op) {
  std::lock_guard<std::mutex> lk(m_mutex);
  // A faulted stream discards work submitted behind the fault until
  // synchronize() reports it; pump() drops what was already queued.
  if (m_error) return;
  ++m_submitted;
  m_queue.push_back(std::move(op));
  if (!m_running) {
    m_running = true;
    // Pump one op at a time through the device workers to preserve
    // in-stream ordering while letting other streams interleave.
    m_dev.m_workers.submit([this] { pump(); });
  }
}

// The stream-op wrappers open trace spans INSIDE the queued operation, so
// spans land on the device-worker thread that actually runs the copy or
// kernel — the trace shows H2D/D2H engines and kernel execution as their
// own rows, not the enqueuing thread's.
void GpuStream::enqueueCopyToDevice(void* dst, const void* src,
                                    std::size_t bytes) {
  enqueue([this, dst, src, bytes] {
    RMCRT_TRACE_SPAN("gpu", "h2d_copy");
    m_dev.copyToDevice(dst, src, bytes);
  });
}

void GpuStream::enqueueCopyToHost(void* dst, const void* src,
                                  std::size_t bytes) {
  enqueue([this, dst, src, bytes] {
    RMCRT_TRACE_SPAN("gpu", "d2h_copy");
    m_dev.copyToHost(dst, src, bytes);
  });
}

void GpuStream::enqueueKernel(std::function<void()> kernel) {
  enqueue([this, k = std::move(kernel)] {
    RMCRT_TRACE_SPAN("gpu", "kernel");
    m_dev.noteKernel();
    k();
  });
}

void GpuStream::pump() {
  std::function<void()> op;
  {
    std::lock_guard<std::mutex> lk(m_mutex);
    assert(!m_queue.empty());
    op = std::move(m_queue.front());
    m_queue.pop_front();
  }
  std::exception_ptr error;
  try {
    op();
  } catch (...) {
    error = std::current_exception();
  }
  if (error) {
    // Published only once the catch block has ended: until then this
    // thread's handler still owns the in-flight exception, and a waiter
    // woken inside it could read the exception while this thread frees
    // it. A faulted stream discards the rest of its queue — in-order
    // semantics leave later operations' inputs undefined. The error is
    // reported at the next synchronize(), like CUDA's deferred
    // async-error model.
    std::lock_guard<std::mutex> lk(m_mutex);
    if (!m_error) m_error = std::move(error);
    m_completed += 1 + m_queue.size();
    m_queue.clear();
    m_running = false;
    m_cv.notify_all();
    return;
  }
  bool more;
  {
    std::lock_guard<std::mutex> lk(m_mutex);
    ++m_completed;
    more = !m_queue.empty();
    if (!more) {
      m_running = false;
      m_cv.notify_all();
    }
  }
  if (more) m_dev.m_workers.submit([this] { pump(); });
}

void GpuStream::synchronize() {
  std::unique_lock<std::mutex> lk(m_mutex);
  m_cv.wait(lk,
            [this] { return m_completed == m_submitted && !m_running; });
  if (m_error) {
    std::exception_ptr e = std::exchange(m_error, nullptr);
    lk.unlock();
    std::rethrow_exception(e);
  }
}

bool GpuStream::failed() const {
  std::lock_guard<std::mutex> lk(m_mutex);
  return m_error != nullptr;
}

GpuStream::~GpuStream() {
  try {
    synchronize();
  } catch (const std::exception& e) {
    RMCRT_ERROR("GpuStream destroyed with pending operation error: "
                << e.what());
  } catch (...) {
    RMCRT_ERROR("GpuStream destroyed with pending non-standard error");
  }
}

}  // namespace rmcrt::gpu
