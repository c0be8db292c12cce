#pragma once

/// \file gpu_data_warehouse.h
/// The GPU DataWarehouse with the paper's *level database* (Section
/// III-C): alongside the per-patch variable database, a per-mesh-level
/// database stores a SINGLE device copy of shared global radiative
/// properties (coarse abskg, sigmaT4, cellType). Multiple fine-patch tasks
/// resident on the device reference that one copy instead of each staging
/// its own — "effectively short-circuit[ing] the creation of these
/// redundant global copies ... and their subsequent transfer across the
/// PCIe bus."
///
/// For the D2 ablation the class also supports the pre-paper behaviour
/// (Mode::PerPatchCopies), where every patch task uploads a private copy
/// of the coarse level data; bench_gpu_dw contrasts device-memory and
/// PCIe traffic between the two and shows where per-patch copies blow the
/// 6 GB budget.

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "gpu/gpu_device.h"
#include "grid/variable.h"
#include "util/range.h"

namespace rmcrt::gpu {

/// A variable resident in device memory.
struct DeviceVar {
  void* devPtr = nullptr;
  grid::CellRange window;
  std::size_t bytes = 0;
  std::size_t elemSize = 0;

  std::int64_t offset(const IntVector& c) const {
    const IntVector rel = c - window.low();
    const IntVector sz = window.size();
    return rel.x() +
           static_cast<std::int64_t>(sz.x()) *
               (rel.y() + static_cast<std::int64_t>(sz.y()) * rel.z());
  }

  /// Typed device-side view (our "device" memory is host-addressable).
  template <typename T>
  T* as() const {
    assert(sizeof(T) == elemSize);
    return static_cast<T*>(devPtr);
  }
};

/// GPU-side variable database for one device.
class GpuDataWarehouse {
 public:
  enum class Mode {
    LevelDatabase,   ///< one shared coarse copy per level (the paper)
    PerPatchCopies,  ///< redundant per-patch coarse copies (pre-paper)
  };

  explicit GpuDataWarehouse(GpuDevice& dev, Mode mode = Mode::LevelDatabase)
      : m_dev(dev), m_mode(mode) {}

  ~GpuDataWarehouse() { clear(); }

  GpuDataWarehouse(const GpuDataWarehouse&) = delete;
  GpuDataWarehouse& operator=(const GpuDataWarehouse&) = delete;

  Mode mode() const { return m_mode; }
  GpuDevice& device() { return m_dev; }

  /// --- per-patch variables ---------------------------------------------

  /// Upload a host variable for one patch (H2D through \p stream if given,
  /// else synchronously). Replaces any existing copy.
  template <typename T>
  DeviceVar& putPatchVar(const std::string& label, int patchId,
                         const grid::CCVariable<T>& host,
                         GpuStream* stream = nullptr) {
    return putPatchVarRaw(label, patchId, host.data(), host.window(),
                          sizeof(T), stream);
  }

  /// Untyped upload for records that are not CCVariables — the fused
  /// PackedCell arrays the ray-march kernel consumes. \p hostData must
  /// stay alive until the stream's copy drains.
  DeviceVar& putPatchVarRaw(const std::string& label, int patchId,
                            const void* hostData,
                            const grid::CellRange& window,
                            std::size_t elemSize,
                            GpuStream* stream = nullptr) {
    std::lock_guard<std::mutex> lk(m_mutex);
    DeviceVar& dv = allocInMapLocked(m_patchVars, key(label, patchId),
                                     window, elemSize);
    upload(dv, hostData, stream);
    return dv;
  }

  /// Allocate an uninitialized device variable for task output (divQ).
  DeviceVar& allocatePatchVar(const std::string& label, int patchId,
                              const grid::CellRange& window,
                              std::size_t elemSize) {
    std::lock_guard<std::mutex> lk(m_mutex);
    return allocInMapLocked(m_patchVars, key(label, patchId), window,
                            elemSize);
  }

  DeviceVar& getPatchVar(const std::string& label, int patchId) {
    std::lock_guard<std::mutex> lk(m_mutex);
    auto it = m_patchVars.find(key(label, patchId));
    assert(it != m_patchVars.end() && "patch var not on device");
    return it->second;
  }

  bool hasPatchVar(const std::string& label, int patchId) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_patchVars.count(key(label, patchId)) > 0;
  }

  /// Download a patch variable back to the host (D2H).
  template <typename T>
  void fetchPatchVar(const std::string& label, int patchId,
                     grid::CCVariable<T>& host, GpuStream* stream = nullptr) {
    DeviceVar dv;
    {
      std::lock_guard<std::mutex> lk(m_mutex);
      auto it = m_patchVars.find(key(label, patchId));
      assert(it != m_patchVars.end());
      dv = it->second;
    }
    assert(host.window() == dv.window);
    if (stream)
      stream->enqueueCopyToHost(host.data(), dv.devPtr, dv.bytes);
    else
      m_dev.copyToHost(host.data(), dv.devPtr, dv.bytes);
  }

  void removePatchVar(const std::string& label, int patchId) {
    std::lock_guard<std::mutex> lk(m_mutex);
    auto it = m_patchVars.find(key(label, patchId));
    if (it != m_patchVars.end()) {
      m_dev.free(it->second.devPtr, it->second.bytes);
      m_patchVars.erase(it);
    }
  }

  /// --- the level database (paper Section III-C) -------------------------

  /// Get (or create on first call) the single shared device copy of a
  /// per-level variable. In LevelDatabase mode the upload happens exactly
  /// once per (label, level); every later caller receives the same
  /// DeviceVar. In PerPatchCopies mode the caller must pass its patch id
  /// and receives a private copy, uploaded per patch — the redundant
  /// pre-paper behaviour.
  template <typename T>
  DeviceVar& getOrUploadLevelVar(const std::string& label, int levelIndex,
                                 const grid::CCVariable<T>& host,
                                 int patchIdForPerPatchMode = -1,
                                 GpuStream* stream = nullptr) {
    return getOrUploadLevelVarRaw(label, levelIndex, host.data(),
                                  host.window(), sizeof(T),
                                  patchIdForPerPatchMode, stream);
  }

  /// Untyped level-database upload (fused PackedCell record arrays). Same
  /// once-per-(label, level) semantics as the typed overload; \p hostData
  /// is only read when this call actually uploads, and must then stay
  /// alive until the stream's copy drains.
  DeviceVar& getOrUploadLevelVarRaw(const std::string& label, int levelIndex,
                                    const void* hostData,
                                    const grid::CellRange& window,
                                    std::size_t elemSize,
                                    int patchIdForPerPatchMode = -1,
                                    GpuStream* stream = nullptr) {
    std::lock_guard<std::mutex> lk(m_mutex);
    std::string k;
    if (m_mode == Mode::LevelDatabase) {
      k = label + "@L" + std::to_string(levelIndex);
    } else {
      assert(patchIdForPerPatchMode >= 0 &&
             "per-patch mode requires a patch id");
      k = label + "@L" + std::to_string(levelIndex) + "@p" +
          std::to_string(patchIdForPerPatchMode);
    }
    auto it = m_levelVars.find(k);
    if (it != m_levelVars.end()) return it->second;
    DeviceVar& dv = allocInMapLocked(m_levelVars, k, window, elemSize);
    upload(dv, hostData, stream);
    return dv;
  }

  bool hasLevelVar(const std::string& label, int levelIndex) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_levelVars.count(label + "@L" + std::to_string(levelIndex)) > 0;
  }

  std::size_t numLevelVarCopies() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_levelVars.size();
  }

  /// Evict the whole level database, returning the bytes freed. The OOM
  /// recovery ladder uses this as its last eviction step: level vars are
  /// re-uploaded on demand by the next getOrUploadLevelVar, so dropping
  /// them trades PCIe traffic for headroom (most valuable in
  /// PerPatchCopies mode, where stale per-patch copies accumulate).
  std::size_t evictLevelVars() {
    std::lock_guard<std::mutex> lk(m_mutex);
    std::size_t freed = 0;
    for (auto& [k, dv] : m_levelVars) {
      m_dev.free(dv.devPtr, dv.bytes);
      freed += dv.bytes;
    }
    m_levelVars.clear();
    return freed;
  }

  /// Evict the level-database entries of one level, returning the bytes
  /// freed. The regrid path calls this after migrating host data: the
  /// device copies of coarse properties describe the old grid and must
  /// rebuild (re-upload on the next getOrUploadLevelVar) against the new
  /// one. Covers PerPatchCopies-mode keys too (label@L<i>@p<id>).
  std::size_t invalidateLevel(int levelIndex) {
    std::lock_guard<std::mutex> lk(m_mutex);
    const std::string tag = "@L" + std::to_string(levelIndex);
    std::size_t freed = 0;
    for (auto it = m_levelVars.begin(); it != m_levelVars.end();) {
      const std::string& k = it->first;
      const std::size_t pos = k.find(tag);
      const bool match =
          pos != std::string::npos &&
          (pos + tag.size() == k.size() || k[pos + tag.size()] == '@');
      if (match) {
        m_dev.free(it->second.devPtr, it->second.bytes);
        freed += it->second.bytes;
        it = m_levelVars.erase(it);
      } else {
        ++it;
      }
    }
    return freed;
  }

  /// Free every device variable.
  void clear() {
    std::lock_guard<std::mutex> lk(m_mutex);
    for (auto& [k, dv] : m_patchVars) m_dev.free(dv.devPtr, dv.bytes);
    for (auto& [k, dv] : m_levelVars) m_dev.free(dv.devPtr, dv.bytes);
    m_patchVars.clear();
    m_levelVars.clear();
  }

  /// Free only per-patch variables (a patch task's epilogue), keeping the
  /// shared level database resident for the next task — the reuse the
  /// paper's design enables.
  void clearPatchVars() {
    std::lock_guard<std::mutex> lk(m_mutex);
    for (auto& [k, dv] : m_patchVars) m_dev.free(dv.devPtr, dv.bytes);
    m_patchVars.clear();
  }

 private:
  static std::string key(const std::string& label, int patchId) {
    return label + "@p" + std::to_string(patchId);
  }

  DeviceVar& allocSlotLocked(DeviceVar& slot, const grid::CellRange& window,
                             std::size_t elemSize) {
    if (slot.devPtr) {
      m_dev.free(slot.devPtr, slot.bytes);
      slot.devPtr = nullptr;  // allocate may throw; never leave a stale ptr
    }
    slot.window = window;
    slot.elemSize = elemSize;
    slot.bytes = static_cast<std::size_t>(window.volume()) * elemSize;
    slot.devPtr = m_dev.allocate(slot.bytes);
    return slot;
  }

  /// Allocate into map slot \p k; a failed allocation (DeviceOutOfMemory)
  /// removes the slot entirely so lookups never see a null entry.
  DeviceVar& allocInMapLocked(std::map<std::string, DeviceVar>& vars,
                              const std::string& k,
                              const grid::CellRange& window,
                              std::size_t elemSize) {
    auto [it, inserted] = vars.try_emplace(k);
    try {
      return allocSlotLocked(it->second, window, elemSize);
    } catch (...) {
      vars.erase(it);
      throw;
    }
  }

  void upload(DeviceVar& dv, const void* hostData, GpuStream* stream) {
    if (stream)
      stream->enqueueCopyToDevice(dv.devPtr, hostData, dv.bytes);
    else
      m_dev.copyToDevice(dv.devPtr, hostData, dv.bytes);
  }

  GpuDevice& m_dev;
  Mode m_mode;
  mutable std::mutex m_mutex;
  std::map<std::string, DeviceVar> m_patchVars;
  std::map<std::string, DeviceVar> m_levelVars;
};

}  // namespace rmcrt::gpu
