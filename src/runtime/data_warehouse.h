#pragma once

/// \file data_warehouse.h
/// The OnDemand DataWarehouse: per-rank storage of simulation variables
/// keyed by (label, patch), plus staged region windows. Uintah's DataWarehouse
/// "provides the application the illusion it has access to memory it does
/// not actually own" — tasks read ghost data and whole coarse levels that
/// the scheduler has staged in from other ranks ahead of execution.
///
/// Supported variable payloads: CCVariable<double> and
/// CCVariable<CellType>, covering the RMCRT property set (abskg, sigmaT4,
/// divQ are doubles; cellType is the flow/wall flag).

#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <variant>

#include "grid/variable.h"

namespace rmcrt::runtime {

/// One variable slot (empty until put).
using VarSlot = std::variant<std::monostate, grid::CCVariable<double>,
                             grid::CCVariable<grid::CellType>>;

/// Per-rank variable database. Thread-safe: lookups take a shared lock,
/// insertions an exclusive one. References returned by get() remain valid
/// until the entry is removed or the warehouse cleared (node pointers are
/// stable in the underlying map).
class DataWarehouse {
 public:
  /// --- patch variables -------------------------------------------------

  template <typename T>
  void put(const std::string& label, int patchId, grid::CCVariable<T> var) {
    std::unique_lock lk(m_mutex);
    m_patchVars[key(label, patchId)] = std::move(var);
  }

  /// Read-only access; the variable must exist with matching type.
  template <typename T>
  const grid::CCVariable<T>& get(const std::string& label,
                                 int patchId) const {
    std::shared_lock lk(m_mutex);
    auto it = m_patchVars.find(key(label, patchId));
    assert(it != m_patchVars.end() && "variable not in DataWarehouse");
    return std::get<grid::CCVariable<T>>(it->second);
  }

  /// Mutable access (scheduler staging, computing tasks).
  template <typename T>
  grid::CCVariable<T>& getModifiable(const std::string& label, int patchId) {
    std::shared_lock lk(m_mutex);
    auto it = m_patchVars.find(key(label, patchId));
    assert(it != m_patchVars.end() && "variable not in DataWarehouse");
    return std::get<grid::CCVariable<T>>(
        const_cast<VarSlot&>(it->second));
  }

  bool exists(const std::string& label, int patchId) const {
    std::shared_lock lk(m_mutex);
    return m_patchVars.count(key(label, patchId)) > 0;
  }

  /// --- staged region variables ------------------------------------------
  /// A region variable is an assembled window of a label's data on one
  /// level, possibly spanning many patches (some remote) — Uintah's
  /// getRegion mechanism, "the illusion [of] access to memory it does not
  /// actually own". The scheduler stages these ahead of task execution;
  /// tasks read them via getRegion with the identical (label, level,
  /// window) key.

  template <typename T>
  void putRegion(const std::string& label, int levelIndex,
                 grid::CCVariable<T> var) {
    std::unique_lock lk(m_mutex);
    m_regionVars[regionKey(label, levelIndex, var.window())] = std::move(var);
  }

  template <typename T>
  const grid::CCVariable<T>& getRegion(const std::string& label,
                                       int levelIndex,
                                       const grid::CellRange& window) const {
    std::shared_lock lk(m_mutex);
    auto it = m_regionVars.find(regionKey(label, levelIndex, window));
    assert(it != m_regionVars.end() && "region not staged in DataWarehouse");
    return std::get<grid::CCVariable<T>>(it->second);
  }

  template <typename T>
  grid::CCVariable<T>& getRegionModifiable(const std::string& label,
                                           int levelIndex,
                                           const grid::CellRange& window) {
    std::shared_lock lk(m_mutex);
    auto it = m_regionVars.find(regionKey(label, levelIndex, window));
    assert(it != m_regionVars.end() && "region not staged in DataWarehouse");
    return std::get<grid::CCVariable<T>>(const_cast<VarSlot&>(it->second));
  }

  bool existsRegion(const std::string& label, int levelIndex,
                    const grid::CellRange& window) const {
    std::shared_lock lk(m_mutex);
    return m_regionVars.count(regionKey(label, levelIndex, window)) > 0;
  }

  /// --- lifecycle --------------------------------------------------------

  /// Drop everything (timestep rollover).
  void clear() {
    std::unique_lock lk(m_mutex);
    m_patchVars.clear();
    m_regionVars.clear();
  }

  /// Total live bytes across all stored variables.
  std::int64_t liveBytes() const {
    std::shared_lock lk(m_mutex);
    std::int64_t total = 0;
    auto add = [&total](const VarSlot& s) {
      if (auto* d = std::get_if<grid::CCVariable<double>>(&s))
        total += d->sizeBytes();
      else if (auto* c = std::get_if<grid::CCVariable<grid::CellType>>(&s))
        total += c->sizeBytes();
    };
    for (const auto& [k, v] : m_patchVars) add(v);
    for (const auto& [k, v] : m_regionVars) add(v);
    return total;
  }

  std::size_t numPatchVars() const {
    std::shared_lock lk(m_mutex);
    return m_patchVars.size();
  }

  /// --- enumeration (checkpoint serialization) ---------------------------
  /// Visit every patch variable as f(label, patchId, slot). Labels contain
  /// no '@', so splitting the key at its last "@p" is unambiguous. The
  /// shared lock is held for the whole walk: do not call put() from \p f.
  template <typename F>
  void forEachPatchVar(F&& f) const {
    std::shared_lock lk(m_mutex);
    for (const auto& [k, slot] : m_patchVars) {
      const std::size_t pos = k.rfind("@p");
      f(k.substr(0, pos), std::stoi(k.substr(pos + 2)), slot);
    }
  }

 private:
  static std::string key(const std::string& label, int patchId) {
    return label + "@p" + std::to_string(patchId);
  }
  static std::string regionKey(const std::string& label, int levelIndex,
                               const grid::CellRange& w) {
    return label + "@L" + std::to_string(levelIndex) + "@" +
           w.low().toString() + w.high().toString();
  }

  mutable std::shared_mutex m_mutex;
  std::unordered_map<std::string, VarSlot> m_patchVars;
  std::unordered_map<std::string, VarSlot> m_regionVars;
};

}  // namespace rmcrt::runtime
