#pragma once

/// \file variable.h
/// Cell-centered grid variables (Uintah's CCVariable) and variable labels.
/// A CCVariable allocates the patch interior plus a ghost margin through
/// mem::PoolRouter — GridVariables are the paper's canonical "large
/// transient" allocation class (Section IV-B.1), and a small one takes a
/// recycled pool block.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "grid/patch.h"
#include "mem/allocators.h"
#include "util/array3.h"

namespace rmcrt::grid {

/// Identifies a simulation variable ("divQ", "abskg", "sigmaT4", ...).
/// Labels are interned by name; compare by pointer or by name equality.
class VarLabel {
 public:
  explicit VarLabel(std::string name) : m_name(std::move(name)) {}
  const std::string& name() const { return m_name; }

  bool operator==(const VarLabel& o) const { return m_name == o.m_name; }

 private:
  std::string m_name;
};

/// A cell-centered variable on one patch (plus ghost margin).
///
/// Storage comes from the pooled allocator so repeated create/destroy
/// cycles (every timestep, every patch) never touch the heap.
template <typename T>
class CCVariable {
 public:
  using Storage = Array3<T, mem::PooledAllocator<T>>;

  CCVariable() = default;

  /// Allocate over \p patch interior plus \p numGhost cells per face.
  CCVariable(const Patch& patch, int numGhost, const T& init = T{})
      : m_storage(patch.ghostWindow(numGhost), init),
        m_interior(patch.cells()),
        m_numGhost(numGhost) {}

  /// Allocate over an explicit window (used by per-level variables whose
  /// "patch" is the whole level).
  CCVariable(const CellRange& window, const T& init = T{})
      : m_storage(window, init), m_interior(window), m_numGhost(0) {}

  /// Reconstruct a variable with an explicit window/interior/ghost triple
  /// — the checkpoint-restore path, which must reproduce a patch variable
  /// (ghost margin included) without the Patch it was built from.
  CCVariable(const CellRange& window, const CellRange& interior, int numGhost,
             const T& init = T{})
      : m_storage(window, init), m_interior(interior), m_numGhost(numGhost) {}

  const CellRange& window() const { return m_storage.window(); }
  const CellRange& interior() const { return m_interior; }
  int numGhost() const { return m_numGhost; }
  bool allocated() const { return m_storage.allocated(); }
  std::int64_t sizeCells() const { return m_storage.size(); }
  std::int64_t sizeBytes() const {
    return m_storage.size() * static_cast<std::int64_t>(sizeof(T));
  }

  T& operator[](const IntVector& c) { return m_storage[c]; }
  const T& operator[](const IntVector& c) const { return m_storage[c]; }

  T* data() { return m_storage.data(); }
  const T* data() const { return m_storage.data(); }

  Storage& storage() { return m_storage; }
  const Storage& storage() const { return m_storage; }

  void fill(const T& v) { m_storage.fill(v); }

  /// Copy \p region from another variable (ghost fill / coarsen targets).
  void copyRegion(const CCVariable& src, const CellRange& region) {
    m_storage.copyRegion(src.m_storage, region);
  }

 private:
  Storage m_storage;
  CellRange m_interior;
  int m_numGhost = 0;
};

/// Cell classification for ray tracing: interior flow cells participate in
/// emission/absorption, wall cells terminate rays with wall emissivity.
enum class CellType : std::int32_t { Flow = 0, Wall = 1 };

}  // namespace rmcrt::grid
