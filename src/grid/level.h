#pragma once

/// \file level.h
/// One resolution level of the structured AMR hierarchy. Uintah-style:
/// every level spans a (possibly different) region of the physical domain
/// with uniform Cartesian spacing; in the RMCRT configuration the coarse
/// radiation level spans the *entire* domain while the fine CFD level also
/// spans the whole domain at `refinementRatio` times the resolution
/// (paper Section III-B: "each coarse level spans the entire domain").
/// Levels are either tiled uniformly by equally-sized patches (the static
/// configurations) or carry an explicit, possibly partial, set of
/// rectangular patch boxes (adaptive levels produced by the regridding
/// engine in src/amr/ — the clusterer's fine patches need not cover the
/// whole extent, and need not share one edge length).

#include <cassert>
#include <cstdint>
#include <vector>

#include "grid/patch.h"
#include "util/int_vector.h"
#include "util/range.h"

namespace rmcrt::grid {

/// A uniform-resolution mesh level tiled by rectangular patches.
class Level {
 public:
  /// \param index       level index (0 = coarsest)
  /// \param cells       the level's cell extent (half-open, low typically 0)
  /// \param physLow     physical position of cell-index low corner
  /// \param dx          cell spacing in each dimension
  /// \param patchSize   patch edge lengths in cells; each extent component
  ///                    must divide the corresponding cells extent
  /// \param refinementRatio ratio to the *next coarser* level (1 on level 0)
  /// \param firstPatchId    id assigned to this level's first patch
  Level(int index, const CellRange& cells, const Vector& physLow,
        const Vector& dx, const IntVector& patchSize,
        const IntVector& refinementRatio, int firstPatchId);

  /// Irregular (adaptive) level: patches are the given explicit boxes,
  /// which must be non-empty, pairwise disjoint, and contained in
  /// \p cells; they need not cover the extent. Throws
  /// std::invalid_argument on a malformed box set.
  Level(int index, const CellRange& cells, const Vector& physLow,
        const Vector& dx, const std::vector<CellRange>& patchBoxes,
        const IntVector& refinementRatio, int firstPatchId);

  int index() const { return m_index; }
  const CellRange& cells() const { return m_cells; }
  const Vector& dx() const { return m_dx; }
  const Vector& physLow() const { return m_physLow; }
  Vector physHigh() const {
    return m_physLow + Vector(m_cells.size()) * m_dx;
  }
  const IntVector& refinementRatio() const { return m_refinementRatio; }
  /// Patch edge lengths for uniformly tiled levels; IntVector(0) for
  /// irregular (adaptive) levels.
  const IntVector& patchSize() const { return m_patchSize; }
  /// Patch counts per dimension (IntVector(0) for irregular levels).
  const IntVector& patchLayout() const { return m_patchLayout; }
  /// True when the level is a uniform tiling of equally-sized patches
  /// (every static factory); false for adaptive levels with explicit
  /// patch boxes.
  bool uniformlyTiled() const { return m_uniform; }

  std::int64_t numCells() const { return m_cells.volume(); }
  /// Cells actually covered by patches: numCells() for uniformly tiled
  /// levels, the sum of patch volumes for irregular ones.
  std::int64_t coveredCells() const;
  std::size_t numPatches() const { return m_patches.size(); }
  const std::vector<Patch>& patches() const { return m_patches; }
  const Patch& patch(std::size_t i) const { return m_patches[i]; }

  /// Physical center of a cell.
  Vector cellCenter(const IntVector& c) const {
    return m_physLow +
           (Vector(c - m_cells.low()) + Vector(0.5)) * m_dx;
  }
  /// Physical position of a cell's low corner.
  Vector cellLowCorner(const IntVector& c) const {
    return m_physLow + Vector(c - m_cells.low()) * m_dx;
  }
  /// Cell containing a physical position (positions exactly on the high
  /// domain face map to the last cell).
  IntVector cellAtPosition(const Vector& p) const;

  /// The patch whose interior contains \p cell, or nullptr.
  const Patch* patchContaining(const IntVector& cell) const;

  /// All patches on this level whose interiors intersect \p range; each
  /// entry carries the intersection.
  struct Overlap {
    const Patch* patch;
    CellRange region;
  };
  std::vector<Overlap> patchesIntersecting(const CellRange& range) const;

  /// Neighbors of \p p: patches (other than p) intersecting p's ghost
  /// window of \p numGhost cells, with the overlap regions clipped to the
  /// level extent.
  std::vector<Overlap> neighbors(const Patch& p, int numGhost) const;

  /// Map a cell index on this level to the containing cell on the next
  /// coarser level (floor semantics; valid for negative ghost indices).
  IntVector mapCellToCoarser(const IntVector& c) const;
  /// Map a coarse-level cell to the low corner of its fine-cell block.
  IntVector mapCellToFiner(const IntVector& c) const {
    return c * m_refinementRatio;
  }

 private:
  int m_index;
  CellRange m_cells;
  Vector m_physLow;
  Vector m_dx;
  IntVector m_patchSize;
  IntVector m_patchLayout;
  IntVector m_refinementRatio;
  bool m_uniform = true;
  std::vector<Patch> m_patches;
};

}  // namespace rmcrt::grid
