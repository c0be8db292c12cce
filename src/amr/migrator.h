#pragma once

/// \file migrator.h
/// Old-grid -> new-grid data migration for the regrid lifecycle. Three
/// transfer modes, matching how each region of a new patch relates to the
/// old patch set:
///
///  * windowed copy — cells the old level's (locally available) patches
///    covered move bit-exactly;
///  * coarse interpolation — newly refined cells with no old fine data
///    take their coarse parent's value (piecewise-constant prolongation),
///    when a coarse-level source is supplied;
///  * restriction — derefined regions project old fine data back onto the
///    coarse level by volume-weighted averaging, so information gathered
///    at fine resolution is not discarded with the patches that held it.
///
/// Migration is rank-local: a rank migrates the data its own
/// DataWarehouse holds. Regions owned by other ranks before the regrid
/// fall back to the coarse interpolation / fill value and are recomputed
/// by the next radiation solve (the engine aligns regrids with radiation
/// steps for exactly this reason).

#include <cstdint>
#include <string>
#include <vector>

#include "grid/grid.h"
#include "grid/operators.h"
#include "grid/variable.h"
#include "runtime/data_warehouse.h"

namespace rmcrt::amr {

/// A level-wide image of whatever per-patch data was locally available,
/// plus a per-cell availability mask.
template <typename T>
struct LevelImage {
  grid::CCVariable<T> data;
  grid::CCVariable<std::uint8_t> mask;  ///< 1 where data is valid
};

/// Gather the locally available per-patch copies of \p label on
/// \p level from \p dw into one image (missing patches leave mask 0).
template <typename T>
LevelImage<T> gatherAvailable(const runtime::DataWarehouse& dw,
                              const std::string& label,
                              const grid::Level& level) {
  LevelImage<T> img{grid::CCVariable<T>(level.cells(), T{}),
                    grid::CCVariable<std::uint8_t>(level.cells(), 0)};
  for (const grid::Patch& p : level.patches()) {
    if (!dw.exists(label, p.id())) continue;
    img.data.copyRegion(dw.get<T>(label, p.id()), p.cells());
    for (const IntVector& c : p.cells()) img.mask[c] = 1;
  }
  return img;
}

class Migrator {
 public:
  Migrator(const grid::Grid& oldGrid, const grid::Grid& newGrid)
      : m_old(oldGrid), m_new(newGrid) {}

  /// Migrate one label on \p levelIndex: returns a variable per patch id
  /// in \p newPatchIds, assembled from the old data image per the scheme
  /// above. \p coarseSource (old coarse-level image over the coarse
  /// extent) feeds newly refined cells; without it they get \p fillValue.
  template <typename T>
  std::vector<grid::CCVariable<T>> migratePatchVar(
      const std::string& label, int levelIndex,
      const runtime::DataWarehouse& srcDW,
      const std::vector<int>& newPatchIds,
      const grid::CCVariable<T>* coarseSource = nullptr,
      const T& fillValue = T{}) const {
    const grid::Level& oldLevel = m_old.level(levelIndex);
    const LevelImage<T> img = gatherAvailable<T>(srcDW, label, oldLevel);
    const IntVector rr = m_new.level(levelIndex).refinementRatio();

    std::vector<grid::CCVariable<T>> out;
    out.reserve(newPatchIds.size());
    for (int id : newPatchIds) {
      const grid::Patch* p = m_new.patchById(id);
      grid::CCVariable<T> v(*p, /*numGhost=*/0, fillValue);
      for (const IntVector& c : p->cells()) {
        if (img.mask.window().contains(c) && img.mask[c]) {
          v[c] = img.data[c];
        } else if (coarseSource) {
          const IntVector cc = fdiv(c, rr);
          if (coarseSource->window().contains(cc)) v[c] = (*coarseSource)[cc];
        }
      }
      out.push_back(std::move(v));
    }
    return out;
  }

  /// Restriction for derefined regions: average the old fine image onto
  /// \p coarseVar for every coarse cell whose full fine-child block was
  /// available (partial blocks keep the coarse value).
  template <typename T>
  void restrictToCoarse(const LevelImage<T>& oldFine, int fineLevelIndex,
                        grid::CCVariable<T>& coarseVar) const {
    const IntVector rr = m_old.level(fineLevelIndex).refinementRatio();
    const double inv = 1.0 / static_cast<double>(rr.volume());
    for (const IntVector& cc : coarseVar.window()) {
      const IntVector fLo = cc * rr;
      const CellRange block(fLo, fLo + rr);
      if (!oldFine.mask.window().contains(block)) continue;
      bool full = true;
      for (const IntVector& fc : block) {
        if (!oldFine.mask[fc]) {
          full = false;
          break;
        }
      }
      if (!full) continue;
      T sum{};
      for (const IntVector& fc : block) sum += oldFine.data[fc];
      coarseVar[cc] = static_cast<T>(sum * inv);
    }
  }

 private:
  static IntVector fdiv(const IntVector& a, const IntVector& b) {
    auto f = [](int x, int y) {
      return x >= 0 ? x / y : -((-x + y - 1) / y);
    };
    return {f(a.x(), b.x()), f(a.y(), b.y()), f(a.z(), b.z())};
  }

  const grid::Grid& m_old;
  const grid::Grid& m_new;
};

/// Fill the cells of \p region that no patch of \p fineLevel covers with
/// their coarse parents' values — the prolongation the two-level trace
/// task applies to its region-of-interest window on adaptive fine levels
/// before ray marching, so rays crossing unrefined space see
/// coarse-accurate (never zero) radiative properties.
template <typename T>
void fillUncoveredFromCoarser(grid::CCVariable<T>& fineVar,
                              const CellRange& region,
                              const grid::Level& fineLevel,
                              const grid::CCVariable<T>& coarseVar) {
  const IntVector rr = fineLevel.refinementRatio();
  grid::CCVariable<std::uint8_t> covered(region, 0);
  for (const auto& o : fineLevel.patchesIntersecting(region))
    for (const IntVector& c : o.region) covered[c] = 1;
  auto f = [](int x, int y) {
    return x >= 0 ? x / y : -((-x + y - 1) / y);
  };
  for (const IntVector& c : region) {
    if (covered[c]) continue;
    const IntVector cc(f(c.x(), rr.x()), f(c.y(), rr.y()), f(c.z(), rr.z()));
    if (coarseVar.window().contains(cc)) fineVar[c] = coarseVar[cc];
  }
}

}  // namespace rmcrt::amr
