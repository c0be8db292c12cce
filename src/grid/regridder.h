#pragma once

/// \file regridder.h
/// Moving level-shaped data between patch decompositions (DESIGN.md D4:
/// the paper sweeps 16^3 / 32^3 / 64^3 fine patches, "determining optimal
/// fine mesh patch sizes to yield GPU performance while maintaining
/// over-decomposition"). Cell data is decomposition-independent, so
/// migration is windowed copying through a level-wide image.

#include <utility>
#include <vector>

#include "grid/grid.h"
#include "grid/variable.h"

namespace rmcrt::grid {

/// Scatter a level-wide variable into per-patch variables of \p level
/// (the regrid "migration": new patches pull their windows out of the
/// old level image). Returns one variable per patch, ordered like
/// level.patches().
template <typename T>
std::vector<CCVariable<T>> scatterToPatches(const CCVariable<T>& levelVar,
                                            const Level& level,
                                            int numGhost = 0) {
  std::vector<CCVariable<T>> out;
  out.reserve(level.numPatches());
  for (const Patch& p : level.patches()) {
    CCVariable<T> v(p, numGhost);
    const CellRange copyRegion =
        v.window().intersect(levelVar.window());
    v.copyRegion(levelVar, copyRegion);
    out.push_back(std::move(v));
  }
  return out;
}

/// Gather per-patch variables into one level-wide image (inverse of
/// scatterToPatches; patch interiors only).
template <typename T>
CCVariable<T> gatherFromPatches(const std::vector<CCVariable<T>>& patchVars,
                                const Level& level) {
  CCVariable<T> out(level.cells(), T{});
  for (std::size_t i = 0; i < level.numPatches(); ++i)
    out.copyRegion(patchVars[i], level.patch(i).cells());
  return out;
}

}  // namespace rmcrt::grid
