#pragma once

/// \file data_archiver.h
/// Grid-structure records for checkpoint/restart: Snapshot writes one
/// beside every checkpoint so a restart rebuilds the patch set the run
/// had (including an adaptive, regridded one) before it reads any patch
/// data. Format: a text file `grid.txt` in the checkpoint directory.

#include <memory>
#include <string>

#include "grid/grid.h"

namespace rmcrt::runtime {

/// Saves and rebuilds the grid structure of a checkpoint.
class DataArchiver {
 public:
  /// Record the grid structure in \p directory (created if absent):
  /// physical bounds and, per level, the cell extent, refinement ratio,
  /// and either the uniform patch size or (for adaptive levels) every
  /// patch box. A checkpoint taken after a regrid restores onto the
  /// regridded patch set, not the input-file grid — patch ids in the
  /// checkpoint's data are only meaningful against this structure.
  static bool checkpointGrid(const std::string& directory,
                             const grid::Grid& grid);

  /// Rebuild the archived grid (Grid::makeFromSpec); nullptr if the
  /// directory has no grid record or it is corrupt.
  static std::shared_ptr<const grid::Grid> restoreGrid(
      const std::string& directory);
};

}  // namespace rmcrt::runtime
