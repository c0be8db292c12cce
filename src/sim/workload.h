#pragma once

/// \file workload.h
/// The RMCRT workload descriptor and its derived communication /
/// computation quantities — the model of Humphrey et al. 2015 (the
/// paper's ref [5]) specialized to the 2-level benchmark configurations
/// of Section V.

#include <cmath>
#include <cstdint>

#include "util/int_vector.h"

namespace rmcrt::sim {

/// One 2-level RMCRT benchmark configuration.
struct ProblemConfig {
  int fineCellsPerSide = 256;  ///< fine CFD mesh edge (256 or 512)
  int refinementRatio = 4;     ///< fine -> coarse ratio (paper: 4)
  int patchSize = 32;          ///< fine patch edge (16, 32, 64)
  int raysPerCell = 100;       ///< paper Section V: 100
  int roiHalo = 4;             ///< fine-level ROI halo cells
  /// Mean ray path length in cells on the fine level before the ray
  /// leaves the ROI or is extinguished; rays exit through the nearest
  /// ROI face, so the expected in-ROI path is ~half the ROI edge.
  double meanFineSegments() const {
    return 0.5 * (patchSize + 2.0 * roiHalo);
  }
  /// Mean additional path on the coarse level (domain-scale march at
  /// coarse resolution).
  double meanCoarseSegments() const {
    return 0.6 * coarseCellsPerSide();
  }

  // --- derived sizes ------------------------------------------------------
  int coarseCellsPerSide() const { return fineCellsPerSide / refinementRatio; }
  std::int64_t fineCells() const {
    return static_cast<std::int64_t>(fineCellsPerSide) * fineCellsPerSide *
           fineCellsPerSide;
  }
  std::int64_t coarseCells() const {
    const std::int64_t c = coarseCellsPerSide();
    return c * c * c;
  }
  std::int64_t totalCells() const { return fineCells() + coarseCells(); }
  std::int64_t cellsPerPatch() const {
    return static_cast<std::int64_t>(patchSize) * patchSize * patchSize;
  }
  std::int64_t numFinePatches() const { return fineCells() / cellsPerPatch(); }

  /// Bytes per cell of radiative properties shipped around (abskg +
  /// sigmaT4 doubles + cellType int32).
  static constexpr double bytesPerPropertyCell = 8.0 + 8.0 + 4.0;

  /// --- per-rank communication quantities (P ranks, 1 GPU each) ----------

  /// Fine patches owned by one rank (ceil: the straggler rank bounds the
  /// timestep).
  std::int64_t patchesPerRank(int ranks) const {
    return (numFinePatches() + ranks - 1) / ranks;
  }

  /// Halo-exchange volume received per rank per timestep [B]: ghost
  /// shells of the owned patches, excluding faces against patches of the
  /// same rank. With a Morton (octant) decomposition roughly half the
  /// shell is remote at scale.
  double haloBytesPerRank(int ranks) const {
    const double edge = patchSize;
    const double shell =
        std::pow(edge + 2.0 * roiHalo, 3.0) - std::pow(edge, 3.0);
    const double remoteFraction =
        ranks == 1 ? 0.0 : std::min(1.0, 0.5 + 0.5 / std::cbrt(ranks));
    return static_cast<double>(patchesPerRank(ranks)) * shell *
           bytesPerPropertyCell * remoteFraction;
  }

  /// Halo messages received per rank (≈26 neighbors per owned patch,
  /// remote fraction as above).
  double haloMessagesPerRank(int ranks) const {
    const double remoteFraction =
        ranks == 1 ? 0.0 : std::min(1.0, 0.5 + 0.5 / std::cbrt(ranks));
    return static_cast<double>(patchesPerRank(ranks)) * 26.0 *
           remoteFraction;
  }

  /// Coarse-level replication ("infinite ghost cells"): every rank
  /// receives the entire coarse level minus its own share [B]. This is
  /// the reduced all-to-all — the single-level algorithm would ship
  /// fineCells() instead.
  double replicationBytesPerRank(int ranks) const {
    const double share = 1.0 - 1.0 / static_cast<double>(ranks);
    return static_cast<double>(coarseCells()) * bytesPerPropertyCell * share;
  }

  /// Replication messages per rank: one per remote rank per property
  /// bundle (aggregated sends), so O(P).
  double replicationMessagesPerRank(int ranks) const {
    return 3.0 * static_cast<double>(ranks - 1);
  }

  /// Coarse patches (the coarse level is tiled by the same patch edge).
  std::int64_t numCoarsePatches() const {
    const std::int64_t side =
        std::max<std::int64_t>(1, coarseCellsPerSide() / patchSize);
    return side * side * side;
  }

  /// Dependency RECORDS the runtime posts/tests per rank per timestep.
  /// Uintah's DataWarehouse creates one communication record per
  /// (requiring patch, providing patch) dependency — for the
  /// whole-level ("infinite ghost cells") requirement that is every
  /// owned fine patch against every remote coarse patch, which is what
  /// made the request-container cost dominate at scale (paper
  /// Section IV-A: "the high volume and size of MPI messages").
  double dependencyRecordsPerRank(int ranks) const {
    const double share = 1.0 - 1.0 / static_cast<double>(ranks);
    const double replication =
        static_cast<double>(patchesPerRank(ranks)) *
        static_cast<double>(numCoarsePatches()) * share;
    return haloMessagesPerRank(ranks) + replication +
           static_cast<double>(patchesPerRank(ranks)) * 2.0;
  }

  /// Coarsen-phase volume per rank [B]: the fine data projected to the
  /// coarse level crosses ranks once; amortized per rank it is the fine
  /// level read once, divided across ranks.
  double coarsenBytesPerRank(int ranks) const {
    return static_cast<double>(fineCells()) * bytesPerPropertyCell /
           static_cast<double>(ranks) * 0.5;
  }

  /// --- computation quantities -------------------------------------------

  /// Ray-march cell crossings per rank per timestep: every owned fine
  /// cell traces raysPerCell rays (the fixed-fan gray model), each
  /// crossing fine ROI cells then coarse cells.
  double segmentsPerRank(int ranks) const {
    const double cellsOwned =
        static_cast<double>(patchesPerRank(ranks)) *
        static_cast<double>(cellsPerPatch());
    return cellsOwned * raysPerCell *
           (meanFineSegments() + meanCoarseSegments());
  }

  /// Device-resident bytes needed simultaneously: k concurrent patch
  /// tasks' private data + the coarse level (shared once or per task).
  double deviceBytesNeeded(int concurrentTasks,
                           bool perPatchCoarseCopies = false) const {
    const double roi = std::pow(patchSize + 2.0 * roiHalo, 3.0);
    const double perPatch = roi * bytesPerPropertyCell +
                            static_cast<double>(cellsPerPatch()) * 8.0;
    const double coarseBytes =
        static_cast<double>(coarseCells()) * bytesPerPropertyCell;
    const double coarseCopies =
        perPatchCoarseCopies ? concurrentTasks : 1;
    return concurrentTasks * perPatch + coarseCopies * coarseBytes;
  }
};

/// The paper's two benchmark configurations (Section V).
inline ProblemConfig mediumProblem(int patchSize = 32) {
  ProblemConfig p;
  p.fineCellsPerSide = 256;
  p.patchSize = patchSize;
  return p;
}
inline ProblemConfig largeProblem(int patchSize = 32) {
  ProblemConfig p;
  p.fineCellsPerSide = 512;
  p.patchSize = patchSize;
  return p;
}

}  // namespace rmcrt::sim
