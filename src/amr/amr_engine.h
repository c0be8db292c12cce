#pragma once

/// \file amr_engine.h
/// The adaptive regridding engine: drives the full regrid lifecycle the
/// paper's production runs rely on, every N timesteps —
///
///   estimate  -> flag coarse cells from property gradients (+ measured
///                cost density feedback),
///   cluster   -> box the flags into fine patches (Berger–Rigoutsos),
///   regrid    -> emit the new Grid when the patch set changed,
///   migrate   -> move rank-local DataWarehouse data old -> new grid and
///                invalidate the GPU level database,
///   rebalance -> re-partition along the Morton SFC with measured
///                per-patch costs (EWMA of traced segments), guarded by a
///                hysteresis threshold so balance must improve enough to
///                justify moving data,
///   rewire    -> swap the scheduler onto the new grid/balance (the
///                SimulationController then recompiles the task graph).
///
/// Simulated ranks share one engine (matching the shared Grid/
/// LoadBalancer idiom): the first rank to reach a step computes the
/// decision once from deterministic inputs — the analytic property
/// sampler and the decomposition-independent cost model — and every rank
/// applies the same cached result to its own scheduler. No communication
/// is needed to agree.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "amr/clusterer.h"
#include "amr/cost_model.h"
#include "amr/error_estimator.h"
#include "gpu/gpu_data_warehouse.h"
#include "grid/load_balancer.h"
#include "runtime/scheduler.h"
#include "util/metrics.h"

namespace rmcrt::amr {

struct AmrConfig {
  /// Regrid cadence in timesteps (<= 0 disables regridding; imbalance
  /// monitoring still runs every step). Align with the radiation
  /// interval: regrids on radiation steps recompute all properties on
  /// the new grid, so migration gaps never feed physics.
  int regridEvery = 4;
  EstimatorConfig estimator;
  ClusterConfig cluster;
  /// Labels migrated (rank-locally) across a regrid on every level.
  std::vector<std::string> migrateDoubleLabels = {"divQ"};
};

class AmrEngine {
 public:
  /// Samples radiative properties analytically on a level — the stand-in
  /// for reading the CFD state (core wires initializeProperties here).
  using PropertySampler =
      std::function<void(const grid::Level&, grid::CCVariable<double>& abskg,
                         grid::CCVariable<double>& sigmaT4)>;

  /// \p initial must be a two-level grid (coarse radiation + fine).
  AmrEngine(std::shared_ptr<const grid::Grid> initial,
            std::shared_ptr<const grid::LoadBalancer> lb, int numRanks,
            AmrConfig cfg);

  void setPropertySampler(PropertySampler sampler);
  /// Gauges/counters (rmcrt.lb.imbalance, rmcrt.amr.*) land here.
  void setMetrics(MetricsRegistry* reg);

  CostModel& costModel() { return m_costs; }
  const AmrConfig& config() const { return m_cfg; }

  std::shared_ptr<const grid::Grid> grid() const;
  std::shared_ptr<const grid::LoadBalancer> loadBalancer() const;

  /// Per-rank regrid entry, called between timesteps (the
  /// SimulationController regrid hook). The first caller of a step
  /// computes the decision; every caller applies it to its own
  /// scheduler: migrating its old DataWarehouse onto a new grid,
  /// invalidating \p gpuDW's level database, and rewiring the scheduler.
  /// Returns true when grid or load balance changed this step.
  bool maybeRegrid(int step, runtime::Scheduler& sched,
                   gpu::GpuDataWarehouse* gpuDW = nullptr);

  struct Stats {
    int regrids = 0;
    int rebalances = 0;
    int rebalancesSkipped = 0;  ///< hysteresis vetoed a rebalance
    double lastImbalance = 1.0;
    double lastPredictedImbalance = 1.0;
    std::int64_t fineCoveredCells = 0;
  };
  Stats stats() const;

  /// Latest refinement flags on the coarse level (for VTK inspection);
  /// zero-filled until the first regrid evaluation.
  FlagField latestFlags() const;

 private:
  struct Decision {
    bool regrid = false;
    bool rebalance = false;
    std::shared_ptr<const grid::Grid> oldGrid;
    std::shared_ptr<const grid::Grid> newGrid;
    std::shared_ptr<const grid::LoadBalancer> newLb;
  };

  /// Compute (and cache) the step's decision; caller holds m_mutex.
  void computeDecision(int step);
  std::vector<CellRange> currentFineBoxesCoarse() const;
  grid::CCVariable<double> buildCoarseCostDensity() const;
  void applyToScheduler(const Decision& d, runtime::Scheduler& sched,
                        gpu::GpuDataWarehouse* gpuDW) const;

  AmrConfig m_cfg;
  int m_numRanks;
  PropertySampler m_sampler;
  MetricsRegistry* m_metrics = nullptr;
  CostModel m_costs;

  mutable std::mutex m_mutex;
  std::shared_ptr<const grid::Grid> m_grid;
  std::shared_ptr<const grid::LoadBalancer> m_lb;
  int m_decisionStep = -1;
  Decision m_decision;
  Stats m_stats;
  FlagField m_flags;
};

}  // namespace rmcrt::amr
