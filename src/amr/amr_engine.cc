#include "amr/amr_engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "amr/migrator.h"
#include "util/logger.h"

namespace rmcrt::amr {

namespace {

/// Rebalance only when the measured imbalance exceeds this...
constexpr double kRebalanceThreshold = 1.10;
/// ...and the predicted imbalance improves by at least this fraction of
/// the current value (hysteresis: predicted gain must beat the migration
/// cost of moving patches between ranks).
constexpr double kRebalanceMinGain = 0.05;
/// Regrids and rebalances partition along the Morton SFC.
constexpr grid::LbStrategy kStrategy = grid::LbStrategy::Morton;

}  // namespace

AmrEngine::AmrEngine(std::shared_ptr<const grid::Grid> initial,
                     std::shared_ptr<const grid::LoadBalancer> lb,
                     int numRanks, AmrConfig cfg)
    : m_cfg(std::move(cfg)),
      m_numRanks(numRanks),
      m_grid(std::move(initial)),
      m_lb(std::move(lb)) {
  if (!m_grid || m_grid->numLevels() != 2)
    throw std::invalid_argument(
        "AmrEngine: the adaptive lifecycle drives the two-level RMCRT "
        "configuration (coarse radiation level + fine level)");
  if (!m_grid->coarseLevel().uniformlyTiled())
    throw std::invalid_argument(
        "AmrEngine: the coarse radiation level must stay uniformly tiled");
}

void AmrEngine::setPropertySampler(PropertySampler sampler) {
  std::lock_guard<std::mutex> lk(m_mutex);
  m_sampler = std::move(sampler);
}

void AmrEngine::setMetrics(MetricsRegistry* reg) {
  std::lock_guard<std::mutex> lk(m_mutex);
  m_metrics = reg;
}

std::shared_ptr<const grid::Grid> AmrEngine::grid() const {
  std::lock_guard<std::mutex> lk(m_mutex);
  return m_grid;
}

std::shared_ptr<const grid::LoadBalancer> AmrEngine::loadBalancer() const {
  std::lock_guard<std::mutex> lk(m_mutex);
  return m_lb;
}

AmrEngine::Stats AmrEngine::stats() const {
  std::lock_guard<std::mutex> lk(m_mutex);
  return m_stats;
}

std::vector<CellRange> AmrEngine::currentFineBoxesCoarse() const {
  const grid::Level& fine = m_grid->fineLevel();
  const IntVector rr = fine.refinementRatio();
  std::vector<CellRange> boxes;
  boxes.reserve(fine.numPatches());
  for (const grid::Patch& p : fine.patches())
    boxes.push_back(p.cells().coarsened(rr));
  std::sort(boxes.begin(), boxes.end(),
            [](const CellRange& a, const CellRange& b) {
              if (a.low().z() != b.low().z()) return a.low().z() < b.low().z();
              if (a.low().y() != b.low().y()) return a.low().y() < b.low().y();
              return a.low().x() < b.low().x();
            });
  return boxes;
}

grid::CCVariable<double> AmrEngine::buildCoarseCostDensity() const {
  const grid::Level& coarse = m_grid->coarseLevel();
  const grid::Level& fine = m_grid->fineLevel();
  const IntVector rr = fine.refinementRatio();
  grid::CCVariable<double> density(coarse.cells(), 0.0);
  for (const grid::Patch& p : fine.patches()) {
    if (!m_costs.has(p.id())) continue;
    const double d =
        m_costs.cost(p.id()) / static_cast<double>(p.numCells());
    const CellRange footprint =
        p.cells().coarsened(rr).intersect(coarse.cells());
    for (const IntVector& c : footprint) density[c] = d;
  }
  return density;
}

void AmrEngine::computeDecision(int step) {
  m_decision = Decision{};
  m_decision.oldGrid = m_grid;

  // Imbalance monitoring runs every step so the gauge is always live in
  // --metrics-out output, regrid step or not.
  const std::vector<double> measured = m_costs.measuredCosts(*m_grid);
  const double imbalance = m_lb->imbalance(*m_grid, measured);
  m_stats.lastImbalance = imbalance;
  m_stats.fineCoveredCells = m_grid->fineLevel().coveredCells();
  if (m_metrics) {
    m_metrics->setGauge("rmcrt.lb.imbalance", imbalance);
    m_metrics->setGauge(
        "rmcrt.amr.fine_cells",
        static_cast<double>(m_stats.fineCoveredCells));
    m_metrics->setGauge(
        "rmcrt.amr.fine_patches",
        static_cast<double>(m_grid->fineLevel().numPatches()));
  }

  const bool regridStep =
      m_cfg.regridEvery > 0 && step > 0 && step % m_cfg.regridEvery == 0;
  if (!regridStep || !m_sampler) return;

  // Estimate + cluster on the coarse level.
  const grid::Level& coarse = m_grid->coarseLevel();
  grid::CCVariable<double> abskg(coarse.cells(), 0.0);
  grid::CCVariable<double> sigmaT4(coarse.cells(), 0.0);
  m_sampler(coarse, abskg, sigmaT4);
  grid::CCVariable<double> density;
  const grid::CCVariable<double>* densityPtr = nullptr;
  if (m_cfg.estimator.costBias > 0.0) {
    density = buildCoarseCostDensity();
    densityPtr = &density;
  }
  const FlagField flags =
      estimateRefinementFlags(coarse, abskg, sigmaT4, m_cfg.estimator,
                              densityPtr);
  const std::vector<CellRange> boxes =
      clusterFlags(flags, coarse.cells(), m_cfg.cluster);

  if (boxes != currentFineBoxesCoarse()) {
    // The flagged region changed: emit a new grid, predict per-patch
    // costs by density transfer, and build the measured-cost balance.
    const IntVector rr = m_grid->fineLevel().refinementRatio();
    auto newGrid = grid::Grid::makeAdaptive(
        m_grid->physLow(), m_grid->physHigh(), coarse.cells().size(),
        coarse.patchSize(), rr, boxes);
    const std::vector<double> predicted =
        m_costs.predictCosts(*newGrid, *m_grid);
    auto newLb = std::make_shared<grid::LoadBalancer>(
        *newGrid, m_numRanks, predicted, kStrategy);
    m_stats.lastPredictedImbalance = newLb->imbalance(*newGrid, predicted);
    m_costs.remapAfterRegrid(*m_grid, *newGrid);

    m_decision.regrid = true;
    m_decision.newGrid = newGrid;
    m_decision.newLb = newLb;
    m_grid = std::move(newGrid);
    m_lb = std::move(newLb);
    ++m_stats.regrids;
    if (m_metrics) {
      m_metrics->addCounter("rmcrt.amr.regrids", 1);
      m_metrics->setGauge("rmcrt.amr.predicted_imbalance",
                          m_stats.lastPredictedImbalance);
      m_metrics->setGauge(
          "rmcrt.amr.fine_cells",
          static_cast<double>(m_grid->fineLevel().coveredCells()));
      m_metrics->setGauge(
          "rmcrt.amr.fine_patches",
          static_cast<double>(m_grid->fineLevel().numPatches()));
    }
    m_stats.fineCoveredCells = m_grid->fineLevel().coveredCells();
    RMCRT_INFO("AMR regrid at step "
               << step << ": " << m_grid->fineLevel().numPatches()
               << " fine patches, " << m_stats.fineCoveredCells
               << " fine cells, predicted imbalance "
               << m_stats.lastPredictedImbalance);
    return;
  }

  // Same patch set: rebalance on measured costs, with hysteresis.
  if (imbalance > kRebalanceThreshold) {
    auto candidate = std::make_shared<grid::LoadBalancer>(
        *m_grid, m_numRanks, measured, kStrategy);
    const double predicted = candidate->imbalance(*m_grid, measured);
    if (imbalance - predicted > kRebalanceMinGain * imbalance) {
      m_stats.lastPredictedImbalance = predicted;
      m_decision.rebalance = true;
      m_decision.newGrid = m_grid;
      m_decision.newLb = candidate;
      m_lb = std::move(candidate);
      ++m_stats.rebalances;
      if (m_metrics) {
        m_metrics->addCounter("rmcrt.amr.rebalances", 1);
        m_metrics->setGauge("rmcrt.amr.predicted_imbalance", predicted);
      }
      RMCRT_INFO("AMR rebalance at step " << step << ": imbalance "
                                          << imbalance << " -> predicted "
                                          << predicted);
    } else {
      ++m_stats.rebalancesSkipped;
      if (m_metrics)
        m_metrics->addCounter("rmcrt.amr.rebalances_skipped", 1);
    }
  }
}

void AmrEngine::applyToScheduler(const Decision& d, runtime::Scheduler& sched,
                                 gpu::GpuDataWarehouse* gpuDW) const {
  if (d.regrid) {
    // Migrate this rank's locally available old data onto the new grid
    // before the grids swap under it. Old patch ids are dead after the
    // clear; migrated variables re-enter under new ids.
    const grid::Grid& oldGrid = sched.grid();
    Migrator migrator(oldGrid, *d.newGrid);
    runtime::DataWarehouse& oldDW = sched.oldDW();

    struct Migrated {
      std::string label;
      int patchId;
      grid::CCVariable<double> var;
    };
    std::vector<Migrated> staged;
    for (const std::string& label : m_cfg.migrateDoubleLabels) {
      for (int l = 0; l < d.newGrid->numLevels(); ++l) {
        std::vector<int> localIds;
        for (const grid::Patch& p : d.newGrid->level(l).patches())
          if (d.newLb->rankOf(p.id()) == sched.rank())
            localIds.push_back(p.id());
        if (localIds.empty()) continue;
        auto vars = migrator.migratePatchVar<double>(label, l, oldDW,
                                                     localIds);
        for (std::size_t i = 0; i < localIds.size(); ++i)
          staged.push_back(
              Migrated{label, localIds[i], std::move(vars[i])});
      }
    }
    // Drop everything keyed by old-grid ids/windows (stale region keys
    // from the previous step could otherwise shadow freshly staged data
    // on the new grid), then land the migrated variables.
    oldDW.clear();
    for (Migrated& m : staged)
      oldDW.put(m.label, m.patchId, std::move(m.var));
    sched.newDW().clear();

    if (gpuDW)
      for (int l = 0; l < d.newGrid->numLevels(); ++l)
        gpuDW->invalidateLevel(l);

    sched.setGrid(d.newGrid, d.newLb);
    return;
  }
  if (d.rebalance) sched.setGrid(d.newGrid, d.newLb);
}

bool AmrEngine::maybeRegrid(int step, runtime::Scheduler& sched,
                            gpu::GpuDataWarehouse* gpuDW) {
  Decision d;
  {
    std::lock_guard<std::mutex> lk(m_mutex);
    if (m_decisionStep != step) {
      computeDecision(step);
      m_decisionStep = step;
    }
    d = m_decision;
  }
  if (!d.regrid && !d.rebalance) return false;
  applyToScheduler(d, sched, gpuDW);
  return true;
}

}  // namespace rmcrt::amr
