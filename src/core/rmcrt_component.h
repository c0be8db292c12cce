#pragma once

/// \file rmcrt_component.h
/// The RMCRT simulation component: registers the Uintah-style task
/// pipeline on a per-rank Scheduler. Mirrors the paper's production
/// structure (Sections III-B/C):
///
///   initProperties (fine level)   — sample kappa/sigmaT4/cellType from
///                                   the problem definition (stands in for
///                                   the ARCHES CFD state)
///   coarsenProperties (coarse)    — project fine properties to the
///                                   radiation mesh (requires remote fine
///                                   regions); on an adaptive fine level,
///                                   unrefined regions keep the analytic
///                                   coarse sample
///   rayTrace (fine)               — requires fine properties with a halo
///                                   (the ROI) plus coarse properties with
///                                   the whole-level "infinite ghost
///                                   cells" requirement; computes divQ
///
/// One task set serves uniformly tiled and adaptive (Grid::makeAdaptive)
/// fine levels. The trace runs on the CPU or, in rayTraceGPU, on the
/// simulated GPU: that variant stages data through the GpuDataWarehouse
/// (shared level database) and runs the kernel on a device stream — the
/// paper's Section III-C data path — and falls back to the CPU task's host
/// trace when the device cannot hold the inputs.

#include <memory>

#include "amr/amr_engine.h"
#include "core/problems.h"
#include "core/ray_tracer.h"
#include "core/spectral.h"
#include "gpu/gpu_data_warehouse.h"
#include "runtime/scheduler.h"

namespace rmcrt::core {

/// Variable labels used by the pipeline.
struct RmcrtLabels {
  static constexpr const char* abskg = "abskg";
  static constexpr const char* sigmaT4 = "sigmaT4OverPi";
  static constexpr const char* cellType = "cellType";
  static constexpr const char* divQ = "divQ";
  /// Fused PackedCell records staged for the GPU kernel (one per-patch
  /// ROI array plus one shared coarse copy in the level database). The
  /// "@L<i>"-tagged level-db key means invalidateLevel evicts it on
  /// regrid like any other coarse property.
  static constexpr const char* packedRad = "packedRadProps";
};

/// Pipeline configuration.
struct RmcrtSetup {
  RadiationProblem problem;
  TraceConfig trace;
  /// Fine-mesh halo (cells) around each patch forming the ray-tracing
  /// region of interest; beyond it rays march the coarse level.
  int roiHalo = 4;
  /// Optional worker pool for tiled CPU tracing (non-owning; nullptr =
  /// serial). Scheduler-driven pipelines prefer the pool the scheduler
  /// hands tasks through TaskContext::pool; this one serves the serial
  /// solve* entry points and schedulers configured without a pool.
  ThreadPool* pool = nullptr;
  /// Optional per-rank cache of the coarse level's fused PackedCell
  /// records for the CPU trace task (and the GPU task's CPU fallback).
  /// With it, each radiation step repacks only coarse regions whose fine
  /// coverage changed since the previous step (the regrid-migrated
  /// patches) instead of re-fusing the whole level per Tracer. One cache
  /// per rank — never share across concurrently executing schedulers —
  /// and only valid while coarse properties outside fine coverage are
  /// step-invariant (true for the analytic samplers; see
  /// PackedLevelCache). nullptr: pack per Tracer.
  std::shared_ptr<PackedLevelCache> packedCache;
  /// Spectral band model. Empty (default): the gray solver, exactly as
  /// before. Non-empty: every trace task runs the SpectralTracer band
  /// loop — all bands sharing one PackedCell record set (and, on the
  /// GPU path, one device upload) — accumulating per-band divQ. A
  /// single {weight=1, kappaScale=1} band is bitwise the gray solver.
  BandModel bands;
};

/// Task-registration entry points. Call the same function on every rank's
/// scheduler, then executeTimestep() concurrently.
class RmcrtComponent {
 public:
  /// The paper's 2-level algorithm (coarse = level 0, fine = level 1),
  /// on a uniformly tiled or an adaptive fine level. On an adaptive level
  /// the coarse task samples the analytic problem where no fine patch
  /// covers, and the trace task prolongs coarse properties into the
  /// uncovered parts of each ROI window before marching, so rays crossing
  /// unrefined space see coarse-accurate (never zero) radiative
  /// properties. When \p costs is given, each patch's traced-segment count
  /// is recorded into it — the AmrEngine's measured-cost input for
  /// dynamic rebalancing.
  static void registerTwoLevelPipeline(runtime::Scheduler& sched,
                                       const RmcrtSetup& setup,
                                       amr::CostModel* costs = nullptr);

  /// The original single-level algorithm: the fine level is replicated on
  /// every rank (O(N_total^2) communication growth) — the baseline the
  /// AMR scheme improves on (paper Section III-C).
  static void registerSingleLevelPipeline(runtime::Scheduler& sched,
                                          const RmcrtSetup& setup);

  /// The AmrEngine-facing property sampler backed by the analytic
  /// problem definition (samples abskg/sigmaT4 at cell centers) — wire
  /// it via AmrEngine::setPropertySampler so the error estimator flags
  /// from the same fields the pipeline traces.
  static amr::AmrEngine::PropertySampler makePropertySampler(
      RadiationProblem problem);

  /// 2-level pipeline whose trace task runs on the simulated GPU: fine
  /// patch data H2D per task, coarse properties through the shared level
  /// database, divQ D2H. The device path expects a uniformly tiled fine
  /// level. \p gdw must outlive the scheduler run.
  static void registerTwoLevelGpuPipeline(runtime::Scheduler& sched,
                                          const RmcrtSetup& setup,
                                          gpu::GpuDataWarehouse& gdw);

  /// Serial convenience: solve divQ on the fine level of \p grid directly
  /// (no scheduler, single rank) — used by accuracy tests and examples.
  static grid::CCVariable<double> solveSerialSingleLevel(
      const grid::Grid& grid, const RmcrtSetup& setup);
  static grid::CCVariable<double> solveSerialTwoLevel(
      const grid::Grid& grid, const RmcrtSetup& setup);
};

}  // namespace rmcrt::core
