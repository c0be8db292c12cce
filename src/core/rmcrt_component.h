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
/// trace when the device cannot hold the inputs. Both trace tasks build
/// their inputs one way: fill the ROI cells no fine patch covers from the
/// coarse level, pack the ROI, and share one coarse record set per
/// registration and rank (the level database, applied on the host).

#include "amr/amr_engine.h"
#include "core/problems.h"
#include "core/ray_tracer.h"
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
  /// serial): CPU trace tasks and the serial solve* entry points tile on
  /// it. Ranks sharing one setup share the pool, so it bounds the node's
  /// trace threads.
  ThreadPool* pool = nullptr;
};

/// Throws std::invalid_argument unless \p setup can be traced:
/// validateTraceConfig(setup.trace) and roiHalo >= 0. Every register*
/// entry point below and Service::registerScene call it, so a bad setup
/// is refused at registration instead of inside a task or a batch drain.
void validateSetup(const RmcrtSetup& setup);

/// The records of a two-level problem: \p problem sampled at the cell
/// centers of the whole fine level, averaged onto the whole coarse level,
/// and packed, each level once; the sampled fields do not outlive the call.
/// The serial solvers, the service and the kernel calibration trace
/// these; the distributed pipelines build theirs in their init, coarsen
/// and trace tasks, so no oracle shares this code with the pipeline it
/// checks.
struct TwoLevelRecords {
  PackedLevelField fine, coarse;

  /// The two-level stack over these records: \p grid's fine level
  /// marched inside \p roi, then its whole coarse level. The records must
  /// outlive every Tracer built on it.
  std::vector<TraceLevel> levels(const grid::Grid& grid,
                                 const CellRange& roi) const;
};
TwoLevelRecords sampleTwoLevelRecords(const grid::Grid& grid,
                                      const RadiationProblem& problem);

/// Task-registration entry points. Call the same function on every rank's
/// scheduler, then executeTimestep() concurrently. Each register* call
/// throws std::invalid_argument when validateSetup(setup) does. A
/// registration's trace tasks share one whole-level record set per rank,
/// packed by the first of them and released with the tasks, so it lives
/// one registration: re-register before every radiation step (as
/// SimulationController does) whenever the properties may change.
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
  /// database, divQ D2H; the rank thread co-traces each patch beside the
  /// kernel (DESIGN.md §9), over the same inputs as the CPU task on
  /// uniformly tiled and adaptive fine levels. Registering evicts \p
  /// gdw's level-0 entries, so the device coarse copy lives exactly as
  /// long as the host one, one registration: register only while no
  /// patch task is running on \p gdw. \p gdw must outlive the scheduler
  /// run.
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
