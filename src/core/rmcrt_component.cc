#include "core/rmcrt_component.h"

#include <chrono>
#include <thread>

#include "amr/migrator.h"
#include "grid/operators.h"
#include "util/logger.h"
#include "util/thread_pool.h"
#include "util/trace_recorder.h"

namespace rmcrt::core {

using grid::CCVariable;
using grid::CellType;
using runtime::Computes;
using runtime::Requires;
using runtime::Task;
using runtime::TaskContext;
using runtime::VarType;

namespace {

/// Shared, copyable pipeline state captured by task lambdas.
struct PipelineState {
  RadiationProblem problem;
  TraceConfig trace;
  int roiHalo;
  ThreadPool* pool = nullptr;  ///< setup-supplied fallback tracing pool
  /// Per-rank coarse-record cache for the adaptive pipeline (may be
  /// null). Outlives the PipelineState that a re-registration replaces,
  /// so packed coarse records persist across radiation steps.
  std::shared_ptr<PackedLevelCache> packedCache;
  /// Spectral bands (empty = gray). Every trace task below dispatches
  /// through traceDivQ on this.
  BandModel bands;
};

/// The pool a trace task should tile on: the scheduler-provided one when
/// present (bounds node-wide parallelism), else the setup's.
ThreadPool* tracePool(const TaskContext& ctx, const PipelineState& st) {
  return ctx.pool != nullptr ? ctx.pool : st.pool;
}

/// The one dispatch point between the gray tracer and the spectral band
/// pipeline, shared by every trace task and the serial solvers. An
/// empty band model takes the exact gray path; otherwise the
/// SpectralTracer band loop runs over the SAME trace levels (one shared
/// record set). \p segmentsOut, when non-null, receives the traced
/// segment count (the measured-cost model's input).
void traceDivQ(std::vector<TraceLevel> levels, const WallProperties& walls,
               const PipelineState& st, const CellRange& cells,
               MutableFieldView<double> divQ, ThreadPool* pool,
               std::uint64_t* segmentsOut = nullptr) {
  if (st.bands.empty()) {
    Tracer tracer(std::move(levels), walls, st.trace);
    tracer.computeDivQ(cells, divQ, pool);
    if (segmentsOut != nullptr) *segmentsOut = tracer.segmentCount();
  } else {
    SpectralTracer tracer(levels, walls, st.trace, st.bands);
    tracer.computeDivQ(cells, divQ, pool);
    if (segmentsOut != nullptr) *segmentsOut = tracer.segmentCount();
  }
}

Task makeInitTask(std::shared_ptr<PipelineState> st, int fineLevel) {
  Task t("RMCRT::initProperties", fineLevel,
         [st](const TaskContext& ctx) {
           const grid::Level& level =
               ctx.grid->level(ctx.patch->levelIndex());
           auto& abskg = ctx.newDW->getModifiable<double>(
               RmcrtLabels::abskg, ctx.patch->id());
           auto& sig = ctx.newDW->getModifiable<double>(
               RmcrtLabels::sigmaT4, ctx.patch->id());
           auto& ct = ctx.newDW->getModifiable<CellType>(
               RmcrtLabels::cellType, ctx.patch->id());
           initializeProperties(level, st->problem, abskg, sig, ct);
         });
  t.addComputes(Computes{RmcrtLabels::abskg, VarType::Double, 0});
  t.addComputes(Computes{RmcrtLabels::sigmaT4, VarType::Double, 0});
  t.addComputes(Computes{RmcrtLabels::cellType, VarType::CellTypeVar, 0});
  return t;
}

Task makeCoarsenTask(int fineLevel) {
  Task t("RMCRT::coarsenProperties", /*level=*/0,
         [fineLevel](const TaskContext& ctx) {
           const IntVector rr =
               ctx.grid->level(fineLevel).refinementRatio();
           const auto& fAbs = ctx.getFineRegion<double>(
               RmcrtLabels::abskg, fineLevel);
           const auto& fSig = ctx.getFineRegion<double>(
               RmcrtLabels::sigmaT4, fineLevel);
           const auto& fCt = ctx.getFineRegion<CellType>(
               RmcrtLabels::cellType, fineLevel);
           auto& cAbs = ctx.newDW->getModifiable<double>(
               RmcrtLabels::abskg, ctx.patch->id());
           auto& cSig = ctx.newDW->getModifiable<double>(
               RmcrtLabels::sigmaT4, ctx.patch->id());
           auto& cCt = ctx.newDW->getModifiable<CellType>(
               RmcrtLabels::cellType, ctx.patch->id());
           grid::coarsenAverage(fAbs, rr, cAbs, ctx.patch->cells());
           grid::coarsenAverage(fSig, rr, cSig, ctx.patch->cells());
           grid::coarsenCellType(fCt, rr, cCt, ctx.patch->cells());
         });
  t.addRequires(Requires{RmcrtLabels::abskg, VarType::Double, fineLevel});
  t.addRequires(Requires{RmcrtLabels::sigmaT4, VarType::Double, fineLevel});
  t.addRequires(
      Requires{RmcrtLabels::cellType, VarType::CellTypeVar, fineLevel});
  t.addComputes(Computes{RmcrtLabels::abskg, VarType::Double, 0});
  t.addComputes(Computes{RmcrtLabels::sigmaT4, VarType::Double, 0});
  t.addComputes(Computes{RmcrtLabels::cellType, VarType::CellTypeVar, 0});
  return t;
}

/// Coarse radiation properties on an adaptive grid: sample the analytic
/// problem over the whole coarse patch (so unrefined regions carry real
/// coarse data, not zeros), then overlay averaged fine data wherever
/// fine patches cover. Fine patch boxes are rr-aligned in coarse space
/// (the clusterer works on a coarse-cell lattice), so the overlay
/// regions coarsen exactly.
Task makeUpdateCoarseTask(std::shared_ptr<PipelineState> st, int fineLevel) {
  Task t("RMCRT::updateCoarseProperties", /*level=*/0,
         [st, fineLevel](const TaskContext& ctx) {
           const grid::Level& coarse = ctx.grid->level(0);
           const grid::Level& fine = ctx.grid->level(fineLevel);
           const IntVector rr = fine.refinementRatio();
           auto& cAbs = ctx.newDW->getModifiable<double>(
               RmcrtLabels::abskg, ctx.patch->id());
           auto& cSig = ctx.newDW->getModifiable<double>(
               RmcrtLabels::sigmaT4, ctx.patch->id());
           auto& cCt = ctx.newDW->getModifiable<CellType>(
               RmcrtLabels::cellType, ctx.patch->id());
           initializeProperties(coarse, st->problem, cAbs, cSig, cCt);

           const auto& fAbs = ctx.getFineRegion<double>(
               RmcrtLabels::abskg, fineLevel);
           const auto& fSig = ctx.getFineRegion<double>(
               RmcrtLabels::sigmaT4, fineLevel);
           const auto& fCt = ctx.getFineRegion<CellType>(
               RmcrtLabels::cellType, fineLevel);
           const CellRange refined = ctx.patch->cells().refined(rr);
           for (const auto& o : fine.patchesIntersecting(refined)) {
             const CellRange cRegion = o.region.coarsened(rr);
             grid::coarsenAverage(fAbs, rr, cAbs, cRegion);
             grid::coarsenAverage(fSig, rr, cSig, cRegion);
             grid::coarsenCellType(fCt, rr, cCt, cRegion);
           }
         });
  t.addRequires(Requires{RmcrtLabels::abskg, VarType::Double, fineLevel});
  t.addRequires(Requires{RmcrtLabels::sigmaT4, VarType::Double, fineLevel});
  t.addRequires(
      Requires{RmcrtLabels::cellType, VarType::CellTypeVar, fineLevel});
  t.addComputes(Computes{RmcrtLabels::abskg, VarType::Double, 0});
  t.addComputes(Computes{RmcrtLabels::sigmaT4, VarType::Double, 0});
  t.addComputes(Computes{RmcrtLabels::cellType, VarType::CellTypeVar, 0});
  return t;
}

/// Assemble the fine-level (ROI) and coarse-level (whole domain) trace
/// inputs from the staged DataWarehouse regions.
std::vector<TraceLevel> buildTraceLevels(const TaskContext& ctx,
                                         int fineLevel, int roiHalo,
                                         bool twoLevel) {
  std::vector<TraceLevel> levels;
  const grid::Level& fine = ctx.grid->level(fineLevel);

  const auto& fAbs = ctx.getGhosted<double>(RmcrtLabels::abskg, roiHalo);
  const auto& fSig = ctx.getGhosted<double>(RmcrtLabels::sigmaT4, roiHalo);
  const auto& fCt = ctx.getGhosted<CellType>(RmcrtLabels::cellType, roiHalo);
  TraceLevel fineTL;
  fineTL.geom = LevelGeom::from(fine);
  fineTL.fields = RadiationFieldsView{
      FieldView<double>::fromHost(fAbs), FieldView<double>::fromHost(fSig),
      FieldView<CellType>::fromHost(fCt)};
  fineTL.allowed = fAbs.window();
  levels.push_back(fineTL);

  if (twoLevel) {
    const grid::Level& coarse = ctx.grid->level(0);
    const auto& cAbs = ctx.getWholeLevel<double>(RmcrtLabels::abskg, 0);
    const auto& cSig = ctx.getWholeLevel<double>(RmcrtLabels::sigmaT4, 0);
    const auto& cCt = ctx.getWholeLevel<CellType>(RmcrtLabels::cellType, 0);
    TraceLevel coarseTL;
    coarseTL.geom = LevelGeom::from(coarse);
    coarseTL.fields = RadiationFieldsView{
        FieldView<double>::fromHost(cAbs), FieldView<double>::fromHost(cSig),
        FieldView<CellType>::fromHost(cCt)};
    coarseTL.allowed = coarse.cells();
    levels.push_back(coarseTL);
  }
  return levels;
}

Task makeCpuTraceTask(std::shared_ptr<PipelineState> st, int fineLevel,
                      bool twoLevel) {
  Task t("RMCRT::rayTrace", fineLevel, [st, fineLevel,
                                        twoLevel](const TaskContext& ctx) {
    auto levels = buildTraceLevels(ctx, fineLevel, st->roiHalo, twoLevel);
    const WallProperties walls{st->problem.wallSigmaT4OverPi,
                               st->problem.wallEmissivity};
    auto& divQ =
        ctx.newDW->getModifiable<double>(RmcrtLabels::divQ, ctx.patch->id());
    traceDivQ(std::move(levels), walls, *st, ctx.patch->cells(),
              MutableFieldView<double>::fromHost(divQ), tracePool(ctx, *st));
  });
  t.addRequires(Requires{RmcrtLabels::abskg, VarType::Double, fineLevel,
                         st->roiHalo, false});
  t.addRequires(Requires{RmcrtLabels::sigmaT4, VarType::Double, fineLevel,
                         st->roiHalo, false});
  t.addRequires(Requires{RmcrtLabels::cellType, VarType::CellTypeVar,
                         fineLevel, st->roiHalo, false});
  if (twoLevel) {
    t.addRequires(
        Requires{RmcrtLabels::abskg, VarType::Double, 0, 0, true});
    t.addRequires(
        Requires{RmcrtLabels::sigmaT4, VarType::Double, 0, 0, true});
    t.addRequires(
        Requires{RmcrtLabels::cellType, VarType::CellTypeVar, 0, 0, true});
  }
  t.addComputes(Computes{RmcrtLabels::divQ, VarType::Double, 0});
  return t;
}

/// Adaptive trace: like the two-level CPU trace, but the staged ROI
/// window may contain cells no fine patch covers (the fine level is
/// irregular). Those cells arrive zero-filled from staging; prolong the
/// coarse radiation properties into them before marching so rays never
/// cross transparent space. The in-place fill is safe — task actions run
/// sequentially on the scheduler thread and the fill is deterministic
/// and idempotent — and each patch's traced-segment count feeds the
/// measured-cost model when one is supplied.
Task makeAdaptiveTraceTask(std::shared_ptr<PipelineState> st, int fineLevel,
                           amr::CostModel* costs) {
  Task t("RMCRT::rayTraceAdaptive", fineLevel,
         [st, fineLevel, costs](const TaskContext& ctx) {
           const grid::Level& fine = ctx.grid->level(fineLevel);
           const CellRange roi =
               ctx.patch->ghostWindow(st->roiHalo).intersect(fine.cells());
           const auto& cAbs =
               ctx.getWholeLevel<double>(RmcrtLabels::abskg, 0);
           const auto& cSig =
               ctx.getWholeLevel<double>(RmcrtLabels::sigmaT4, 0);
           const auto& cCt =
               ctx.getWholeLevel<CellType>(RmcrtLabels::cellType, 0);
           auto& fAbs = ctx.newDW->getRegionModifiable<double>(
               RmcrtLabels::abskg, fineLevel, roi);
           auto& fSig = ctx.newDW->getRegionModifiable<double>(
               RmcrtLabels::sigmaT4, fineLevel, roi);
           auto& fCt = ctx.newDW->getRegionModifiable<CellType>(
               RmcrtLabels::cellType, fineLevel, roi);
           amr::fillUncoveredFromCoarser(fAbs, roi, fine, cAbs);
           amr::fillUncoveredFromCoarser(fSig, roi, fine, cSig);
           amr::fillUncoveredFromCoarser(fCt, roi, fine, cCt);

           auto levels = buildTraceLevels(ctx, fineLevel, st->roiHalo,
                                          /*twoLevel=*/true);
           if (st->packedCache) {
             // Reuse the rank's fused coarse records across steps: only
             // regions whose fine coverage changed (regrid-migrated
             // patches) re-fuse; everything else is value-identical
             // because the analytic sampler is step-invariant.
             const IntVector rr = fine.refinementRatio();
             std::vector<CellRange> coverage;
             coverage.reserve(fine.patches().size());
             for (const grid::Patch& p : fine.patches())
               coverage.push_back(p.cells().coarsened(rr));
             levels[1].packed =
                 st->packedCache->refresh(levels[1].fields, coverage);
           }
           const WallProperties walls{st->problem.wallSigmaT4OverPi,
                                      st->problem.wallEmissivity};
           auto& divQ = ctx.newDW->getModifiable<double>(
               RmcrtLabels::divQ, ctx.patch->id());
           std::uint64_t segments = 0;
           traceDivQ(std::move(levels), walls, *st, ctx.patch->cells(),
                     MutableFieldView<double>::fromHost(divQ),
                     tracePool(ctx, *st), &segments);
           if (costs)
             costs->record(ctx.patch->id(), static_cast<double>(segments));
         });
  t.addRequires(Requires{RmcrtLabels::abskg, VarType::Double, fineLevel,
                         st->roiHalo, false});
  t.addRequires(Requires{RmcrtLabels::sigmaT4, VarType::Double, fineLevel,
                         st->roiHalo, false});
  t.addRequires(Requires{RmcrtLabels::cellType, VarType::CellTypeVar,
                         fineLevel, st->roiHalo, false});
  t.addRequires(Requires{RmcrtLabels::abskg, VarType::Double, 0, 0, true});
  t.addRequires(Requires{RmcrtLabels::sigmaT4, VarType::Double, 0, 0, true});
  t.addRequires(
      Requires{RmcrtLabels::cellType, VarType::CellTypeVar, 0, 0, true});
  t.addComputes(Computes{RmcrtLabels::divQ, VarType::Double, 0});
  return t;
}

/// Single-level trace: the whole fine level is replicated on every rank
/// ("infinite ghost cells" on the only level).
Task makeSingleLevelTraceTask(std::shared_ptr<PipelineState> st,
                              int fineLevel) {
  Task t("RMCRT::rayTraceSingleLevel", fineLevel,
         [st, fineLevel](const TaskContext& ctx) {
           const grid::Level& fine = ctx.grid->level(fineLevel);
           const auto& abs =
               ctx.getWholeLevel<double>(RmcrtLabels::abskg, fineLevel);
           const auto& sig =
               ctx.getWholeLevel<double>(RmcrtLabels::sigmaT4, fineLevel);
           const auto& ct = ctx.getWholeLevel<CellType>(
               RmcrtLabels::cellType, fineLevel);
           TraceLevel tl;
           tl.geom = LevelGeom::from(fine);
           tl.fields = RadiationFieldsView{
               FieldView<double>::fromHost(abs),
               FieldView<double>::fromHost(sig),
               FieldView<CellType>::fromHost(ct)};
           tl.allowed = fine.cells();
           const WallProperties walls{st->problem.wallSigmaT4OverPi,
                                      st->problem.wallEmissivity};
           auto& divQ = ctx.newDW->getModifiable<double>(
               RmcrtLabels::divQ, ctx.patch->id());
           traceDivQ({tl}, walls, *st, ctx.patch->cells(),
                     MutableFieldView<double>::fromHost(divQ),
                     tracePool(ctx, *st));
         });
  t.addRequires(
      Requires{RmcrtLabels::abskg, VarType::Double, fineLevel, 0, true});
  t.addRequires(
      Requires{RmcrtLabels::sigmaT4, VarType::Double, fineLevel, 0, true});
  t.addRequires(Requires{RmcrtLabels::cellType, VarType::CellTypeVar,
                         fineLevel, 0, true});
  t.addComputes(Computes{RmcrtLabels::divQ, VarType::Double, 0});
  return t;
}

/// One attempt at the device path of the GPU trace task. Throws
/// DeviceOutOfMemory when the device cannot hold the inputs; the caller
/// owns recovery. The per-attempt stream is a local, so stack unwinding
/// drains it before the caller frees any device memory it references.
void runGpuTraceAttempt(const TaskContext& ctx, const PipelineState& st,
                        int fineLevel, gpu::GpuDataWarehouse* gdw) {
  RMCRT_TRACE_SPAN("gpu", "trace_attempt");
  const int pid = ctx.patch->id();

  // Fuse the property triplets into PackedCell records on the host
  // BEFORE creating the stream: stack unwinding then drains the stream
  // before these buffers die, so in-flight H2D copies never read freed
  // memory.
  const auto& fAbs = ctx.getGhosted<double>(RmcrtLabels::abskg, st.roiHalo);
  const auto& fSig = ctx.getGhosted<double>(RmcrtLabels::sigmaT4, st.roiHalo);
  const auto& fCt =
      ctx.getGhosted<CellType>(RmcrtLabels::cellType, st.roiHalo);
  const PackedLevelField finePacked(
      RadiationFieldsView{FieldView<double>::fromHost(fAbs),
                          FieldView<double>::fromHost(fSig),
                          FieldView<CellType>::fromHost(fCt)});
  const auto& cAbs = ctx.getWholeLevel<double>(RmcrtLabels::abskg, 0);
  const auto& cSig = ctx.getWholeLevel<double>(RmcrtLabels::sigmaT4, 0);
  const auto& cCt = ctx.getWholeLevel<CellType>(RmcrtLabels::cellType, 0);
  const PackedLevelField coarsePacked(
      RadiationFieldsView{FieldView<double>::fromHost(cAbs),
                          FieldView<double>::fromHost(cSig),
                          FieldView<CellType>::fromHost(cCt)});

  auto stream = gdw->device().createStream();

  // H2D: ONE fused record array for this patch's ROI (private) ...
  gpu::DeviceVar& dPackedF =
      gdw->putPatchVarRaw(RmcrtLabels::packedRad, pid, finePacked.data(),
                          finePacked.window(), sizeof(PackedCell),
                          stream.get());

  // ... and ONE fused coarse copy through the level database, shared by
  // every patch task (paper Section III-C) — a single transfer where the
  // unpacked layout staged three.
  gpu::DeviceVar& dPackedC = gdw->getOrUploadLevelVarRaw(
      RmcrtLabels::packedRad, 0, coarsePacked.data(), coarsePacked.window(),
      sizeof(PackedCell), pid, stream.get());

  gpu::DeviceVar& dDivQ = gdw->allocatePatchVar(
      RmcrtLabels::divQ, pid, ctx.patch->cells(), sizeof(double));

  // Kernel: the same packed marching code, over device-resident records.
  const LevelGeom fineGeom = LevelGeom::from(ctx.grid->level(fineLevel));
  const LevelGeom coarseGeom = LevelGeom::from(ctx.grid->level(0));
  const CellRange patchCells = ctx.patch->cells();
  const WallProperties walls{st.problem.wallSigmaT4OverPi,
                             st.problem.wallEmissivity};
  const TraceConfig cfg = st.trace;
  const BandModel bands = st.bands;
  stream->enqueueKernel([=, &dPackedF, &dPackedC, &dDivQ] {
    // Packed-only levels: `fields` stays invalid, so the Tracer marches
    // the device records without re-packing.
    TraceLevel fineTL{fineGeom, RadiationFieldsView{}, dPackedF.window,
                      PackedFieldView::fromDevice(dPackedF)};
    TraceLevel coarseTL{coarseGeom, RadiationFieldsView{}, coarseGeom.cells,
                        PackedFieldView::fromDevice(dPackedC)};
    gpu::DeviceVar out = dDivQ;
    // Serial inside the simulated kernel: the device executor's SM
    // workers are the parallelism on this path.
    if (bands.empty()) {
      Tracer tracer({fineTL, coarseTL}, walls, cfg);
      tracer.computeDivQ(patchCells,
                         MutableFieldView<double>::fromDevice(out));
    } else {
      // The band loop marches the SAME device-resident records for every
      // band (kappa scaling lives in the march), so the single H2D
      // upload above serves the whole spectrum.
      SpectralTracer tracer({fineTL, coarseTL}, walls, cfg, bands);
      tracer.computeDivQ(patchCells,
                         MutableFieldView<double>::fromDevice(out));
    }
  });

  // D2H: the result.
  auto& divQ = ctx.newDW->getModifiable<double>(RmcrtLabels::divQ, pid);
  gdw->fetchPatchVar(RmcrtLabels::divQ, pid, divQ, stream.get());
  {
    RMCRT_TRACE_SPAN("gpu", "stream_sync_wait");
    stream->synchronize();
  }

  // Free the per-patch device variables; the level database stays
  // resident for the next patch task.
  gdw->removePatchVar(RmcrtLabels::packedRad, pid);
  gdw->removePatchVar(RmcrtLabels::divQ, pid);
}

/// Free any per-patch device variables a failed attempt left behind.
void releasePatchDeviceVars(gpu::GpuDataWarehouse* gdw, int pid) {
  gdw->removePatchVar(RmcrtLabels::packedRad, pid);
  gdw->removePatchVar(RmcrtLabels::divQ, pid);
}

Task makeGpuTraceTask(std::shared_ptr<PipelineState> st, int fineLevel,
                      gpu::GpuDataWarehouse* gdw) {
  Task t("RMCRT::rayTraceGPU", fineLevel, [st, fineLevel,
                                           gdw](const TaskContext& ctx) {
    // Graceful degradation ladder (DESIGN.md "Failure model"): retry the
    // device path after evicting resident data, then fall back to the CPU
    // tracer over the identical staged inputs — bitwise the same divQ.
    constexpr int kMaxAttempts = 3;
    const int pid = ctx.patch->id();
    for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
      try {
        runGpuTraceAttempt(ctx, *st, fineLevel, gdw);
        return;
      } catch (const gpu::DeviceOutOfMemory& e) {
        RMCRT_TRACE_INSTANT("gpu", "oom_retry");
        // The attempt's stream drained during unwinding, so freeing the
        // device memory its copies referenced is safe now.
        releasePatchDeviceVars(gdw, pid);
        if (attempt == kMaxAttempts) {
          RMCRT_WARN("GPU trace patch " << pid << ": " << e.what()
                                        << "; falling back to CPU tracer");
          break;
        }
        const std::size_t freed = gdw->evictLevelVars();
        RMCRT_WARN("GPU trace patch " << pid << " attempt " << attempt
                                      << ": " << e.what() << "; evicted "
                                      << freed << " level-db bytes, retrying");
        std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
      }
    }

    gdw->device().noteCpuFallback();
    auto levels = buildTraceLevels(ctx, fineLevel, st->roiHalo,
                                   /*twoLevel=*/true);
    const WallProperties walls{st->problem.wallSigmaT4OverPi,
                               st->problem.wallEmissivity};
    auto& divQ =
        ctx.newDW->getModifiable<double>(RmcrtLabels::divQ, pid);
    traceDivQ(std::move(levels), walls, *st, ctx.patch->cells(),
              MutableFieldView<double>::fromHost(divQ), tracePool(ctx, *st));
  });
  t.addRequires(Requires{RmcrtLabels::abskg, VarType::Double, fineLevel,
                         st->roiHalo, false});
  t.addRequires(Requires{RmcrtLabels::sigmaT4, VarType::Double, fineLevel,
                         st->roiHalo, false});
  t.addRequires(Requires{RmcrtLabels::cellType, VarType::CellTypeVar,
                         fineLevel, st->roiHalo, false});
  t.addRequires(Requires{RmcrtLabels::abskg, VarType::Double, 0, 0, true});
  t.addRequires(Requires{RmcrtLabels::sigmaT4, VarType::Double, 0, 0, true});
  t.addRequires(
      Requires{RmcrtLabels::cellType, VarType::CellTypeVar, 0, 0, true});
  t.addComputes(Computes{RmcrtLabels::divQ, VarType::Double, 0});
  return t;
}

}  // namespace

void RmcrtComponent::registerTwoLevelPipeline(runtime::Scheduler& sched,
                                              const RmcrtSetup& setup) {
  auto st = std::make_shared<PipelineState>(
      PipelineState{setup.problem, setup.trace, setup.roiHalo, setup.pool,
                    setup.packedCache, setup.bands});
  const int fineLevel = sched.grid().numLevels() - 1;
  sched.addTask(makeInitTask(st, fineLevel));
  sched.addTask(makeCoarsenTask(fineLevel));
  sched.addTask(makeCpuTraceTask(st, fineLevel, /*twoLevel=*/true));
}

void RmcrtComponent::registerAdaptivePipeline(runtime::Scheduler& sched,
                                              const RmcrtSetup& setup,
                                              amr::CostModel* costs) {
  auto st = std::make_shared<PipelineState>(
      PipelineState{setup.problem, setup.trace, setup.roiHalo, setup.pool,
                    setup.packedCache, setup.bands});
  const int fineLevel = sched.grid().numLevels() - 1;
  sched.addTask(makeInitTask(st, fineLevel));
  sched.addTask(makeUpdateCoarseTask(st, fineLevel));
  sched.addTask(makeAdaptiveTraceTask(st, fineLevel, costs));
}

amr::AmrEngine::PropertySampler RmcrtComponent::makePropertySampler(
    RadiationProblem problem) {
  return [problem = std::move(problem)](
             const grid::Level& level, grid::CCVariable<double>& abskg,
             grid::CCVariable<double>& sigmaT4) {
    grid::CCVariable<CellType> ct(abskg.window(), CellType::Flow);
    initializeProperties(level, problem, abskg, sigmaT4, ct);
  };
}

void RmcrtComponent::registerSingleLevelPipeline(runtime::Scheduler& sched,
                                                 const RmcrtSetup& setup) {
  auto st = std::make_shared<PipelineState>(
      PipelineState{setup.problem, setup.trace, setup.roiHalo, setup.pool,
                    setup.packedCache, setup.bands});
  const int fineLevel = sched.grid().numLevels() - 1;
  sched.addTask(makeInitTask(st, fineLevel));
  sched.addTask(makeSingleLevelTraceTask(st, fineLevel));
}

void RmcrtComponent::registerTwoLevelGpuPipeline(
    runtime::Scheduler& sched, const RmcrtSetup& setup,
    gpu::GpuDataWarehouse& gdw) {
  auto st = std::make_shared<PipelineState>(
      PipelineState{setup.problem, setup.trace, setup.roiHalo, setup.pool,
                    setup.packedCache, setup.bands});
  const int fineLevel = sched.grid().numLevels() - 1;
  sched.addTask(makeInitTask(st, fineLevel));
  sched.addTask(makeCoarsenTask(fineLevel));
  sched.addTask(makeGpuTraceTask(st, fineLevel, &gdw));
}

grid::CCVariable<double> RmcrtComponent::solveSerialSingleLevel(
    const grid::Grid& grid, const RmcrtSetup& setup) {
  const grid::Level& fine = grid.fineLevel();
  grid::CCVariable<double> abskg(fine.cells(), 0.0);
  grid::CCVariable<double> sig(fine.cells(), 0.0);
  grid::CCVariable<CellType> ct(fine.cells(), CellType::Flow);
  initializeProperties(fine, setup.problem, abskg, sig, ct);

  TraceLevel tl{LevelGeom::from(fine),
                RadiationFieldsView{FieldView<double>::fromHost(abskg),
                                    FieldView<double>::fromHost(sig),
                                    FieldView<CellType>::fromHost(ct)},
                fine.cells()};
  const WallProperties walls{setup.problem.wallSigmaT4OverPi,
                             setup.problem.wallEmissivity};
  grid::CCVariable<double> divQ(fine.cells(), 0.0);
  const PipelineState st{setup.problem, setup.trace, setup.roiHalo,
                         setup.pool, setup.packedCache, setup.bands};
  traceDivQ({tl}, walls, st, fine.cells(),
            MutableFieldView<double>::fromHost(divQ), setup.pool);
  return divQ;
}

grid::CCVariable<double> RmcrtComponent::solveSerialTwoLevel(
    const grid::Grid& grid, const RmcrtSetup& setup) {
  const grid::Level& fine = grid.fineLevel();
  const grid::Level& coarse = grid.coarseLevel();
  const IntVector rr = fine.refinementRatio();

  grid::CCVariable<double> fAbs(fine.cells(), 0.0), fSig(fine.cells(), 0.0);
  grid::CCVariable<CellType> fCt(fine.cells(), CellType::Flow);
  initializeProperties(fine, setup.problem, fAbs, fSig, fCt);

  grid::CCVariable<double> cAbs(coarse.cells(), 0.0),
      cSig(coarse.cells(), 0.0);
  grid::CCVariable<CellType> cCt(coarse.cells(), CellType::Flow);
  grid::coarsenAverage(fAbs, rr, cAbs, coarse.cells());
  grid::coarsenAverage(fSig, rr, cSig, coarse.cells());
  grid::coarsenCellType(fCt, rr, cCt, coarse.cells());

  const WallProperties walls{setup.problem.wallSigmaT4OverPi,
                             setup.problem.wallEmissivity};
  grid::CCVariable<double> divQ(fine.cells(), 0.0);
  const PipelineState st{setup.problem, setup.trace, setup.roiHalo,
                         setup.pool, setup.packedCache, setup.bands};

  // Trace per fine patch with its ROI, as the distributed pipeline would.
  for (const grid::Patch& p : fine.patches()) {
    const CellRange roi =
        p.ghostWindow(setup.roiHalo).intersect(fine.cells());
    TraceLevel fineTL{LevelGeom::from(fine),
                      RadiationFieldsView{
                          FieldView<double>::fromHost(fAbs),
                          FieldView<double>::fromHost(fSig),
                          FieldView<CellType>::fromHost(fCt)},
                      roi};
    TraceLevel coarseTL{LevelGeom::from(coarse),
                        RadiationFieldsView{
                            FieldView<double>::fromHost(cAbs),
                            FieldView<double>::fromHost(cSig),
                            FieldView<CellType>::fromHost(cCt)},
                        coarse.cells()};
    traceDivQ({fineTL, coarseTL}, walls, st, p.cells(),
              MutableFieldView<double>::fromHost(divQ), setup.pool);
  }
  return divQ;
}

}  // namespace rmcrt::core
