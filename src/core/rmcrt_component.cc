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

/// Every task captures one immutable copy of the setup. Its packedCache
/// outlives the copy a re-registration replaces, so packed coarse records
/// persist across radiation steps.
using SetupPtr = std::shared_ptr<const RmcrtSetup>;

/// The radiative properties every level carries, in staging order.
struct PropertyLabel {
  const char* label;
  VarType type;
};
constexpr PropertyLabel kProperties[] = {
    {RmcrtLabels::abskg, VarType::Double},
    {RmcrtLabels::sigmaT4, VarType::Double},
    {RmcrtLabels::cellType, VarType::CellTypeVar}};

void addPropertyComputes(Task& t) {
  for (const PropertyLabel& p : kProperties)
    t.addComputes(Computes{p.label, p.type, 0});
}

/// The two-level trace inputs: the fine properties over the patch's ROI
/// (a halo of \p roiHalo cells) plus the coarse properties over the whole
/// level (the "infinite ghost cells" requirement).
void addTraceRequires(Task& t, int fineLevel, int roiHalo) {
  for (const PropertyLabel& p : kProperties)
    t.addRequires(Requires{p.label, p.type, fineLevel, roiHalo, false});
  for (const PropertyLabel& p : kProperties)
    t.addRequires(Requires{p.label, p.type, 0, 0, true});
}

WallProperties wallsOf(const RadiationProblem& problem) {
  return {problem.wallSigmaT4OverPi, problem.wallEmissivity};
}

/// The pool a trace task should tile on: the scheduler-provided one when
/// present (bounds node-wide parallelism), else the setup's.
ThreadPool* tracePool(const TaskContext& ctx, const RmcrtSetup& st) {
  return ctx.pool != nullptr ? ctx.pool : st.pool;
}

/// The one dispatch point between the gray tracer and the spectral band
/// pipeline, shared by every trace task and the serial solvers. An
/// empty band model takes the exact gray path; otherwise the
/// SpectralTracer band loop runs over the SAME trace levels (one shared
/// record set). \p segmentsOut, when non-null, receives the traced
/// segment count (the measured-cost model's input).
void traceDivQ(std::vector<TraceLevel> levels, const RmcrtSetup& st,
               const CellRange& cells, MutableFieldView<double> divQ,
               ThreadPool* pool, std::uint64_t* segmentsOut = nullptr) {
  const WallProperties walls = wallsOf(st.problem);
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

Task makeInitTask(SetupPtr st, int fineLevel) {
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
  addPropertyComputes(t);
  return t;
}

/// Coarse radiation properties: average the fine data of every fine patch
/// overlapping this coarse patch. When the overlaps leave part of the
/// patch uncovered (an adaptive fine level), the patch is first sampled
/// from the analytic problem, so unrefined regions carry real coarse data,
/// not zeros. A uniformly tiled fine level always covers the patch and
/// nothing is sampled; coarsenAverage works per coarse cell, so coarsening
/// overlap by overlap writes the same bits as coarsening the whole patch.
/// Adaptive fine patch boxes are rr-aligned in coarse space (the
/// clusterer works on a coarse-cell lattice), so their overlaps coarsen
/// exactly.
Task makeCoarsenTask(SetupPtr st, int fineLevel) {
  Task t("RMCRT::coarsenProperties", /*level=*/0,
         [st, fineLevel](const TaskContext& ctx) {
           const grid::Level& fine = ctx.grid->level(fineLevel);
           const IntVector rr = fine.refinementRatio();
           auto& cAbs = ctx.newDW->getModifiable<double>(
               RmcrtLabels::abskg, ctx.patch->id());
           auto& cSig = ctx.newDW->getModifiable<double>(
               RmcrtLabels::sigmaT4, ctx.patch->id());
           auto& cCt = ctx.newDW->getModifiable<CellType>(
               RmcrtLabels::cellType, ctx.patch->id());
           const CellRange refined = ctx.patch->cells().refined(rr);
           const auto overlaps = fine.patchesIntersecting(refined);
           std::int64_t covered = 0;
           for (const auto& o : overlaps) covered += o.region.volume();
           if (covered < refined.volume())
             initializeProperties(ctx.grid->level(0), st->problem, cAbs,
                                  cSig, cCt);

           const auto& fAbs = ctx.getFineRegion<double>(
               RmcrtLabels::abskg, fineLevel);
           const auto& fSig = ctx.getFineRegion<double>(
               RmcrtLabels::sigmaT4, fineLevel);
           const auto& fCt = ctx.getFineRegion<CellType>(
               RmcrtLabels::cellType, fineLevel);
           for (const auto& o : overlaps) {
             const CellRange cRegion = o.region.coarsened(rr);
             grid::coarsenAverage(fAbs, rr, cAbs, cRegion);
             grid::coarsenAverage(fSig, rr, cSig, cRegion);
             grid::coarsenCellType(fCt, rr, cCt, cRegion);
           }
         });
  for (const PropertyLabel& p : kProperties)
    t.addRequires(Requires{p.label, p.type, fineLevel});
  addPropertyComputes(t);
  return t;
}

/// Assemble the fine-level (ROI) and coarse-level (whole domain) trace
/// inputs from the staged DataWarehouse regions.
std::vector<TraceLevel> buildTraceLevels(const TaskContext& ctx,
                                         int fineLevel, int roiHalo) {
  const auto& fAbs = ctx.getGhosted<double>(RmcrtLabels::abskg, roiHalo);
  const auto& fSig = ctx.getGhosted<double>(RmcrtLabels::sigmaT4, roiHalo);
  const auto& fCt = ctx.getGhosted<CellType>(RmcrtLabels::cellType, roiHalo);
  TraceLevel fineTL;
  fineTL.geom = LevelGeom::from(ctx.grid->level(fineLevel));
  fineTL.fields = RadiationFieldsView{
      FieldView<double>::fromHost(fAbs), FieldView<double>::fromHost(fSig),
      FieldView<CellType>::fromHost(fCt)};
  fineTL.allowed = fAbs.window();

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
  return {fineTL, coarseTL};
}

/// Prolong the whole-level coarse \p label into the cells of the staged
/// fine \p roi window that no fine patch covers.
template <typename T>
void fillUncovered(const TaskContext& ctx, const char* label, int fineLevel,
                   const CellRange& roi) {
  amr::fillUncoveredFromCoarser(
      ctx.newDW->getRegionModifiable<T>(label, fineLevel, roi), roi,
      ctx.grid->level(fineLevel), ctx.getWholeLevel<T>(label, 0));
}

/// The host trace of one fine patch: the CPU trace task's action and the
/// GPU trace task's CPU fallback. On an adaptive fine level the staged ROI
/// window may contain cells no fine patch covers. Those cells arrive
/// zero-filled from staging, so the coarse radiation properties are
/// prolonged into them before marching and rays never cross transparent
/// space. The in-place fill is safe: task actions run sequentially on the
/// scheduler thread, and the fill is deterministic and idempotent. With a
/// packedCache the coarse records are reused across steps; with \p costs
/// the patch's traced-segment count feeds the measured-cost model.
void traceOnHost(const TaskContext& ctx, const RmcrtSetup& st, int fineLevel,
                 amr::CostModel* costs) {
  const grid::Level& fine = ctx.grid->level(fineLevel);
  if (!fine.uniformlyTiled()) {
    const CellRange roi =
        ctx.patch->ghostWindow(st.roiHalo).intersect(fine.cells());
    fillUncovered<double>(ctx, RmcrtLabels::abskg, fineLevel, roi);
    fillUncovered<double>(ctx, RmcrtLabels::sigmaT4, fineLevel, roi);
    fillUncovered<CellType>(ctx, RmcrtLabels::cellType, fineLevel, roi);
  }

  auto levels = buildTraceLevels(ctx, fineLevel, st.roiHalo);
  if (st.packedCache) {
    // Reuse the rank's fused coarse records across steps: only regions
    // whose fine coverage changed (regrid-migrated patches) re-fuse;
    // everything else is value-identical because the analytic sampler is
    // step-invariant.
    const IntVector rr = fine.refinementRatio();
    std::vector<CellRange> coverage;
    coverage.reserve(fine.patches().size());
    for (const grid::Patch& p : fine.patches())
      coverage.push_back(p.cells().coarsened(rr));
    levels[1].packed = st.packedCache->refresh(levels[1].fields, coverage);
  }
  auto& divQ =
      ctx.newDW->getModifiable<double>(RmcrtLabels::divQ, ctx.patch->id());
  std::uint64_t segments = 0;
  traceDivQ(std::move(levels), st, ctx.patch->cells(),
            MutableFieldView<double>::fromHost(divQ), tracePool(ctx, st),
            &segments);
  if (costs)
    costs->record(ctx.patch->id(), static_cast<double>(segments));
}

Task makeCpuTraceTask(SetupPtr st, int fineLevel, amr::CostModel* costs) {
  Task t("RMCRT::rayTrace", fineLevel,
         [st, fineLevel, costs](const TaskContext& ctx) {
           traceOnHost(ctx, *st, fineLevel, costs);
         });
  addTraceRequires(t, fineLevel, st->roiHalo);
  t.addComputes(Computes{RmcrtLabels::divQ, VarType::Double, 0});
  return t;
}

/// Single-level trace: the whole fine level is replicated on every rank
/// ("infinite ghost cells" on the only level).
Task makeSingleLevelTraceTask(SetupPtr st, int fineLevel) {
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
           auto& divQ = ctx.newDW->getModifiable<double>(
               RmcrtLabels::divQ, ctx.patch->id());
           traceDivQ({tl}, *st, ctx.patch->cells(),
                     MutableFieldView<double>::fromHost(divQ),
                     tracePool(ctx, *st));
         });
  for (const PropertyLabel& p : kProperties)
    t.addRequires(Requires{p.label, p.type, fineLevel, 0, true});
  t.addComputes(Computes{RmcrtLabels::divQ, VarType::Double, 0});
  return t;
}

/// One attempt at the device path of the GPU trace task. Throws
/// DeviceOutOfMemory when the device cannot hold the inputs; the caller
/// owns recovery. The per-attempt stream is a local, so stack unwinding
/// drains it before the caller frees any device memory it references.
void runGpuTraceAttempt(const TaskContext& ctx, const RmcrtSetup& st,
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
  const WallProperties walls = wallsOf(st.problem);
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

Task makeGpuTraceTask(SetupPtr st, int fineLevel,
                      gpu::GpuDataWarehouse* gdw) {
  Task t("RMCRT::rayTraceGPU", fineLevel, [st, fineLevel,
                                           gdw](const TaskContext& ctx) {
    // Graceful degradation ladder (DESIGN.md "Failure model"): retry the
    // device path after evicting resident data, then fall back to the CPU
    // trace task's host routine over the identical staged inputs —
    // bitwise the same divQ.
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
    traceOnHost(ctx, *st, fineLevel, /*costs=*/nullptr);
  });
  addTraceRequires(t, fineLevel, st->roiHalo);
  t.addComputes(Computes{RmcrtLabels::divQ, VarType::Double, 0});
  return t;
}

}  // namespace

void RmcrtComponent::registerTwoLevelPipeline(runtime::Scheduler& sched,
                                              const RmcrtSetup& setup,
                                              amr::CostModel* costs) {
  auto st = std::make_shared<const RmcrtSetup>(setup);
  const int fineLevel = sched.grid().numLevels() - 1;
  sched.addTask(makeInitTask(st, fineLevel));
  sched.addTask(makeCoarsenTask(st, fineLevel));
  sched.addTask(makeCpuTraceTask(st, fineLevel, costs));
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
  auto st = std::make_shared<const RmcrtSetup>(setup);
  const int fineLevel = sched.grid().numLevels() - 1;
  sched.addTask(makeInitTask(st, fineLevel));
  sched.addTask(makeSingleLevelTraceTask(st, fineLevel));
}

void RmcrtComponent::registerTwoLevelGpuPipeline(
    runtime::Scheduler& sched, const RmcrtSetup& setup,
    gpu::GpuDataWarehouse& gdw) {
  auto st = std::make_shared<const RmcrtSetup>(setup);
  const int fineLevel = sched.grid().numLevels() - 1;
  sched.addTask(makeInitTask(st, fineLevel));
  sched.addTask(makeCoarsenTask(st, fineLevel));
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
  grid::CCVariable<double> divQ(fine.cells(), 0.0);
  traceDivQ({tl}, setup, fine.cells(),
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

  grid::CCVariable<double> divQ(fine.cells(), 0.0);

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
    traceDivQ({fineTL, coarseTL}, setup, p.cells(),
              MutableFieldView<double>::fromHost(divQ), setup.pool);
  }
  return divQ;
}

}  // namespace rmcrt::core
