#include "core/rmcrt_component.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

/// Every task captures one immutable copy of the setup.
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

/// Views of one level's host property variables, the packer's input.
RadiationFieldsView hostViews(const CCVariable<double>& abskg,
                              const CCVariable<double>& sigmaT4,
                              const CCVariable<CellType>& cellType) {
  return {FieldView<double>::fromHost(abskg),
          FieldView<double>::fromHost(sigmaT4),
          FieldView<CellType>::fromHost(cellType)};
}

/// \p problem sampled at the cell centers of the whole \p level.
struct LevelFields {
  CCVariable<double> abskg, sigmaT4;
  CCVariable<CellType> cellType;

  LevelFields(const grid::Level& level, const RadiationProblem& problem)
      : abskg(level.cells(), 0.0),
        sigmaT4(level.cells(), 0.0),
        cellType(level.cells(), CellType::Flow) {
    initializeProperties(level, problem, abskg, sigmaT4, cellType);
  }
  RadiationFieldsView views() const {
    return hostViews(abskg, sigmaT4, cellType);
  }
};

/// The host divQ trace shared by every CPU trace task (and the GPU task's
/// CPU fallback) and the serial solvers; returns the traced segment count
/// (the measured-cost model's input).
std::uint64_t traceDivQ(std::vector<TraceLevel> levels, const RmcrtSetup& st,
                        const CellRange& cells, MutableFieldView<double> divQ,
                        ThreadPool* pool) {
  Tracer tracer(std::move(levels), wallsOf(st.problem), st.trace);
  tracer.computeDivQ(cells, divQ, pool);
  return tracer.segmentCount();
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

/// Prolong the whole-level coarse \p label into the cells of the staged
/// fine \p roi window that no fine patch covers.
template <typename T>
void fillUncovered(const TaskContext& ctx, const char* label, int fineLevel,
                   const CellRange& roi) {
  amr::fillUncoveredFromCoarser(
      ctx.newDW->getRegionModifiable<T>(label, fineLevel, roi), roi,
      ctx.grid->level(fineLevel), ctx.getWholeLevel<T>(label, 0));
}

/// A registration's record set of the whole \p level, shared by every
/// trace task it registered on one rank: the first task packs \p records
/// from the staged whole-level variables and later tasks read them. The
/// set dies with the tasks (the next step's clearTasks), so it lives one
/// registration, like the level database's device copy. Task actions run
/// one at a time on the rank's scheduler thread (Scheduler::runPhase), so
/// packing on first use needs no lock, and the set is complete before any
/// task creates a stream that reads it.
const PackedLevelField& sharedRecords(const TaskContext& ctx, int level,
                                      PackedLevelField& records) {
  if (!records.valid())
    records.pack(
        hostViews(ctx.getWholeLevel<double>(RmcrtLabels::abskg, level),
                  ctx.getWholeLevel<double>(RmcrtLabels::sigmaT4, level),
                  ctx.getWholeLevel<CellType>(RmcrtLabels::cellType, level)));
  return records;
}

/// The inputs of one two-level trace task: the patch's ROI records (the
/// H2D source of the GPU task) and the registration's coarse records (the
/// level database's upload source).
struct TraceInput {
  PackedLevelField roi;
  const PackedLevelField* coarse = nullptr;
  LevelGeom fineGeom;
  LevelGeom coarseGeom;

  /// The host tracer's levels.
  std::vector<TraceLevel> levels() const {
    return {{fineGeom, roi.window(), roi.view()},
            {coarseGeom, coarseGeom.cells, coarse->view()}};
  }
};

/// The one input routine of every two-level trace task. On an adaptive
/// fine level the staged ROI window may contain cells no fine patch
/// covers; they arrive zero-filled, so the coarse properties are first
/// prolonged into them and rays never cross transparent space. The
/// in-place fill is deterministic and idempotent. Then the ROI is packed,
/// and the coarse records come from \p coarse, the registration's set.
TraceInput traceInput(const TaskContext& ctx, const RmcrtSetup& st,
                      int fineLevel, PackedLevelField& coarse) {
  const grid::Level& fine = ctx.grid->level(fineLevel);
  const CellRange roi = runtime::requiredWindow(
      *ctx.grid, *ctx.patch,
      Requires{RmcrtLabels::abskg, VarType::Double, fineLevel, st.roiHalo});
  if (!fine.uniformlyTiled()) {
    fillUncovered<double>(ctx, RmcrtLabels::abskg, fineLevel, roi);
    fillUncovered<double>(ctx, RmcrtLabels::sigmaT4, fineLevel, roi);
    fillUncovered<CellType>(ctx, RmcrtLabels::cellType, fineLevel, roi);
  }
  return TraceInput{
      PackedLevelField(hostViews(
          ctx.getGhosted<double>(RmcrtLabels::abskg, st.roiHalo),
          ctx.getGhosted<double>(RmcrtLabels::sigmaT4, st.roiHalo),
          ctx.getGhosted<CellType>(RmcrtLabels::cellType, st.roiHalo))),
      &sharedRecords(ctx, 0, coarse), LevelGeom::from(fine),
      LevelGeom::from(ctx.grid->level(0))};
}

/// The host trace of one fine patch: the CPU trace task's action and the
/// GPU trace task's CPU fallback. Returns the traced segment count.
std::uint64_t traceOnHost(const TaskContext& ctx, const RmcrtSetup& st,
                          const TraceInput& in) {
  auto& divQ =
      ctx.newDW->getModifiable<double>(RmcrtLabels::divQ, ctx.patch->id());
  return traceDivQ(in.levels(), st, ctx.patch->cells(),
                   MutableFieldView<double>::fromHost(divQ), st.pool);
}

/// With \p costs, each patch's traced-segment count feeds the
/// measured-cost model.
Task makeCpuTraceTask(SetupPtr st, int fineLevel, amr::CostModel* costs) {
  Task t("RMCRT::rayTrace", fineLevel,
         [st, fineLevel, costs, coarse = std::make_shared<PackedLevelField>()](
             const TaskContext& ctx) {
           const std::uint64_t segments = traceOnHost(
               ctx, *st, traceInput(ctx, *st, fineLevel, *coarse));
           if (costs)
             costs->record(ctx.patch->id(), static_cast<double>(segments));
         });
  addTraceRequires(t, fineLevel, st->roiHalo);
  t.addComputes(Computes{RmcrtLabels::divQ, VarType::Double, 0});
  return t;
}

/// Single-level trace: the whole fine level is replicated on every rank
/// ("infinite ghost cells" on the only level), and its records are shared
/// by every patch task of the registration.
Task makeSingleLevelTraceTask(SetupPtr st, int fineLevel) {
  Task t("RMCRT::rayTraceSingleLevel", fineLevel,
         [st, fineLevel, records = std::make_shared<PackedLevelField>()](
             const TaskContext& ctx) {
           const grid::Level& fine = ctx.grid->level(fineLevel);
           const TraceLevel tl{LevelGeom::from(fine), fine.cells(),
                               sharedRecords(ctx, fineLevel, *records).view()};
           auto& divQ = ctx.newDW->getModifiable<double>(
               RmcrtLabels::divQ, ctx.patch->id());
           traceDivQ({tl}, *st, ctx.patch->cells(),
                     MutableFieldView<double>::fromHost(divQ), st->pool);
         });
  for (const PropertyLabel& p : kProperties)
    t.addRequires(Requires{p.label, p.type, fineLevel, 0, true});
  t.addComputes(Computes{RmcrtLabels::divQ, VarType::Double, 0});
  return t;
}

/// One attempt at the device path of the GPU trace task, co-traced: the
/// kernel and the rank thread claim tiles of the patch from one shared
/// counter until none remain. The kernel marches the device records; the
/// rank thread, instead of blocking on the stream, marches the host
/// records \p in holds, which are the H2D sources. Both are the same
/// bytes and every cell's rays are fixed by (seed, cell, ray), so divQ is
/// bitwise the serial result however the tiles split. Throws
/// DeviceOutOfMemory when the device cannot hold the inputs; the caller
/// owns recovery. Co-tracing starts only after every device allocation
/// has succeeded.
void runGpuTraceAttempt(const TaskContext& ctx, const RmcrtSetup& st,
                        const TraceInput& in, gpu::GpuDataWarehouse* gdw) {
  RMCRT_TRACE_SPAN("gpu", "trace_attempt");
  const int pid = ctx.patch->id();
  const CellRange patchCells = ctx.patch->cells();

  // Everything the stream's operations touch is declared BEFORE the
  // stream: stack unwinding then drains the stream before these die, so
  // in-flight copies and the kernel never reach freed memory. The input
  // records belong to the task and outlive the attempt. The co-trace
  // state: tiles of at most 64 cells (the floor adaptiveTileSize stops
  // at, 4^3 from the default 8^3, so a 16^3 patch splits 64 ways), the
  // shared claim counter, which tiles the kernel took, its tracer (read
  // for the ray gauges) and the D2H staging those tiles merge from. The
  // host never writes device memory, and the D2H never lands on a cell
  // the host traced.
  const std::vector<CellRange> tiles = tileCells(
      patchCells,
      adaptiveTileSize(patchCells, st.trace.tileSize,
                       static_cast<std::size_t>(patchCells.volume())));
  std::atomic<std::size_t> nextTile{0};
  const auto claimTile = [&nextTile] { return nextTile.fetch_add(1); };
  std::vector<char> kernelTile(tiles.size(), 0);
  std::optional<Tracer> kernelTracer;
  grid::CCVariable<double> staged(patchCells, 0.0);

  auto stream = gdw->device().createStream();

  // H2D: ONE fused record array for this patch's ROI (private) ...
  gpu::DeviceVar& dPackedF = gdw->putPatchVarRaw(
      RmcrtLabels::packedRad, pid, in.roi.data(), in.roi.window(),
      sizeof(PackedCell), stream.get());

  // ... and ONE fused coarse copy through the level database, shared by
  // every patch task (paper Section III-C) and uploaded from the
  // registration's host record set — a single transfer where the
  // unpacked layout staged three.
  gpu::DeviceVar& dPackedC = gdw->getOrUploadLevelVarRaw(
      RmcrtLabels::packedRad, 0, in.coarse->data(), in.coarse->window(),
      sizeof(PackedCell), pid, stream.get());

  gpu::DeviceVar& dDivQ = gdw->allocatePatchVar(
      RmcrtLabels::divQ, pid, patchCells, sizeof(double));

  // Kernel: the same packed marching code, over device-resident records.
  // Every band marches the same records, so the one H2D upload above
  // serves the whole spectrum.
  const WallProperties walls = wallsOf(st.problem);
  const TraceConfig& cfg = st.trace;
  stream->enqueueKernel([&tiles, claimTile, &kernelTile, &kernelTracer,
                         &dPackedF, &dPackedC, &dDivQ,
                         fineGeom = in.fineGeom, coarseGeom = in.coarseGeom,
                         walls, cfg] {
    const Tracer& tracer = kernelTracer.emplace(
        std::vector<TraceLevel>{
            {fineGeom, dPackedF.window, PackedFieldView::fromDevice(dPackedF)},
            {coarseGeom, coarseGeom.cells,
             PackedFieldView::fromDevice(dPackedC)}},
        walls, cfg);
    gpu::DeviceVar out = dDivQ;
    for (std::size_t i = claimTile(); i < tiles.size(); i = claimTile()) {
      kernelTile[i] = 1;
      tracer.computeDivQTile(tiles[i],
                             MutableFieldView<double>::fromDevice(out));
    }
  });

  // D2H: the kernel's result, staged.
  gdw->fetchPatchVar(RmcrtLabels::divQ, pid, staged, stream.get());

  // The host half: claim tiles beside the kernel, straight into divQ.
  auto& divQ = ctx.newDW->getModifiable<double>(RmcrtLabels::divQ, pid);
  const Tracer hostTracer(in.levels(), walls, cfg);
  std::uint64_t hostTiles = 0;
  {
    RMCRT_TRACE_SPAN("tracer", "cotrace_host");
    for (std::size_t i = claimTile(); i < tiles.size(); i = claimTile()) {
      hostTracer.computeDivQTile(tiles[i],
                                 MutableFieldView<double>::fromHost(divQ));
      ++hostTiles;
    }
  }
  {
    RMCRT_TRACE_SPAN("gpu", "stream_sync_wait");
    stream->synchronize();
  }

  // Merge the kernel's tiles; the host's are already in place.
  for (std::size_t i = 0; i < tiles.size(); ++i)
    if (kernelTile[i])
      for (const IntVector& c : tiles[i]) divQ[c] = staged[c];
  gdw->device().noteCoTracedTiles(tiles.size() - hostTiles, hostTiles);
  Tracer::publishRayGauges({&*kernelTracer, &hostTracer});

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
  auto coarse = std::make_shared<PackedLevelField>();
  Task t("RMCRT::rayTraceGPU", fineLevel, [st, fineLevel, gdw,
                                           coarse](const TaskContext& ctx) {
    // The CPU task's inputs, built once for every attempt.
    const TraceInput in = traceInput(ctx, *st, fineLevel, *coarse);
    // Graceful degradation ladder (DESIGN.md "Failure model"): retry the
    // device path after evicting resident data, then fall back to the CPU
    // trace task's host routine over the same inputs — bitwise the same
    // divQ.
    constexpr int kMaxAttempts = 3;
    const int pid = ctx.patch->id();
    for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
      try {
        runGpuTraceAttempt(ctx, *st, in, gdw);
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
    traceOnHost(ctx, *st, in);
  });
  addTraceRequires(t, fineLevel, st->roiHalo);
  t.addComputes(Computes{RmcrtLabels::divQ, VarType::Double, 0});
  return t;
}

}  // namespace

void validateSetup(const RmcrtSetup& setup) {
  validateTraceConfig(setup.trace);
  if (setup.roiHalo < 0)
    throw std::invalid_argument(
        "RmcrtSetup::roiHalo must be >= 0 (got " +
        std::to_string(setup.roiHalo) + ")");
}

void RmcrtComponent::registerTwoLevelPipeline(runtime::Scheduler& sched,
                                              const RmcrtSetup& setup,
                                              amr::CostModel* costs) {
  validateSetup(setup);
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
  validateSetup(setup);
  auto st = std::make_shared<const RmcrtSetup>(setup);
  const int fineLevel = sched.grid().numLevels() - 1;
  sched.addTask(makeInitTask(st, fineLevel));
  sched.addTask(makeSingleLevelTraceTask(st, fineLevel));
}

void RmcrtComponent::registerTwoLevelGpuPipeline(
    runtime::Scheduler& sched, const RmcrtSetup& setup,
    gpu::GpuDataWarehouse& gdw) {
  validateSetup(setup);
  // The coarse level-database copy lives one registration, like the host
  // record set the trace task registered here uploads it from: the first
  // patch task re-uploads this step's coarse properties, which the kernel
  // must march exactly as the host half does.
  gdw.invalidateLevel(0);
  auto st = std::make_shared<const RmcrtSetup>(setup);
  const int fineLevel = sched.grid().numLevels() - 1;
  sched.addTask(makeInitTask(st, fineLevel));
  sched.addTask(makeCoarsenTask(st, fineLevel));
  sched.addTask(makeGpuTraceTask(st, fineLevel, &gdw));
}

grid::CCVariable<double> RmcrtComponent::solveSerialSingleLevel(
    const grid::Grid& grid, const RmcrtSetup& setup) {
  const grid::Level& fine = grid.fineLevel();
  const PackedLevelField records(LevelFields(fine, setup.problem).views());
  grid::CCVariable<double> divQ(fine.cells(), 0.0);
  traceDivQ({{LevelGeom::from(fine), fine.cells(), records.view()}}, setup,
            fine.cells(), MutableFieldView<double>::fromHost(divQ),
            setup.pool);
  return divQ;
}

std::vector<TraceLevel> TwoLevelRecords::levels(const grid::Grid& grid,
                                                const CellRange& roi) const {
  const grid::Level& coarseLevel = grid.coarseLevel();
  return {{LevelGeom::from(grid.fineLevel()), roi, fine.view()},
          {LevelGeom::from(coarseLevel), coarseLevel.cells(), coarse.view()}};
}

TwoLevelRecords sampleTwoLevelRecords(const grid::Grid& grid,
                                      const RadiationProblem& problem) {
  const grid::Level& fine = grid.fineLevel();
  const grid::Level& coarse = grid.coarseLevel();
  const LevelFields f(fine, problem);
  CCVariable<double> cAbs(coarse.cells(), 0.0), cSig(coarse.cells(), 0.0);
  CCVariable<CellType> cCt(coarse.cells(), CellType::Flow);
  const IntVector rr = fine.refinementRatio();
  grid::coarsenAverage(f.abskg, rr, cAbs, coarse.cells());
  grid::coarsenAverage(f.sigmaT4, rr, cSig, coarse.cells());
  grid::coarsenCellType(f.cellType, rr, cCt, coarse.cells());
  return {PackedLevelField(f.views()),
          PackedLevelField(hostViews(cAbs, cSig, cCt))};
}

grid::CCVariable<double> RmcrtComponent::solveSerialTwoLevel(
    const grid::Grid& grid, const RmcrtSetup& setup) {
  const grid::Level& fine = grid.fineLevel();
  const TwoLevelRecords records = sampleTwoLevelRecords(grid, setup.problem);
  grid::CCVariable<double> divQ(fine.cells(), 0.0);

  // Trace per fine patch with its ROI, as the distributed pipeline would;
  // every patch marches the one record set.
  for (const grid::Patch& p : fine.patches()) {
    const CellRange roi =
        p.ghostWindow(setup.roiHalo).intersect(fine.cells());
    traceDivQ(records.levels(grid, roi), setup, p.cells(),
              MutableFieldView<double>::fromHost(divQ), setup.pool);
  }
  return divQ;
}

}  // namespace rmcrt::core
