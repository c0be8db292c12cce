#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/trace_recorder.h"

namespace rmcrt::service {

using core::LevelGeom;
using core::PackedCell;
using core::PackedFieldView;
using core::PackedLevelField;
using core::RadiationFieldsView;
using core::TraceLevel;
using core::Tracer;
using core::WallProperties;

namespace {

/// GPU level-database label for one scene generation. The generation is
/// part of the key so a stale upload can never be mistaken for the
/// current one; invalidateLevel(sceneId) evicts every generation of the
/// scene because the level index IS the scene id.
std::string packedLabel(Generation gen) {
  return "svc.packedRad.g" + std::to_string(gen);
}

/// Completions slower than this count as service.slo_breaches [ms].
constexpr double kSloP99Ms = 1000.0;

WallProperties wallsOf(const core::RadiationProblem& p) {
  return WallProperties{p.wallSigmaT4OverPi, p.wallEmissivity};
}

}  // namespace

const char* toString(RejectReason r) {
  switch (r) {
    case RejectReason::None: return "none";
    case RejectReason::UnknownScene: return "unknown_scene";
    case RejectReason::StaleGeneration: return "stale_generation";
    case RejectReason::QueueFull: return "queue_full";
    case RejectReason::TenantBacklog: return "tenant_backlog";
    case RejectReason::InvalidQuery: return "invalid_query";
    case RejectReason::ShuttingDown: return "shutting_down";
  }
  return "unknown";
}

/// One registered scene. `mu` serializes lazy builds, generation bumps,
/// and batch drains against each other — a batch holds the mutex across
/// its trace so an updateProperties() can never repack or evict device
/// records out from under in-flight tile jobs.
struct Service::SceneState {
  std::mutex mu;
  std::shared_ptr<const grid::Grid> grid;
  core::RmcrtSetup setup;
  Generation generation = 1;
  bool sharedReady = false;
  /// Sampled with the one-shot solvers' builder: the shared deterministic
  /// foundation of the bitwise-identity contract.
  core::TwoLevelFields fields;
  /// The shared fused records every tenant's Tracer on this generation
  /// references — built once per generation, not once per request.
  PackedLevelField finePacked;
  PackedLevelField coarsePacked;
  /// The single coarse-level device copy (GPU level database).
  const gpu::DeviceVar* coarseDev = nullptr;
};

/// A queued query. Exactly one of the three promises is live (by kind).
struct Service::PendingRequest {
  enum class Kind { DivQ, Flux, Radiometer };
  Kind kind = Kind::DivQ;
  std::string tenant;
  SceneId scene = -1;
  Generation generation = 0;
  CellRange cells;
  std::vector<std::pair<IntVector, IntVector>> faces;
  int fluxRays = 0;
  core::RadiometerSpec spec;
  std::chrono::steady_clock::time_point submitTime;
  bool admitted = false;
  std::promise<Outcome<DivQResult>> divqPromise;
  std::promise<Outcome<FluxResult>> fluxPromise;
  std::promise<Outcome<RadiometerResult>> radPromise;
};

/// Per-request execution state for one batch drain.
struct Service::RequestExec {
  PendingRequest* req = nullptr;
  std::shared_ptr<SceneState> scene;
  Generation servedGeneration = 0;
  std::unique_ptr<Tracer> tracer;
  std::vector<double> out;  ///< divQ sink (request-scoped)
  std::vector<double> fluxOut;
  core::RadiometerReading reading;
};

Service::Service(const ServiceConfig& cfg)
    : m_cfg(cfg), m_admission(cfg.admission) {
  if (m_cfg.pool != nullptr) {
    m_pool = m_cfg.pool;
  } else {
    m_ownedPool = std::make_unique<ThreadPool>(m_cfg.workers);
    m_pool = m_ownedPool.get();
  }
  m_dev = std::make_unique<gpu::GpuDevice>();
  m_gdw = std::make_unique<gpu::GpuDataWarehouse>(*m_dev);
  m_batcher = std::thread([this] { batcherLoop(); });
}

Service::~Service() { shutdown(); }

SceneHandle Service::registerScene(std::shared_ptr<const grid::Grid> grid,
                                   const core::RmcrtSetup& setup) {
  core::validateSetup(setup);
  auto s = std::make_shared<SceneState>();
  s->grid = std::move(grid);
  s->setup = setup;
  std::lock_guard<std::mutex> lk(m_mutex);
  const SceneId id = m_nextScene++;
  m_scenes.emplace(id, std::move(s));
  return SceneHandle{id, 1};
}

Outcome<SceneHandle> Service::updateProperties(
    SceneId id, const core::RadiationProblem& problem) {
  auto s = findScene(id);
  if (!s) return Outcome<SceneHandle>::rejected(RejectReason::UnknownScene);
  std::lock_guard<std::mutex> lk(s->mu);
  s->setup.problem = problem;
  ++s->generation;
  s->sharedReady = false;
  s->coarseDev = nullptr;
  m_gdw->invalidateLevel(id);
  {
    std::lock_guard<std::mutex> slk(m_statsMutex);
    ++m_generationEvictions;
  }
  return Outcome<SceneHandle>{SceneHandle{id, s->generation},
                              RejectReason::None};
}

Outcome<SceneHandle> Service::regrid(SceneId id,
                                     std::shared_ptr<const grid::Grid> grid) {
  auto s = findScene(id);
  if (!s) return Outcome<SceneHandle>::rejected(RejectReason::UnknownScene);
  std::lock_guard<std::mutex> lk(s->mu);
  s->grid = std::move(grid);
  ++s->generation;
  s->sharedReady = false;
  s->coarseDev = nullptr;
  m_gdw->invalidateLevel(id);
  {
    std::lock_guard<std::mutex> slk(m_statsMutex);
    ++m_generationEvictions;
  }
  return Outcome<SceneHandle>{SceneHandle{id, s->generation},
                              RejectReason::None};
}

std::shared_ptr<Service::SceneState> Service::findScene(SceneId id) const {
  std::lock_guard<std::mutex> lk(m_mutex);
  auto it = m_scenes.find(id);
  return it == m_scenes.end() ? nullptr : it->second;
}

void Service::ensureSharedLocked(SceneState& s, SceneId id) {
  if (s.sharedReady) return;
  s.fields = core::sampleTwoLevelFields(*s.grid, s.setup.problem);
  RMCRT_TRACE_SPAN("service", "build_shared_scene_state");
  s.finePacked.pack(s.fields.fineViews());
  s.coarsePacked.pack(s.fields.coarseViews());
  const std::string label = packedLabel(s.generation);
  // getOrUploadLevelVarRaw transfers only when the key is absent; count
  // the transfer, not the lookup — the "one upload per generation" claim
  // the service_test pins down.
  const bool willUpload = !m_gdw->hasLevelVar(label, id);
  s.coarseDev = &m_gdw->getOrUploadLevelVarRaw(
      label, id, s.coarsePacked.data(), s.coarsePacked.window(),
      sizeof(PackedCell));
  if (willUpload) {
    std::lock_guard<std::mutex> slk(m_statsMutex);
    ++m_coarseUploads;
  }
  s.sharedReady = true;
}

std::unique_ptr<Tracer> Service::makeSharedTracer(const SceneState& s,
                                                  const CellRange& roi) const {
  const grid::Level& fine = s.grid->fineLevel();
  const grid::Level& coarse = s.grid->coarseLevel();
  TraceLevel fineTL{LevelGeom::from(fine), s.fields.fineViews(), roi,
                    s.finePacked.view()};
  // Coarse level marches the device-resident records (host-addressable
  // simulated device) — the one shared upload serving every tenant.
  TraceLevel coarseTL{LevelGeom::from(coarse), RadiationFieldsView{},
                      coarse.cells(), PackedFieldView::fromDevice(*s.coarseDev)};
  return std::make_unique<Tracer>(
      std::vector<TraceLevel>{fineTL, coarseTL}, wallsOf(s.setup.problem),
      s.setup.trace);
}

std::future<Outcome<DivQResult>> Service::submitDivQ(DivQQuery q) {
  auto req = std::make_unique<PendingRequest>();
  req->kind = PendingRequest::Kind::DivQ;
  req->tenant = std::move(q.tenant);
  req->scene = q.scene;
  req->generation = q.generation;
  req->cells = q.cells;
  auto fut = req->divqPromise.get_future();
  enqueue(std::move(req));
  return fut;
}

std::future<Outcome<FluxResult>> Service::submitBoundaryFlux(FluxQuery q) {
  auto req = std::make_unique<PendingRequest>();
  req->kind = PendingRequest::Kind::Flux;
  req->tenant = std::move(q.tenant);
  req->scene = q.scene;
  req->generation = q.generation;
  req->faces = std::move(q.faces);
  req->fluxRays = q.nRays;
  auto fut = req->fluxPromise.get_future();
  enqueue(std::move(req));
  return fut;
}

std::future<Outcome<RadiometerResult>> Service::submitRadiometer(
    RadiometerQuery q) {
  auto req = std::make_unique<PendingRequest>();
  req->kind = PendingRequest::Kind::Radiometer;
  req->tenant = std::move(q.tenant);
  req->scene = q.scene;
  req->generation = q.generation;
  req->spec = q.spec;
  auto fut = req->radPromise.get_future();
  enqueue(std::move(req));
  return fut;
}

void Service::enqueue(std::unique_ptr<PendingRequest> req) {
  req->submitTime = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> slk(m_statsMutex);
    ++m_submitted;
  }
  m_metrics.view("service.tenant." + req->tenant)
      .counter("submitted")
      .increment();

  {
    std::lock_guard<std::mutex> lk(m_mutex);
    if (m_stop) {
      rejectRequest(*req, RejectReason::ShuttingDown);
      return;
    }
  }

  switch (m_admission.tryAdmit(req->tenant)) {
    case runtime::AdmissionVerdict::Admit:
      req->admitted = true;
      break;
    case runtime::AdmissionVerdict::QueueFull:
      rejectRequest(*req, RejectReason::QueueFull);
      return;
    case runtime::AdmissionVerdict::TenantBacklog:
      rejectRequest(*req, RejectReason::TenantBacklog);
      return;
  }

  // Unreliable-transport model on the submit path. Faults resolve
  // synchronously on the client thread (a drop becomes a retransmit
  // after a backoff; a duplicate is delivered once) so the accounting
  // invariant submitted == completed + rejected stays exact.
  bool arriveAtFront = false;
  if (m_cfg.injector) {
    const int src = static_cast<int>(
                        std::hash<std::string>{}(req->tenant) % 1023) +
                    1;
    const auto plan = m_cfg.injector->plan(src, /*dst=*/0, req->scene);
    switch (plan.action) {
      case comm::FaultAction::Drop: {
        {
          std::lock_guard<std::mutex> slk(m_statsMutex);
          ++m_faultsRetransmitted;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        break;
      }
      case comm::FaultAction::Delay: {
        {
          std::lock_guard<std::mutex> slk(m_statsMutex);
          ++m_faultsDelayed;
        }
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            plan.delayMs));
        break;
      }
      case comm::FaultAction::Duplicate: {
        std::lock_guard<std::mutex> slk(m_statsMutex);
        ++m_faultsDeduplicated;  // second copy suppressed on arrival
        break;
      }
      case comm::FaultAction::Reorder: {
        {
          std::lock_guard<std::mutex> slk(m_statsMutex);
          ++m_faultsReordered;
        }
        arriveAtFront = true;  // overtakes everything already queued
        break;
      }
      case comm::FaultAction::Deliver:
        break;
    }
  }

  {
    std::lock_guard<std::mutex> lk(m_mutex);
    if (m_stop) {
      rejectRequest(*req, RejectReason::ShuttingDown);
      return;
    }
    if (arriveAtFront)
      m_pending.push_front(std::move(req));
    else
      m_pending.push_back(std::move(req));
  }
  m_cv.notify_one();
}

void Service::pause() {
  std::lock_guard<std::mutex> lk(m_mutex);
  m_paused = true;
}

void Service::resume() {
  {
    std::lock_guard<std::mutex> lk(m_mutex);
    m_paused = false;
  }
  m_cv.notify_all();
}

void Service::shutdown() {
  std::deque<std::unique_ptr<PendingRequest>> leftovers;
  {
    std::lock_guard<std::mutex> lk(m_mutex);
    m_stop = true;
    leftovers.swap(m_pending);
  }
  m_cv.notify_all();
  if (m_batcher.joinable()) m_batcher.join();
  for (auto& r : leftovers) rejectRequest(*r, RejectReason::ShuttingDown);
}

void Service::batcherLoop() {
  for (;;) {
    std::deque<std::unique_ptr<PendingRequest>> batch;
    {
      std::unique_lock<std::mutex> lk(m_mutex);
      m_cv.wait(lk, [this] {
        return m_stop || (!m_paused && !m_pending.empty());
      });
      if (m_stop) return;  // leftovers rejected by shutdown()
      batch.swap(m_pending);
    }
    processBatch(std::move(batch));
  }
}

std::vector<std::unique_ptr<Service::PendingRequest>>
Service::interleaveByTenant(
    std::deque<std::unique_ptr<PendingRequest>> batch) {
  std::vector<std::string> order;
  std::map<std::string, std::deque<std::unique_ptr<PendingRequest>>> byTenant;
  for (auto& r : batch) {
    if (byTenant.find(r->tenant) == byTenant.end()) order.push_back(r->tenant);
    byTenant[r->tenant].push_back(std::move(r));
  }
  // Round-robin across tenants in first-arrival order: a tenant that
  // queued 100 requests cannot starve one that queued 2.
  std::vector<std::unique_ptr<PendingRequest>> out;
  out.reserve(batch.size());
  bool any = true;
  while (any) {
    any = false;
    for (const std::string& t : order) {
      auto& dq = byTenant[t];
      if (dq.empty()) continue;
      out.push_back(std::move(dq.front()));
      dq.pop_front();
      any = true;
    }
  }
  return out;
}

bool Service::answerable(const PendingRequest& req, const grid::Grid& grid) {
  const CellRange fineCells = grid.fineLevel().cells();
  switch (req.kind) {
    case PendingRequest::Kind::DivQ:
      return !req.cells.empty() && fineCells.contains(req.cells);
    case PendingRequest::Kind::Flux:
      for (const auto& [cell, face] : req.faces) {
        if (!fineCells.contains(cell)) return false;
        int axes = 0;
        for (int i = 0; i < 3; ++i) {
          if (face[i] < -1 || face[i] > 1) return false;
          axes += face[i] != 0;
        }
        if (axes != 1) return false;
      }
      return true;
    case PendingRequest::Kind::Radiometer: {
      const core::RadiometerSpec& spec = req.spec;
      if (spec.nRays <= 0) return false;
      // The cone must be a real one: its half-angle lies in (0, pi] and
      // its axis has a finite, nonzero length (normalizing a zero or
      // non-finite vector gives NaN directions).
      if (!(spec.halfAngleRadians > 0.0 && spec.halfAngleRadians <= M_PI))
        return false;
      const Vector& axis = spec.viewDirection;
      const double length2 = axis.x() * axis.x() + axis.y() * axis.y() +
                             axis.z() * axis.z();
      if (!(std::isfinite(length2) && length2 > 0.0)) return false;
      for (int i = 0; i < 3; ++i)
        if (!(spec.position[i] >= grid.physLow()[i] &&
              spec.position[i] <= grid.physHigh()[i]))
          return false;
      return true;
    }
  }
  return false;
}

void Service::processBatch(std::deque<std::unique_ptr<PendingRequest>> batch) {
  RMCRT_TRACE_SPAN("service", "batch_drain");
  {
    std::lock_guard<std::mutex> slk(m_statsMutex);
    ++m_batches;
  }
  const auto reqs = interleaveByTenant(std::move(batch));
  // Resolve scenes first; then lock every distinct scene in ascending id
  // order (deadlock-free: clients hold at most one scene mutex and never
  // m_mutex while acquiring it) and hold the locks across the drain so a
  // generation bump cannot evict records mid-trace.
  std::vector<std::shared_ptr<SceneState>> scenes(reqs.size());
  std::map<SceneId, std::shared_ptr<SceneState>> uniqueScenes;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    scenes[i] = findScene(reqs[i]->scene);
    if (scenes[i]) uniqueScenes.emplace(reqs[i]->scene, scenes[i]);
  }
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(uniqueScenes.size());
  for (auto& [id, s] : uniqueScenes) locks.emplace_back(s->mu);

  std::vector<std::unique_ptr<RequestExec>> execs;
  std::vector<Tracer::DivQTileJob> jobs;
  std::vector<RequestExec*> pointwise;  // flux + radiometer work units
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    PendingRequest& req = *reqs[i];
    if (!scenes[i]) {
      rejectRequest(req, RejectReason::UnknownScene);
      continue;
    }
    SceneState& s = *scenes[i];
    if (req.generation != 0 && req.generation != s.generation) {
      rejectRequest(req, RejectReason::StaleGeneration);
      continue;
    }
    // Validated here, under the lock, against the grid that will serve
    // the query: a regrid() since submit may have shrunk the fine level.
    if (!answerable(req, *s.grid)) {
      rejectRequest(req, RejectReason::InvalidQuery);
      continue;
    }
    ensureSharedLocked(s, req.scene);

    auto exec = std::make_unique<RequestExec>();
    exec->req = &req;
    exec->scene = scenes[i];
    exec->servedGeneration = s.generation;
    const grid::Level& fine = s.grid->fineLevel();
    const CellRange roi =
        req.kind == PendingRequest::Kind::DivQ
            ? req.cells.grown(s.setup.roiHalo).intersect(fine.cells())
            : fine.cells();
    exec->tracer = makeSharedTracer(s, roi);

    if (req.kind == PendingRequest::Kind::DivQ) {
      exec->out.assign(static_cast<std::size_t>(req.cells.volume()), 0.0);
      const core::MutableFieldView<double> sink(exec->out.data(), req.cells);
      for (const CellRange& tile :
           core::tileCells(req.cells, s.setup.trace.tileSize))
        jobs.push_back(Tracer::DivQTileJob{exec->tracer.get(), tile, sink});
    } else {
      pointwise.push_back(exec.get());
    }
    execs.push_back(std::move(exec));
  }

  // The coalesced drain: tiles from every request, every tenant, every
  // scene in this batch share one parallelFor over the one pool.
  Tracer::computeDivQBatch(jobs, m_pool);
  {
    std::lock_guard<std::mutex> slk(m_statsMutex);
    m_tileJobs += jobs.size();
  }

  if (!pointwise.empty()) {
    const auto runOne = [&](std::int64_t i) {
      RequestExec& e = *pointwise[static_cast<std::size_t>(i)];
      const PendingRequest& r = *e.req;
      if (r.kind == PendingRequest::Kind::Flux) {
        e.fluxOut.reserve(r.faces.size());
        for (const auto& [cell, face] : r.faces)
          e.fluxOut.push_back(e.tracer->boundaryFlux(cell, face, r.fluxRays));
      } else {
        e.reading = core::evaluateRadiometer(*e.tracer, r.spec);
      }
    };
    if (m_pool != nullptr)
      m_pool->parallelFor(0, static_cast<std::int64_t>(pointwise.size()),
                          runOne);
    else
      for (std::size_t i = 0; i < pointwise.size(); ++i)
        runOne(static_cast<std::int64_t>(i));
  }

  locks.clear();  // updates may proceed; results are already materialized
  for (auto& exec : execs) completeRequest(*exec->req, *exec);
}

void Service::rejectRequest(PendingRequest& req, RejectReason why) {
  if (req.admitted) {
    m_admission.release(req.tenant);
    req.admitted = false;
  }
  {
    std::lock_guard<std::mutex> slk(m_statsMutex);
    ++m_rejected;
  }
  m_metrics.view("service.tenant." + req.tenant)
      .counter("rejected")
      .increment();
  switch (req.kind) {
    case PendingRequest::Kind::DivQ:
      req.divqPromise.set_value(Outcome<DivQResult>::rejected(why));
      break;
    case PendingRequest::Kind::Flux:
      req.fluxPromise.set_value(Outcome<FluxResult>::rejected(why));
      break;
    case PendingRequest::Kind::Radiometer:
      req.radPromise.set_value(Outcome<RadiometerResult>::rejected(why));
      break;
  }
}

void Service::completeRequest(PendingRequest& req, RequestExec& exec) {
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - req.submitTime)
          .count();
  if (req.admitted) {
    m_admission.release(req.tenant);
    req.admitted = false;
  }
  recordLatency(req.tenant, ms);
  switch (req.kind) {
    case PendingRequest::Kind::DivQ: {
      Outcome<DivQResult> o;
      o.value.window = req.cells;
      o.value.divQ = std::move(exec.out);
      o.value.generation = exec.servedGeneration;
      o.value.latencyMs = ms;
      req.divqPromise.set_value(std::move(o));
      break;
    }
    case PendingRequest::Kind::Flux: {
      Outcome<FluxResult> o;
      o.value.fluxes = std::move(exec.fluxOut);
      o.value.generation = exec.servedGeneration;
      o.value.latencyMs = ms;
      req.fluxPromise.set_value(std::move(o));
      break;
    }
    case PendingRequest::Kind::Radiometer: {
      Outcome<RadiometerResult> o;
      o.value.reading = exec.reading;
      o.value.generation = exec.servedGeneration;
      o.value.latencyMs = ms;
      req.radPromise.set_value(std::move(o));
      break;
    }
  }
}

void Service::recordLatency(const std::string& tenant, double ms) {
  double p50 = 0.0, p99 = 0.0;
  {
    std::lock_guard<std::mutex> slk(m_statsMutex);
    ++m_completed;
    m_latencyMs.add(ms);
    if (ms > kSloP99Ms) ++m_sloBreaches;
    p50 = m_latencyMs.p50();
    p99 = m_latencyMs.p99();
  }
  m_metrics.setGauge("service.p50_ms", p50);
  m_metrics.setGauge("service.p99_ms", p99);
  m_metrics.view("service.tenant." + tenant).counter("completed").increment();
}

ServiceStats Service::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> slk(m_statsMutex);
    out.submitted = m_submitted;
    out.completed = m_completed;
    out.rejected = m_rejected;
    out.coarseUploads = m_coarseUploads;
    out.generationEvictions = m_generationEvictions;
    out.batches = m_batches;
    out.tileJobs = m_tileJobs;
    out.sloBreaches = m_sloBreaches;
    out.faultsRetransmitted = m_faultsRetransmitted;
    out.faultsDelayed = m_faultsDelayed;
    out.faultsDeduplicated = m_faultsDeduplicated;
    out.faultsReordered = m_faultsReordered;
    out.p50Ms = m_latencyMs.p50();
    out.p99Ms = m_latencyMs.p99();
  }
  out.admission = m_admission.stats();
  return out;
}

DivQResult Service::solveDivQOneShot(const grid::Grid& grid,
                                     const core::RmcrtSetup& setup,
                                     const CellRange& cells) {
  const core::TwoLevelFields hf =
      core::sampleTwoLevelFields(grid, setup.problem);
  const grid::Level& fine = grid.fineLevel();
  const grid::Level& coarse = grid.coarseLevel();
  const CellRange roi = cells.grown(setup.roiHalo).intersect(fine.cells());
  TraceLevel fineTL{LevelGeom::from(fine), hf.fineViews(), roi};
  TraceLevel coarseTL{LevelGeom::from(coarse), hf.coarseViews(),
                      coarse.cells()};
  DivQResult res;
  res.window = cells;
  res.divQ.assign(static_cast<std::size_t>(cells.volume()), 0.0);
  const core::MutableFieldView<double> sink(res.divQ.data(), cells);
  Tracer tracer({fineTL, coarseTL}, wallsOf(setup.problem), setup.trace);
  tracer.computeDivQ(cells, sink);
  return res;
}

FluxResult Service::solveFluxOneShot(
    const grid::Grid& grid, const core::RmcrtSetup& setup,
    const std::vector<std::pair<IntVector, IntVector>>& faces, int nRays) {
  const core::TwoLevelFields hf =
      core::sampleTwoLevelFields(grid, setup.problem);
  const grid::Level& fine = grid.fineLevel();
  const grid::Level& coarse = grid.coarseLevel();
  TraceLevel fineTL{LevelGeom::from(fine), hf.fineViews(), fine.cells()};
  TraceLevel coarseTL{LevelGeom::from(coarse), hf.coarseViews(),
                      coarse.cells()};
  Tracer tracer({fineTL, coarseTL}, wallsOf(setup.problem), setup.trace);
  FluxResult res;
  res.fluxes.reserve(faces.size());
  for (const auto& [cell, face] : faces)
    res.fluxes.push_back(tracer.boundaryFlux(cell, face, nRays));
  return res;
}

RadiometerResult Service::solveRadiometerOneShot(
    const grid::Grid& grid, const core::RmcrtSetup& setup,
    const core::RadiometerSpec& spec) {
  const core::TwoLevelFields hf =
      core::sampleTwoLevelFields(grid, setup.problem);
  const grid::Level& fine = grid.fineLevel();
  const grid::Level& coarse = grid.coarseLevel();
  TraceLevel fineTL{LevelGeom::from(fine), hf.fineViews(), fine.cells()};
  TraceLevel coarseTL{LevelGeom::from(coarse), hf.coarseViews(),
                      coarse.cells()};
  Tracer tracer({fineTL, coarseTL}, wallsOf(setup.problem), setup.trace);
  RadiometerResult res;
  res.reading = core::evaluateRadiometer(tracer, spec);
  return res;
}

}  // namespace rmcrt::service
