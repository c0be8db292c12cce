#pragma once

/// \file service.h
/// Radiation-as-a-service (DESIGN.md §16): a long-lived rmcrt::service::
/// Service that owns scenes (grid + radiative properties + RmcrtSetup,
/// versioned by a monotonically increasing *scene generation*) and
/// answers concurrent divQ / boundary-flux / radiometer queries from many
/// client threads ("tenants"). Every drain coalesces rays from *different*
/// requests into tile-sized work units (Tracer::DivQTileJob) across one
/// shared ThreadPool — so one fused fine record set and ONE simulated-GPU
/// coarse-level upload serve every tenant on a scene generation; the
/// scene keeps no property fields and no host coarse records. The
/// coarse upload is invalidated only when the scene changes:
/// updateProperties()/regrid() bump the generation, drop the shared
/// records, and invalidate the scene's slot in the GPU level database.
///
/// Determinism contract: every ray is fixed by (seed, cell, ray), and
/// each request's tiles scatter only into that request's own sink, so a
/// query's result is bitwise identical to the serial one-shot solve over
/// the same cells (solveDivQOneShot, likewise solveFluxOneShot and
/// solveRadiometerOneShot) regardless of which other tenants' tiles share
/// the batch, the pool size, or the arrival order.
///
/// Admission control (runtime/admission.h): a bounded in-flight depth and
/// a per-tenant fairness cap shed overload with *typed* rejections
/// (Outcome::reject) — clients receive QueueFull/TenantBacklog/
/// StaleGeneration/UnknownScene/InvalidQuery/ShuttingDown, never silent
/// drops and never stale data. Reconciliation invariant, checked by the soak CI
/// job: submitted == completed + rejected once the queue drains.
///
/// Latency SLOs: per-request latency feeds a streaming P² estimator
/// (util/stats.h), published as service.p50_ms / service.p99_ms gauges;
/// completions above 1000 ms count service.slo_breaches.
/// Per-tenant counters live under service.tenant.<name>.* via
/// MetricsView.
///
/// An optional comm::FaultInjector models an unreliable client-to-
/// service transport: submissions may be dropped (retransmitted after a
/// backoff), delayed, duplicated (deduplicated on arrival), or reordered
/// — the accounting stays exact either way.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/fault_injector.h"
#include "core/radiometer.h"
#include "core/ray_tracer.h"
#include "core/rmcrt_component.h"
#include "gpu/gpu_data_warehouse.h"
#include "grid/grid.h"
#include "runtime/admission.h"
#include "util/metrics.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace rmcrt::service {

using SceneId = int;
/// Monotone per-scene version; bumped by updateProperties()/regrid().
using Generation = std::uint64_t;

/// Why a request was shed or refused. None means success.
enum class RejectReason : std::uint8_t {
  None,
  UnknownScene,     ///< no such SceneId registered
  StaleGeneration,  ///< pinned generation no longer current (typed error,
                    ///< never silently-served stale data)
  QueueFull,        ///< global admission depth reached — back off, retry
  TenantBacklog,    ///< per-tenant fairness cap reached
  InvalidQuery,     ///< not answerable on the serving generation's grid:
                    ///< divQ cells empty or outside the fine level, a flux
                    ///< cell outside it or a face not a unit axis vector,
                    ///< a radiometer outside the domain, with nRays <= 0,
                    ///< a zero-length or non-finite viewDirection, or a
                    ///< halfAngleRadians outside (0, pi]
  ShuttingDown,     ///< service stopped accepting work
};

const char* toString(RejectReason r);

/// A query result or a typed rejection.
template <typename T>
struct Outcome {
  T value{};
  RejectReason reject = RejectReason::None;
  bool ok() const { return reject == RejectReason::None; }

  static Outcome rejected(RejectReason r) {
    Outcome o;
    o.reject = r;
    return o;
  }
};

/// Returned by registerScene / updateProperties / regrid: the id plus the
/// generation the caller may pin queries to.
struct SceneHandle {
  SceneId id = -1;
  Generation generation = 0;
};

/// divQ over \p cells of the scene's fine level. generation == 0 means
/// "latest at execution time"; a nonzero pin is rejected with
/// StaleGeneration once the scene moves on.
struct DivQQuery {
  std::string tenant;
  SceneId scene = -1;
  Generation generation = 0;
  CellRange cells;
};

struct DivQResult {
  CellRange window;           ///< the queried cells
  std::vector<double> divQ;   ///< z-major, x fastest over `window`
  Generation generation = 0;  ///< the generation that served the query
  double latencyMs = 0.0;     ///< submit-to-completion wall time

  double at(const IntVector& c) const {
    const IntVector rel = c - window.low();
    const IntVector sz = window.size();
    return divQ[static_cast<std::size_t>(
        rel.x() + static_cast<std::int64_t>(sz.x()) *
                      (rel.y() + static_cast<std::int64_t>(sz.y()) * rel.z()))];
  }
};

/// Incident boundary flux for a list of (cell, outward face) pairs.
struct FluxQuery {
  std::string tenant;
  SceneId scene = -1;
  Generation generation = 0;
  std::vector<std::pair<IntVector, IntVector>> faces;
  int nRays = 64;
};

struct FluxResult {
  std::vector<double> fluxes;  ///< one per FluxQuery::faces entry
  Generation generation = 0;
  double latencyMs = 0.0;
};

/// Virtual-radiometer evaluation (core/radiometer.h).
struct RadiometerQuery {
  std::string tenant;
  SceneId scene = -1;
  Generation generation = 0;
  core::RadiometerSpec spec;
};

struct RadiometerResult {
  core::RadiometerReading reading;
  Generation generation = 0;
  double latencyMs = 0.0;
};

struct ServiceConfig {
  /// Workers of the owned tracing pool (ignored when `pool` is set).
  std::size_t workers = 4;
  /// Optional external pool (non-owning; must outlive the Service).
  ThreadPool* pool = nullptr;
  runtime::AdmissionConfig admission;
  /// Optional fault model on the client->service submit path.
  std::shared_ptr<comm::FaultInjector> injector;
};

/// Aggregate counters; admission carries its own reconciliation set.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  /// H2D uploads of a fused coarse record array: exactly one per
  /// (scene, generation) touched.
  std::uint64_t coarseUploads = 0;
  /// Generation bumps that evicted shared packed state + device slots.
  std::uint64_t generationEvictions = 0;
  std::uint64_t batches = 0;   ///< batcher drains executed
  std::uint64_t tileJobs = 0;  ///< cross-request tile work units traced
  std::uint64_t sloBreaches = 0;
  std::uint64_t faultsRetransmitted = 0;
  std::uint64_t faultsDelayed = 0;
  std::uint64_t faultsDeduplicated = 0;
  std::uint64_t faultsReordered = 0;
  double p50Ms = 0.0;  ///< NaN until the first completion
  double p99Ms = 0.0;
  runtime::AdmissionStats admission;
};

class Service {
 public:
  explicit Service(const ServiceConfig& cfg = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Register a scene; properties/packed records build lazily on first
  /// query. Generations start at 1.
  /// \throws std::invalid_argument when core::validateSetup(setup) does,
  /// so no query on a registered scene can fail on a bad setup.
  SceneHandle registerScene(std::shared_ptr<const grid::Grid> grid,
                            const core::RmcrtSetup& setup);

  /// Swap the scene's radiation problem: bumps the generation, drops the
  /// shared packed records, and invalidates the scene's GPU level-db
  /// slot. In-flight batches finish against the old state first (scene
  /// updates serialize with batch drains on the scene mutex).
  Outcome<SceneHandle> updateProperties(SceneId id,
                                        const core::RadiationProblem& problem);

  /// Replace the scene's grid (regrid). Same invalidation semantics.
  Outcome<SceneHandle> regrid(SceneId id,
                              std::shared_ptr<const grid::Grid> grid);

  std::future<Outcome<DivQResult>> submitDivQ(DivQQuery q);
  std::future<Outcome<FluxResult>> submitBoundaryFlux(FluxQuery q);
  std::future<Outcome<RadiometerResult>> submitRadiometer(RadiometerQuery q);

  /// Hold the batcher between drains (admission keeps accepting): the
  /// test/maintenance seam for deterministic queue-buildup scenarios.
  void pause();
  void resume();

  /// Stop accepting work and reject everything still queued with
  /// ShuttingDown. Idempotent; the destructor calls it.
  void shutdown();

  ServiceStats stats() const;
  MetricsRegistry& metrics() { return m_metrics; }
  /// The simulated device's warehouse (observability / tests).
  const gpu::GpuDataWarehouse& warehouse() const { return *m_gdw; }

  /// The serial reference path a service answer must match bitwise: a
  /// fresh one-shot solve (own pack, own upload-free host trace) over the
  /// same cells with the same setup. Also the correctness oracle for the
  /// benchmark's accuracy gate.
  static DivQResult solveDivQOneShot(const grid::Grid& grid,
                                     const core::RmcrtSetup& setup,
                                     const CellRange& cells);
  static FluxResult solveFluxOneShot(
      const grid::Grid& grid, const core::RmcrtSetup& setup,
      const std::vector<std::pair<IntVector, IntVector>>& faces, int nRays);
  static RadiometerResult solveRadiometerOneShot(
      const grid::Grid& grid, const core::RmcrtSetup& setup,
      const core::RadiometerSpec& spec);

 private:
  struct SceneState;
  struct PendingRequest;
  struct RequestExec;

  std::shared_ptr<SceneState> findScene(SceneId id) const;
  /// Build (once per generation, with core::sampleTwoLevelRecords, as the
  /// one-shot oracles do) the shared fine records and the single
  /// coarse-level device upload; the host coarse records die once
  /// uploaded. Caller holds scene.mu.
  void ensureSharedLocked(SceneState& s, SceneId id);
  /// Per-request Tracer over the scene's fine records and coarse device
  /// copy. `roi` is the fine-level allowed box. Every band of the scene's
  /// band model, and every flux and radiometer fan, marches these records.
  /// Caller holds scene.mu.
  std::unique_ptr<core::Tracer> makeSharedTracer(const SceneState& s,
                                                 const CellRange& roi) const;

  /// Admission + fault model + enqueue, shared by the three submit
  /// fronts. Shed requests are rejected (typed) before queueing.
  void enqueue(std::unique_ptr<PendingRequest> req);

  void batcherLoop();
  /// Drain one batch: every admitted query's tiles and probes share one
  /// pass over the pool under the locks of the scenes they touch.
  void processBatch(std::deque<std::unique_ptr<PendingRequest>> batch);
  /// Whether \p grid (the serving generation's) can answer \p req; the
  /// InvalidQuery conditions. Caller holds the scene's mu.
  static bool answerable(const PendingRequest& req, const grid::Grid& grid);
  /// Fairness: interleave same-arrival-order requests across tenants.
  static std::vector<std::unique_ptr<PendingRequest>> interleaveByTenant(
      std::deque<std::unique_ptr<PendingRequest>> batch);

  void rejectRequest(PendingRequest& req, RejectReason why);
  void completeRequest(PendingRequest& req, RequestExec& exec);
  void recordLatency(const std::string& tenant, double ms);

  ServiceConfig m_cfg;
  std::unique_ptr<ThreadPool> m_ownedPool;
  ThreadPool* m_pool = nullptr;

  std::unique_ptr<gpu::GpuDevice> m_dev;
  std::unique_ptr<gpu::GpuDataWarehouse> m_gdw;

  runtime::AdmissionController m_admission;
  MetricsRegistry m_metrics;

  /// Guards the scene table, the pending queue, and lifecycle flags.
  /// Lock order: m_mutex -> scene.mu -> m_statsMutex (each optional,
  /// never reversed).
  mutable std::mutex m_mutex;
  std::condition_variable m_cv;
  std::map<SceneId, std::shared_ptr<SceneState>> m_scenes;
  std::deque<std::unique_ptr<PendingRequest>> m_pending;
  SceneId m_nextScene = 0;
  bool m_paused = false;
  bool m_stop = false;

  mutable std::mutex m_statsMutex;
  RunningStats m_latencyMs;  ///< streaming p50/p99 (P² markers)
  std::uint64_t m_submitted = 0;
  std::uint64_t m_completed = 0;
  std::uint64_t m_rejected = 0;
  std::uint64_t m_coarseUploads = 0;
  std::uint64_t m_generationEvictions = 0;
  std::uint64_t m_batches = 0;
  std::uint64_t m_tileJobs = 0;
  std::uint64_t m_sloBreaches = 0;
  std::uint64_t m_faultsRetransmitted = 0;
  std::uint64_t m_faultsDelayed = 0;
  std::uint64_t m_faultsDeduplicated = 0;
  std::uint64_t m_faultsReordered = 0;

  std::thread m_batcher;
};

}  // namespace rmcrt::service
