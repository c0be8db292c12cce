/// \file service_workload.cc
/// service_mixed: one Service (2 tracing workers) over one 32^3 two-level
/// Burns-Christon scene, driven by a single generator thread as a closed
/// loop: a fixed window of kWindow requests stays outstanding, from
/// kTenants tenants. Half the requests are radiometers, a quarter
/// four-face boundary flux, a quarter one-cell-thick divQ slabs, drawn
/// from the seed. Every kEpoch submissions the generator swaps the scene's
/// properties (updateProperties, alternating two problems), so generation
/// bumps, repacks and re-uploads land mid-stream. The interval between two
/// updates is the workload's "step". A seeded sample of responses is
/// compared bitwise against the Service's one-shot solvers.

#include <bit>
#include <cmath>
#include <chrono>
#include <deque>
#include <future>
#include <optional>
#include <random>
#include <stdexcept>

#include "core/problems.h"
#include "gpu/gpu_device.h"
#include "mem/mmap_arena.h"
#include "service/service.h"
#include "util/metrics.h"
#include "util/timers.h"
#include "util/trace_recorder.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rmcrt;
using namespace rmcrt::service;
using Clock = std::chrono::steady_clock;

constexpr int kFine = 32;
constexpr int kRays = 8;
constexpr int kWorkers = 2;
constexpr int kTenants = 4;
constexpr std::size_t kWindow = 16;
constexpr std::uint64_t kEpoch = 64;  ///< submissions between updates
constexpr int kFluxRays = 16;
constexpr int kRadiometerRays = 32;
constexpr int kSetupRepeats = 9;
constexpr std::size_t kMaxVerified = 48;
constexpr double kVerifyProbability = 1.0 / 32.0;

std::shared_ptr<const grid::Grid> makeScene() {
  return grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(kFine),
                                  IntVector(4), IntVector(8), IntVector(4));
}

/// Scene generation g carries problem A when g is odd (registration is
/// generation 1), B when even: the updates alternate.
core::RadiationProblem problemFor(Generation g) {
  return g % 2 == 1 ? core::burnsChriston() : core::syntheticBoiler();
}

core::RmcrtSetup makeSetup(std::uint64_t seed, Generation g) {
  core::RmcrtSetup setup;
  setup.problem = problemFor(g);
  setup.trace.nDivQRays = kRays;
  setup.trace.seed = seed;
  setup.roiHalo = 4;
  return setup;
}

enum class Kind { DivQ, Flux, Radiometer };

struct Plan {
  Kind kind = Kind::Radiometer;
  std::string tenant;
  CellRange cells;
  std::vector<std::pair<IntVector, IntVector>> faces;
  core::RadiometerSpec spec;
};

/// The seeded query mix: 1/2 radiometer, 1/4 flux, 1/4 divQ slab.
Plan planQuery(std::mt19937_64& rng, std::uint64_t i) {
  Plan p;
  p.tenant = "tenant-" + std::to_string(i % kTenants);
  std::uniform_int_distribution<int> cell(0, kFine - 1);
  std::uniform_real_distribution<double> pos(0.15, 0.85);
  const int pick = static_cast<int>(rng() % 4);
  if (pick == 0) {
    p.kind = Kind::DivQ;
    const int x = cell(rng);
    p.cells = CellRange(IntVector(x, 0, 0), IntVector(x + 1, kFine, kFine));
  } else if (pick == 1) {
    p.kind = Kind::Flux;
    for (int k = 0; k < 4; ++k) {
      const int x = cell(rng);  // sequenced: argument order is unspecified
      const int z = cell(rng);
      p.faces.emplace_back(IntVector(x, 0, z), IntVector(0, -1, 0));
    }
  } else {
    const double x = pos(rng);
    const double y = pos(rng);
    const double z = pos(rng);
    p.spec.position = Vector(x, y, z);
    p.spec.viewDirection = Vector(0.0, 0.0, 1.0);
    p.spec.halfAngleRadians = 0.2;
    p.spec.nRays = kRadiometerRays;
  }
  return p;
}

/// One outstanding request.
struct Inflight {
  Plan plan;
  Clock::time_point submitted;
  bool verify = false;
  bool firstAfterUpdate = false;
  std::future<Outcome<DivQResult>> divq;
  std::future<Outcome<FluxResult>> flux;
  std::future<Outcome<RadiometerResult>> radio;

  bool ready() const {
    const auto zero = std::chrono::seconds(0);
    switch (plan.kind) {
      case Kind::DivQ:
        return divq.wait_for(zero) == std::future_status::ready;
      case Kind::Flux:
        return flux.wait_for(zero) == std::future_status::ready;
      default:
        return radio.wait_for(zero) == std::future_status::ready;
    }
  }
  void wait() const {
    switch (plan.kind) {
      case Kind::DivQ: divq.wait(); break;
      case Kind::Flux: flux.wait(); break;
      default: radio.wait(); break;
    }
  }
};

/// A response kept for the oracle check.
struct Kept {
  Plan plan;
  Generation generation = 0;
  std::vector<double> values;
};

/// The response's numbers, in the order the oracle reproduces them.
std::optional<Kept> collect(Inflight& f) {
  Kept k;
  k.plan = f.plan;
  switch (f.plan.kind) {
    case Kind::DivQ: {
      auto out = f.divq.get();
      if (!out.ok()) return std::nullopt;
      k.generation = out.value.generation;
      k.values = std::move(out.value.divQ);
      break;
    }
    case Kind::Flux: {
      auto out = f.flux.get();
      if (!out.ok()) return std::nullopt;
      k.generation = out.value.generation;
      k.values = std::move(out.value.fluxes);
      break;
    }
    default: {
      auto out = f.radio.get();
      if (!out.ok()) return std::nullopt;
      k.generation = out.value.generation;
      const auto& r = out.value.reading;
      k.values = {r.meanIntensity, r.solidAngle, r.flux};
    }
  }
  return k;
}

bool matchesOracle(const grid::Grid& grid, std::uint64_t seed,
                   const Kept& k) {
  const core::RmcrtSetup setup = makeSetup(seed, k.generation);
  std::vector<double> want;
  switch (k.plan.kind) {
    case Kind::DivQ:
      want = Service::solveDivQOneShot(grid, setup, k.plan.cells).divQ;
      break;
    case Kind::Flux:
      want = Service::solveFluxOneShot(grid, setup, k.plan.faces, kFluxRays)
                 .fluxes;
      break;
    default: {
      const auto r =
          Service::solveRadiometerOneShot(grid, setup, k.plan.spec).reading;
      want = {r.meanIntensity, r.solidAngle, r.flux};
    }
  }
  if (want.size() != k.values.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (std::bit_cast<std::uint64_t>(want[i]) !=
        std::bit_cast<std::uint64_t>(k.values[i]))
      return false;
  return true;
}

ServiceConfig makeConfig() {
  ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.admission.maxQueueDepth = 4 * kWindow;  // the closed loop never sheds
  cfg.admission.maxPerTenant = 4 * kWindow;
  return cfg;
}

gpu::DeviceStats deviceStats(const Service& svc) {
  // warehouse() is const-only; reading the device's counters mutates
  // nothing, and the warehouse object itself is not const.
  return const_cast<gpu::GpuDataWarehouse&>(svc.warehouse()).device().stats();
}

/// Counters sampled at a phase boundary, for per-phase deltas.
struct Sample {
  ServiceStats svc;
  gpu::DeviceStats dev;
  std::uint64_t segments = 0, rays = 0;
};

/// What one measurement phase (untraced or traced) observed.
struct Phase {
  std::vector<double> latencyMs;
  std::vector<double> epochS;
  std::vector<double> updateMs;
  std::vector<double> postUpdateMs;
  double submitS = 0.0;
  std::uint64_t submits = 0;
  std::uint64_t completed = 0;
  double elapsed = 0.0;
  Sample begin, end;
};

class Generator {
 public:
  Generator(Service& svc, SceneId scene, std::uint64_t seed, Tally& tally)
      : m_svc(svc), m_scene(scene), m_rng(seed), m_verifyRng(seed ^ 0x5eedu),
        m_tally(tally) {}

  /// Run the closed loop for \p seconds, then drain the window.
  void run(double seconds, Phase& ph) {
    Timer clock;
    Timer epoch;
    bool epochOpen = false;  // the first step starts at the first update
    while (clock.seconds() < seconds) {
      while (m_window.size() < kWindow) {
        if (m_submitted > 0 && m_submitted % kEpoch == 0) {
          if (epochOpen) ph.epochS.push_back(epoch.seconds());
          epoch.reset();
          epochOpen = true;
          update(ph);
        }
        submit(ph);
      }
      harvest(ph);
    }
    while (!m_window.empty()) harvest(ph);
    ph.elapsed = clock.seconds();
  }

  std::vector<Kept>& kept() { return m_kept; }

 private:
  void update(Phase& ph) {
    TraceSpan span("bench", "service:update");
    Timer t;
    const Generation next = m_generation + 1;
    const auto out = m_svc.updateProperties(m_scene, problemFor(next));
    ph.updateMs.push_back(t.seconds() * 1e3);
    if (!out.ok() || out.value.generation != next)
      throw std::runtime_error("updateProperties failed");
    m_generation = next;
    m_firstAfterUpdate = true;
  }

  void submit(Phase& ph) {
    Inflight f;
    f.plan = planQuery(m_rng, m_submitted++);
    f.verify = m_kept.size() + pendingVerifies() < kMaxVerified &&
               std::uniform_real_distribution<double>(0.0, 1.0)(
                   m_verifyRng) < kVerifyProbability;
    f.firstAfterUpdate = m_firstAfterUpdate;
    m_firstAfterUpdate = false;
    TraceSpan span("bench", "service:submit");
    Timer t;
    f.submitted = Clock::now();
    switch (f.plan.kind) {
      case Kind::DivQ:
        f.divq = m_svc.submitDivQ({f.plan.tenant, m_scene, 0, f.plan.cells});
        break;
      case Kind::Flux:
        f.flux = m_svc.submitBoundaryFlux(
            {f.plan.tenant, m_scene, 0, f.plan.faces, kFluxRays});
        break;
      default:
        f.radio = m_svc.submitRadiometer({f.plan.tenant, m_scene, 0,
                                          f.plan.spec});
    }
    ph.submitS += t.seconds();
    ++ph.submits;
    m_window.push_back(std::move(f));
  }

  std::size_t pendingVerifies() const {
    std::size_t n = 0;
    for (const auto& f : m_window) n += f.verify;
    return n;
  }

  /// Wait for the oldest request, then collect every request that is
  /// ready at that moment. Latency runs from the submit call to the moment
  /// the generator observes the result.
  void harvest(Phase& ph) {
    {
      TraceSpan span("bench", "await");
      m_window.front().wait();
    }
    const Clock::time_point now = Clock::now();
    for (auto it = m_window.begin(); it != m_window.end();) {
      if (!it->ready()) {
        ++it;
        continue;
      }
      const double ms =
          std::chrono::duration<double, std::milli>(now - it->submitted)
              .count();
      const std::optional<Kept> k = collect(*it);
      m_tally.record(k.has_value());
      if (k) {
        ph.latencyMs.push_back(ms);
        ++ph.completed;
        if (it->firstAfterUpdate) ph.postUpdateMs.push_back(ms);
        if (it->verify) m_kept.push_back(*k);
      }
      it = m_window.erase(it);
    }
  }

  Service& m_svc;
  SceneId m_scene;
  std::mt19937_64 m_rng;
  std::mt19937_64 m_verifyRng;
  Tally& m_tally;
  std::deque<Inflight> m_window;
  std::vector<Kept> m_kept;
  std::uint64_t m_submitted = 0;
  Generation m_generation = 1;
  bool m_firstAfterUpdate = false;
};

Sample sample(const Service& svc) {
  Sample s;
  s.svc = svc.stats();
  s.dev = deviceStats(svc);
  s.segments = MetricsRegistry::global().counter("tracer.segments").value();
  s.rays = MetricsRegistry::global().counter("tracer.rays").value();
  return s;
}

double mean(const std::vector<double>& v) {
  double t = 0.0;
  for (double x : v) t += x;
  return v.empty() ? 0.0 : t / static_cast<double>(v.size());
}

/// Per-layer ledger over the traced phase; counts are per step, i.e. per
/// kEpoch completed requests.
void ledger(const Phase& ph, const SpanFold& fold,
            std::map<std::string, double>& m) {
  const double epochs =
      static_cast<double>(ph.completed) / static_cast<double>(kEpoch);
  const ServiceStats& a = ph.begin.svc;
  const ServiceStats& b = ph.end.svc;
  auto per = [&](std::uint64_t hi, std::uint64_t lo) {
    return static_cast<double>(hi - lo) / epochs;
  };
  const double batches = static_cast<double>(b.batches - a.batches);
  const double drain = fold.inclusive("batch_drain");
  const double segments =
      static_cast<double>(ph.end.segments - ph.begin.segments);

  for (const char* k :
       {"runtime.local_comm_s", "runtime.wait_s", "runtime.task_exec_s",
        "runtime.unattributed_s", "runtime.unattributed_frac",
        "comm.msgs_sent", "comm.msgs_received", "comm.bytes_sent",
        "comm.us_per_msg", "comm.retransmits", "comm.duplicates_discarded",
        "comm.acks_sent", "comm.useful_frac", "core.trace_s", "core.init_s",
        "core.coarsen_s"})
    m[k] = 0.0;
  m["core.segments"] = segments / epochs;
  m["core.rays"] = per(ph.end.rays, ph.begin.rays);
  m["core.mseg_per_s"] = drain > 0 ? segments / drain / 1e6 : 0.0;

  const gpu::DeviceStats& da = ph.begin.dev;
  const gpu::DeviceStats& db = ph.end.dev;
  m["gpu.h2d_bytes"] = per(db.h2dBytes, da.h2dBytes);
  m["gpu.h2d_transfers"] = per(db.h2dTransfers, da.h2dTransfers);
  m["gpu.d2h_bytes"] = per(db.d2hBytes, da.d2hBytes);
  m["gpu.kernels"] = per(db.kernelsLaunched, da.kernelsLaunched);
  m["gpu.cpu_fallbacks"] = per(db.cpuFallbacks, da.cpuFallbacks);
  m["gpu.peak_device_mb"] = static_cast<double>(db.peakBytesInUse) / 1e6;
  m["gpu.kernel_s"] = fold.inclusive("kernel") / epochs;
  m["gpu.h2d_s"] = fold.inclusive("h2d_copy") / epochs;
  m["gpu.sync_wait_s"] = fold.inclusive("stream_sync_wait") / epochs;

  m["service.submit_us"] =
      ph.submits ? ph.submitS / static_cast<double>(ph.submits) * 1e6 : 0.0;
  m["service.batches"] = batches / epochs;
  m["service.requests_per_batch"] =
      batches > 0 ? static_cast<double>(b.completed - a.completed) / batches
                  : 0.0;
  m["service.tile_jobs"] = per(b.tileJobs, a.tileJobs);
  m["service.update_ms"] = mean(ph.updateMs);
  m["service.post_update_ms"] = mean(ph.postUpdateMs);
  m["service.coarse_uploads"] = per(b.coarseUploads, a.coarseUploads);
  m["service.generation_evictions"] =
      per(b.generationEvictions, a.generationEvictions);
  m["service.rejected"] = per(b.rejected, a.rejected);
  m["service.slo_breaches"] = per(b.sloBreaches, a.sloBreaches);
  m["service.batch_drain_s"] = drain / epochs;
  addLayerLedger(fold, epochs, ph.elapsed, m);
}

}  // namespace

RunResult runService(const RunOptions& opt) {
  RunResult res;
  res.useSimd = makeSetup(opt.seed, 1).trace.useSimd;
  const auto scene = makeScene();

  // Set-up: Service construction + scene registration + the first query
  // (which builds the scene's shared state), repeated; the last is kept.
  std::vector<double> setups;
  std::unique_ptr<Service> svc;
  SceneHandle handle;
  for (int i = 0; i < kSetupRepeats; ++i) {
    svc.reset();
    Timer timer;
    svc = std::make_unique<Service>(makeConfig());
    handle = svc->registerScene(scene, makeSetup(opt.seed, 1));
    const CellRange probe(IntVector(0, 0, 0), IntVector(1, kFine, kFine));
    const auto first = svc->submitDivQ({"tenant-0", handle.id, 0, probe}).get();
    setups.push_back(timer.seconds());
    if (!first.ok()) throw std::runtime_error("set-up query was rejected");
  }

  Generator gen(*svc, handle.id, opt.seed, res.tally);
  Phase plain, traced;
  SpanFold fold;
  plain.begin = sample(*svc);
  gen.run(opt.trace ? opt.seconds / 2 : opt.seconds, plain);
  plain.end = sample(*svc);
  const double rss = peakRssMb();
  if (opt.trace) {
    TraceRecorder::global().clear();
    TraceRecorder::global().setEnabled(true);
    traced.begin = sample(*svc);
    {
      TraceSpan root("bench", "stream");
      gen.run(opt.seconds / 2, traced);
    }
    traced.end = sample(*svc);
    TraceRecorder::global().setEnabled(false);
    foldRecordedSpans("stream", fold);
    res.droppedEvents = fold.dropped;
  }
  const ServiceStats final = svc->stats();
  svc->shutdown();

  // Oracle: the sampled responses against fresh one-shot solves.
  for (const Kept& k : gen.kept()) {
    if (!matchesOracle(*scene, opt.seed, k)) {
      ++res.mismatches;
      res.tally.demote();
    }
  }

  auto& e = res.endToEnd;
  e["step_p50_s"] = median(plain.epochS);
  e["step_p90_s"] = percentile(plain.epochS, 0.90);
  e["qps"] = static_cast<double>(plain.completed) / plain.elapsed;
  e["p50_ms"] = median(plain.latencyMs);
  e["p99_ms"] = percentile(plain.latencyMs, 0.99);
  e["setup_s"] = median(setups);
  e["peak_rss_mb"] = rss;

  res.detail.str("kind", "service")
      .count("fine_cells", kFine)
      .count("rays", kRays)
      .count("workers", kWorkers)
      .count("tenants", kTenants)
      .count("window", kWindow)
      .count("requests_per_step", kEpoch)
      .str("loop", "closed")
      .count("requests", plain.latencyMs.size())
      .num("latency_resolved_percentile",
           highestResolvedPercentile(plain.latencyMs.size()))
      .count("step_samples", plain.epochS.size())
      .num("step_resolved_percentile",
           highestResolvedPercentile(plain.epochS.size()))
      .count("oracle_checked", gen.kept().size())
      .count("submitted", final.submitted)
      .count("rejected", final.rejected)
      .nums("setup_s", setups)
      .obj("steps", JsonObject()
                        .nums("wall_s", plain.epochS)
                        .nums("update_ms", plain.updateMs));

  if (opt.trace) {
    auto& m = res.perLayer;
    ledger(traced, fold, m);
    m["gpu.level_db_copies"] =
        static_cast<double>(svc->warehouse().numLevelVarCopies());
    m["mem.arena_peak_mb"] =
        static_cast<double>(mem::MmapArena::stats().peakBytesMapped) / 1e6;
    m["trace_overhead_frac"] =
        median(traced.epochS) / median(plain.epochS) - 1.0;
    m["trace_p50_overhead_frac"] =
        median(traced.latencyMs) / median(plain.latencyMs) - 1.0;
    res.detail.count("traced_requests", traced.latencyMs.size())
        .obj("spans_per_step",
             spanTable(fold, static_cast<double>(traced.completed) /
                                 static_cast<double>(kEpoch)))
        .obj("traced_steps", JsonObject()
                                 .nums("wall_s", traced.epochS)
                                 .nums("update_ms", traced.updateMs));
  }
  return res;
}

}  // namespace perfbench
