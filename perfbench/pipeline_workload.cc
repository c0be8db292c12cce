/// \file pipeline_workload.cc
/// pipeline_kernel and pipeline_comm: warm radiation timesteps of the
/// distributed two-level GPU pipeline (RmcrtComponent::
/// registerTwoLevelGpuPipeline) on two in-process ranks, each rank a
/// persistent thread driving its own SimulationController, Scheduler,
/// ReliableChannel and simulated GPU. Every step's divQ is compared
/// bitwise against RmcrtComponent::solveSerialTwoLevel.

#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "comm/communicator.h"
#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "gpu/gpu_data_warehouse.h"
#include "gpu/gpu_device.h"
#include "grid/load_balancer.h"
#include "mem/mmap_arena.h"
#include "runtime/simulation_controller.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timers.h"
#include "util/trace_recorder.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rmcrt;
using runtime::Scheduler;
using runtime::SchedulerStats;
using runtime::SimulationController;
using runtime::Task;
using runtime::TaskContext;

constexpr int kRanks = 2;

struct Shape {
  int fine;         ///< fine cells per axis
  int patch;        ///< fine patch edge
  int rays;         ///< rays per cell
  int roiHalo;      ///< fine halo around each patch
  int workerSlots;  ///< simulated-GPU worker threads per rank
  int setupRepeats; ///< set-ups per run (setup_s is their median)
};

Shape shapeFor(const std::string& workload) {
  if (workload == "pipeline_kernel") return Shape{64, 16, 16, 4, 1, 3};
  return Shape{16, 4, 8, 4, 1, 7};  // pipeline_comm
}

std::shared_ptr<grid::Grid> makeGrid(const Shape& s) {
  // Refinement ratio 4; the coarse level keeps patches of half its edge.
  const int coarse = s.fine / 4;
  return grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(s.fine),
                                  IntVector(4), IntVector(s.patch),
                                  IntVector(std::max(1, coarse / 2)));
}

/// One rank's wrapped task actions over one step: time by pipeline stage,
/// and when each patch's divQ became available.
struct ActionTimes {
  std::chrono::steady_clock::time_point stepStart;
  double init = 0.0, coarsen = 0.0, trace = 0.0;
  std::vector<double> patchReadyS;  ///< trace completions, from stepStart
};

/// One rank's accounting for one step.
struct RankStep {
  double wall = 0.0;  ///< SimulationController::run(step, 1), from outside
  SchedulerStats sched;
  comm::ReliableChannelStats chan;  ///< delta over the step
  gpu::DeviceStats dev;             ///< delta (peak: absolute)
  std::size_t levelDbCopies = 0;
  ActionTimes actions;
  std::string error;  ///< non-empty when the step threw
};

comm::ReliableChannelStats minus(const comm::ReliableChannelStats& a,
                                 const comm::ReliableChannelStats& b) {
  comm::ReliableChannelStats d = a;
  d.dataSent -= b.dataSent;
  d.dataDelivered -= b.dataDelivered;
  d.retransmits -= b.retransmits;
  d.duplicatesDiscarded -= b.duplicatesDiscarded;
  d.acksSent -= b.acksSent;
  d.acksReceived -= b.acksReceived;
  return d;
}

gpu::DeviceStats minus(const gpu::DeviceStats& a, const gpu::DeviceStats& b) {
  gpu::DeviceStats d = a;
  d.h2dBytes -= b.h2dBytes;
  d.d2hBytes -= b.d2hBytes;
  d.h2dTransfers -= b.h2dTransfers;
  d.d2hTransfers -= b.d2hTransfers;
  d.kernelsLaunched -= b.kernelsLaunched;
  d.cpuFallbacks -= b.cpuFallbacks;
  return d;
}

/// Re-add every registered task with its action wrapped in a timer and a
/// benchmark span ("core:<stage>"), measuring the core layer from outside.
/// The wrapper costs two clock reads per patch task, so it stays on in
/// untraced runs too, where it supplies the patch-ready latencies.
void wrapActions(Scheduler& sched, ActionTimes& times) {
  const std::vector<Task> tasks = sched.tasks();
  sched.clearTasks();
  for (const Task& t : tasks) {
    double* slot = nullptr;
    std::string span;
    if (t.name().find("init") != std::string::npos) {
      slot = &times.init;
      span = "core:init";
    } else if (t.name().find("coarsen") != std::string::npos) {
      slot = &times.coarsen;
      span = "core:coarsen";
    } else if (t.name().find("rayTrace") != std::string::npos) {
      slot = &times.trace;
      span = "core:trace";
    } else {
      throw std::logic_error("unexpected pipeline task " + t.name());
    }
    const bool trace = slot == &times.trace;
    Task w(t.name(), t.level(),
           [inner = t.action(), slot, span, trace,
            &times](const TaskContext& ctx) {
             TraceSpan s("bench", span);
             Timer timer;
             inner(ctx);
             *slot += timer.seconds();
             if (trace)
               times.patchReadyS.push_back(
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - times.stepStart)
                       .count());
           });
    for (const auto& r : t.requiresList()) w.addRequires(r);
    for (const auto& c : t.computesList()) w.addComputes(c);
    sched.addTask(std::move(w));
  }
}

/// Two ranks of the pipeline, each on a persistent thread. step() runs one
/// timestep on every rank concurrently and returns their accounting.
class Rig {
 public:
  Rig(const Shape& shape, const core::RmcrtSetup& setup)
      : m_grid(makeGrid(shape)),
        m_lb(std::make_shared<grid::LoadBalancer>(*m_grid, kRanks)),
        m_world(kRanks),
        m_setup(setup),
        m_results(kRanks),
        m_times(kRanks) {
    for (int r = 0; r < kRanks; ++r) {
      gpu::GpuDevice::Config cfg;
      cfg.globalMemoryBytes = std::size_t{1} << 30;
      cfg.workerSlots = shape.workerSlots;
      m_devices.push_back(std::make_unique<gpu::GpuDevice>(cfg));
      m_gdws.push_back(std::make_unique<gpu::GpuDataWarehouse>(*m_devices[r]));
      m_scheds.push_back(
          std::make_unique<Scheduler>(m_grid, m_lb, m_world, r));
      m_ctrls.push_back(std::make_unique<SimulationController>(
          *m_scheds[r],
          [this, r](Scheduler& s) {
            core::RmcrtComponent::registerTwoLevelGpuPipeline(s, m_setup,
                                                              *m_gdws[r]);
            wrapActions(s, m_times[r]);
          },
          nullptr));
    }
    for (int r = 0; r < kRanks; ++r)
      m_threads.emplace_back([this, r] { rankLoop(r); });
  }

  ~Rig() {
    {
      std::lock_guard<std::mutex> lk(m_mu);
      m_stop = true;
    }
    m_go.notify_all();
    for (auto& t : m_threads) t.join();
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  std::vector<RankStep> step() {
    std::unique_lock<std::mutex> lk(m_mu);
    m_done = 0;
    ++m_epoch;
    m_go.notify_all();
    m_finished.wait(lk, [&] { return m_done == kRanks; });
    return m_results;
  }

  /// Cells of the final step's divQ that differ bitwise from \p oracle.
  std::uint64_t divQMismatches(const grid::CCVariable<double>& oracle) const {
    std::uint64_t bad = 0;
    const int fine = m_grid->numLevels() - 1;
    for (int r = 0; r < kRanks; ++r) {
      for (int pid : m_lb->patchesOf(r, *m_grid, fine)) {
        const auto& divQ =
            m_scheds[r]->newDW().get<double>(core::RmcrtLabels::divQ, pid);
        for (const auto& c : m_grid->patchById(pid)->cells())
          bad += std::bit_cast<std::uint64_t>(divQ[c]) !=
                 std::bit_cast<std::uint64_t>(oracle[c]);
      }
    }
    return bad;
  }

 private:
  void rankLoop(int r) {
    std::uint64_t seen = 0;
    for (;;) {
      int step = 0;
      {
        std::unique_lock<std::mutex> lk(m_mu);
        m_go.wait(lk, [&] { return m_stop || m_epoch != seen; });
        if (m_stop) return;
        seen = m_epoch;
        step = static_cast<int>(seen) - 1;
      }
      RankStep out = runRankStep(r, step);
      {
        std::lock_guard<std::mutex> lk(m_mu);
        m_results[r] = std::move(out);
        if (++m_done == kRanks) m_finished.notify_one();
      }
    }
  }

  RankStep runRankStep(int r, int step) {
    RankStep out;
    Scheduler& sched = *m_scheds[r];
    const comm::ReliableChannelStats chan0 = sched.channel()->stats();
    const gpu::DeviceStats dev0 = m_devices[r]->stats();
    m_times[r] = ActionTimes{};
    m_times[r].stepStart = std::chrono::steady_clock::now();
    try {
      TraceSpan span("bench", "step");
      Timer timer;
      const auto records = m_ctrls[r]->run(step, 1);
      out.wall = timer.seconds();
      out.sched = records.at(0).stats;
    } catch (const std::exception& e) {
      out.error = e.what();
      // Unblock the other rank: it would otherwise wait in a barrier.
      m_world.abort("rank " + std::to_string(r) + ": " + e.what());
    }
    out.chan = minus(sched.channel()->stats(), chan0);
    out.dev = minus(m_devices[r]->stats(), dev0);
    out.levelDbCopies = m_gdws[r]->numLevelVarCopies();
    out.actions = m_times[r];
    return out;
  }

  std::shared_ptr<grid::Grid> m_grid;
  std::shared_ptr<grid::LoadBalancer> m_lb;
  comm::Communicator m_world;
  core::RmcrtSetup m_setup;
  std::vector<std::unique_ptr<gpu::GpuDevice>> m_devices;
  std::vector<std::unique_ptr<gpu::GpuDataWarehouse>> m_gdws;
  std::vector<std::unique_ptr<Scheduler>> m_scheds;
  std::vector<std::unique_ptr<SimulationController>> m_ctrls;

  std::mutex m_mu;
  std::condition_variable m_go;
  std::condition_variable m_finished;
  std::uint64_t m_epoch = 0;  ///< steps requested; step k runs at epoch k+1
  int m_done = 0;
  bool m_stop = false;
  std::vector<RankStep> m_results;
  std::vector<ActionTimes> m_times;
  std::vector<std::thread> m_threads;  // last: joins before members die
};

/// One measured step: per-rank accounting plus the global tracer counter
/// deltas read while every rank was quiescent.
struct StepRecord {
  std::vector<RankStep> ranks;
  double wall = 0.0;  ///< max over ranks
  std::uint64_t segments = 0, rays = 0;
};

/// Mean over \p steps of the rank sum of f(rank step).
template <typename F>
double perStep(const std::vector<StepRecord>& steps, F f) {
  double total = 0.0;
  for (const auto& s : steps)
    for (const auto& r : s.ranks) total += static_cast<double>(f(r));
  return total / static_cast<double>(steps.size());
}

/// A pipeline "request" is one patch's radiation result: its latency runs
/// from the rank's step start until that patch's divQ is computed.
std::vector<double> patchReadyMs(const std::vector<StepRecord>& steps) {
  std::vector<double> ms;
  for (const auto& s : steps)
    for (const auto& r : s.ranks)
      for (double t : r.actions.patchReadyS) ms.push_back(t * 1e3);
  return ms;
}

std::vector<double> walls(const std::vector<StepRecord>& steps) {
  std::vector<double> w;
  for (const auto& s : steps) w.push_back(s.wall);
  return w;
}

JsonObject stepSeries(const std::vector<StepRecord>& steps) {
  std::vector<double> wall, retx;
  std::vector<std::vector<double>> comm(kRanks), exec(kRanks), wait(kRanks),
      rankWall(kRanks);
  for (const auto& s : steps) {
    wall.push_back(s.wall);
    double rt = 0.0;
    for (int r = 0; r < kRanks; ++r) {
      const RankStep& rs = s.ranks[r];
      rankWall[r].push_back(rs.wall);
      comm[r].push_back(rs.sched.localCommSeconds);
      exec[r].push_back(rs.sched.taskExecSeconds);
      wait[r].push_back(rs.sched.waitSeconds);
      rt += static_cast<double>(rs.chan.retransmits);
    }
    retx.push_back(rt);
  }
  JsonObject out;
  out.nums("wall_s", wall).nums("retransmits", retx);
  std::vector<JsonObject> ranks;
  for (int r = 0; r < kRanks; ++r)
    ranks.push_back(JsonObject()
                        .nums("wall_s", rankWall[r])
                        .nums("local_comm_s", comm[r])
                        .nums("task_exec_s", exec[r])
                        .nums("wait_s", wait[r]));
  return out.objs("ranks", ranks);
}

/// Per-layer ledger over the traced steps: per-step means of rank sums.
void ledger(const std::vector<StepRecord>& steps, const SpanFold& fold,
            std::map<std::string, double>& m, JsonObject& detail) {
  const double wall = perStep(steps, [](const RankStep& r) { return r.wall; });
  const double comm =
      perStep(steps, [](const RankStep& r) { return r.sched.localCommSeconds; });
  const double exec =
      perStep(steps, [](const RankStep& r) { return r.sched.taskExecSeconds; });
  const double wait =
      perStep(steps, [](const RankStep& r) { return r.sched.waitSeconds; });
  m["runtime.local_comm_s"] = comm;
  m["runtime.task_exec_s"] = exec;
  m["runtime.wait_s"] = wait;
  m["runtime.unattributed_s"] = wall - comm - exec - wait;
  m["runtime.unattributed_frac"] = (wall - comm - exec - wait) / wall;

  const double sent =
      perStep(steps, [](const RankStep& r) { return r.sched.messagesSent; });
  const double recvd =
      perStep(steps, [](const RankStep& r) { return r.sched.messagesReceived; });
  const double retx =
      perStep(steps, [](const RankStep& r) { return r.chan.retransmits; });
  const double dataSent =
      perStep(steps, [](const RankStep& r) { return r.chan.dataSent; });
  m["comm.msgs_sent"] = sent;
  m["comm.msgs_received"] = recvd;
  m["comm.bytes_sent"] =
      perStep(steps, [](const RankStep& r) { return r.sched.bytesSent; });
  m["comm.us_per_msg"] = sent + recvd > 0 ? comm / (sent + recvd) * 1e6 : 0.0;
  m["comm.retransmits"] = retx;
  m["comm.duplicates_discarded"] = perStep(
      steps, [](const RankStep& r) { return r.chan.duplicatesDiscarded; });
  m["comm.acks_sent"] =
      perStep(steps, [](const RankStep& r) { return r.chan.acksSent; });
  m["comm.useful_frac"] =
      dataSent + retx > 0
          ? perStep(steps,
                    [](const RankStep& r) { return r.chan.dataDelivered; }) /
                (dataSent + retx)
          : 0.0;

  const double trace =
      perStep(steps, [](const RankStep& r) { return r.actions.trace; });
  double segments = 0.0, rays = 0.0;
  for (const auto& s : steps) {
    segments += static_cast<double>(s.segments);
    rays += static_cast<double>(s.rays);
  }
  segments /= static_cast<double>(steps.size());
  m["core.trace_s"] = trace;
  m["core.init_s"] =
      perStep(steps, [](const RankStep& r) { return r.actions.init; });
  m["core.coarsen_s"] =
      perStep(steps, [](const RankStep& r) { return r.actions.coarsen; });
  m["core.segments"] = segments;
  m["core.rays"] = rays / static_cast<double>(steps.size());
  m["core.mseg_per_s"] = trace > 0 ? segments / trace / 1e6 : 0.0;

  double peakDevice = 0.0;  // max over ranks and steps, not a sum
  for (const auto& s : steps)
    for (const auto& r : s.ranks)
      peakDevice = std::max(peakDevice,
                            static_cast<double>(r.dev.peakBytesInUse) / 1e6);
  m["gpu.h2d_bytes"] =
      perStep(steps, [](const RankStep& r) { return r.dev.h2dBytes; });
  m["gpu.h2d_transfers"] =
      perStep(steps, [](const RankStep& r) { return r.dev.h2dTransfers; });
  m["gpu.d2h_bytes"] =
      perStep(steps, [](const RankStep& r) { return r.dev.d2hBytes; });
  m["gpu.kernels"] =
      perStep(steps, [](const RankStep& r) { return r.dev.kernelsLaunched; });
  m["gpu.level_db_copies"] =
      perStep(steps, [](const RankStep& r) { return r.levelDbCopies; });
  m["gpu.cpu_fallbacks"] =
      perStep(steps, [](const RankStep& r) { return r.dev.cpuFallbacks; });
  m["gpu.peak_device_mb"] = peakDevice;
  const double n = static_cast<double>(steps.size());
  m["gpu.kernel_s"] = fold.inclusive("kernel") / n;
  m["gpu.h2d_s"] = fold.inclusive("h2d_copy") / n;
  m["gpu.sync_wait_s"] = fold.inclusive("stream_sync_wait") / n;

  addLayerLedger(fold, n, wall * n, m);
  detail.num("local_comm_share", comm / wall)
      .num("trace_share", trace / wall)
      .num("task_exec_share", exec / wall);
}

}  // namespace

RunResult runPipeline(const RunOptions& opt) {
  const Shape shape = shapeFor(opt.workload);
  core::RmcrtSetup setup;
  setup.problem = core::burnsChriston();
  setup.trace.nDivQRays = shape.rays;
  setup.trace.seed = opt.seed;
  setup.roiHalo = shape.roiHalo;

  RunResult res;
  res.useSimd = setup.trace.useSimd;
  MetricsCounter& segCounter = MetricsRegistry::global().counter("tracer.segments");
  MetricsCounter& rayCounter = MetricsRegistry::global().counter("tracer.rays");

  // The oracle: the serial two-level solve of the same setup (not timed).
  grid::CCVariable<double> oracle;
  {
    ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
    core::RmcrtSetup serial = setup;
    serial.pool = &pool;
    oracle = core::RmcrtComponent::solveSerialTwoLevel(*makeGrid(shape), serial);
  }

  // Set-up: construction + registration + one warm-up step, repeated; the
  // last rig is the one measured.
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < shape.setupRepeats; ++i) {
    rig.reset();
    Timer timer;
    rig = std::make_unique<Rig>(shape, setup);
    const auto warm = rig->step();
    setups.push_back(timer.seconds());
    for (const auto& r : warm)
      if (!r.error.empty()) throw std::runtime_error("warm-up step: " + r.error);
    if (rig->divQMismatches(oracle) != 0)
      throw std::runtime_error("warm-up step differs from the serial oracle");
  }

  // Measured steps. With --trace 1 the first half of the window is the
  // untraced overhead baseline and the second half is traced.
  // measure() runs steps until the window reaches `until` (at least one)
  // and returns false once a step throws or differs from the oracle.
  std::vector<StepRecord> plain, traced;
  SpanFold fold;
  std::uint64_t cellsBad = 0;
  Timer window;
  auto measure = [&](bool tracing, double until,
                     std::vector<StepRecord>& out) {
    TraceRecorder::global().clear();
    TraceRecorder::global().setEnabled(tracing);
    bool ok = true;
    while (ok && (window.seconds() < until || out.empty())) {
      const std::uint64_t seg0 = segCounter.value(), ray0 = rayCounter.value();
      StepRecord rec;
      rec.ranks = rig->step();
      rec.segments = segCounter.value() - seg0;
      rec.rays = rayCounter.value() - ray0;
      if (tracing) foldRecordedSpans("step", fold);
      for (const auto& r : rec.ranks) {
        ok = ok && r.error.empty();
        rec.wall = std::max(rec.wall, r.wall);
      }
      if (ok) {  // a failed step leaves the world aborted: nothing to read
        const std::uint64_t bad = rig->divQMismatches(oracle);
        cellsBad += bad;
        res.mismatches += bad != 0;
        ok = bad == 0;
      }
      res.tally.record(ok);
      if (ok) out.push_back(std::move(rec));
    }
    TraceRecorder::global().setEnabled(false);
    return ok;
  };
  if (measure(false, opt.trace ? opt.seconds / 2 : opt.seconds, plain) &&
      opt.trace)
    measure(true, opt.seconds, traced);
  const double rss = peakRssMb();
  res.droppedEvents = fold.dropped;

  const std::vector<double> w = walls(plain);
  double total = 0.0;
  for (double x : w) total += x;
  auto& e = res.endToEnd;
  e["step_p50_s"] = median(w);
  e["step_p90_s"] = percentile(w, 0.90);
  e["qps"] = total > 0 ? static_cast<double>(w.size()) / total : 0.0;
  const std::vector<double> readyMs = patchReadyMs(plain);
  e["p50_ms"] = median(readyMs);
  e["p99_ms"] = percentile(readyMs, 0.99);
  e["setup_s"] = median(setups);
  e["peak_rss_mb"] = rss;

  res.detail.str("kind", "pipeline")
      .count("ranks", kRanks)
      .count("fine_cells", static_cast<std::uint64_t>(shape.fine))
      .count("patch", static_cast<std::uint64_t>(shape.patch))
      .count("rays", static_cast<std::uint64_t>(shape.rays))
      .count("roi_halo", static_cast<std::uint64_t>(shape.roiHalo))
      .count("gpu_worker_slots", static_cast<std::uint64_t>(shape.workerSlots))
      .count("oracle_cells_differing", cellsBad)
      .count("step_samples", w.size())
      .num("step_resolved_percentile", highestResolvedPercentile(w.size()))
      .count("patch_ready_samples", readyMs.size())
      .num("patch_ready_resolved_percentile",
           highestResolvedPercentile(readyMs.size()))
      .nums("setup_s", setups)
      .obj("steps", stepSeries(plain));

  if (opt.trace) {
    auto& m = res.perLayer;
    JsonObject shares;
    ledger(traced, fold, m, shares);
    for (const char* k :
         {"service.submit_us", "service.batches", "service.requests_per_batch",
          "service.tile_jobs", "service.update_ms", "service.post_update_ms",
          "service.coarse_uploads", "service.generation_evictions",
          "service.rejected", "service.slo_breaches", "service.batch_drain_s"})
      m[k] = 0.0;
    m["mem.arena_peak_mb"] =
        static_cast<double>(mem::MmapArena::stats().peakBytesMapped) / 1e6;
    const double tracedP50 = median(walls(traced));
    m["trace_overhead_frac"] = tracedP50 / median(w) - 1.0;
    m["trace_p50_overhead_frac"] =
        median(patchReadyMs(traced)) / median(readyMs) - 1.0;
    res.detail.obj("traced_shares", shares)
        .obj("spans_per_step",
             spanTable(fold, static_cast<double>(traced.size())))
        .count("traced_steps", traced.size())
        .obj("traced_steps_series", stepSeries(traced));
  }
  return res;
}

}  // namespace perfbench
