#include "runtime/scheduler.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>

#include "util/backoff.h"
#include "util/logger.h"
#include "util/trace_recorder.h"

namespace rmcrt::runtime {

namespace {

/// Invoke f.operator()<T>() for the payload type of a variable.
template <typename F>
void withType(VarType t, F&& f) {
  if (t == VarType::Double)
    f.template operator()<double>();
  else
    f.template operator()<grid::CellType>();
}

}  // namespace

/// Per-patch execution record for the current phase.
struct Scheduler::PendingTask {
  const grid::Patch* patch = nullptr;
  std::atomic<int> outstanding{0};  ///< staged regions still incomplete
  bool ran = false;
};

/// One staged window of a requirement on one rank: the rank's patches
/// whose tasks wait on it (positions in its patchesOf list) and the
/// source-patch overlaps that fill it, in patchesIntersecting order. A
/// message's tag is the position of its source in the receiver's stages,
/// counted across them in order, so sender and receiver number it alike.
struct Scheduler::Stage {
  grid::CellRange window;
  std::vector<std::size_t> waiters;
  std::vector<grid::Level::Overlap> sources;
};

Scheduler::Scheduler(std::shared_ptr<const grid::Grid> grid,
                     std::shared_ptr<const grid::LoadBalancer> lb,
                     comm::Communicator& world, int rank,
                     SchedulerConfig config)
    : m_grid(std::move(grid)),
      m_lb(std::move(lb)),
      m_world(world),
      m_rank(rank),
      m_config(config),
      m_oldDW(std::make_unique<DataWarehouse>()),
      m_newDW(std::make_unique<DataWarehouse>()),
      m_channel(m_world, m_rank, m_config.channel) {}

Scheduler::~Scheduler() = default;

void Scheduler::addTask(Task task) {
  if (task.requiresList().size() > kMaxRequiresPerTask)
    throw std::length_error(
        "task '" + task.name() + "' has " +
        std::to_string(task.requiresList().size()) + " requires; at most " +
        std::to_string(kMaxRequiresPerTask) + " fit in a message tag");
  m_tasks.push_back(std::move(task));
}

Scheduler::Plan Scheduler::compilePlan(const Task& task,
                                       const Requires& req) const {
  const grid::Level& srcLevel = m_grid->level(req.level);
  Plan plan(static_cast<std::size_t>(m_world.size()));
  for (int r = 0; r < m_world.size(); ++r) {
    std::vector<Stage>& stages = plan[static_cast<std::size_t>(r)];
    const std::vector<int> patches =
        m_lb->patchesOf(r, *m_grid, task.level());
    for (std::size_t i = 0; i < patches.size(); ++i) {
      const grid::CellRange window =
          requiredWindow(*m_grid, *m_grid->patchById(patches[i]), req);
      auto it =
          std::find_if(stages.begin(), stages.end(),
                       [&](const Stage& s) { return s.window == window; });
      if (it == stages.end())
        it = stages.insert(
            it, Stage{window, {}, srcLevel.patchesIntersecting(window)});
      it->waiters.push_back(i);
    }
  }
  return plan;
}

void Scheduler::preallocateComputes(const Task& task,
                                    const std::vector<int>& localPatches) {
  for (int pid : localPatches) {
    const grid::Patch* p = m_grid->patchById(pid);
    for (const Computes& c : task.computesList()) {
      withType(c.type, [&]<typename T>() {
        if (!m_newDW->exists(c.label, pid))
          m_newDW->put(c.label, pid, grid::CCVariable<T>(*p, c.numGhost));
      });
    }
  }
}

std::int64_t Scheduler::messageTag(std::size_t phaseIdx, std::size_t reqIdx,
                                   std::size_t seqIdx) {
  // Sequence indices come from the shared deterministic plan; addTask
  // bounds reqIdx, so only the sequence slot can overflow here.
  if (seqIdx >= kMaxTransfersPerRequirement)
    throw std::length_error(
        "requirement " + std::to_string(reqIdx) + " of phase " +
        std::to_string(phaseIdx) + " needs more than " +
        std::to_string(kMaxTransfersPerRequirement) +
        " transfers; message tags would alias");
  return static_cast<std::int64_t>(
      (phaseIdx * kMaxRequiresPerTask + reqIdx) * kMaxTransfersPerRequirement +
      seqIdx);
}

void Scheduler::stageRequirement(
    std::size_t phaseIdx, std::size_t reqIdx, const Requires& req,
    const std::vector<Stage>& stages,
    std::vector<std::shared_ptr<PendingTask>>& pending) {
  DataWarehouse& dw = dwFor(req);
  // Shared by a stage's receive callbacks: the last arrival releases the
  // stage's waiters.
  struct Arrivals {
    std::atomic<int> remaining{0};
    std::vector<PendingTask*> waiters;
  };
  std::size_t seq = 0;
  for (const Stage& s : stages) {
    auto arrivals = std::make_shared<Arrivals>();
    for (std::size_t i : s.waiters)
      arrivals->waiters.push_back(pending[i].get());
    withType(req.type, [&]<typename T>() {
      // Allocate the staged region, fill the locally-owned pieces, and
      // post receives for the remote ones.
      if (!dw.existsRegion(req.label, req.level, s.window))
        dw.putRegion(req.label, req.level,
                     grid::CCVariable<T>(s.window, T{}));
      auto* staged =
          &dw.getRegionModifiable<T>(req.label, req.level, s.window);
      for (const grid::Level::Overlap& src : s.sources) {
        const std::size_t srcSeq = seq++;
        const int owner = m_lb->rankOf(src.patch->id());
        if (owner == m_rank) {
          staged->copyRegion(dw.get<T>(req.label, src.patch->id()),
                             src.region);
          continue;
        }
        arrivals->remaining.fetch_add(1, std::memory_order_relaxed);
        const std::size_t bytes =
            static_cast<std::size_t>(src.region.volume()) * sizeof(T);
        auto buf = std::make_shared<comm::Buffer>(bytes);
        comm::Request r = m_channel.postRecv(
            owner, messageTag(phaseIdx, reqIdx, srcSeq), buf->data(), bytes);
        m_pool.add(comm::CommNode(
            std::move(r), [this, staged, buf, overlap = src.region,
                           arrivals](const comm::Request& req2) {
              m_stats.messagesReceived++;
              m_stats.bytesReceived += req2.bytes();
              staged->storage().unpackRegion(
                  overlap, reinterpret_cast<const T*>(buf->data()));
              if (arrivals->remaining.fetch_sub(
                      1, std::memory_order_acq_rel) == 1) {
                for (PendingTask* w : arrivals->waiters)
                  w->outstanding.fetch_sub(1, std::memory_order_acq_rel);
              }
            }));
      }
    });
    // Arm the waiters after posting: our single polling loop processes
    // completions only on this thread, so no decrement can race ahead.
    if (arrivals->remaining.load(std::memory_order_relaxed) > 0) {
      for (PendingTask* w : arrivals->waiters)
        w->outstanding.fetch_add(1, std::memory_order_acq_rel);
    }
  }
}

void Scheduler::postSends(std::size_t phaseIdx, std::size_t reqIdx,
                          const Requires& req, const Plan& plan) {
  DataWarehouse& dw = dwFor(req);
  for (int r = 0; r < m_world.size(); ++r) {
    if (r == m_rank) continue;
    std::size_t seq = 0;
    for (const Stage& s : plan[static_cast<std::size_t>(r)]) {
      for (const grid::Level::Overlap& src : s.sources) {
        const std::size_t srcSeq = seq++;
        if (m_lb->rankOf(src.patch->id()) != m_rank) continue;
        withType(req.type, [&]<typename T>() {
          const auto& var = dw.get<T>(req.label, src.patch->id());
          comm::Buffer buf(static_cast<std::size_t>(src.region.volume()) *
                           sizeof(T));
          var.storage().packRegion(src.region,
                                   reinterpret_cast<T*>(buf.data()));
          m_channel.send(r, messageTag(phaseIdx, reqIdx, srcSeq), buf.data(),
                         buf.size());
          m_stats.messagesSent++;
          m_stats.bytesSent += buf.size();
        });
      }
    }
  }
}

std::vector<TimestepStalled::Suspect> Scheduler::stallSuspects() const {
  std::vector<TimestepStalled::Suspect> suspects;
  std::map<int, std::size_t> bySource;
  for (const auto& [src, tag] : m_channel.pendingRecvs()) ++bySource[src];
  suspects.reserve(bySource.size());
  for (const auto& [src, count] : bySource) {
    TimestepStalled::Suspect s;
    s.rank = src;
    s.pendingRecvs = count;
    // If our own frames to that rank died after the full retry budget it
    // is not merely late with its sends — nothing reaches it at all.
    s.dead = m_channel.linkDead(src);
    suspects.push_back(s);
  }
  return suspects;
}

std::string Scheduler::stallDiagnostic(std::size_t phaseIdx,
                                       std::size_t ranCount,
                                       std::size_t totalTasks,
                                       int strikes) const {
  std::ostringstream os;
  os << "rank " << m_rank << " stalled in phase " << phaseIdx << " ('"
     << m_tasks[phaseIdx].name() << "'): " << ranCount << "/" << totalTasks
     << " patch tasks run, " << m_pool.pending()
     << " requests outstanding, strike " << strikes << "/"
     << m_config.watchdogMaxStrikes;
  os << "; channel unacked=" << m_channel.unackedCount();
  const auto pendingRecvs = m_channel.pendingRecvs();
  os << ", pending recvs=" << pendingRecvs.size() << " [";
  std::size_t shown = 0;
  for (const auto& [src, tag] : pendingRecvs) {
    if (shown++ == 8) {
      os << " ...";
      break;
    }
    os << " (src " << src << ", tag " << tag << ")";
  }
  os << " ]";
  const auto cs = m_channel.stats();
  os << "; retransmits=" << cs.retransmits
     << " dupsDiscarded=" << cs.duplicatesDiscarded
     << " deadLinks=" << cs.deadLinks;
  for (const auto& s : stallSuspects()) {
    os << "; suspect rank " << s.rank << ": "
       << (s.dead ? "DEAD (send link exhausted retries)"
                  : "SLOW (inputs outstanding, link alive)")
       << ", " << s.pendingRecvs << " pending recvs";
  }
  return os.str();
}

void Scheduler::runPhase(std::size_t phaseIdx) {
  const Task& task = m_tasks[phaseIdx];
  RMCRT_TRACE_SPAN("sched", "phase:" + task.name());
  const std::vector<int> localPatches =
      m_lb->patchesOf(m_rank, *m_grid, task.level());

  preallocateComputes(task, localPatches);

  std::vector<std::shared_ptr<PendingTask>> pending;
  pending.reserve(localPatches.size());
  for (int pid : localPatches) {
    auto pt = std::make_shared<PendingTask>();
    pt->patch = m_grid->patchById(pid);
    pending.push_back(std::move(pt));
  }

  // Plan, stage and send: the paper's "local communication" (time spent
  // posting MPI messages). One plan per requirement serves both sides.
  {
    ScopedTimer timer(m_localCommAcc);
    const std::vector<Requires>& reqs = task.requiresList();
    std::vector<Plan> plans;
    {
      RMCRT_TRACE_SPAN("sched", "plan");
      plans.reserve(reqs.size());
      for (const Requires& req : reqs) plans.push_back(compilePlan(task, req));
    }
    {
      RMCRT_TRACE_SPAN("sched", "stage");
      for (std::size_t ri = 0; ri < reqs.size(); ++ri)
        stageRequirement(phaseIdx, ri, reqs[ri],
                         plans[ri][static_cast<std::size_t>(m_rank)], pending);
    }
    {
      RMCRT_TRACE_SPAN("sched", "send");
      for (std::size_t ri = 0; ri < reqs.size(); ++ri)
        postSends(phaseIdx, ri, reqs[ri], plans[ri]);
    }
  }

  // Execute patches as their inputs arrive, overlapping with completion
  // processing of the remaining messages.
  const bool watchdogOn = m_config.watchdogDeadlineSeconds > 0;
  const auto deadline = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double>(
      watchdogOn ? m_config.watchdogDeadlineSeconds : 0));
  auto lastProgress = std::chrono::steady_clock::now();
  int strikes = 0;
  util::Backoff backoff;
  std::size_t ranCount = 0;
  while (ranCount < pending.size()) {
    if (m_world.aborted()) throw comm::CommAborted(m_world.abortReason());
    m_channel.progress();
    int processed;
    {
      ScopedTimer timer(m_localCommAcc);
      processed = m_pool.processReady();
    }
    bool progress = processed > 0;
    for (auto& pt : pending) {
      if (!pt->ran &&
          pt->outstanding.load(std::memory_order_acquire) == 0) {
        TaskContext ctx{m_rank, m_grid.get(), pt->patch, m_oldDW.get(),
                        m_newDW.get()};
        {
          RMCRT_TRACE_SPAN("sched", "exec:" + task.name());
          ScopedTimer timer(m_taskExecAcc);
          task.action()(ctx);
        }
        pt->ran = true;
        ++ranCount;
        ++m_stats.tasksExecuted;
        progress = true;
      }
    }
    if (progress) {
      lastProgress = std::chrono::steady_clock::now();
      backoff.reset();
      continue;
    }
    if (watchdogOn &&
        std::chrono::steady_clock::now() - lastProgress > deadline) {
      ++strikes;
      ++m_stats.watchdogStrikes;
      RMCRT_TRACE_INSTANT("sched", "watchdog_strike");
      const std::string diag =
          stallDiagnostic(phaseIdx, ranCount, pending.size(), strikes);
      RMCRT_ERROR("watchdog: " << diag);
      if (strikes >= m_config.watchdogMaxStrikes) {
        m_world.abort(diag);
        throw TimestepStalled(diag, stallSuspects());
      }
      // Kick the recovery path before the next strike window.
      m_channel.forceRetransmit();
      lastProgress = std::chrono::steady_clock::now();
      continue;
    }
    ScopedTimer timer(m_waitAcc);
    backoff.pause();
  }

  // Phase boundary: everyone's sends for this phase have been consumed
  // before the next phase reuses tags.
  {
    RMCRT_TRACE_SPAN("sched", "barrier");
    m_world.barrier(m_rank);
  }
}

void Scheduler::executeTimestep() {
  if (TraceRecorder::global().enabled()) {
    // Group this rank's rows under its own pid in the trace viewer.
    TraceRecorder::global().setThreadPid(m_rank);
    TraceRecorder::global().setThreadName("rank" + std::to_string(m_rank) +
                                          "/scheduler");
  }
  RMCRT_TRACE_SPAN("sched", "timestep");
  for (std::size_t i = 0; i < m_tasks.size(); ++i) runPhase(i);
  m_stats.localCommSeconds = m_localCommAcc.seconds();
  m_stats.taskExecSeconds = m_taskExecAcc.seconds();
  m_stats.waitSeconds = m_waitAcc.seconds();
  const auto cs = m_channel.stats();
  m_stats.retransmits = cs.retransmits;
  m_stats.duplicatesDiscarded = cs.duplicatesDiscarded;
  m_stats.maxBackoffMs = cs.maxBackoffMs;
}

void Scheduler::exportMetrics(MetricsRegistry& reg,
                              const std::string& prefix) const {
  reg.setGauge(prefix + "local_comm_seconds", m_stats.localCommSeconds);
  reg.setGauge(prefix + "task_exec_seconds", m_stats.taskExecSeconds);
  reg.setGauge(prefix + "wait_seconds", m_stats.waitSeconds);
  reg.setGauge(prefix + "messages_sent",
               static_cast<double>(m_stats.messagesSent));
  reg.setGauge(prefix + "bytes_sent",
               static_cast<double>(m_stats.bytesSent));
  reg.setGauge(prefix + "messages_received",
               static_cast<double>(m_stats.messagesReceived));
  reg.setGauge(prefix + "bytes_received",
               static_cast<double>(m_stats.bytesReceived));
  reg.setGauge(prefix + "tasks_executed",
               static_cast<double>(m_stats.tasksExecuted));
  reg.setGauge(prefix + "watchdog_strikes",
               static_cast<double>(m_stats.watchdogStrikes));
  comm::exportMetrics(m_channel.stats(), reg, prefix + "channel.");
}

void Scheduler::advanceDataWarehouses() {
  std::swap(m_oldDW, m_newDW);
  m_newDW->clear();
}

}  // namespace rmcrt::runtime
