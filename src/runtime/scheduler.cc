#include "runtime/scheduler.h"

#include <cassert>
#include <chrono>
#include <map>
#include <sstream>
#include <unordered_set>

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

/// Deterministic ordered list of (source patch, staged window, overlap)
/// transfers that satisfy requirement \p req for all of \p receiverRank's
/// patches of \p task. Both sender and receiver ranks compute this list
/// identically, so the index of an entry is a collision-free message tag
/// component.
struct TransferEntry {
  int srcPatchId;
  grid::CellRange window;   ///< staged region (receiver side key)
  grid::CellRange overlap;  ///< srcPatch interior ∩ window (the payload)
};

std::vector<TransferEntry> transferList(
    const grid::Grid& grid, const grid::LoadBalancer& lb,
    const Scheduler& sched, const Task& task, const Requires& req,
    int receiverRank) {
  std::vector<TransferEntry> out;
  std::unordered_set<std::string> seen;
  const grid::Level& srcLevel = grid.level(req.level);
  for (int rp : lb.patchesOf(receiverRank, grid, task.level())) {
    const grid::Patch* p = grid.patchById(rp);
    const grid::CellRange window = sched.requiredRegion(task, *p, req);
    for (const auto& o : srcLevel.patchesIntersecting(window)) {
      std::string key = std::to_string(o.patch->id()) + "|" +
                        window.low().toString() + window.high().toString();
      if (seen.insert(std::move(key)).second)
        out.push_back(TransferEntry{o.patch->id(), window, o.region});
    }
  }
  return out;
}

}  // namespace

/// Per-patch execution record for the current phase.
struct Scheduler::PendingTask {
  const grid::Patch* patch = nullptr;
  std::atomic<int> outstanding{0};  ///< staged regions still incomplete
  bool ran = false;
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

grid::CellRange Scheduler::requiredRegion(const Task& task,
                                          const grid::Patch& patch,
                                          const Requires& req) const {
  const grid::Level& reqLevel = m_grid->level(req.level);
  if (req.wholeLevel) return reqLevel.cells();
  grid::CellRange region;
  if (req.level == task.level()) {
    region = patch.ghostWindow(req.numGhost);
  } else if (req.level > task.level()) {
    // Finer level: the fine cells covered by this patch.
    grid::CellRange r = patch.cells();
    for (int l = task.level() + 1; l <= req.level; ++l)
      r = r.refined(m_grid->level(l).refinementRatio());
    region = r.grown(req.numGhost);
  } else {
    // Coarser level: the coarse cells covering this patch.
    grid::CellRange r = patch.cells();
    for (int l = task.level(); l > req.level; --l)
      r = r.coarsened(m_grid->level(l).refinementRatio());
    region = r.grown(req.numGhost);
  }
  return region.intersect(reqLevel.cells());
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
  // Sequence indices come from the shared deterministic transfer list;
  // addTask bounds reqIdx, so only the sequence slot can overflow here.
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
    std::size_t phaseIdx, std::size_t reqIdx, const Task& task,
    const Requires& req, const std::vector<int>& localPatches,
    std::vector<std::shared_ptr<PendingTask>>& pending) {
  DataWarehouse& dw = dwFor(req);

  // 1. Collect the distinct staged windows and which pending tasks wait on
  //    each.
  struct Stage {
    grid::CellRange window;
    std::vector<PendingTask*> waiters;
    std::shared_ptr<std::atomic<int>> remainingMsgs =
        std::make_shared<std::atomic<int>>(0);
  };
  std::vector<Stage> stages;
  auto findStage = [&stages](const grid::CellRange& w) -> Stage* {
    for (auto& s : stages)
      if (s.window == w) return &s;
    return nullptr;
  };
  for (std::size_t i = 0; i < localPatches.size(); ++i) {
    const grid::Patch* p = m_grid->patchById(localPatches[i]);
    const grid::CellRange window = requiredRegion(task, *p, req);
    Stage* s = findStage(window);
    if (!s) {
      stages.push_back(
          Stage{window, {}, std::make_shared<std::atomic<int>>(0)});
      s = &stages.back();
    }
    s->waiters.push_back(pending[i].get());
  }

  // 2. Allocate each staged region, fill the locally-owned pieces, and
  //    post receives for the remote pieces. The transfer list gives the
  //    same sequence numbering the senders use.
  const auto transfers =
      transferList(*m_grid, *m_lb, *this, task, req, m_rank);
  for (Stage& s : stages) {
    withType(req.type, [&]<typename T>() {
      if (!dw.existsRegion(req.label, req.level, s.window))
        dw.putRegion(req.label, req.level,
                     grid::CCVariable<T>(s.window, T{}));
    });
  }
  for (std::size_t seq = 0; seq < transfers.size(); ++seq) {
    const TransferEntry& e = transfers[seq];
    Stage* s = findStage(e.window);
    assert(s && "transfer window not staged");
    const int owner = m_lb->rankOf(e.srcPatchId);
    withType(req.type, [&]<typename T>() {
      auto& staged =
          dw.getRegionModifiable<T>(req.label, req.level, e.window);
      if (owner == m_rank) {
        const auto& src = dw.get<T>(req.label, e.srcPatchId);
        staged.copyRegion(src, e.overlap);
      } else {
        s->remainingMsgs->fetch_add(1, std::memory_order_relaxed);
        const std::size_t bytes =
            static_cast<std::size_t>(e.overlap.volume()) * sizeof(T);
        auto buf = std::make_shared<comm::Buffer>(bytes);
        comm::Request r = m_channel.postRecv(
            owner, messageTag(phaseIdx, reqIdx, seq), buf->data(), bytes);
        auto* stagedPtr = &staged;
        auto remaining = s->remainingMsgs;
        auto waiters = s->waiters;  // copy: Stage dies before callbacks run
        grid::CellRange overlap = e.overlap;
        m_pool.add(comm::CommNode(
            std::move(r),
            [this, stagedPtr, buf, overlap, remaining,
             waiters](const comm::Request& req2) {
              m_stats.messagesReceived++;
              m_stats.bytesReceived += req2.bytes();
              stagedPtr->storage().unpackRegion(
                  overlap, reinterpret_cast<const T*>(buf->data()));
              if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
                for (PendingTask* w : waiters)
                  w->outstanding.fetch_sub(1, std::memory_order_acq_rel);
              }
            }));
      }
    });
  }
  // 3. Arm the waiter counts for stages with remote pieces. (Done after
  //    posting: our single polling loop only processes completions from
  //    this thread, so no decrement can race ahead of the increments.)
  for (Stage& s : stages) {
    if (s.remainingMsgs->load(std::memory_order_relaxed) > 0) {
      for (PendingTask* w : s.waiters)
        w->outstanding.fetch_add(1, std::memory_order_acq_rel);
    }
  }
}

void Scheduler::postSendsFor(std::size_t phaseIdx, std::size_t reqIdx,
                             const Task& task, const Requires& req) {
  DataWarehouse& dw = dwFor(req);
  for (int r = 0; r < m_world.size(); ++r) {
    if (r == m_rank) continue;
    const auto transfers =
        transferList(*m_grid, *m_lb, *this, task, req, r);
    for (std::size_t seq = 0; seq < transfers.size(); ++seq) {
      const TransferEntry& e = transfers[seq];
      if (m_lb->rankOf(e.srcPatchId) != m_rank) continue;
      withType(req.type, [&]<typename T>() {
        const auto& src = dw.get<T>(req.label, e.srcPatchId);
        const std::size_t n = static_cast<std::size_t>(e.overlap.volume());
        comm::Buffer buf(n * sizeof(T));
        src.storage().packRegion(e.overlap,
                                 reinterpret_cast<T*>(buf.data()));
        m_channel.send(r, messageTag(phaseIdx, reqIdx, seq), buf.data(),
                       buf.size());
        m_stats.messagesSent++;
        m_stats.bytesSent += buf.size();
      });
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

  // Post receives (staging) and sends — the paper's "local communication"
  // (time spent posting MPI messages).
  {
    RMCRT_TRACE_SPAN("sched", "post_mpi");
    ScopedTimer timer(m_localCommAcc);
    for (std::size_t ri = 0; ri < task.requiresList().size(); ++ri)
      stageRequirement(phaseIdx, ri, task, task.requiresList()[ri],
                       localPatches, pending);
    for (std::size_t ri = 0; ri < task.requiresList().size(); ++ri)
      postSendsFor(phaseIdx, ri, task, task.requiresList()[ri]);
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
                        m_newDW.get(), m_config.taskPool};
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
