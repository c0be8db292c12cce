#pragma once

/// \file scheduler.h
/// The per-rank task scheduler: compiles task declarations into per-patch
/// work plus the message list that satisfies remote requires, executes
/// phases with communication/computation overlap, and attributes time to
/// "local communication" (posting/processing MPI) versus task execution —
/// the quantity Figure 1 / Table I of the paper measures.
///
/// Faithfulness notes versus Uintah:
///  * Outstanding receives live in the wait-free request pool (paper
///    Algorithm 1), the design that replaced Uintah's locked request
///    vector. The locked "before" container survives only where the
///    before/after comparison is measured (bench_comm_pool and
///    sim/calibration).
///  * Within a phase, a patch's task runs as soon as its own messages have
///    arrived (asynchronous, out-of-order across patches). Distinct task
///    declarations execute as ordered phases: a simplification of
///    Uintah's full DAG, adequate for the RMCRT pipeline whose
///    carry-forward -> coarsen -> trace chain is a strict sequence.
///  * Staged ghost/region data lives in the DataWarehouse as region
///    variables, mirroring Uintah's getRegion "memory it does not own".
///
/// Resilience: dependency messages route through a ReliableChannel
/// (sequence numbers + acks + retransmit), so injected or real message
/// loss is recovered transparently; a watchdog in the execute loop
/// dumps a diagnostic snapshot, forces retransmission, and — after a
/// configurable number of strikes — fails the timestep with a structured
/// TimestepStalled error instead of hanging forever.

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/communicator.h"
#include "comm/reliable_channel.h"
#include "comm/request_pool.h"
#include "grid/grid.h"
#include "grid/load_balancer.h"
#include "runtime/data_warehouse.h"
#include "runtime/task.h"
#include "util/metrics.h"
#include "util/timers.h"

namespace rmcrt::runtime {

/// Thrown by executeTimestep() when the watchdog declares the timestep
/// dead: no request completed and no task became runnable within the
/// configured deadline for the configured number of strikes. Carries the
/// watchdog's per-rank classification so a recovery layer can tell a dead
/// rank (drop it, restore, repartition) from a slow one (wait / retry).
class TimestepStalled : public std::runtime_error {
 public:
  /// One rank this scheduler is blocked on.
  struct Suspect {
    int rank = -1;
    bool dead = false;  ///< send link to it exhausted retries (vs. slow)
    std::size_t pendingRecvs = 0;  ///< receives outstanding from it
  };

  using std::runtime_error::runtime_error;
  TimestepStalled(const std::string& what, std::vector<Suspect> suspects)
      : std::runtime_error(what), m_suspects(std::move(suspects)) {}

  const std::vector<Suspect>& suspects() const { return m_suspects; }

 private:
  std::vector<Suspect> m_suspects;
};

/// Resilience knobs for one scheduler.
struct SchedulerConfig {
  comm::ReliableChannel::Config channel{};
  /// Seconds without progress before a watchdog strike (diagnostic dump +
  /// forced retransmission). <= 0 disables the watchdog.
  double watchdogDeadlineSeconds = 60.0;
  /// Strikes before the timestep fails with TimestepStalled.
  int watchdogMaxStrikes = 3;
};

/// Wall-clock and traffic totals for one scheduler (one rank).
struct SchedulerStats {
  double localCommSeconds = 0;  ///< posting sends/recvs + processing ready
  double taskExecSeconds = 0;   ///< inside task actions
  double waitSeconds = 0;       ///< polling with nothing ready
  std::uint64_t messagesSent = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t messagesReceived = 0;
  std::uint64_t bytesReceived = 0;
  std::uint64_t tasksExecuted = 0;
  // Resilience counters, from the reliable channel:
  std::uint64_t retransmits = 0;
  std::uint64_t duplicatesDiscarded = 0;
  double maxBackoffMs = 0.0;
  std::uint64_t watchdogStrikes = 0;
};

/// One rank's scheduler. Construct one per rank over a shared Grid,
/// LoadBalancer and Communicator; call addTask() identically on every
/// rank; then run executeTimestep() concurrently (one thread per rank).
class Scheduler {
 public:
  Scheduler(std::shared_ptr<const grid::Grid> grid,
            std::shared_ptr<const grid::LoadBalancer> lb,
            comm::Communicator& world, int rank,
            SchedulerConfig config = SchedulerConfig{});

  ~Scheduler();

  int rank() const { return m_rank; }
  const grid::Grid& grid() const { return *m_grid; }
  const grid::LoadBalancer& loadBalancer() const { return *m_lb; }
  const SchedulerConfig& config() const { return m_config; }

  DataWarehouse& oldDW() { return *m_oldDW; }
  DataWarehouse& newDW() { return *m_newDW; }

  /// Append a task phase. Must be called identically on every rank.
  /// Throws std::length_error for a task with more than 64 requires:
  /// message tags have 64 requirement slots.
  void addTask(Task task);
  void clearTasks() { m_tasks.clear(); }
  /// The registered task phases, in declaration order — exposed so the
  /// regrid path can recompile a TaskGraph over the re-registered
  /// pipeline and validate it against the new grid.
  const std::vector<Task>& tasks() const { return m_tasks; }

  /// Rewire this rank's scheduler onto a regridded grid and its new
  /// load balance. Must be called between timesteps (never while
  /// executeTimestep is running), identically on every rank, before the
  /// next registration pass. Registered tasks are cleared: the old
  /// declarations reference patches that no longer exist.
  void setGrid(std::shared_ptr<const grid::Grid> grid,
               std::shared_ptr<const grid::LoadBalancer> lb) {
    m_grid = std::move(grid);
    m_lb = std::move(lb);
    m_tasks.clear();
  }

  /// Execute all task phases once. Blocking; involves collective
  /// synchronization with the other ranks' schedulers. Throws
  /// TimestepStalled when the watchdog gives up, or comm::CommAborted when
  /// another rank aborted the world.
  void executeTimestep();

  /// Swap old and new DataWarehouses and clear the new one.
  void advanceDataWarehouses();

  const SchedulerStats& stats() const { return m_stats; }

  /// Publish this rank's stats (plus its reliable channel's) into \p reg
  /// as gauges under \p prefix — e.g.
  /// "scheduler.rank0.messages_sent". Gauges, not counters: resetStats()
  /// restarts the underlying totals each timestep, so callers wanting a
  /// monotone series accumulate snapshots across recordTimestep() calls.
  void exportMetrics(MetricsRegistry& reg, const std::string& prefix) const;

  void resetStats() {
    m_stats = SchedulerStats{};
    m_localCommAcc.reset();
    m_taskExecAcc.reset();
    m_waitAcc.reset();
  }

  /// The reliability endpoint; never null.
  const comm::ReliableChannel* channel() const { return &m_channel; }
  comm::ReliableChannel* channel() { return &m_channel; }

  /// Classify the ranks this scheduler is currently blocked on by
  /// aggregating its pending receives per source and checking whether the
  /// send link back is retry-capped: a rank we cannot push frames to after
  /// the full retry budget is presumed DEAD; one that merely has not
  /// produced our inputs yet is SLOW. Used by the watchdog diagnostic and
  /// carried on TimestepStalled for the recovery layer.
  std::vector<TimestepStalled::Suspect> stallSuspects() const;

 private:
  struct PendingTask;
  struct Stage;
  /// One requirement's plan: every rank's stages, indexed by rank.
  using Plan = std::vector<std::vector<Stage>>;

  void runPhase(std::size_t phaseIdx);
  /// Every rank's stages for \p req, compiled once per phase.
  Plan compilePlan(const Task& task, const Requires& req) const;
  /// Allocate this rank's staged windows, copy the local sources in and
  /// post receives for the remote ones.
  void stageRequirement(std::size_t phaseIdx, std::size_t reqIdx,
                        const Requires& req, const std::vector<Stage>& stages,
                        std::vector<std::shared_ptr<PendingTask>>& pending);
  /// Send every peer the sources this rank owns in that peer's stages.
  void postSends(std::size_t phaseIdx, std::size_t reqIdx,
                 const Requires& req, const Plan& plan);
  void preallocateComputes(const Task& task,
                           const std::vector<int>& localPatches);

  /// Requirement and transfer-sequence slots in a message tag.
  static constexpr std::size_t kMaxRequiresPerTask = 64;
  static constexpr std::size_t kMaxTransfersPerRequirement = 4'000'000;

  /// Unique per (phase, requirement, transfer sequence) between a rank
  /// pair. Throws std::length_error when \p seqIdx overflows its slot.
  static std::int64_t messageTag(std::size_t phaseIdx, std::size_t reqIdx,
                                 std::size_t seqIdx);

  /// Describe the stalled phase for the watchdog log / TimestepStalled.
  std::string stallDiagnostic(std::size_t phaseIdx, std::size_t ranCount,
                              std::size_t totalTasks, int strikes) const;

  DataWarehouse& dwFor(const Requires& req) {
    return req.fromOldDW ? *m_oldDW : *m_newDW;
  }

  std::shared_ptr<const grid::Grid> m_grid;
  std::shared_ptr<const grid::LoadBalancer> m_lb;
  comm::Communicator& m_world;
  int m_rank;
  SchedulerConfig m_config;

  std::unique_ptr<DataWarehouse> m_oldDW;
  std::unique_ptr<DataWarehouse> m_newDW;
  std::vector<Task> m_tasks;

  comm::WaitFreeRequestPool m_pool;
  comm::ReliableChannel m_channel;

  SchedulerStats m_stats;
  AtomicTimeAccumulator m_localCommAcc;
  AtomicTimeAccumulator m_taskExecAcc;
  AtomicTimeAccumulator m_waitAcc;
};

}  // namespace rmcrt::runtime
