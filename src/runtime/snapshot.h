#pragma once

/// \file snapshot.h
/// Whole-cluster snapshot, deterministic replay, and rank-loss recovery
/// for the in-process simulated cluster.
///
/// Three layers:
///
///  * Snapshot — serialize EVERY rank's state (both DataWarehouses,
///    ReliableChannel link state, RNG stream counter) plus the shared grid
///    into a checksummed, versioned directory (file framing in
///    world_state.h). Snapshot::load decodes a whole directory; restore
///    then applies it bit-exactly onto the saved rank count, or
///    re-partitions the saved patch variables onto any other rank count.
///
///  * ReplayJournal — the record/replay side channel: per-rank per-step
///    state digests plus the FaultInjector's serialized decision state, so
///    any failed window can be re-run from a snapshot with identical
///    RNG/fault streams and verified step-by-step (ReplayDivergence on
///    mismatch).
///
///  * WorldHarness — drives an N-rank world through a timestep run with
///    periodic snapshots, scripted rank kills (FaultInjector::killRank),
///    automatic restore-from-last-snapshot with the lost rank's patches
///    re-partitioned onto survivors, and record/replay wiring. This is the
///    recovery state machine tests and examples share.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/fault_injector.h"
#include "comm/reliable_channel.h"
#include "grid/grid.h"
#include "grid/load_balancer.h"
#include "runtime/data_warehouse.h"
#include "runtime/scheduler.h"
#include "runtime/simulation_controller.h"
#include "util/rng.h"

namespace rmcrt::runtime {

/// Thrown inside a rank's driver thread to simulate that rank dying:
/// after FaultInjector::killRank silences its links, the throw unwinds
/// the rank out of the timestep loop mid-run.
class RankKilled : public std::runtime_error {
 public:
  RankKilled(int rank, int step)
      : std::runtime_error("rank " + std::to_string(rank) +
                           " killed at step " + std::to_string(step)),
        m_rank(rank),
        m_step(step) {}
  int rank() const { return m_rank; }
  int step() const { return m_step; }

 private:
  int m_rank;
  int m_step;
};

/// A whole-cluster snapshot. save() serializes live state; load() decodes
/// a snapshot directory into a Snapshot value and restore() applies it.
/// The caller owns the objects the views point at and guarantees
/// quiescence (no scheduler mid-timestep, no channel traffic in flight)
/// for the duration of save() and restore() — the WorldHarness does this
/// with a double barrier at a step boundary.
class Snapshot {
 public:
  /// One rank's live state. Optional members may be null and are then
  /// skipped in both directions.
  struct RankStateView {
    DataWarehouse* oldDW = nullptr;
    DataWarehouse* newDW = nullptr;
    comm::ReliableChannel* channel = nullptr;
    std::uint64_t rngState = 0;  ///< in (save) / out (restore)
  };

  /// The cluster at one step boundary.
  struct WorldStateView {
    int step = -1;  ///< last completed timestep
    std::uint64_t domainSeed = 0;
    std::shared_ptr<const grid::Grid> grid;
    std::vector<RankStateView> ranks;
  };

  /// Write a snapshot of \p world into directory \p dir (created if
  /// absent): one rank<r>.bin per rank, then the sealed MANIFEST. Every
  /// warehouse variable must be a patch variable of world.grid. Returns
  /// false on I/O failure; \p bytesOut (optional) receives the total bytes
  /// written.
  static bool save(const std::string& dir, const WorldStateView& world,
                   std::uint64_t* bytesOut = nullptr);

  /// Read the manifest, rebuild the grid and decode every rank blob of
  /// the snapshot in \p dir into \p out. Refuses (false, never throws) a
  /// missing, torn, corrupt or wrong-version snapshot, and any variable
  /// whose id is not a patch of the grid or whose interior is not that
  /// patch.
  static bool load(const std::string& dir, Snapshot& out);

  /// Apply the loaded snapshot to \p world; \p lb partitions grid() over
  /// world.ranks.size() ranks. On the saved rank count every rank's
  /// DataWarehouses, channel link state and RNG counter are restored
  /// exactly. On any other count each saved newDW variable moves to rank
  /// lb.rankOf(patch), and channel and RNG state are left alone: at a
  /// quiescent step boundary they regenerate, and the saved link topology
  /// is meaningless under a new rank numbering. world.step, domainSeed and
  /// grid are set from the snapshot. False when \p lb does not fit or a
  /// channel refuses its state (live receives), before any warehouse is
  /// touched.
  bool restore(WorldStateView& world, const grid::LoadBalancer& lb) const;

  int step() const { return m_step; }
  int numRanks() const { return static_cast<int>(m_ranks.size()); }
  const std::shared_ptr<const grid::Grid>& grid() const { return m_grid; }

 private:
  struct Var {
    std::string label;
    int patchId = -1;
    VarSlot value;
  };
  struct Rank {
    std::uint64_t rngState = 0;
    std::optional<comm::ReliableChannel::ChannelState> channel;
    std::vector<Var> oldDW, newDW;
  };

  /// Decode rank \p rank's blob into m_ranks[rank] against m_grid.
  bool decodeRank(const std::string& blob, std::size_t rank);

  int m_step = -1;
  std::uint64_t m_domainSeed = 0;
  std::shared_ptr<const grid::Grid> m_grid;
  std::vector<Rank> m_ranks;
};

/// The record/replay journal: what a --record run writes and a --replay
/// run verifies against. One digest per (rank, step) — the WorldHarness
/// digests each rank's local divQ bytes — plus the FaultInjector decision
/// state captured BEFORE the run, so replay reproduces the same faults.
struct ReplayJournal {
  std::uint64_t domainSeed = 0;
  std::string injectorState;  ///< FaultInjector::saveState blob (may be "")
  std::vector<std::vector<std::pair<int, std::uint64_t>>> rankDigests;

  /// Write the sealed dir/JOURNAL (dir created if absent).
  bool save(const std::string& dir) const;
  /// Read dir/JOURNAL; false (never a throw) when it is missing, corrupt
  /// or malformed, leaving *this unchanged.
  bool load(const std::string& dir);
};

/// Configuration for one WorldHarness run.
struct HarnessConfig {
  std::shared_ptr<const grid::Grid> grid;
  int numRanks = 2;
  int steps = 5;
  int radiationInterval = 1;
  std::uint64_t domainSeed = 71;

  /// Pipeline registration, called identically on every rank (and again
  /// on the rebuilt schedulers after a recovery). Radiation is required.
  std::function<void(Scheduler&)> registerRadiation;
  std::function<void(Scheduler&)> registerCarryForward;

  /// Snapshots: every N completed steps into snapshotDir/snap<step>.
  /// 0 disables.
  std::string snapshotDir;
  int snapshotEvery = 0;

  /// Start the run from this snapshot directory instead of step 0,
  /// restored onto numRanks ranks (Snapshot::restore). The run then
  /// covers steps [snapshot step + 1, steps).
  std::string restoreDir;

  /// Scripted rank loss: kill global rank \p killRank at the top of step
  /// \p killAtStep (requires \p injector). -1 disables. After any rank
  /// loss the survivors restore the last snapshot and finish the run.
  int killRank = -1;
  int killAtStep = -1;

  /// Record/replay: write the journal into recordDir after the run, or
  /// verify each step against the journal loaded from replayDir. The
  /// per-step digest is FNV over the rank's finest-level divQ patch bytes.
  /// A replay whose injector refuses the journal's fault state does not
  /// run (completed = false).
  std::string recordDir;
  std::string replayDir;

  /// Scheduler resilience knobs (watchdog, channel retry budget).
  SchedulerConfig sched;
  /// Collective timeout so survivors escape the phase-end barrier a dead
  /// rank never reaches. <= 0: defaults to 10 s when a kill is scripted,
  /// otherwise unlimited.
  double collectiveTimeoutSeconds = 0.0;
  std::shared_ptr<comm::FaultInjector> injector;
};

/// What a WorldHarness run produced.
struct HarnessResult {
  bool completed = false;
  int finalRanks = 0;
  int recoveries = 0;

  /// Final (post-recovery) world's per-rank timestep records.
  std::vector<std::vector<TimestepRecord>> records;
  /// Final world's per-rank (step, digest) sequences.
  std::vector<std::vector<std::pair<int, std::uint64_t>>> digests;

  // Snapshot cost accounting.
  int snapshots = 0;
  std::uint64_t snapshotBytes = 0;
  double snapshotSeconds = 0.0;
  int lastSnapshotStep = -1;
};

/// Drives an in-process cluster through a run with snapshots, scripted
/// rank loss, auto-recovery, and record/replay. Retains the final world
/// after run() so tests can inspect DataWarehouse contents.
class WorldHarness {
 public:
  explicit WorldHarness(HarnessConfig cfg);
  ~WorldHarness();

  WorldHarness(const WorldHarness&) = delete;
  WorldHarness& operator=(const WorldHarness&) = delete;

  HarnessResult run();

  // Post-run state access (valid until the harness dies).
  int numRanks() const { return static_cast<int>(m_scheds.size()); }
  Scheduler& scheduler(int rank) { return *m_scheds[static_cast<std::size_t>(rank)]; }
  const grid::LoadBalancer& loadBalancer() const { return *m_lb; }
  const grid::Grid& grid() const { return *m_grid; }
  /// The rank's auxiliary RNG stream state (save/restore regression).
  std::uint64_t rngState(int rank) const {
    return m_rngs[static_cast<std::size_t>(rank)].state();
  }

 private:
  void buildWorld(int numRanks);
  /// Rebuild the world on \p ranks ranks from the snapshot in \p dir;
  /// returns the first step to run, or -1 when it does not load or apply.
  int resumeFrom(const std::string& dir, int ranks);
  Snapshot::WorldStateView makeView(int step);
  /// Post-step snapshot under a double barrier: all ranks rendezvous,
  /// rank 0 serializes the quiescent cluster, all ranks rendezvous again.
  void maybeSnapshot(int step, int rank, HarnessResult& result);
  std::uint64_t digestRank(int rank) const;

  HarnessConfig m_cfg;
  std::shared_ptr<const grid::Grid> m_grid;
  std::shared_ptr<const grid::LoadBalancer> m_lb;
  std::unique_ptr<comm::Communicator> m_world;
  std::vector<std::unique_ptr<Scheduler>> m_scheds;
  std::vector<Rng> m_rngs;
  /// Set by the first recovery: the scripted kill has happened, and the
  /// rebuilt world runs without the injector, whose dead links name the
  /// old rank numbering.
  bool m_killDone = false;
  std::string m_lastSnapshotPath;
};

}  // namespace rmcrt::runtime
