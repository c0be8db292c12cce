/// Whole-cluster snapshot / replay / recovery acceptance suite:
///  * straight N-step run vs. snapshot-at-k-then-restore is BITWISE
///    identical (divQ digests and RNG stream counters),
///  * a recorded run replays with identical per-step digests and a
///    tampered journal raises ReplayDivergence,
///  * killing a rank mid-run auto-restores from the last snapshot onto
///    the survivors and finishes within the Burns-Christon tolerance,
///  * elastic restore onto more or fewer ranks leaves every patch owned
///    exactly once with its data intact,
///  * corrupt or torn snapshot directories are rejected outright,
///  * the grid record restores uniform and regridded patch sets exactly,
///  * channel and fault-injector state round-trip,
///  * hostile files, re-sealed so that the decoder rather than a checksum
///    must refuse them, fail the load instead of throwing or crashing.

#include "runtime/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "comm/fault_injector.h"
#include "comm/reliable_channel.h"
#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "grid/load_balancer.h"
#include "runtime/world_state.h"

namespace rmcrt::runtime {
namespace {

using grid::CCVariable;
using grid::Grid;
using grid::LoadBalancer;

std::shared_ptr<Grid> smallGrid() {
  return Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                            IntVector(4), IntVector(8), IntVector(4));
}

core::RmcrtSetup makeSetup() {
  core::RmcrtSetup setup;
  setup.problem = core::burnsChriston();
  setup.trace.nDivQRays = 4;
  setup.roiHalo = 2;
  return setup;
}

/// Resilience knobs sized for tests: fail fast, never wait out production
/// backoff budgets.
void tuneForTests(HarnessConfig& cfg) {
  cfg.sched.channel.baseBackoffMs = 2.0;
  cfg.sched.channel.maxBackoffMs = 20.0;
  cfg.sched.channel.progressIntervalMs = 0.5;
  cfg.sched.channel.maxRetries = 6;
  cfg.sched.watchdogDeadlineSeconds = 0.4;
  cfg.sched.watchdogMaxStrikes = 2;
  cfg.collectiveTimeoutSeconds = 5.0;
}

HarnessConfig baseConfig(std::shared_ptr<const Grid> grid, int ranks,
                         int steps, int interval) {
  HarnessConfig cfg;
  cfg.grid = grid;
  cfg.numRanks = ranks;
  cfg.steps = steps;
  cfg.radiationInterval = interval;
  const core::RmcrtSetup setup = makeSetup();
  cfg.registerRadiation = [setup](Scheduler& s) {
    core::RmcrtComponent::registerTwoLevelPipeline(s, setup);
  };
  const int fineLevel = grid->numLevels() - 1;
  cfg.registerCarryForward = [fineLevel](Scheduler& s) {
    s.addTask(makeCarryForwardTask({core::RmcrtLabels::divQ}, fineLevel));
  };
  return cfg;
}

class SnapshotReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    m_dir = std::string("/tmp/rmcrt_snapshot_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(m_dir);
    std::filesystem::create_directories(m_dir);
  }
  void TearDown() override { std::filesystem::remove_all(m_dir); }
  std::string m_dir;
};

/// Collect every finest-level divQ value of \p h keyed by (patch, cell).
std::vector<std::pair<int, std::vector<double>>> collectDivQ(
    WorldHarness& h) {
  std::vector<std::pair<int, std::vector<double>>> out;
  const int lvl = h.grid().numLevels() - 1;
  for (int r = 0; r < h.numRanks(); ++r) {
    for (int pid : h.loadBalancer().patchesOf(r, h.grid(), lvl)) {
      const auto& v =
          h.scheduler(r).newDW().get<double>(core::RmcrtLabels::divQ, pid);
      std::vector<double> cells;
      for (const auto& c : h.grid().patchById(pid)->cells())
        cells.push_back(v[c]);
      out.emplace_back(pid, std::move(cells));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

// --- tentpole acceptance -------------------------------------------------

TEST_F(SnapshotReplayTest, SnapshotRoundTripBitExact) {
  auto grid = smallGrid();
  const int steps = 7, ranks = 2, interval = 3;

  // Straight run: 7 steps, radiation at 0/3/6, no snapshots.
  WorldHarness straight(baseConfig(grid, ranks, steps, interval));
  HarnessResult a = straight.run();
  ASSERT_TRUE(a.completed);

  // Same run, snapshotting every 2 completed steps (after 1, 3, 5): the
  // checkpoint machinery must not perturb the physics.
  HarnessConfig snapCfg = baseConfig(grid, ranks, steps, interval);
  snapCfg.snapshotDir = m_dir;
  snapCfg.snapshotEvery = 2;
  WorldHarness snapped(snapCfg);
  HarnessResult b = snapped.run();
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(b.snapshots, 3);
  EXPECT_EQ(b.lastSnapshotStep, 5);
  EXPECT_GT(b.snapshotBytes, 0u);
  ASSERT_EQ(a.digests.size(), b.digests.size());
  for (int r = 0; r < ranks; ++r) EXPECT_EQ(a.digests[r], b.digests[r]);

  // Restore the snapshot taken after step 3 and run the remaining steps
  // 4..6: every per-step digest, the final divQ field, and the RNG stream
  // counters must match the straight run BITWISE.
  HarnessConfig resumeCfg = baseConfig(grid, ranks, steps, interval);
  resumeCfg.restoreDir = m_dir + "/snap3";
  WorldHarness resumed(resumeCfg);
  HarnessResult c = resumed.run();
  ASSERT_TRUE(c.completed);
  for (int r = 0; r < ranks; ++r) {
    ASSERT_EQ(c.digests[r].size(), 3u) << "rank " << r;
    for (const auto& [step, digest] : c.digests[r]) {
      const auto it = std::find_if(
          a.digests[r].begin(), a.digests[r].end(),
          [s = step](const auto& p) { return p.first == s; });
      ASSERT_NE(it, a.digests[r].end());
      EXPECT_EQ(digest, it->second) << "rank " << r << " step " << step;
    }
    EXPECT_EQ(resumed.rngState(r), straight.rngState(r)) << "rank " << r;
  }
  const auto divA = collectDivQ(straight);
  const auto divC = collectDivQ(resumed);
  ASSERT_EQ(divA.size(), divC.size());
  for (std::size_t i = 0; i < divA.size(); ++i) {
    ASSERT_EQ(divA[i].first, divC[i].first);
    ASSERT_EQ(divA[i].second.size(), divC[i].second.size());
    for (std::size_t j = 0; j < divA[i].second.size(); ++j)
      EXPECT_EQ(divA[i].second[j], divC[i].second[j])
          << "patch " << divA[i].first << " cell " << j;
  }
}

TEST_F(SnapshotReplayTest, RecordReplayIdentical) {
  auto grid = smallGrid();
  const std::string journalDir = m_dir + "/journal";

  HarnessConfig recCfg = baseConfig(grid, 2, 6, 2);
  recCfg.recordDir = journalDir;
  WorldHarness recorder(recCfg);
  HarnessResult rec = recorder.run();
  ASSERT_TRUE(rec.completed);

  ReplayJournal journal;
  ASSERT_TRUE(journal.load(journalDir));
  ASSERT_EQ(journal.rankDigests.size(), 2u);
  EXPECT_EQ(journal.rankDigests[0].size(), 6u);

  // Replaying verifies every step against the journal; identical config
  // must sail through with identical digests.
  HarnessConfig repCfg = baseConfig(grid, 2, 6, 2);
  repCfg.replayDir = journalDir;
  WorldHarness replayer(repCfg);
  HarnessResult rep = replayer.run();
  ASSERT_TRUE(rep.completed);
  EXPECT_EQ(rep.digests, rec.digests);

  // A tampered journal must be caught as ReplayDivergence at the exact
  // step, not produce silently different results.
  journal.rankDigests[0][3].second ^= 0xdeadbeefull;
  const std::string tamperedDir = m_dir + "/tampered";
  ASSERT_TRUE(journal.save(tamperedDir));
  HarnessConfig badCfg = baseConfig(grid, 2, 6, 2);
  badCfg.replayDir = tamperedDir;
  WorldHarness diverger(badCfg);
  EXPECT_THROW(diverger.run(), ReplayDivergence);
}

TEST_F(SnapshotReplayTest, KillRankAutoRestore) {
  auto grid = smallGrid();
  const int steps = 6, interval = 2;

  // Fault-free golden on the victim-free world for the final comparison.
  const core::RmcrtSetup setup = makeSetup();
  const CCVariable<double> serial =
      core::RmcrtComponent::solveSerialTwoLevel(*grid, setup);

  HarnessConfig cfg = baseConfig(grid, 3, steps, interval);
  tuneForTests(cfg);
  cfg.snapshotDir = m_dir;
  cfg.snapshotEvery = 2;
  cfg.injector = std::make_shared<comm::FaultInjector>();
  cfg.killRank = 1;
  cfg.killAtStep = 3;  // dies after completing step 2; last snapshot: step 1
  WorldHarness h(cfg);
  HarnessResult res = h.run();

  ASSERT_TRUE(res.completed) << "run must finish via auto-recovery";
  EXPECT_EQ(res.recoveries, 1);
  EXPECT_EQ(res.finalRanks, 2);
  EXPECT_EQ(h.numRanks(), 2);

  // The survivors own every patch exactly once and the answer matches the
  // no-fault golden within the Burns-Christon tolerance (1%).
  const int lvl = grid->numLevels() - 1;
  std::set<int> owned;
  for (int r = 0; r < h.numRanks(); ++r)
    for (int pid : h.loadBalancer().patchesOf(r, h.grid(), lvl))
      EXPECT_TRUE(owned.insert(pid).second) << "patch " << pid;
  EXPECT_EQ(static_cast<int>(owned.size()),
            grid->fineLevel().numPatches());
  double maxRel = 0.0;
  for (const auto& [pid, cells] : collectDivQ(h)) {
    std::size_t j = 0;
    for (const auto& c : grid->patchById(pid)->cells()) {
      const double want = serial[c];
      const double got = cells[j++];
      const double rel =
          std::abs(got - want) / std::max(std::abs(want), 1e-12);
      maxRel = std::max(maxRel, rel);
      ASSERT_LT(rel, 0.01) << "patch " << pid << " cell " << c;
    }
  }
  EXPECT_LT(maxRel, 0.01);
}

TEST_F(SnapshotReplayTest, ElasticResizeOwnsEveryPatchOnce) {
  auto grid = smallGrid();

  // Source world: 2 ranks' newDWs carrying a fingerprinted divQ on every
  // patch of every level.
  auto srcLb = std::make_shared<LoadBalancer>(*grid, 2);
  std::vector<DataWarehouse> srcOld(2), srcNew(2);
  for (int r = 0; r < 2; ++r) {
    for (int pid : srcLb->patchesOf(r)) {
      const grid::Patch* p = grid->patchById(pid);
      CCVariable<double> v(*p, 0, 0.0);
      for (const auto& c : p->cells())
        v[c] = 100.0 * pid + c.x() + 0.01 * c.y() + 0.0001 * c.z();
      srcNew[static_cast<std::size_t>(r)].put("divQ", pid, std::move(v));
    }
  }
  Snapshot::WorldStateView save;
  save.step = 4;
  save.domainSeed = 9;
  save.grid = grid;
  for (int r = 0; r < 2; ++r) {
    Snapshot::RankStateView v;
    v.oldDW = &srcOld[static_cast<std::size_t>(r)];
    v.newDW = &srcNew[static_cast<std::size_t>(r)];
    save.ranks.push_back(v);
  }
  ASSERT_TRUE(Snapshot::save(m_dir + "/snap", save));

  // Resize in both directions; every patch must land on exactly one rank
  // with its payload intact.
  Snapshot snap;
  ASSERT_TRUE(Snapshot::load(m_dir + "/snap", snap));
  const auto g = snap.grid();
  for (int newRanks : {1, 3}) {
    LoadBalancer lb(*g, newRanks);
    std::vector<DataWarehouse> dstOld(static_cast<std::size_t>(newRanks)),
        dstNew(static_cast<std::size_t>(newRanks));
    Snapshot::WorldStateView world;
    for (int r = 0; r < newRanks; ++r) {
      Snapshot::RankStateView v;
      v.oldDW = &dstOld[static_cast<std::size_t>(r)];
      v.newDW = &dstNew[static_cast<std::size_t>(r)];
      world.ranks.push_back(v);
    }
    ASSERT_TRUE(snap.restore(world, lb));
    EXPECT_EQ(world.step, 4);

    for (int pid = 0; pid < g->numPatches(); ++pid) {
      int owners = 0;
      for (int r = 0; r < newRanks; ++r)
        if (dstNew[static_cast<std::size_t>(r)].exists("divQ", pid))
          ++owners;
      EXPECT_EQ(owners, 1) << "resize to " << newRanks << " patch " << pid;
      const int owner = lb.rankOf(pid);
      ASSERT_TRUE(dstNew[static_cast<std::size_t>(owner)].exists("divQ", pid));
      const auto& v =
          dstNew[static_cast<std::size_t>(owner)].get<double>("divQ", pid);
      for (const auto& c : g->patchById(pid)->cells())
        EXPECT_DOUBLE_EQ(
            v[c], 100.0 * pid + c.x() + 0.01 * c.y() + 0.0001 * c.z())
            << "resize to " << newRanks << " patch " << pid << " " << c;
    }
  }
}

TEST_F(SnapshotReplayTest, ElasticResumeGrowsRankCount) {
  // Snapshot under 2 ranks, resume under 3: the harness re-partitions the
  // saved patches and the run still completes with correct physics.
  auto grid = smallGrid();
  HarnessConfig snapCfg = baseConfig(grid, 2, 6, 2);
  snapCfg.snapshotDir = m_dir;
  snapCfg.snapshotEvery = 2;
  WorldHarness snapped(snapCfg);
  ASSERT_TRUE(snapped.run().completed);

  HarnessConfig growCfg = baseConfig(grid, 3, 6, 2);
  growCfg.restoreDir = m_dir + "/snap3";
  WorldHarness grown(growCfg);
  HarnessResult res = grown.run();
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(grown.numRanks(), 3);

  const int lvl = grid->numLevels() - 1;
  std::set<int> owned;
  for (int r = 0; r < 3; ++r)
    for (int pid : grown.loadBalancer().patchesOf(r, grown.grid(), lvl))
      EXPECT_TRUE(owned.insert(pid).second) << "patch " << pid;
  const auto want = collectDivQ(snapped);
  const auto got = collectDivQ(grown);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].first, got[i].first);
    for (std::size_t j = 0; j < want[i].second.size(); ++j)
      EXPECT_EQ(want[i].second[j], got[i].second[j])
          << "patch " << want[i].first << " cell " << j;
  }
}

// --- format robustness ---------------------------------------------------

/// Load \p dir and restore it onto \p ranks fresh ranks (a LoadBalancer
/// over the loaded grid); false when either step refuses.
bool loadAndRestore(const std::string& dir, int ranks,
                    std::vector<DataWarehouse>& oldDWs,
                    std::vector<DataWarehouse>& newDWs,
                    Snapshot::WorldStateView& world) {
  Snapshot snap;
  if (!Snapshot::load(dir, snap)) return false;
  oldDWs = std::vector<DataWarehouse>(static_cast<std::size_t>(ranks));
  newDWs = std::vector<DataWarehouse>(static_cast<std::size_t>(ranks));
  world = Snapshot::WorldStateView();
  for (int r = 0; r < ranks; ++r) {
    Snapshot::RankStateView v;
    v.oldDW = &oldDWs[static_cast<std::size_t>(r)];
    v.newDW = &newDWs[static_cast<std::size_t>(r)];
    world.ranks.push_back(v);
  }
  return snap.restore(world, LoadBalancer(*snap.grid(), ranks));
}

/// Save a one-rank snapshot of \p grid whose newDW holds divQ on patch 0.
void saveOneRank(const std::string& dir, std::shared_ptr<const Grid> grid) {
  DataWarehouse oldDW, newDW;
  newDW.put("divQ", 0, CCVariable<double>(*grid->patchById(0), 1, 2.5));
  Snapshot::WorldStateView save;
  save.step = 2;
  save.grid = grid;
  Snapshot::RankStateView rv;
  rv.oldDW = &oldDW;
  rv.newDW = &newDW;
  save.ranks.push_back(rv);
  ASSERT_TRUE(Snapshot::save(dir, save));
}

TEST_F(SnapshotReplayTest, ChecksumRejectsCorruption) {
  auto grid = smallGrid();
  const std::string dir = m_dir + "/snap";
  saveOneRank(dir, grid);
  std::vector<DataWarehouse> o, n;
  Snapshot::WorldStateView w;

  // Pristine: loads.
  ASSERT_TRUE(loadAndRestore(dir, 1, o, n, w));
  ASSERT_TRUE(n[0].exists("divQ", 0));
  EXPECT_EQ(w.step, 2);

  // Flip one payload byte: the manifest checksum must reject the blob.
  {
    std::fstream f(dir + "/rank0.bin",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    char c = 0;
    f.seekg(100);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(100);
    f.write(&c, 1);
  }
  Snapshot snap;
  EXPECT_FALSE(Snapshot::load(dir, snap));

  // Torn snapshot (no MANIFEST — crash before the commit record).
  std::filesystem::remove(dir + "/MANIFEST");
  EXPECT_FALSE(Snapshot::load(dir, snap));

  // Truncated MANIFEST likewise: its seal no longer matches.
  {
    std::ofstream f(dir + "/MANIFEST", std::ios::trunc);
    f << "rmcrt-snapshot v1\nstep 2\n";
  }
  EXPECT_FALSE(Snapshot::load(dir, snap));
}

TEST_F(SnapshotReplayTest, RankCountMismatchRejectsVerbatimRestore) {
  auto grid = smallGrid();
  DataWarehouse oldDW, newDW;
  newDW.put("divQ", 5, CCVariable<double>(*grid->patchById(5), 0, 1.5));
  Snapshot::WorldStateView save;
  save.step = 0;
  save.grid = grid;
  Snapshot::RankStateView rv;
  rv.oldDW = &oldDW;
  rv.newDW = &newDW;
  rv.rngState = 77;
  save.ranks.push_back(rv);
  ASSERT_TRUE(Snapshot::save(m_dir + "/snap", save));
  Snapshot snap;
  ASSERT_TRUE(Snapshot::load(m_dir + "/snap", snap));
  EXPECT_EQ(snap.numRanks(), 1);

  // A partition that does not match the world is refused outright.
  std::vector<DataWarehouse> dws(2);
  Snapshot::WorldStateView w;
  for (DataWarehouse& dw : dws) {
    Snapshot::RankStateView v;
    v.newDW = &dw;
    v.rngState = 5;
    w.ranks.push_back(v);
  }
  EXPECT_FALSE(snap.restore(w, LoadBalancer(*grid, 1)));

  // Saved with 1 rank, restored onto 2: not verbatim. The variable moves
  // to its owner and the RNG counters are left alone.
  const LoadBalancer lb(*grid, 2);
  ASSERT_TRUE(snap.restore(w, lb));
  EXPECT_TRUE(dws[static_cast<std::size_t>(lb.rankOf(5))].exists("divQ", 5));
  EXPECT_FALSE(
      dws[static_cast<std::size_t>(1 - lb.rankOf(5))].exists("divQ", 5));
  for (const auto& v : w.ranks) EXPECT_EQ(v.rngState, 5u);
}

// --- the grid record ------------------------------------------------------

// A snapshot directory is the run's data archive: its MANIFEST is the grid
// checkpoint that a restart, and a restore after a regrid, read back. The
// grid-record cases run under the DataArchiver suite names.
using DataArchiverTest = SnapshotReplayTest;
using DataArchiver = SnapshotReplayTest;

/// Every level of \p got matches \p want: extent, tiling, refinement ratio,
/// spacing, and each patch's cells and id.
void expectSameGrid(const Grid& want, const Grid& got) {
  ASSERT_EQ(got.numLevels(), want.numLevels());
  ASSERT_EQ(got.numPatches(), want.numPatches());
  for (int l = 0; l < want.numLevels(); ++l) {
    const grid::Level& a = want.level(l);
    const grid::Level& b = got.level(l);
    EXPECT_EQ(a.cells(), b.cells());
    EXPECT_EQ(a.uniformlyTiled(), b.uniformlyTiled());
    EXPECT_EQ(a.refinementRatio(), b.refinementRatio());
    EXPECT_DOUBLE_EQ(a.dx().x(), b.dx().x());
    ASSERT_EQ(a.numPatches(), b.numPatches());
    for (std::size_t i = 0; i < a.numPatches(); ++i) {
      EXPECT_EQ(a.patch(i).cells(), b.patch(i).cells());
      EXPECT_EQ(a.patch(i).id(), b.patch(i).id());
    }
  }
}

/// Two-level grid whose fine level covers two irregular boxes.
std::shared_ptr<Grid> adaptiveGrid() {
  return Grid::makeAdaptive(
      Vector(0.0), Vector(1.0), IntVector(8), IntVector(4), IntVector(2),
      {CellRange(IntVector(0, 0, 0), IntVector(4, 4, 4)),
       CellRange(IntVector(4, 4, 4), IntVector(8, 8, 8))});
}

TEST_F(DataArchiverTest, GridRoundTripThroughRegridCycle) {
  // A snapshot taken after a regrid must restore the REGRIDDED patch set
  // — irregular fine boxes and all — not the input-file tiling.
  auto before = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                   IntVector(4), IntVector(4), IntVector(2));
  saveOneRank(m_dir + "/snap", before);
  Snapshot snap;
  ASSERT_TRUE(Snapshot::load(m_dir + "/snap", snap));
  expectSameGrid(*before, *snap.grid());
  EXPECT_TRUE(snap.grid()->fineLevel().uniformlyTiled());

  // "Regrid": same domain, different (irregular) fine-level coverage,
  // saved into the same directory.
  auto after = adaptiveGrid();
  saveOneRank(m_dir + "/snap", after);
  ASSERT_TRUE(Snapshot::load(m_dir + "/snap", snap));
  expectSameGrid(*after, *snap.grid());
  EXPECT_FALSE(snap.grid()->fineLevel().uniformlyTiled());
}

TEST_F(DataArchiver, GridRoundTripsThroughCheckpoint) {
  // Restoring the checkpoint hands the world the saved adaptive grid, and
  // the saved variable lands on that grid's patch.
  auto grid = adaptiveGrid();
  saveOneRank(m_dir + "/snap", grid);
  std::vector<DataWarehouse> o, n;
  Snapshot::WorldStateView w;
  ASSERT_TRUE(loadAndRestore(m_dir + "/snap", 1, o, n, w));
  ASSERT_NE(w.grid, nullptr);
  expectSameGrid(*grid, *w.grid);
  EXPECT_EQ(w.step, 2);
  ASSERT_TRUE(n[0].exists("divQ", 0));
  const auto& v = n[0].get<double>("divQ", 0);
  for (const IntVector& c : w.grid->patchById(0)->cells())
    EXPECT_DOUBLE_EQ(v[c], 2.5) << "cell " << c;
}

/// The sealed body of \p path (MANIFEST or JOURNAL).
std::string sealedBody(const std::string& path) {
  std::string body;
  EXPECT_TRUE(readSealed(path, body)) << path;
  return body;
}

TEST_F(DataArchiverTest, CorruptGridRecordRejected) {
  // Each record is re-sealed, so the decoder — not the checksum — must
  // refuse it.
  const std::string dir = m_dir + "/snap";
  saveOneRank(dir, smallGrid());
  const std::string body = sealedBody(dir + "/MANIFEST");
  Snapshot snap;

  // Truncated mid-record: decoding must fail, not fabricate levels.
  ASSERT_TRUE(writeSealed(dir + "/MANIFEST", body.substr(0, body.size() / 2)));
  EXPECT_FALSE(Snapshot::load(dir, snap));

  // Garbage record likewise.
  ASSERT_TRUE(writeSealed(dir + "/MANIFEST", "not a grid record at all\n"));
  EXPECT_FALSE(Snapshot::load(dir, snap));

  // Trailing bytes after a valid record likewise.
  ASSERT_TRUE(writeSealed(dir + "/MANIFEST", body + '\0'));
  EXPECT_FALSE(Snapshot::load(dir, snap));

  // The pristine record still loads.
  ASSERT_TRUE(writeSealed(dir + "/MANIFEST", body));
  EXPECT_TRUE(Snapshot::load(dir, snap));
}

TEST_F(DataArchiver, RestoreGridRejectsMissingOrCorruptRecord) {
  Snapshot snap;
  EXPECT_FALSE(Snapshot::load(m_dir + "/no_such_dir", snap));

  const std::string dir = m_dir + "/snap";
  saveOneRank(dir, adaptiveGrid());
  std::string manifest;
  ASSERT_TRUE(readFileBytes(dir + "/MANIFEST", manifest));

  // A flipped byte in the record fails its checksum.
  std::string flipped = manifest;
  flipped[flipped.size() / 2] ^= 0x5a;
  ASSERT_TRUE(writeFileBytes(dir + "/MANIFEST", flipped));
  EXPECT_FALSE(Snapshot::load(dir, snap));

  // A missing record likewise, though every rank blob is still there.
  std::filesystem::remove(dir + "/MANIFEST");
  EXPECT_FALSE(Snapshot::load(dir, snap));

  // Put back byte for byte, the record loads again.
  ASSERT_TRUE(writeFileBytes(dir + "/MANIFEST", manifest));
  ASSERT_TRUE(Snapshot::load(dir, snap));
  expectSameGrid(*adaptiveGrid(), *snap.grid());
}

// --- component state round-trips ----------------------------------------

TEST_F(SnapshotReplayTest, ChannelStateRoundTrip) {
  // A send with no receiver posted leaves an unacked frame in flight;
  // snapshotting that channel and restoring into a fresh world must
  // preserve sequence numbers and redeliver the frame.
  const char payload[] = "ghost-row";
  comm::ReliableChannel::ChannelState cs;
  {
    comm::Communicator world(2);
    comm::ReliableChannel ch0(world, 0);
    comm::ReliableChannel ch1(world, 1);
    ch0.send(1, /*tag=*/7, payload, sizeof payload);
    cs = ch0.saveState();
    ASSERT_EQ(cs.sendLinks.size(), 1u);
    EXPECT_EQ(cs.sendLinks[0].dst, 1);
    EXPECT_EQ(cs.sendLinks[0].nextSeq, 2u);
    ASSERT_EQ(cs.sendLinks[0].unacked.size(), 1u);
    EXPECT_EQ(cs.sendLinks[0].unacked[0].tag, 7);
  }
  // Fresh world, restored sender: the frame is due immediately, so the
  // receiver gets it through normal progress.
  comm::Communicator world(2);
  comm::ReliableChannel ch0(world, 0);
  comm::ReliableChannel ch1(world, 1);
  ASSERT_TRUE(ch0.restoreState(cs));
  const auto cs2 = ch0.saveState();
  ASSERT_EQ(cs2.sendLinks.size(), 1u);
  EXPECT_EQ(cs2.sendLinks[0].nextSeq, cs.sendLinks[0].nextSeq);
  ASSERT_EQ(cs2.sendLinks[0].unacked.size(), 1u);
  EXPECT_EQ(cs2.sendLinks[0].unacked[0].bytes, cs.sendLinks[0].unacked[0].bytes);

  char got[sizeof payload] = {};
  comm::Request req = ch1.postRecv(0, 7, got, sizeof got);
  for (int i = 0; i < 2000 && !req.test(); ++i) {
    ch0.progress();
    ch1.progress();
  }
  ASSERT_TRUE(req.test()) << "restored in-flight frame must be delivered";
  EXPECT_STREQ(got, payload);
}

TEST_F(SnapshotReplayTest, FaultInjectorStateRoundTrip) {
  comm::FaultInjector a(/*seed=*/42);
  comm::FaultProbabilities p;
  p.drop = 0.3;
  a.setDefaultProbabilities(p);
  a.script(comm::ScriptedFault{0, 1, comm::kAnyTag, /*nth=*/3,
                               comm::FaultAction::Drop, false});
  a.killRank(2);
  // Burn some per-link RNG state so the counters are mid-stream.
  for (int i = 0; i < 17; ++i) (void)a.plan(0, 1, 5);

  const std::string blob = a.saveState();
  comm::FaultInjector b(/*seed=*/42);
  b.setDefaultProbabilities(p);  // config travels outside the blob
  b.script(comm::ScriptedFault{0, 1, comm::kAnyTag, 3,
                               comm::FaultAction::Drop, false});
  ASSERT_TRUE(b.restoreState(blob));
  EXPECT_EQ(b.killedRanks(), std::vector<int>{2});
  // A blob claiming more scripts than b has is refused before the count
  // sizes anything, leaving b as restored.
  EXPECT_FALSE(b.restoreState(
      "faultinjector v1\nkilled 0\nscripts 4000000000000000000\nlinks 0\n"));
  EXPECT_EQ(b.killedRanks(), std::vector<int>{2});

  // Identical decision stream from here on.
  for (int i = 0; i < 64; ++i) {
    const auto pa = a.plan(0, 1, 5);
    const auto pb = b.plan(0, 1, 5);
    EXPECT_EQ(static_cast<int>(pa.action), static_cast<int>(pb.action))
        << "draw " << i;
  }
  // Wrong script config must be refused, leaving the target untouched.
  comm::FaultInjector c;
  EXPECT_FALSE(c.restoreState(blob));
  EXPECT_TRUE(c.killedRanks().empty());
}

TEST_F(SnapshotReplayTest, ReplayRefusesUnreproducibleFaults) {
  auto grid = smallGrid();
  const std::string journalDir = m_dir + "/journal";
  HarnessConfig recCfg = baseConfig(grid, 2, 3, 1);
  recCfg.recordDir = journalDir;
  recCfg.injector = std::make_shared<comm::FaultInjector>(/*seed=*/5);
  ASSERT_TRUE(WorldHarness(recCfg).run().completed);

  // An identically configured injector accepts the recorded fault state.
  HarnessConfig same = baseConfig(grid, 2, 3, 1);
  same.replayDir = journalDir;
  same.injector = std::make_shared<comm::FaultInjector>(/*seed=*/5);
  EXPECT_TRUE(WorldHarness(same).run().completed);

  // A differently scripted one refuses it: the replay would verify a run
  // with other faults, so it must not complete.
  HarnessConfig other = same;
  other.injector = std::make_shared<comm::FaultInjector>(/*seed=*/5);
  other.injector->script(comm::ScriptedFault{0, 1, comm::kAnyTag, 1000,
                                             comm::FaultAction::Drop, false});
  EXPECT_FALSE(WorldHarness(other).run().completed);
}

// --- hostile files -------------------------------------------------------
// Every case below is sealed (or checksummed by the manifest) like a real
// file, so the decoder itself has to refuse it.

/// Magic and format version: the first 12 bytes of every file body.
constexpr std::size_t kHeaderBytes = 12;

/// Write \p blob as rank \p rank's blob of the snapshot in \p dir and
/// re-seal the manifest over its checksum (the manifest body ends with one
/// checksum per rank).
void replaceRankBlob(const std::string& dir, int rank, int numRanks,
                     const std::string& blob) {
  ASSERT_TRUE(writeFileBytes(dir + "/rank" + std::to_string(rank) + ".bin",
                             blob));
  std::string man = sealedBody(dir + "/MANIFEST");
  const std::uint64_t sum = fnv1a(blob.data(), blob.size());
  std::memcpy(man.data() + man.size() - 8 * static_cast<std::size_t>(
                                               numRanks - rank),
              &sum, sizeof sum);
  ASSERT_TRUE(writeSealed(dir + "/MANIFEST", man));
}

/// A rank-0 blob with no channel and an empty oldDW whose newDW holds one
/// CCVariable<double> record with the given fields; \p payload cells of
/// data follow.
std::string rankBlobWithVar(const std::string& header, int patchId,
                            const CellRange& window,
                            const CellRange& interior, int numGhost,
                            std::uint64_t cells, std::size_t payload) {
  std::string b = header;
  put<std::int32_t>(b, 0);   // rank
  put<std::uint64_t>(b, 0);  // RNG state
  put<std::uint8_t>(b, 0);   // no channel
  put<std::uint64_t>(b, 0);  // oldDW: no variables
  put<std::uint64_t>(b, 1);  // newDW: one variable
  putString(b, "divQ");
  put<std::int32_t>(b, patchId);
  put<std::uint8_t>(b, 1);  // VarSlot index of CCVariable<double>
  putRange(b, window);
  putRange(b, interior);
  put<std::int32_t>(b, numGhost);
  put(b, cells);
  b.append(payload * sizeof(double), '\0');
  return b;
}

TEST_F(SnapshotReplayTest, HostileRankBlobsRefused) {
  auto grid = smallGrid();
  const std::string dir = m_dir + "/snap";
  saveOneRank(dir, grid);
  std::string blob;
  ASSERT_TRUE(readFileBytes(dir + "/rank0.bin", blob));
  const std::string header = blob.substr(0, kHeaderBytes);
  const CellRange p0 = grid->patchById(0)->cells();
  std::vector<DataWarehouse> o, n;
  Snapshot::WorldStateView w;

  // Control: the hand-built record decodes, so the refusals below are the
  // decoder's.
  replaceRankBlob(dir, 0, 1,
                  rankBlobWithVar(header, 0, p0, p0, 0, 64, 64));
  ASSERT_TRUE(loadAndRestore(dir, 1, o, n, w));
  EXPECT_TRUE(n[0].exists("divQ", 0));

  // A 2^60-cell window: the cell count exceeds the bytes that follow.
  const CellRange huge(IntVector(0), IntVector(1 << 20));
  replaceRankBlob(dir, 0, 1,
                  rankBlobWithVar(header, 0, huge, p0, 0, 1ull << 60, 0));
  Snapshot snap;
  EXPECT_FALSE(Snapshot::load(dir, snap));

  // A variable naming patch 999, which the grid does not have.
  replaceRankBlob(dir, 0, 1,
                  rankBlobWithVar(header, 999, p0, p0, 0, 64, 64));
  EXPECT_FALSE(Snapshot::load(dir, snap));

  // A variable whose interior is not its patch.
  const CellRange p1 = grid->patchById(1)->cells();
  replaceRankBlob(dir, 0, 1,
                  rankBlobWithVar(header, 0, p1, p1, 0, 64, 64));
  EXPECT_FALSE(Snapshot::load(dir, snap));

  // A window that is not the patch grown by the ghost margin.
  replaceRankBlob(dir, 0, 1,
                  rankBlobWithVar(header, 0, p0, p0, 1, 64, 64));
  EXPECT_FALSE(Snapshot::load(dir, snap));
}

TEST_F(SnapshotReplayTest, HostileGridRecordRefused) {
  const std::string dir = m_dir + "/snap";
  saveOneRank(dir, smallGrid());
  const std::string header =
      sealedBody(dir + "/MANIFEST").substr(0, kHeaderBytes);
  std::string blob;
  ASSERT_TRUE(readFileBytes(dir + "/rank0.bin", blob));
  // A rank blob with no channel and empty warehouses fits any grid.
  blob = blob.substr(0, kHeaderBytes + 4 + 8);
  blob.append(1 + 8 + 8, '\0');
  ASSERT_TRUE(writeFileBytes(dir + "/rank0.bin", blob));

  // One irregular 8^3 level claiming \p boxes patch boxes, of which one
  // follows.
  const auto manifest = [&](std::uint64_t boxes) {
    std::string b = header;
    put<std::int32_t>(b, 2);   // step
    put<std::uint64_t>(b, 0);  // domain seed
    for (double v : {0.0, 0.0, 0.0, 1.0, 1.0, 1.0}) put(b, v);
    put<std::uint64_t>(b, 1);  // levels
    putRange(b, CellRange(IntVector(0), IntVector(8)));
    put(b, IntVector(1));     // refinement ratio
    put<std::uint8_t>(b, 0);  // irregular
    put(b, boxes);
    putRange(b, CellRange(IntVector(0), IntVector(8)));
    put<std::uint64_t>(b, 1);  // ranks
    put(b, fnv1a(blob.data(), blob.size()));
    return b;
  };
  Snapshot snap;
  ASSERT_TRUE(writeSealed(dir + "/MANIFEST", manifest(1)));
  ASSERT_TRUE(Snapshot::load(dir, snap));  // control
  EXPECT_EQ(snap.grid()->numPatches(), 1);

  ASSERT_TRUE(writeSealed(dir + "/MANIFEST", manifest(2'000'000'000)));
  EXPECT_FALSE(Snapshot::load(dir, snap));
}

TEST_F(SnapshotReplayTest, HostileJournalCountsRefused) {
  ReplayJournal good;
  good.domainSeed = 9;
  good.rankDigests = {{{0, 1u}, {1, 2u}}};
  good.injectorState = "injector";
  ASSERT_TRUE(good.save(m_dir));
  const std::string header =
      sealedBody(m_dir + "/JOURNAL").substr(0, kHeaderBytes);

  const auto load = [&](const std::string& body) {
    EXPECT_TRUE(writeSealed(m_dir + "/JOURNAL", body));
    ReplayJournal j = good;
    bool loaded = true;
    EXPECT_NO_THROW(loaded = j.load(m_dir));
    EXPECT_EQ(j.rankDigests, good.rankDigests);  // refused: untouched
    return loaded;
  };
  // rank count, digest count of rank 0, injector length
  const auto journal = [&](std::uint64_t ranks, std::uint64_t digests,
                           std::uint64_t injector) {
    std::string b = header;
    put<std::uint64_t>(b, 9);
    put(b, ranks);
    put(b, digests);
    put<std::int32_t>(b, 0);
    put<std::uint64_t>(b, 1);
    put<std::int32_t>(b, 1);
    put<std::uint64_t>(b, 2);
    put(b, injector);
    b += "injector";
    return b;
  };
  EXPECT_TRUE(load(journal(1, 2, 8)));  // control
  EXPECT_FALSE(load(journal(4'000'000'000'000ull, 2, 8)));
  EXPECT_FALSE(load(journal(1, 4'000'000'000'000'000'000ull, 8)));
  EXPECT_FALSE(load(journal(1, 2, 400'000'000'000ull)));
}

/// One random corruption of \p b: a truncation, a bit flip, a byte
/// insertion, or a count inflation (a small nonzero u64 made huge).
void mutate(std::string& b, std::mt19937_64& rng) {
  if (b.size() < 8) return;
  const auto at = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  switch (rng() % 4) {
    case 0:
      b.resize(at(b.size()));
      break;
    case 1:
      b[at(b.size())] ^= static_cast<char>(1u << (rng() % 8));
      break;
    case 2:
      b.insert(at(b.size() + 1), 1, static_cast<char>(rng()));
      break;
    default: {
      const std::uint64_t huge[] = {1ull << 32, 1ull << 40,
                                    4'000'000'000'000'000'000ull,
                                    std::numeric_limits<std::uint64_t>::max()};
      std::size_t pos = at(b.size() - 7);
      for (int tries = 0; tries < 64; ++tries) {
        const std::size_t p = at(b.size() - 7);
        std::uint64_t v = 0;
        std::memcpy(&v, b.data() + p, sizeof v);
        if (v > 0 && v < (1u << 20)) {
          pos = p;
          break;
        }
      }
      std::memcpy(b.data() + pos, &huge[rng() % 4], sizeof(std::uint64_t));
    }
  }
}

/// Load the journal in \p journalDir and hand its fault state to
/// \p injector; load the snapshot in \p dir and, when it loads, restore it
/// onto its saved rank count and onto 3 ranks (with \p channels). Returns
/// whether the snapshot loaded.
bool exerciseDecoders(
    const std::string& dir, const std::string& journalDir,
    comm::FaultInjector& injector,
    const std::vector<std::unique_ptr<comm::ReliableChannel>>& channels) {
  ReplayJournal journal;
  if (journal.load(journalDir))
    (void)injector.restoreState(journal.injectorState);
  Snapshot snap;
  if (!Snapshot::load(dir, snap)) return false;
  for (int ranks : {snap.numRanks(), 3}) {
    const auto n = static_cast<std::size_t>(ranks);
    std::vector<DataWarehouse> oldDWs(n), newDWs(n);
    Snapshot::WorldStateView w;
    for (std::size_t r = 0; r < n; ++r) {
      Snapshot::RankStateView v;
      v.oldDW = &oldDWs[r];
      v.newDW = &newDWs[r];
      if (r < channels.size()) v.channel = channels[r].get();
      w.ranks.push_back(v);
    }
    EXPECT_TRUE(snap.restore(w, LoadBalancer(*snap.grid(), ranks)));
  }
  return true;
}

TEST_F(SnapshotReplayTest, MutatedFilesNeverThrow) {
  // A two-rank snapshot of an adaptive grid with both warehouses and an
  // unacked channel frame, plus a journal with the state of an injector
  // that has a killed rank and per-link draws.
  auto grid = Grid::makeAdaptive(
      Vector(0.0), Vector(1.0), IntVector(8), IntVector(4), IntVector(2),
      {CellRange(IntVector(0), IntVector(4)),
       CellRange(IntVector(4), IntVector(8))});
  const LoadBalancer lb(*grid, 2);
  std::vector<DataWarehouse> oldDWs(2), newDWs(2);
  for (int pid = 0; pid < grid->numPatches(); ++pid) {
    const grid::Patch& p = *grid->patchById(pid);
    const auto r = static_cast<std::size_t>(lb.rankOf(pid));
    newDWs[r].put("divQ", pid, CCVariable<double>(p, 1, 0.5 * pid));
    oldDWs[r].put("cellType", pid,
                  CCVariable<grid::CellType>(p, 0, grid::CellType::Flow));
  }
  comm::Communicator comm(2);
  comm::ReliableChannel ch0(comm, 0), ch1(comm, 1);
  const char payload[] = "halo";
  ch0.send(1, /*tag=*/7, payload, sizeof payload);
  Snapshot::WorldStateView save;
  save.step = 3;
  save.grid = grid;
  comm::ReliableChannel* channels[] = {&ch0, &ch1};
  for (std::size_t r = 0; r < 2; ++r) {
    Snapshot::RankStateView v;
    v.oldDW = &oldDWs[r];
    v.newDW = &newDWs[r];
    v.channel = channels[r];
    save.ranks.push_back(v);
  }
  const std::string dir = m_dir + "/snap";
  ASSERT_TRUE(Snapshot::save(dir, save));
  comm::FaultInjector injector(/*seed=*/3);
  injector.killRank(1);
  for (int i = 0; i < 5; ++i) (void)injector.plan(0, 1, 7);
  ReplayJournal journal;
  journal.injectorState = injector.saveState();
  journal.rankDigests = {{{0, 11u}, {1, 12u}}, {{0, 21u}, {1, 22u}}};
  ASSERT_TRUE(journal.save(m_dir));

  const std::string manifest = sealedBody(dir + "/MANIFEST");
  const std::string journalBody = sealedBody(m_dir + "/JOURNAL");
  std::string rank1;
  ASSERT_TRUE(readFileBytes(dir + "/rank1.bin", rank1));

  // Restore targets, channels and injector included, reused across
  // iterations.
  comm::FaultInjector replayInjector(/*seed=*/3);
  comm::Communicator restoreComm(3);
  std::vector<std::unique_ptr<comm::ReliableChannel>> targets;
  for (int r = 0; r < 3; ++r)
    targets.push_back(std::make_unique<comm::ReliableChannel>(restoreComm, r));

  std::mt19937_64 rng(20261017);
  int loaded = 0;
  for (int i = 0; i < 900; ++i) {
    std::string bytes =
        i % 3 == 0 ? manifest : i % 3 == 1 ? rank1 : journalBody;
    mutate(bytes, rng);
    if (i % 3 == 0) {
      ASSERT_TRUE(writeSealed(dir + "/MANIFEST", bytes));
    } else if (i % 3 == 1) {
      replaceRankBlob(dir, 1, 2, bytes);
    } else {
      ASSERT_TRUE(writeSealed(m_dir + "/JOURNAL", bytes));
    }

    bool ok = false;
    EXPECT_NO_THROW(ok = exerciseDecoders(dir, m_dir, replayInjector,
                                          targets))
        << "iteration " << i;
    loaded += ok ? 1 : 0;

    ASSERT_TRUE(writeSealed(dir + "/MANIFEST", manifest));
    ASSERT_TRUE(writeFileBytes(dir + "/rank1.bin", rank1));
    ASSERT_TRUE(writeSealed(m_dir + "/JOURNAL", journalBody));
  }
  // Some mutations (a flipped payload bit, say) stay decodable.
  EXPECT_GT(loaded, 0);
}

}  // namespace
}  // namespace rmcrt::runtime
