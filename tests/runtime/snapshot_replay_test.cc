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
///  * channel / fault-injector / GPU level-DB state all round-trip.

#include "runtime/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "comm/fault_injector.h"
#include "comm/reliable_channel.h"
#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "gpu/gpu_data_warehouse.h"
#include "grid/load_balancer.h"

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
  for (int newRanks : {1, 3}) {
    auto g = Snapshot::restoreGrid(m_dir + "/snap");
    ASSERT_TRUE(g);
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
    ASSERT_TRUE(Snapshot::restoreElastic(m_dir + "/snap", world, lb));
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
  // Snapshot under 2 ranks, resume under 3: the harness routes through
  // restoreElastic and the run still completes with correct physics.
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

TEST_F(SnapshotReplayTest, ChecksumRejectsCorruption) {
  auto grid = smallGrid();
  DataWarehouse oldDW, newDW;
  CCVariable<double> v(*grid->patchById(0), 1, 2.5);
  newDW.put("divQ", 0, std::move(v));
  Snapshot::WorldStateView save;
  save.step = 2;
  save.grid = grid;
  Snapshot::RankStateView rv;
  rv.oldDW = &oldDW;
  rv.newDW = &newDW;
  save.ranks.push_back(rv);
  const std::string dir = m_dir + "/snap";
  ASSERT_TRUE(Snapshot::save(dir, save));

  // Pristine: loads.
  {
    DataWarehouse o, n;
    Snapshot::WorldStateView w;
    Snapshot::RankStateView r0;
    r0.oldDW = &o;
    r0.newDW = &n;
    w.ranks.push_back(r0);
    ASSERT_TRUE(Snapshot::restore(dir, w));
    ASSERT_TRUE(n.exists("divQ", 0));
  }

  // Flip one payload byte: the manifest checksum must reject the blob.
  {
    std::fstream f(dir + "/rank0.bin",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(100);
    char c = 0;
    f.seekg(100);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(100);
    f.write(&c, 1);
  }
  {
    DataWarehouse o, n;
    Snapshot::WorldStateView w;
    Snapshot::RankStateView r0;
    r0.oldDW = &o;
    r0.newDW = &n;
    w.ranks.push_back(r0);
    EXPECT_FALSE(Snapshot::restore(dir, w));
  }

  // Torn snapshot (no MANIFEST — crash before the commit record): both
  // probe and restore refuse.
  std::filesystem::remove(dir + "/MANIFEST");
  SnapshotManifest man;
  EXPECT_FALSE(Snapshot::peek(dir, man));
  EXPECT_FALSE(Snapshot::restoreGrid(dir));

  // Truncated MANIFEST likewise.
  {
    std::ofstream f(dir + "/MANIFEST", std::ios::trunc);
    f << "rmcrt-snapshot v1\nstep 2\n";
  }
  EXPECT_FALSE(Snapshot::peek(dir, man));
}

TEST_F(SnapshotReplayTest, RankCountMismatchRejectsVerbatimRestore) {
  auto grid = smallGrid();
  DataWarehouse oldDW, newDW;
  Snapshot::WorldStateView save;
  save.step = 0;
  save.grid = grid;
  Snapshot::RankStateView rv;
  rv.oldDW = &oldDW;
  rv.newDW = &newDW;
  save.ranks.push_back(rv);
  ASSERT_TRUE(Snapshot::save(m_dir + "/snap", save));

  Snapshot::WorldStateView w;
  w.ranks.resize(2);  // saved with 1
  EXPECT_FALSE(Snapshot::restore(m_dir + "/snap", w));
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

TEST_F(SnapshotReplayTest, GpuLevelDatabaseRoundTrip) {
  auto grid = smallGrid();
  gpu::GpuDevice dev;
  gpu::GpuDataWarehouse gdw(dev);
  const grid::CellRange window = grid->coarseLevel().cells();
  CCVariable<double> abskg(window, 0.0);
  for (const auto& c : window)
    abskg[c] = 0.9 * c.x() + 0.09 * c.y() + 0.009 * c.z();
  gdw.getOrUploadLevelVar("abskg", 0, abskg);

  DataWarehouse oldDW, newDW;
  Snapshot::WorldStateView save;
  save.step = 1;
  save.grid = grid;
  Snapshot::RankStateView rv;
  rv.oldDW = &oldDW;
  rv.newDW = &newDW;
  rv.gpuDW = &gdw;
  save.ranks.push_back(rv);
  ASSERT_TRUE(Snapshot::save(m_dir + "/snap", save));

  gpu::GpuDevice dev2;
  gpu::GpuDataWarehouse back(dev2);
  DataWarehouse o2, n2;
  Snapshot::WorldStateView w;
  Snapshot::RankStateView r0;
  r0.oldDW = &o2;
  r0.newDW = &n2;
  r0.gpuDW = &back;
  w.ranks.push_back(r0);
  ASSERT_TRUE(Snapshot::restore(m_dir + "/snap", w));

  std::size_t seen = 0;
  back.forEachLevelVar([&](const std::string& key, const gpu::DeviceVar& dv) {
    ++seen;
    EXPECT_EQ(key, "abskg@L0");
    ASSERT_EQ(dv.bytes, static_cast<std::size_t>(abskg.sizeBytes()));
    EXPECT_EQ(0, std::memcmp(dv.devPtr, abskg.data(), dv.bytes));
  });
  EXPECT_EQ(seen, 1u);
}

}  // namespace
}  // namespace rmcrt::runtime
