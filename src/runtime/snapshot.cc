#include "runtime/snapshot.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstring>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>
#include <type_traits>
#include <variant>

#include "runtime/world_state.h"
#include "util/timers.h"

namespace rmcrt::runtime {

namespace {

// First field of every file ("RMCRTMAN", "RMCRTSNP", "RMCRTJNL" read as
// little-endian u64), followed by kSnapshotFormatVersion.
constexpr std::uint64_t kManifestMagic = 0x4e414d5452434d52ull;
constexpr std::uint64_t kRankBlobMagic = 0x504e535452434d52ull;
constexpr std::uint64_t kJournalMagic = 0x4c4e4a5452434d52ull;

std::string header(std::uint64_t magic) {
  std::string b;
  put(b, magic);
  put(b, kSnapshotFormatVersion);
  return b;
}

bool readHeader(ByteReader& r, std::uint64_t magic) {
  return r.get<std::uint64_t>() == magic &&
         r.get<std::uint32_t>() == kSnapshotFormatVersion;
}

std::string rankBlobName(std::size_t rank) {
  return "rank" + std::to_string(rank) + ".bin";
}

// --- grid record ----------------------------------------------------------

// Bounds a grid record must meet before Grid::makeFromSpec sees it: cell
// coordinates and ghost margins small enough that no index or volume
// arithmetic on them overflows (2^18 is 512 times the paper's finest 512^3
// axis), and at most four times the patches of the paper's largest
// decomposition (262,144, Table I).
constexpr int kMaxCoord = 1 << 18;
constexpr std::int64_t kMaxPatches = 1 << 20;

bool inBounds(const CellRange& r) {
  for (int d = 0; d < 3; ++d)
    for (const int c : {r.low()[d], r.high()[d]})
      if (c < -kMaxCoord || c > kMaxCoord) return false;
  return !r.empty();
}

void putGrid(std::string& b, const grid::Grid& g) {
  put(b, g.physLow());
  put(b, g.physHigh());
  put<std::uint64_t>(b, static_cast<std::uint64_t>(g.numLevels()));
  for (int l = 0; l < g.numLevels(); ++l) {
    const grid::Level& level = g.level(l);
    putRange(b, level.cells());
    put(b, level.refinementRatio());
    put<std::uint8_t>(b, level.uniformlyTiled() ? 1 : 0);
    if (level.uniformlyTiled()) {
      put(b, level.patchSize());
    } else {
      put<std::uint64_t>(b, level.numPatches());
      for (const grid::Patch& p : level.patches()) putRange(b, p.cells());
    }
  }
}

/// Decode and validate a grid record; nullptr when it is malformed or
/// exceeds the bounds above.
std::shared_ptr<const grid::Grid> getGrid(ByteReader& r) {
  const auto lo = r.get<Vector>();
  const auto hi = r.get<Vector>();
  // A level is at least its extent, ratio, kind and patch size.
  std::vector<grid::Grid::LevelSpec> specs(r.count(24 + 12 + 1 + 12));
  std::int64_t patches = 0;
  for (std::size_t l = 0; r.ok() && l < specs.size(); ++l) {
    grid::Grid::LevelSpec& s = specs[l];
    s.extent = r.range();
    s.refinementRatio = r.get<IntVector>();
    s.irregular = r.get<std::uint8_t>() == 0;
    if (s.irregular) {
      s.patchBoxes.resize(r.count(24));
      for (CellRange& box : s.patchBoxes) box = r.range();
    } else {
      s.patchSize = r.get<IntVector>();
    }
    if (!r.ok() || !inBounds(s.extent)) return nullptr;
    const IntVector ext = s.extent.size();
    for (int d = 0; l > 0 && d < 3; ++d) {
      const int rr = s.refinementRatio[d];
      if (rr < 1 || std::int64_t{specs[l - 1].extent.size()[d]} * rr != ext[d])
        return nullptr;
    }
    if (s.irregular) {
      for (const CellRange& box : s.patchBoxes)
        if (!inBounds(box) || !s.extent.contains(box)) return nullptr;
      patches += static_cast<std::int64_t>(s.patchBoxes.size());
    } else {
      for (int d = 0; d < 3; ++d)
        if (s.patchSize[d] < 1 || ext[d] % s.patchSize[d] != 0)
          return nullptr;
      patches += (ext / s.patchSize).volume();
    }
    if (patches > kMaxPatches) return nullptr;
  }
  if (!r.ok() || specs.empty()) return nullptr;
  try {
    return grid::Grid::makeFromSpec(lo, hi, specs);
  } catch (const std::exception&) {
    return nullptr;  // overlapping boxes and the like
  }
}

// --- patch variables ------------------------------------------------------

/// Call \p f on the CCVariable \p slot holds; an empty slot is skipped.
template <typename F>
void visitVar(const VarSlot& slot, F&& f) {
  std::visit(
      [&](const auto& v) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(v)>,
                                      std::monostate>)
          f(v);
      },
      slot);
}

// A warehouse is its variable count, then per variable its label, patch
// id and VarSlot alternative index, window, interior, ghost margin and
// cells. An absent warehouse is written as an empty one.
template <typename T>
void putVar(std::string& b, const grid::CCVariable<T>& v) {
  putRange(b, v.window());
  putRange(b, v.interior());
  put<std::int32_t>(b, v.numGhost());
  put<std::uint64_t>(b, static_cast<std::uint64_t>(v.sizeCells()));
  b.append(reinterpret_cast<const char*>(v.data()),
           static_cast<std::size_t>(v.sizeBytes()));
}

void putVars(std::string& b, const DataWarehouse* dw) {
  put<std::uint64_t>(b, dw ? dw->numPatchVars() : 0);
  if (!dw) return;
  dw->forEachPatchVar(
      [&](const std::string& label, int patchId, const VarSlot& slot) {
        putString(b, label);
        put<std::int32_t>(b, patchId);
        put<std::uint8_t>(b, static_cast<std::uint8_t>(slot.index()));
        visitVar(slot, [&](const auto& v) { putVar(b, v); });
      });
}

/// Decode one variable of \p patch: its interior must be the patch and
/// its window the patch grown by its ghost margin.
template <typename T>
bool getVar(ByteReader& r, const grid::Patch& patch, VarSlot& out) {
  const CellRange window = r.range();
  const CellRange interior = r.range();
  const int numGhost = r.get<std::int32_t>();
  const std::size_t cells = r.count(sizeof(T));
  if (!r.ok() || interior != patch.cells() || numGhost < 0 ||
      numGhost > kMaxCoord || window != patch.ghostWindow(numGhost) ||
      static_cast<std::int64_t>(cells) != window.volume())
    return false;
  const char* p = r.bytes(cells * sizeof(T));
  if (!p) return false;
  grid::CCVariable<T> v(window, interior, numGhost);
  std::memcpy(v.data(), p, cells * sizeof(T));
  out = std::move(v);
  return true;
}

// --- ReliableChannel state ------------------------------------------------

void putChannel(std::string& b, const comm::ReliableChannel& ch) {
  const comm::ReliableChannel::ChannelState cs = ch.saveState();
  put<std::uint64_t>(b, cs.sendLinks.size());
  for (const auto& sl : cs.sendLinks) {
    put<std::int32_t>(b, sl.dst);
    put(b, sl.nextSeq);
    put<std::uint8_t>(b, sl.dead ? 1 : 0);
    put<std::uint64_t>(b, sl.unacked.size());
    for (const auto& f : sl.unacked) {
      put(b, f.seq);
      put(b, f.tag);
      put<std::uint64_t>(b, f.bytes.size());
      b.append(reinterpret_cast<const char*>(f.bytes.data()), f.bytes.size());
    }
  }
  put<std::uint64_t>(b, cs.recvLinks.size());
  for (const auto& rl : cs.recvLinks) {
    put<std::int32_t>(b, rl.src);
    put(b, rl.cumAck);
    put<std::uint64_t>(b, rl.ahead.size());
    for (std::uint64_t s : rl.ahead) put(b, s);
  }
}

/// Decode channel state whose peers are ranks of a \p numRanks world.
bool getChannel(ByteReader& r, int numRanks,
                comm::ReliableChannel::ChannelState& cs) {
  const auto peer = [&](int rank) {
    if (rank < 0 || rank >= numRanks) r.fail();
    return rank;
  };
  cs.sendLinks.resize(r.count(4 + 8 + 1 + 8));
  for (auto& sl : cs.sendLinks) {
    sl.dst = peer(r.get<std::int32_t>());
    sl.nextSeq = r.get<std::uint64_t>();
    sl.dead = r.get<std::uint8_t>() != 0;
    sl.unacked.resize(r.count(8 + 8 + 8));
    for (auto& f : sl.unacked) {
      f.seq = r.get<std::uint64_t>();
      f.tag = r.get<std::int64_t>();
      const std::size_t n = r.count(1);
      if (const char* p = r.bytes(n)) f.bytes.assign(p, p + n);
    }
  }
  cs.recvLinks.resize(r.count(4 + 8 + 8));
  for (auto& rl : cs.recvLinks) {
    rl.src = peer(r.get<std::int32_t>());
    rl.cumAck = r.get<std::uint64_t>();
    rl.ahead.resize(r.count(8));
    for (std::uint64_t& s : rl.ahead) s = r.get<std::uint64_t>();
  }
  return r.ok();
}

std::string encodeRank(const Snapshot::RankStateView& v, std::size_t rank) {
  std::string b = header(kRankBlobMagic);
  put<std::int32_t>(b, static_cast<std::int32_t>(rank));
  put(b, v.rngState);
  put<std::uint8_t>(b, v.channel ? 1 : 0);
  if (v.channel) putChannel(b, *v.channel);
  putVars(b, v.oldDW);
  putVars(b, v.newDW);
  return b;
}

}  // namespace

// --- Snapshot ------------------------------------------------------------

bool Snapshot::save(const std::string& dir, const WorldStateView& world,
                    std::uint64_t* bytesOut) {
  if (!world.grid || world.ranks.empty()) return false;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  // Invalidate any previous snapshot in this directory before touching its
  // files: the manifest is the commit record, so it must go away first and
  // come back last.
  std::filesystem::remove(dir + "/MANIFEST", ec);

  std::string man = header(kManifestMagic);
  put<std::int32_t>(man, world.step);
  put(man, world.domainSeed);
  putGrid(man, *world.grid);
  put<std::uint64_t>(man, world.ranks.size());
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < world.ranks.size(); ++r) {
    const std::string blob = encodeRank(world.ranks[r], r);
    if (!writeFileBytes(dir + "/" + rankBlobName(r), blob)) return false;
    put(man, fnv1a(blob.data(), blob.size()));
    total += blob.size();
  }
  total += man.size() + sizeof(std::uint64_t);
  if (!writeSealed(dir + "/MANIFEST", std::move(man))) return false;
  if (bytesOut) *bytesOut = total;
  return true;
}

bool Snapshot::load(const std::string& dir, Snapshot& out) {
  std::string man;
  if (!readSealed(dir + "/MANIFEST", man)) return false;
  ByteReader r(man);
  if (!readHeader(r, kManifestMagic)) return false;
  Snapshot s;
  s.m_step = r.get<std::int32_t>();
  s.m_domainSeed = r.get<std::uint64_t>();
  s.m_grid = getGrid(r);
  // The manifest ends with one checksum per rank blob.
  std::vector<std::uint64_t> sums(r.count(sizeof(std::uint64_t)));
  for (std::uint64_t& sum : sums) sum = r.get<std::uint64_t>();
  if (!r.done() || !s.m_grid || sums.empty() || s.m_step < -1 ||
      s.m_step == INT_MAX)
    return false;

  s.m_ranks.resize(sums.size());
  for (std::size_t i = 0; i < sums.size(); ++i) {
    std::string blob;
    if (!readFileBytes(dir + "/" + rankBlobName(i), blob) ||
        fnv1a(blob.data(), blob.size()) != sums[i] || !s.decodeRank(blob, i))
      return false;
  }
  out = std::move(s);
  return true;
}

bool Snapshot::decodeRank(const std::string& blob, std::size_t rank) {
  ByteReader r(blob);
  if (!readHeader(r, kRankBlobMagic) ||
      r.get<std::int32_t>() != static_cast<std::int32_t>(rank))
    return false;
  Rank& out = m_ranks[rank];
  out.rngState = r.get<std::uint64_t>();
  if (r.get<std::uint8_t>() != 0 &&
      !getChannel(r, numRanks(), out.channel.emplace()))
    return false;
  for (std::vector<Var>* vars : {&out.oldDW, &out.newDW}) {
    // A variable is at least its label count, id and tag.
    vars->resize(r.count(8 + 4 + 1));
    for (Var& v : *vars) {
      v.label = r.string();
      v.patchId = r.get<std::int32_t>();
      const std::uint8_t tag = r.get<std::uint8_t>();
      const grid::Patch* patch = m_grid->patchById(v.patchId);
      if (!r.ok() || !patch) return false;
      // Tags are VarSlot alternative indices.
      const bool ok =
          tag == 1   ? getVar<double>(r, *patch, v.value)
          : tag == 2 ? getVar<grid::CellType>(r, *patch, v.value)
                     : false;
      if (!ok) return false;
    }
  }
  return r.done();
}

bool Snapshot::restore(WorldStateView& world,
                       const grid::LoadBalancer& lb) const {
  if (!m_grid ||
      world.ranks.size() != static_cast<std::size_t>(lb.numRanks()))
    return false;
  std::size_t owned = 0;
  for (int r = 0; r < lb.numRanks(); ++r) owned += lb.patchesOf(r).size();
  if (owned != static_cast<std::size_t>(m_grid->numPatches())) return false;

  const bool verbatim = world.ranks.size() == m_ranks.size();
  for (std::size_t r = 0; verbatim && r < m_ranks.size(); ++r) {
    comm::ReliableChannel* ch = world.ranks[r].channel;
    if (ch && m_ranks[r].channel && !ch->restoreState(*m_ranks[r].channel))
      return false;
  }
  for (RankStateView& v : world.ranks) {
    if (v.oldDW) v.oldDW->clear();
    if (v.newDW) v.newDW->clear();
  }
  const auto putVar = [](DataWarehouse* dw, const Var& var) {
    if (dw)
      visitVar(var.value,
               [&](const auto& v) { dw->put(var.label, var.patchId, v); });
  };
  for (std::size_t r = 0; r < m_ranks.size(); ++r) {
    const Rank& saved = m_ranks[r];
    if (verbatim) {
      RankStateView& v = world.ranks[r];
      v.rngState = saved.rngState;
      for (const Var& var : saved.oldDW) putVar(v.oldDW, var);
      for (const Var& var : saved.newDW) putVar(v.newDW, var);
    } else {
      // Same grid on both sides: only ownership moves.
      for (const Var& var : saved.newDW)
        putVar(world.ranks[static_cast<std::size_t>(lb.rankOf(var.patchId))]
                   .newDW,
               var);
    }
  }
  world.grid = m_grid;
  world.step = m_step;
  world.domainSeed = m_domainSeed;
  return true;
}

// --- ReplayJournal -------------------------------------------------------

bool ReplayJournal::save(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string b = header(kJournalMagic);
  put(b, domainSeed);
  put<std::uint64_t>(b, rankDigests.size());
  for (const auto& digests : rankDigests) {
    put<std::uint64_t>(b, digests.size());
    for (const auto& [step, digest] : digests) {
      put<std::int32_t>(b, step);
      put(b, digest);
    }
  }
  putString(b, injectorState);
  return writeSealed(dir + "/JOURNAL", std::move(b));
}

bool ReplayJournal::load(const std::string& dir) {
  std::string b;
  if (!readSealed(dir + "/JOURNAL", b)) return false;
  ByteReader r(b);
  if (!readHeader(r, kJournalMagic)) return false;
  ReplayJournal j;
  j.domainSeed = r.get<std::uint64_t>();
  j.rankDigests.resize(r.count(sizeof(std::uint64_t)));
  for (auto& digests : j.rankDigests) {
    digests.resize(r.count(sizeof(std::int32_t) + sizeof(std::uint64_t)));
    for (auto& [step, digest] : digests) {
      step = r.get<std::int32_t>();
      digest = r.get<std::uint64_t>();
    }
  }
  j.injectorState = r.string();
  if (!r.done()) return false;
  *this = std::move(j);
  return true;
}

// --- WorldHarness --------------------------------------------------------

WorldHarness::WorldHarness(HarnessConfig cfg) : m_cfg(std::move(cfg)) {
  m_grid = m_cfg.grid;
  buildWorld(m_cfg.numRanks);
}

WorldHarness::~WorldHarness() {
  // Schedulers (and their reliable channels) must die before the
  // communicator they are wired to.
  m_scheds.clear();
  m_world.reset();
}

void WorldHarness::buildWorld(int numRanks) {
  m_scheds.clear();
  m_world.reset();
  m_world = std::make_unique<comm::Communicator>(numRanks);
  if (!m_killDone && m_cfg.injector)
    m_world->setFaultInjector(m_cfg.injector);
  double timeout = m_cfg.collectiveTimeoutSeconds;
  if (timeout <= 0.0 && m_cfg.killRank >= 0) timeout = 10.0;
  if (timeout > 0.0) m_world->setCollectiveTimeout(timeout);

  // Cost-weighted Morton partition with patch cell volume as the cost
  // model: deterministic for a given grid, so every restore onto the same
  // rank count reproduces the exact ownership the snapshot was taken
  // under.
  std::vector<double> costs(static_cast<std::size_t>(m_grid->numPatches()));
  for (int pid = 0; pid < m_grid->numPatches(); ++pid)
    costs[static_cast<std::size_t>(pid)] =
        static_cast<double>(m_grid->patchById(pid)->cells().volume());
  m_lb = std::make_shared<grid::LoadBalancer>(*m_grid, numRanks, costs,
                                              grid::LbStrategy::Morton);

  m_rngs.clear();
  for (int r = 0; r < numRanks; ++r) {
    m_scheds.push_back(
        std::make_unique<Scheduler>(m_grid, m_lb, *m_world, r, m_cfg.sched));
    m_rngs.emplace_back(m_cfg.domainSeed +
                        0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(r) + 1));
  }
}

int WorldHarness::resumeFrom(const std::string& dir, int ranks) {
  Snapshot snap;
  if (!Snapshot::load(dir, snap)) return -1;
  m_grid = snap.grid();
  buildWorld(ranks);
  Snapshot::WorldStateView view = makeView(-1);
  if (!snap.restore(view, *m_lb)) return -1;
  for (std::size_t r = 0; r < view.ranks.size(); ++r)
    m_rngs[r] = Rng::fromState(view.ranks[r].rngState);
  m_lastSnapshotPath = dir;
  return snap.step() + 1;
}

Snapshot::WorldStateView WorldHarness::makeView(int step) {
  Snapshot::WorldStateView w;
  w.step = step;
  w.domainSeed = m_cfg.domainSeed;
  w.grid = m_grid;
  for (std::size_t r = 0; r < m_scheds.size(); ++r) {
    Snapshot::RankStateView v;
    v.oldDW = &m_scheds[r]->oldDW();
    v.newDW = &m_scheds[r]->newDW();
    v.channel = m_scheds[r]->channel();
    v.rngState = m_rngs[r].state();
    w.ranks.push_back(v);
  }
  return w;
}

std::uint64_t WorldHarness::digestRank(int rank) const {
  static const std::string kLabel = "divQ";  // the radiation output
  DataWarehouse& dw = m_scheds[static_cast<std::size_t>(rank)]->newDW();
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::vector<int> ids =
      m_lb->patchesOf(rank, *m_grid, m_grid->numLevels() - 1);
  std::sort(ids.begin(), ids.end());
  for (int pid : ids) {
    if (!dw.exists(kLabel, pid)) continue;
    const auto& v = dw.get<double>(kLabel, pid);
    h = fnv1a(&pid, sizeof pid, h);
    h = fnv1a(v.data(), static_cast<std::size_t>(v.sizeBytes()), h);
  }
  return h;
}

void WorldHarness::maybeSnapshot(int step, int rank, HarnessResult& result) {
  if (m_cfg.snapshotEvery <= 0 || m_cfg.snapshotDir.empty()) return;
  if ((step + 1) % m_cfg.snapshotEvery != 0) return;
  // Double barrier: every scheduler is quiescent between the barriers, so
  // rank 0 can serialize the whole cluster without racing anyone.
  m_world->barrier(rank);
  if (rank == 0) {
    const std::string dir =
        m_cfg.snapshotDir + "/snap" + std::to_string(step);
    Timer t;
    std::uint64_t bytes = 0;
    if (Snapshot::save(dir, makeView(step), &bytes)) {
      m_lastSnapshotPath = dir;
      ++result.snapshots;
      result.snapshotBytes += bytes;
      result.snapshotSeconds += t.seconds();
      result.lastSnapshotStep = step;
    }
  }
  m_world->barrier(rank);
}

HarnessResult WorldHarness::run() {
  HarnessResult result;

  ReplayJournal journal;
  bool replaying = false;
  if (!m_cfg.replayDir.empty()) {
    if (!journal.load(m_cfg.replayDir)) return result;
    replaying = true;
    // A replay must reproduce the recorded faults: without an injector
    // that accepts the recorded state it would verify a different run.
    if (!journal.injectorState.empty() &&
        !(m_cfg.injector &&
          m_cfg.injector->restoreState(journal.injectorState)))
      return result;
  }
  // Capture the injector's decision state BEFORE any traffic perturbs it:
  // this is what a later --replay run restores to reproduce the faults.
  std::string recordedInjector;
  if (!m_cfg.recordDir.empty() && m_cfg.injector)
    recordedInjector = m_cfg.injector->saveState();

  int firstStep = 0;
  if (!m_cfg.restoreDir.empty()) {
    firstStep = resumeFrom(m_cfg.restoreDir, m_cfg.numRanks);
    if (firstStep < 0) return result;
  }
  for (int attempt = 0; attempt < 8; ++attempt) {
    const int R = numRanks();
    const int stepsLeft = m_cfg.steps - firstStep;
    if (stepsLeft <= 0) break;

    std::vector<std::vector<TimestepRecord>> records(
        static_cast<std::size_t>(R));
    std::vector<std::vector<std::pair<int, std::uint64_t>>> digests(
        static_cast<std::size_t>(R));
    std::vector<int> deadRanks;
    std::mutex failMutex;
    std::exception_ptr fatal;  // ReplayDivergence etc: rethrown to caller
    std::atomic<bool> anyFailure{false};

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) {
      threads.emplace_back([&, r] {
        try {
          SimulationController ctl(*m_scheds[static_cast<std::size_t>(r)],
                                   m_cfg.registerRadiation,
                                   m_cfg.registerCarryForward);
          ctl.setRadiationInterval(m_cfg.radiationInterval);
          ctl.setPreStepHook([&, r](int step) {
            if (!m_killDone && r == m_cfg.killRank &&
                step == m_cfg.killAtStep && m_cfg.injector) {
              // Silence every link touching this rank, then vanish.
              m_cfg.injector->killRank(r);
              throw RankKilled(r, step);
            }
          });
          ctl.setStepDigest([this, r](int) { return digestRank(r); });
          ctl.setRecordSink(&digests[static_cast<std::size_t>(r)]);
          if (replaying &&
              static_cast<std::size_t>(r) < journal.rankDigests.size())
            ctl.setReplayReference(
                journal.rankDigests[static_cast<std::size_t>(r)]);
          ctl.setPostStepHook([&, r](int step) {
            // One auxiliary stream draw per completed step: the restored
            // counter must resume exactly here.
            m_rngs[static_cast<std::size_t>(r)].nextU64();
            maybeSnapshot(step, r, result);
          });
          records[static_cast<std::size_t>(r)] = ctl.run(firstStep, stepsLeft);
        } catch (const RankKilled& k) {
          std::lock_guard<std::mutex> lk(failMutex);
          deadRanks.push_back(k.rank());
          anyFailure.store(true);
        } catch (const TimestepStalled& ts) {
          std::lock_guard<std::mutex> lk(failMutex);
          for (const auto& s : ts.suspects())
            if (s.dead) deadRanks.push_back(s.rank);
          anyFailure.store(true);
        } catch (const comm::CommAborted&) {
          anyFailure.store(true);
        } catch (...) {
          // Replay divergence or an unexpected error: fatal for the whole
          // run, not a recoverable rank loss.
          {
            std::lock_guard<std::mutex> lk(failMutex);
            if (!fatal) fatal = std::current_exception();
          }
          anyFailure.store(true);
          m_world->abort("harness rank " + std::to_string(r) + " failed");
        }
      });
    }
    for (auto& t : threads) t.join();
    if (fatal) std::rethrow_exception(fatal);

    if (!anyFailure.load()) {
      result.completed = true;
      result.finalRanks = R;
      result.records = std::move(records);
      result.digests = std::move(digests);
      break;
    }
    // --- recovery: drop the dead ranks, restore, resume -----------------
    ++result.recoveries;
    m_killDone = true;
    std::sort(deadRanks.begin(), deadRanks.end());
    deadRanks.erase(std::unique(deadRanks.begin(), deadRanks.end()),
                    deadRanks.end());
    if (deadRanks.empty() && m_cfg.killRank >= 0)
      deadRanks.push_back(m_cfg.killRank);  // victim died before reporting
    const int newR = R - static_cast<int>(deadRanks.size());
    if (newR < 1) return result;

    if (m_lastSnapshotPath.empty()) {
      // No checkpoint yet: rebuild the survivors and restart from step 0.
      buildWorld(newR);
      firstStep = 0;
      continue;
    }
    firstStep = resumeFrom(m_lastSnapshotPath, newR);
    if (firstStep < 0) return result;
  }

  if (result.completed && !m_cfg.recordDir.empty()) {
    journal.domainSeed = m_cfg.domainSeed;
    journal.injectorState = recordedInjector;
    journal.rankDigests = result.digests;
    journal.save(m_cfg.recordDir);
  }
  return result;
}

}  // namespace rmcrt::runtime
