#include "runtime/snapshot.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "amr/migrator.h"
#include "comm/reliable_channel.h"
#include "gpu/gpu_data_warehouse.h"
#include "runtime/data_archiver.h"
#include "util/timers.h"

namespace rmcrt::runtime {

namespace {

/// Identifies a rank blob ("RMCRTSNP" little-endian) before any decoding.
constexpr std::uint64_t kRankBlobMagic = 0x504e535452434d52ull;

// --- flat binary framing (host-endian; snapshots never leave the node) --

void putRaw(std::string& b, const void* p, std::size_t n) {
  b.append(static_cast<const char*>(p), n);
}
void putU8(std::string& b, std::uint8_t v) { putRaw(b, &v, sizeof v); }
void putU32(std::string& b, std::uint32_t v) { putRaw(b, &v, sizeof v); }
void putU64(std::string& b, std::uint64_t v) { putRaw(b, &v, sizeof v); }
void putI32(std::string& b, std::int32_t v) { putRaw(b, &v, sizeof v); }
void putI64(std::string& b, std::int64_t v) { putRaw(b, &v, sizeof v); }
void putString(std::string& b, const std::string& s) {
  putU32(b, static_cast<std::uint32_t>(s.size()));
  putRaw(b, s.data(), s.size());
}
void putRange(std::string& b, const grid::CellRange& r) {
  putI32(b, r.low().x());
  putI32(b, r.low().y());
  putI32(b, r.low().z());
  putI32(b, r.high().x());
  putI32(b, r.high().y());
  putI32(b, r.high().z());
}

/// Bounds-checked sequential decoder: any short read or bad tag latches
/// ok=false and every later getter returns zeros, so callers can decode a
/// whole section and test ok once.
struct Reader {
  const std::string& b;
  std::size_t pos = 0;
  bool ok = true;

  explicit Reader(const std::string& bytes) : b(bytes) {}

  bool need(std::size_t n) {
    if (!ok || b.size() - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  void read(void* out, std::size_t n) {
    if (!need(n)) {
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, b.data() + pos, n);
    pos += n;
  }
  const char* raw(std::size_t n) {
    if (!need(n)) return nullptr;
    const char* p = b.data() + pos;
    pos += n;
    return p;
  }
  std::uint8_t u8() {
    std::uint8_t v = 0;
    read(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    read(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    read(&v, sizeof v);
    return v;
  }
  std::int32_t i32() {
    std::int32_t v = 0;
    read(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    read(&v, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    const char* p = raw(n);
    return p ? std::string(p, n) : std::string();
  }
  grid::CellRange range() {
    std::int32_t v[6];
    for (auto& c : v) c = i32();
    return grid::CellRange(IntVector(v[0], v[1], v[2]),
                           IntVector(v[3], v[4], v[5]));
  }
};

// --- DataWarehouse <-> bytes --------------------------------------------

enum : std::uint8_t { kTagDouble = 0, kTagCellType = 1, kTagEmpty = 2 };

template <typename T>
void putCCVar(std::string& b, const grid::CCVariable<T>& v) {
  putRange(b, v.window());
  putRange(b, v.interior());
  putI32(b, v.numGhost());
  putU64(b, static_cast<std::uint64_t>(v.sizeBytes()));
  putRaw(b, v.data(), static_cast<std::size_t>(v.sizeBytes()));
}

void putSlot(std::string& b, const VarSlot& slot) {
  if (const auto* d = std::get_if<grid::CCVariable<double>>(&slot)) {
    putU8(b, kTagDouble);
    putCCVar(b, *d);
  } else if (const auto* c =
                 std::get_if<grid::CCVariable<grid::CellType>>(&slot)) {
    putU8(b, kTagCellType);
    putCCVar(b, *c);
  } else {
    putU8(b, kTagEmpty);
  }
}

void serializeDW(std::string& b, const DataWarehouse& dw) {
  putU64(b, dw.numPatchVars());
  dw.forEachPatchVar(
      [&](const std::string& label, int patchId, const VarSlot& slot) {
        putString(b, label);
        putI32(b, patchId);
        putSlot(b, slot);
      });
  putU64(b, dw.numLevelVars());
  dw.forEachLevelVar(
      [&](const std::string& label, int levelIndex, const VarSlot& slot) {
        putString(b, label);
        putI32(b, levelIndex);
        putSlot(b, slot);
      });
}

template <typename T>
bool readCCVar(Reader& r, grid::CCVariable<T>& out) {
  const grid::CellRange window = r.range();
  const grid::CellRange interior = r.range();
  const int numGhost = r.i32();
  const std::uint64_t nBytes = r.u64();
  if (!r.ok) return false;
  grid::CCVariable<T> v(window, interior, numGhost);
  if (nBytes != static_cast<std::uint64_t>(v.sizeBytes())) {
    r.ok = false;
    return false;
  }
  r.read(v.data(), static_cast<std::size_t>(nBytes));
  if (!r.ok) return false;
  out = std::move(v);
  return true;
}

/// Decode one warehouse section. \p patchInto / \p levelInto receive the
/// variables; either may be null to parse-and-discard (the elastic path
/// keeps only newDW patch vars).
bool deserializeDW(Reader& r, DataWarehouse* patchInto,
                   DataWarehouse* levelInto) {
  const std::uint64_t nPatch = r.u64();
  for (std::uint64_t i = 0; r.ok && i < nPatch; ++i) {
    const std::string label = r.str();
    const int id = r.i32();
    const std::uint8_t tag = r.u8();
    if (tag == kTagEmpty) continue;
    if (tag == kTagDouble) {
      grid::CCVariable<double> v;
      if (!readCCVar(r, v)) return false;
      if (patchInto) patchInto->put(label, id, std::move(v));
    } else if (tag == kTagCellType) {
      grid::CCVariable<grid::CellType> v;
      if (!readCCVar(r, v)) return false;
      if (patchInto) patchInto->put(label, id, std::move(v));
    } else {
      r.ok = false;
    }
  }
  const std::uint64_t nLevel = r.u64();
  for (std::uint64_t i = 0; r.ok && i < nLevel; ++i) {
    const std::string label = r.str();
    const int lvl = r.i32();
    const std::uint8_t tag = r.u8();
    if (tag == kTagEmpty) continue;
    if (tag == kTagDouble) {
      grid::CCVariable<double> v;
      if (!readCCVar(r, v)) return false;
      if (levelInto) levelInto->putLevel(label, lvl, std::move(v));
    } else if (tag == kTagCellType) {
      grid::CCVariable<grid::CellType> v;
      if (!readCCVar(r, v)) return false;
      if (levelInto) levelInto->putLevel(label, lvl, std::move(v));
    } else {
      r.ok = false;
    }
  }
  return r.ok;
}

// --- ReliableChannel state <-> bytes ------------------------------------

void serializeChannel(std::string& b, const comm::ReliableChannel& ch) {
  const comm::ReliableChannel::ChannelState cs = ch.saveState();
  putU32(b, static_cast<std::uint32_t>(cs.sendLinks.size()));
  for (const auto& sl : cs.sendLinks) {
    putI32(b, sl.dst);
    putU64(b, sl.nextSeq);
    putU8(b, sl.dead ? 1 : 0);
    putU32(b, static_cast<std::uint32_t>(sl.unacked.size()));
    for (const auto& f : sl.unacked) {
      putU64(b, f.seq);
      putI64(b, f.tag);
      putU64(b, f.bytes.size());
      putRaw(b, f.bytes.data(), f.bytes.size());
    }
  }
  putU32(b, static_cast<std::uint32_t>(cs.recvLinks.size()));
  for (const auto& rl : cs.recvLinks) {
    putI32(b, rl.src);
    putU64(b, rl.cumAck);
    putU32(b, static_cast<std::uint32_t>(rl.ahead.size()));
    for (std::uint64_t s : rl.ahead) putU64(b, s);
  }
}

bool deserializeChannel(Reader& r, comm::ReliableChannel::ChannelState& cs) {
  const std::uint32_t nSend = r.u32();
  for (std::uint32_t i = 0; r.ok && i < nSend; ++i) {
    comm::ReliableChannel::ChannelState::SendLinkState sl;
    sl.dst = r.i32();
    sl.nextSeq = r.u64();
    sl.dead = r.u8() != 0;
    const std::uint32_t nUnacked = r.u32();
    for (std::uint32_t j = 0; r.ok && j < nUnacked; ++j) {
      comm::ReliableChannel::ChannelState::Frame f;
      f.seq = r.u64();
      f.tag = r.i64();
      const std::uint64_t nb = r.u64();
      const char* p = r.raw(static_cast<std::size_t>(nb));
      if (!p) break;
      f.bytes.resize(static_cast<std::size_t>(nb));
      if (nb) std::memcpy(f.bytes.data(), p, static_cast<std::size_t>(nb));
      sl.unacked.push_back(std::move(f));
    }
    cs.sendLinks.push_back(std::move(sl));
  }
  const std::uint32_t nRecv = r.u32();
  for (std::uint32_t i = 0; r.ok && i < nRecv; ++i) {
    comm::ReliableChannel::ChannelState::RecvLinkState rl;
    rl.src = r.i32();
    rl.cumAck = r.u64();
    const std::uint32_t nAhead = r.u32();
    for (std::uint32_t j = 0; r.ok && j < nAhead; ++j)
      rl.ahead.push_back(r.u64());
    cs.recvLinks.push_back(std::move(rl));
  }
  return r.ok;
}

// --- GPU level-database <-> bytes ---------------------------------------

void serializeGpu(std::string& b, const gpu::GpuDataWarehouse& gdw) {
  std::uint64_t n = 0;
  gdw.forEachLevelVar([&](const std::string&, const gpu::DeviceVar&) { ++n; });
  putU64(b, n);
  gdw.forEachLevelVar([&](const std::string& key, const gpu::DeviceVar& dv) {
    putString(b, key);
    putRange(b, dv.window);
    putU64(b, dv.elemSize);
    putU64(b, dv.bytes);
    putRaw(b, dv.devPtr, dv.bytes);
  });
}

bool deserializeGpu(Reader& r, gpu::GpuDataWarehouse* gdw) {
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; r.ok && i < n; ++i) {
    const std::string key = r.str();
    const grid::CellRange window = r.range();
    const std::uint64_t elemSize = r.u64();
    const std::uint64_t nBytes = r.u64();
    if (elemSize == 0 ||
        nBytes != static_cast<std::uint64_t>(window.volume()) * elemSize) {
      r.ok = false;
      return false;
    }
    const char* p = r.raw(static_cast<std::size_t>(nBytes));
    if (!p) return false;
    if (gdw)
      gdw->restoreLevelVarRaw(key, window,
                              static_cast<std::size_t>(elemSize), p);
  }
  return r.ok;
}

// --- rank blob -----------------------------------------------------------

std::string serializeRank(const Snapshot::RankStateView& v, int rank) {
  std::string b;
  putU64(b, kRankBlobMagic);
  putU32(b, kSnapshotFormatVersion);
  putI32(b, rank);
  putU64(b, v.rngState);
  if (v.channel) {
    putU8(b, 1);
    serializeChannel(b, *v.channel);
  } else {
    putU8(b, 0);
  }
  for (const DataWarehouse* dw : {static_cast<const DataWarehouse*>(v.oldDW),
                                  static_cast<const DataWarehouse*>(v.newDW)}) {
    if (dw) {
      putU8(b, 1);
      serializeDW(b, *dw);
    } else {
      putU8(b, 0);
    }
  }
  if (v.gpuDW) {
    putU8(b, 1);
    serializeGpu(b, *v.gpuDW);
  } else {
    putU8(b, 0);
  }
  return b;
}

/// Decode one rank blob. In verbatim mode every section lands in the
/// matching view member; in elastic mode (\p elasticUnion non-null) only
/// newDW patch variables are kept — into the union warehouse — and
/// channel/GPU/RNG sections are parsed and discarded.
bool deserializeRank(const std::string& blob, int expectRank,
                     Snapshot::RankStateView* view,
                     DataWarehouse* elasticUnion) {
  Reader r(blob);
  if (r.u64() != kRankBlobMagic) return false;
  if (r.u32() != kSnapshotFormatVersion) return false;
  if (r.i32() != expectRank) return false;
  const std::uint64_t rng = r.u64();
  if (view) view->rngState = rng;
  if (r.u8() != 0) {
    comm::ReliableChannel::ChannelState cs;
    if (!deserializeChannel(r, cs)) return false;
    if (view && view->channel && !view->channel->restoreState(cs))
      return false;
  }
  DataWarehouse* oldTarget = view ? view->oldDW : nullptr;
  if (r.u8() != 0) {
    if (!deserializeDW(r, oldTarget, oldTarget)) return false;
  }
  DataWarehouse* newTarget = view ? view->newDW : elasticUnion;
  DataWarehouse* newLevelTarget = view ? view->newDW : nullptr;
  if (r.u8() != 0) {
    if (!deserializeDW(r, newTarget, newLevelTarget)) return false;
  }
  if (r.u8() != 0) {
    if (!deserializeGpu(r, view ? view->gpuDW : nullptr)) return false;
  }
  return r.ok;
}

bool writeFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return os.good();
}

std::string rankBlobName(int rank) {
  return "rank" + std::to_string(rank) + ".bin";
}

/// Read + checksum-verify one snapshot file against the manifest.
bool loadVerified(const std::string& dir, const SnapshotManifest& man,
                  const std::string& name, std::string& out) {
  if (!readFileBytes(dir + "/" + name, out)) return false;
  return fnv1a(out.data(), out.size()) == man.checksumOf(name);
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

  SnapshotManifest man;
  man.step = world.step;
  man.numRanks = static_cast<int>(world.ranks.size());
  man.domainSeed = world.domainSeed;

  if (!DataArchiver::checkpointGrid(dir, *world.grid)) return false;
  std::string gridBytes;
  if (!readFileBytes(dir + "/grid.txt", gridBytes)) return false;
  man.files.emplace_back("grid.txt", fnv1a(gridBytes.data(), gridBytes.size()));
  std::uint64_t total = gridBytes.size();

  for (int r = 0; r < man.numRanks; ++r) {
    const std::string blob =
        serializeRank(world.ranks[static_cast<std::size_t>(r)], r);
    if (!writeFileBytes(dir + "/" + rankBlobName(r), blob)) return false;
    man.files.emplace_back(rankBlobName(r),
                           fnv1a(blob.data(), blob.size()));
    total += blob.size();
  }
  if (!man.save(dir)) return false;
  if (bytesOut) *bytesOut = total;
  return true;
}

bool Snapshot::peek(const std::string& dir, SnapshotManifest& out) {
  return out.load(dir);
}

std::shared_ptr<const grid::Grid> Snapshot::restoreGrid(
    const std::string& dir) {
  SnapshotManifest man;
  if (!man.load(dir)) return nullptr;
  std::string gridBytes;
  if (!loadVerified(dir, man, "grid.txt", gridBytes)) return nullptr;
  return DataArchiver::restoreGrid(dir);
}

bool Snapshot::restore(const std::string& dir, WorldStateView& world) {
  SnapshotManifest man;
  if (!man.load(dir)) return false;
  if (static_cast<int>(world.ranks.size()) != man.numRanks) return false;
  auto g = restoreGrid(dir);
  if (!g) return false;

  // Verify every blob BEFORE mutating any target: a corrupt rank must not
  // leave the world half-restored.
  std::vector<std::string> blobs(static_cast<std::size_t>(man.numRanks));
  for (int r = 0; r < man.numRanks; ++r) {
    if (!loadVerified(dir, man, rankBlobName(r),
                      blobs[static_cast<std::size_t>(r)]))
      return false;
  }

  for (int r = 0; r < man.numRanks; ++r) {
    RankStateView& v = world.ranks[static_cast<std::size_t>(r)];
    if (v.oldDW) v.oldDW->clear();
    if (v.newDW) v.newDW->clear();
    if (v.gpuDW) v.gpuDW->clear();
    if (!deserializeRank(blobs[static_cast<std::size_t>(r)], r, &v, nullptr))
      return false;
  }
  world.grid = std::move(g);
  world.step = man.step;
  world.domainSeed = man.domainSeed;
  return true;
}

bool Snapshot::restoreElastic(const std::string& dir, WorldStateView& world,
                              const grid::LoadBalancer& lb) {
  SnapshotManifest man;
  if (!man.load(dir)) return false;
  if (static_cast<int>(world.ranks.size()) != lb.numRanks()) return false;
  auto g = restoreGrid(dir);
  if (!g) return false;

  // Union of every saved rank's newDW patch variables.
  DataWarehouse unionDW;
  for (int r = 0; r < man.numRanks; ++r) {
    std::string blob;
    if (!loadVerified(dir, man, rankBlobName(r), blob)) return false;
    if (!deserializeRank(blob, r, nullptr, &unionDW)) return false;
  }

  // Which (label, level, type) combinations exist, with every patch of a
  // label mapped through the restored grid to its level.
  std::set<std::tuple<std::string, int, int>> combos;  // label, level, tag
  unionDW.forEachPatchVar(
      [&](const std::string& label, int patchId, const VarSlot& slot) {
        const int lvl = g->levelOfPatch(patchId).index();
        if (std::holds_alternative<grid::CCVariable<double>>(slot))
          combos.emplace(label, lvl, kTagDouble);
        else if (std::holds_alternative<grid::CCVariable<grid::CellType>>(slot))
          combos.emplace(label, lvl, kTagCellType);
      });

  for (auto& rank : world.ranks) {
    if (rank.oldDW) rank.oldDW->clear();
    if (rank.newDW) rank.newDW->clear();
    if (rank.gpuDW) rank.gpuDW->clear();
  }

  // Re-distribute: same grid on both sides, only ownership moves. Ghost
  // margins are not reconstructed (migrated vars are 0-ghost); the resumed
  // pipeline re-stages whatever halo data it requires.
  const amr::Migrator mig(*g, *g);
  for (const auto& [label, lvl, tag] : combos) {
    for (int nr = 0; nr < lb.numRanks(); ++nr) {
      DataWarehouse* dst = world.ranks[static_cast<std::size_t>(nr)].newDW;
      if (!dst) continue;
      const std::vector<int> ids = lb.patchesOf(nr, *g, lvl);
      if (ids.empty()) continue;
      if (tag == kTagDouble) {
        auto vars = mig.migratePatchVar<double>(label, lvl, unionDW, ids);
        for (std::size_t i = 0; i < ids.size(); ++i)
          dst->put(label, ids[i], std::move(vars[i]));
      } else {
        auto vars = mig.migratePatchVar<grid::CellType>(label, lvl, unionDW,
                                                        ids);
        for (std::size_t i = 0; i < ids.size(); ++i)
          dst->put(label, ids[i], std::move(vars[i]));
      }
    }
  }
  world.grid = std::move(g);
  world.step = man.step;
  world.domainSeed = man.domainSeed;
  return true;
}

// --- ReplayJournal -------------------------------------------------------

bool ReplayJournal::save(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream os(dir + "/JOURNAL", std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os << "rmcrt-journal v1\n";
  os << "domainSeed " << domainSeed << "\n";
  os << "ranks " << rankDigests.size() << "\n";
  for (std::size_t r = 0; r < rankDigests.size(); ++r) {
    os << "rank " << r << " " << rankDigests[r].size() << "\n";
    for (const auto& [step, digest] : rankDigests[r])
      os << step << " " << std::hex << digest << std::dec << "\n";
  }
  os << "injector " << injectorState.size() << "\n";
  os.write(injectorState.data(),
           static_cast<std::streamsize>(injectorState.size()));
  return os.good();
}

bool ReplayJournal::load(const std::string& dir) {
  std::ifstream is(dir + "/JOURNAL", std::ios::binary);
  if (!is) return false;
  std::string magic, ver, word;
  if (!(is >> magic >> ver) || magic != "rmcrt-journal" || ver != "v1")
    return false;
  if (!(is >> word >> domainSeed) || word != "domainSeed") return false;
  std::size_t nRanks = 0;
  if (!(is >> word >> nRanks) || word != "ranks") return false;
  rankDigests.assign(nRanks, {});
  for (std::size_t r = 0; r < nRanks; ++r) {
    std::size_t rr = 0, n = 0;
    if (!(is >> word >> rr >> n) || word != "rank" || rr != r) return false;
    rankDigests[r].reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      int step = 0;
      std::uint64_t digest = 0;
      if (!(is >> step >> std::hex >> digest >> std::dec)) return false;
      rankDigests[r].emplace_back(step, digest);
    }
  }
  std::size_t nInj = 0;
  if (!(is >> word >> nInj) || word != "injector") return false;
  is.get();  // the newline after the count
  injectorState.resize(nInj);
  if (nInj) {
    is.read(injectorState.data(), static_cast<std::streamsize>(nInj));
    if (static_cast<std::size_t>(is.gcount()) != nInj) return false;
  }
  return true;
}

// --- WorldHarness --------------------------------------------------------

WorldHarness::WorldHarness(HarnessConfig cfg) : m_cfg(std::move(cfg)) {
  m_grid = m_cfg.grid;
  buildWorld(m_cfg.numRanks, /*attachInjector=*/true);
}

WorldHarness::~WorldHarness() {
  // Schedulers (and their reliable channels) must die before the
  // communicator they are wired to.
  m_scheds.clear();
  m_world.reset();
}

void WorldHarness::buildWorld(int numRanks, bool attachInjector) {
  m_scheds.clear();
  m_world.reset();
  m_world = std::make_unique<comm::Communicator>(numRanks);
  if (attachInjector && m_cfg.injector)
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
  const int lvl =
      m_cfg.digestLevel < 0 ? m_grid->numLevels() - 1 : m_cfg.digestLevel;
  DataWarehouse& dw = m_scheds[static_cast<std::size_t>(rank)]->newDW();
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::vector<int> ids = m_lb->patchesOf(rank, *m_grid, lvl);
  std::sort(ids.begin(), ids.end());
  for (int pid : ids) {
    if (!dw.exists(m_cfg.digestLabel, pid)) continue;
    const auto& v = dw.get<double>(m_cfg.digestLabel, pid);
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
      m_lastSnapshotStep = step;
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
    if (m_cfg.injector && !journal.injectorState.empty())
      m_cfg.injector->restoreState(journal.injectorState);
  }
  // Capture the injector's decision state BEFORE any traffic perturbs it:
  // this is what a later --replay run restores to reproduce the faults.
  std::string recordedInjector;
  if (!m_cfg.recordDir.empty() && m_cfg.injector)
    recordedInjector = m_cfg.injector->saveState();

  int firstStep = 0;
  if (!m_cfg.restoreDir.empty()) {
    SnapshotManifest man;
    auto g = Snapshot::restoreGrid(m_cfg.restoreDir);
    if (!g || !Snapshot::peek(m_cfg.restoreDir, man)) return result;
    m_grid = std::move(g);
    buildWorld(m_cfg.numRanks, /*attachInjector=*/true);
    Snapshot::WorldStateView view = makeView(-1);
    if (m_cfg.numRanks == man.numRanks) {
      if (!Snapshot::restore(m_cfg.restoreDir, view)) return result;
      for (int r = 0; r < m_cfg.numRanks; ++r)
        m_rngs[static_cast<std::size_t>(r)] = Rng::fromState(
            view.ranks[static_cast<std::size_t>(r)].rngState);
    } else {
      if (!Snapshot::restoreElastic(m_cfg.restoreDir, view, *m_lb))
        return result;
    }
    m_lastSnapshotPath = m_cfg.restoreDir;
    m_lastSnapshotStep = man.step;
    firstStep = man.step + 1;
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
    if (!m_cfg.autoRecover) {
      result.finalRanks = R;
      return result;
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
      buildWorld(newR, /*attachInjector=*/false);
      firstStep = 0;
      continue;
    }
    auto g = Snapshot::restoreGrid(m_lastSnapshotPath);
    SnapshotManifest man;
    if (!g || !Snapshot::peek(m_lastSnapshotPath, man)) return result;
    m_grid = std::move(g);
    buildWorld(newR, /*attachInjector=*/false);
    Snapshot::WorldStateView view = makeView(-1);
    if (newR == man.numRanks) {
      if (!Snapshot::restore(m_lastSnapshotPath, view)) return result;
      for (int r = 0; r < newR; ++r)
        m_rngs[static_cast<std::size_t>(r)] = Rng::fromState(
            view.ranks[static_cast<std::size_t>(r)].rngState);
    } else {
      if (!Snapshot::restoreElastic(m_lastSnapshotPath, view, *m_lb))
        return result;
    }
    firstStep = man.step + 1;
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
