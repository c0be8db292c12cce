#include "core/ray_tracer.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

#include "util/metrics.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/trace_recorder.h"

namespace rmcrt::core {

namespace {

/// Infinity-safe division used to set up the DDA.
double safeDiv(double num, double den) {
  return den == 0.0 ? std::numeric_limits<double>::infinity() : num / den;
}

/// Rays per bundle run. A run takes whole cells while it stays within
/// this many rays (and always at least one cell), so a divQ pass's
/// scratch — origins, directions and intensities, 56 B a ray, plus the
/// packet march's handoff state — stays near half a megabyte whatever
/// the tile volume.
constexpr std::size_t kRunRays = 4096;

/// Registry references resolved once; per-tile bumps are single relaxed
/// atomic adds (same cost class as the existing m_segments flush).
MetricsCounter& tracerSegmentsCounter() {
  static MetricsCounter& c =
      MetricsRegistry::global().counter("tracer.segments");
  return c;
}
MetricsCounter& tracerRaysCounter() {
  static MetricsCounter& c = MetricsRegistry::global().counter("tracer.rays");
  return c;
}
/// Segments the adaptive controller avoided tracing versus the fixed
/// nDivQRays fan, estimated per tile from that tile's own mean
/// segments-per-ray (saved rays never marched, so their exact crossing
/// count is unknowable).
MetricsCounter& tracerSegmentsSavedCounter() {
  static MetricsCounter& c =
      MetricsRegistry::global().counter("tracer.segments_saved");
  return c;
}

}  // namespace

std::vector<CellRange> tileCells(const CellRange& cells,
                                 const IntVector& tileSize) {
  const IntVector ts = max(tileSize, IntVector(1));
  const IntVector lo = cells.low();
  const IntVector hi = cells.high();
  const IntVector sz = cells.size();
  const auto tilesAlong = [](int extent, int tile) {
    return (extent + tile - 1) / tile;
  };
  std::vector<CellRange> tiles;
  tiles.reserve(static_cast<std::size_t>(tilesAlong(sz.x(), ts.x())) *
                static_cast<std::size_t>(tilesAlong(sz.y(), ts.y())) *
                static_cast<std::size_t>(tilesAlong(sz.z(), ts.z())));
  for (int z = lo.z(); z < hi.z(); z += ts.z())
    for (int y = lo.y(); y < hi.y(); y += ts.y())
      for (int x = lo.x(); x < hi.x(); x += ts.x())
        tiles.push_back(
            CellRange(IntVector(x, y, z),
                      min(IntVector(x + ts.x(), y + ts.y(), z + ts.z()), hi)));
  return tiles;
}

IntVector adaptiveTileSize(const CellRange& cells, IntVector tileSize,
                           std::size_t workers) {
  IntVector ts = max(tileSize, IntVector(1));
  const auto tileCount = [&cells](const IntVector& t) {
    std::int64_t n = 1;
    for (int i = 0; i < 3; ++i)
      n *= (cells.size()[i] + t[i] - 1) / t[i];
    return n;
  };
  const std::int64_t want = static_cast<std::int64_t>(workers) * 4;
  while (tileCount(ts) < want) {
    // Halve the largest axis; stop once tiles are already small.
    int axis = 0;
    if (ts[1] > ts[axis]) axis = 1;
    if (ts[2] > ts[axis]) axis = 2;
    const std::int64_t volume =
        static_cast<std::int64_t>(ts[0]) * ts[1] * ts[2];
    if (ts[axis] <= 2 || volume <= 64) break;
    ts[axis] = (ts[axis] + 1) / 2;
  }
  return ts;
}

bool Tracer::simdSupported() {
#if RMCRT_SIMD_X86
  static const bool ok = [] {
    // RMCRT_NO_SIMD=<non-zero> forces the scalar dispatch — the CI
    // no-AVX2 fallback job sets it to exercise this path on AVX2 hosts.
    const char* e = std::getenv("RMCRT_NO_SIMD");
    if (e != nullptr && e[0] != '\0' && e[0] != '0') return false;
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return ok;
#else
  return false;
#endif
}

void validateTraceConfig(const TraceConfig& cfg) {
  if (cfg.nDivQRays <= 0)
    throw std::invalid_argument(
        "TraceConfig::nDivQRays must be positive (got " +
        std::to_string(cfg.nDivQRays) +
        "): meanIncomingIntensity divides by it, so divQ would be NaN");
  if (cfg.nFluxRays <= 0)
    throw std::invalid_argument(
        "TraceConfig::nFluxRays must be positive (got " +
        std::to_string(cfg.nFluxRays) +
        "): boundaryFlux divides by it, so the flux would be NaN");
  if (cfg.adaptiveRays) {
    if (cfg.nPilotRays <= 0)
      throw std::invalid_argument(
          "TraceConfig::nPilotRays must be positive (got " +
          std::to_string(cfg.nPilotRays) +
          ") when adaptiveRays is set: the pilot mean divides by it");
    if (!(cfg.errorTarget > 0.0))
      throw std::invalid_argument(
          "TraceConfig::errorTarget must be positive (got " +
          std::to_string(cfg.errorTarget) +
          ") when adaptiveRays is set: the budget rule divides by it");
    if (cfg.nMaxRays < 0)
      throw std::invalid_argument(
          "TraceConfig::nMaxRays must be >= 0 (got " +
          std::to_string(cfg.nMaxRays) +
          "): 0 means cap budgets at nDivQRays");
  }
  if (cfg.bands.empty())
    throw std::invalid_argument(
        "TraceConfig::bands must hold at least one band (grayBand() is "
        "the gray solver)");
  for (std::size_t b = 0; b < cfg.bands.size(); ++b) {
    const SpectralBand& band = cfg.bands[b];
    if (!std::isfinite(band.weight))
      throw std::invalid_argument(
          "TraceConfig::bands[" + std::to_string(b) +
          "].weight must be finite (got " + std::to_string(band.weight) +
          "): divQ sums weight * q_b");
    if (!(std::isfinite(band.kappaScale) && band.kappaScale > 0.0))
      throw std::invalid_argument(
          "TraceConfig::bands[" + std::to_string(b) +
          "].kappaScale must be finite and positive (got " +
          std::to_string(band.kappaScale) + ")");
  }
}

Tracer::Tracer(std::vector<TraceLevel> levels, const WallProperties& walls,
               const TraceConfig& cfg)
    : m_levels(std::move(levels)), m_walls(walls), m_cfg(cfg) {
  validateTraceConfig(m_cfg);
  m_ownedPacked.reserve(m_levels.size());
  for (TraceLevel& L : m_levels) {
    if (!L.packed.valid() && L.fields.abskg.valid()) {
      m_ownedPacked.emplace_back(L.fields);
      L.packed = m_ownedPacked.back().view();
    }
    assert(L.packed.valid() && "a level needs packed records or fields");
  }
  m_levelHasWalls.assign(m_levels.size(), 1);
  if (!m_cfg.useSimd || !simdSupported()) return;
  // One pass over each level's `allowed` box, row by row, so the packet
  // march can skip the cellType gather entirely in wall-free domains.
  for (std::size_t li = 0; li < m_levels.size(); ++li) {
    const TraceLevel& L = m_levels[li];
    if (L.allowed.empty()) continue;
    const IntVector lo = L.allowed.low(), hi = L.allowed.high();
    bool walls = false;
    for (int z = lo.z(); z < hi.z() && !walls; ++z)
      for (int y = lo.y(); y < hi.y() && !walls; ++y) {
        const PackedCell* row = &L.packed[IntVector(lo.x(), y, z)];
        for (int x = 0; x < hi.x() - lo.x() && !walls; ++x)
          walls = row[x].cellType == PackedCell::kWall;
      }
    m_levelHasWalls[li] = walls;
  }
}

bool Tracer::marchLevelPacked(std::size_t li, Vector& pos, const Vector& dir,
                              double kappaScale, double& sumI,
                              double& transmissivity,
                              std::uint64_t& segments) const {
  const TraceLevel& L = m_levels[li];
  const LevelGeom& g = L.geom;

  IntVector start = g.cellAt(pos);
  // Clamp marginal float error at the handoff point.
  start = max(min(start, L.allowed.high() - IntVector(1)), L.allowed.low());

  // Amanatides-Woo setup: distance along the ray to the next cell face in
  // each axis (tMax) and per-cell crossing distances (tDelta). Everything
  // the segment loop touches lives in small stack arrays (the compiler
  // keeps the FP state in registers) rather than IntVector/Vector.
  int cur[3], step[3], lo[3], hi[3];
  double tMax[3], tDelta[3];
  for (int i = 0; i < 3; ++i) {
    cur[i] = start[i];
    step[i] = dir[i] >= 0.0 ? 1 : -1;
    lo[i] = L.allowed.low()[i];
    hi[i] = L.allowed.high()[i];
    tDelta[i] = safeDiv(g.dx[i], std::abs(dir[i]));
    const double planeCoord =
        g.physLow[i] +
        (cur[i] - g.cells.low()[i] + (dir[i] >= 0.0 ? 1 : 0)) * g.dx[i];
    tMax[i] = safeDiv(planeCoord - pos[i], dir[i]);
    if (tMax[i] < 0.0) tMax[i] = 0.0;  // float slop at the boundary
  }

  // Incremental-stride DDA state: resolve the 3-D index once, then bump
  // the record pointer by the pre-signed axis stride on each crossing.
  const PackedFieldView& pf = L.packed;
  const PackedCell* cell = &pf[start];
  std::int64_t stepOffset[3];
  for (int i = 0; i < 3; ++i) stepOffset[i] = pf.stride(i) * step[i];

  double tCur = 0.0;
  const double threshold = m_cfg.threshold;

  for (;;) {
    const PackedCell& rec = *cell;
    // A wall cell absorbs the ray: add its emission seen through the
    // accumulated transmissivity. Wall-ness is baked into the record, so
    // there is no per-segment field-validity branch.
    if (rec.cellType == PackedCell::kWall) [[unlikely]] {
      sumI += m_walls.emissivity * rec.sigmaT4OverPi * transmissivity;
      return true;
    }

    // Branchless min-axis selection. The stepped axis is data-dependent
    // and close to uniformly random, so the naive two-compare `if` chain
    // mispredicts on most crossings — selecting via conditional moves
    // costs a couple of cmovs instead of a ~15-cycle flush. Ties break
    // x over y over z.
    const double t0 = tMax[0], t1 = tMax[1], t2 = tMax[2];
    const int yBeforeX = t1 < t0;
    const double m01 = t1 < t0 ? t1 : t0;    // minsd
    const int zFirst = t2 < m01;
    const double tNext = t2 < m01 ? t2 : m01;  // minsd
    // axis = zFirst ? 2 : yBeforeX, written as arithmetic so the
    // compiler cannot re-materialize the compare as a branch.
    const int axis = yBeforeX + ((2 - yBeforeX) & -zFirst);
    const double segLen = tNext - tCur;

    // Absorb + emit along the segment (paper Eq. 2 without scattering):
    // one cache-line-local record load per crossing.
    const double expSeg = std::exp(-(rec.abskg * kappaScale) * segLen);
    sumI += rec.sigmaT4OverPi * (1.0 - expSeg) * transmissivity;
    transmissivity *= expSeg;
    // Zero-length crossings (the float-slop tMax clamp puts the first
    // face at t=0 when a ray starts exactly on it; axis ties produce
    // them mid-march at corners) contribute nothing — exp(0) is exactly
    // 1 — so they must not count as marched segments or every Mseg/s
    // figure inflates. Branchless: the FP work above already ran and is
    // a bitwise no-op for segLen == 0.
    segments += (segLen != 0.0);

    if (transmissivity < threshold) return true;  // extinguished

    // Advance to the next cell (tMax[axis] == tNext here).
    tCur = tNext;
    const int stepped = cur[axis] + step[axis];
    cur[axis] = stepped;
    tMax[axis] = tNext + tDelta[axis];

    // Only the stepped axis can leave the allowed box, so test that one
    // component instead of the full 3-axis containment check.
    if (stepped < lo[axis] || stepped >= hi[axis]) [[unlikely]] {
      const IntVector curV(cur[0], cur[1], cur[2]);
      if (!g.cells.contains(curV)) {
        // Left the physical domain: the boundary is a wall.
        sumI += m_walls.emissivity * m_walls.sigmaT4OverPi * transmissivity;
        return true;
      }
      // Left the region of interest but not the domain: continue on the
      // next coarser level from the crossing position.
      if (li + 1 >= m_levels.size()) {
        sumI += m_walls.emissivity * m_walls.sigmaT4OverPi * transmissivity;
        return true;
      }
      pos = pos + dir * tCur;
      return false;
    }
    cell += stepOffset[axis];
  }
}

double Tracer::traceRay(Vector origin, Vector dir, std::size_t startLevel,
                        double kappaScale, std::uint64_t& segments) const {
  double sumI = 0.0;
  double transmissivity = 1.0;
  Vector pos = origin;
  for (std::size_t li = startLevel; li < m_levels.size(); ++li) {
    if (marchLevelPacked(li, pos, dir, kappaScale, sumI, transmissivity,
                         segments))
      break;
  }
  return sumI;
}

double Tracer::traceRay(Vector origin, Vector dir,
                        std::size_t startLevel) const {
  std::uint64_t segments = 0;
  const double sumI = traceRay(origin, dir, startLevel, 1.0, segments);
  flushSegments(segments);
  return sumI;
}

void Tracer::marchRays(int n, const Vector* origins, const Vector* dirs,
                       double kappaScale, double* out,
                       std::uint64_t& segments) const {
  if (n <= 0) return;
  if (simdActive()) {
    traceRaysSimd(n, origins, dirs, kappaScale, out, segments);
  } else {
    for (int i = 0; i < n; ++i)
      out[i] = traceRay(origins[i], dirs[i], 0, kappaScale, segments);
  }
}

void Tracer::traceRays(int n, const Vector* origins, const Vector* dirs,
                       double* out) const {
  std::uint64_t segments = 0;
  marchRays(n, origins, dirs, 1.0, out, segments);
  flushSegments(segments);
}

void Tracer::flushSegments(std::uint64_t n) const {
  m_segments.fetch_add(n, std::memory_order_relaxed);
  tracerSegmentsCounter().add(n);
}

template <class RayEnd, class Reduce>
void Tracer::traceBundle(const std::vector<IntVector>& cells, int rBegin,
                         RayEnd rayEnd, std::uint64_t seed,
                         double kappaScale, std::uint64_t& segments,
                         Reduce reduce) const {
  const LevelGeom& g = m_levels.front().geom;
  const auto raysOf = [&](std::size_t k) {
    return static_cast<std::size_t>(std::max(0, rayEnd(k) - rBegin));
  };
  std::vector<Vector> origins, dirs;
  std::vector<double> intensity;
  for (std::size_t first = 0, end = 0; first < cells.size(); first = end) {
    // A run: whole cells, at least one, up to kRunRays rays.
    std::size_t n = raysOf(first);
    for (end = first + 1; end < cells.size() && n + raysOf(end) <= kRunRays;
         ++end)
      n += raysOf(end);
    origins.resize(n);
    dirs.resize(n);
    intensity.resize(n);
    // Ray r of ANY pass draws from Rng(seed, cell, r) — the same stream
    // the fixed fan consumes for its ray r, so the pilot is a prefix of
    // the fixed fan and the top-up continues it exactly.
    std::size_t i = 0;
    for (std::size_t k = first; k < end; ++k) {
      const IntVector& cell = cells[k];
      const int rEnd = rBegin + static_cast<int>(raysOf(k));
      for (int r = rBegin; r < rEnd; ++r, ++i) {
        Rng rng(seed, cell, static_cast<std::uint32_t>(r));
        if (m_cfg.jitterRayOrigin) {
          const Vector lo = g.cellLowCorner(cell);
          origins[i] = lo + Vector(rng.nextDouble(), rng.nextDouble(),
                                   rng.nextDouble()) *
                                g.dx;
        } else {
          origins[i] = g.cellCenter(cell);
        }
        dirs[i] = isotropicDirection(rng);
      }
    }
    // Each ray's intensity depends on that ray alone, so the run's
    // composition never changes a value.
    marchRays(static_cast<int>(n), origins.data(), dirs.data(), kappaScale,
              intensity.data(), segments);
    i = 0;
    for (std::size_t k = first; k < end; ++k) {
      const std::size_t nk = raysOf(k);
      reduce(k, intensity.data() + i, static_cast<int>(nk));
      i += nk;
    }
  }
}

double Tracer::meanIncomingIntensity(const IntVector& cell) const {
  std::uint64_t segments = 0;
  double sum = 0.0;
  traceBundle(
      {cell}, 0, [this](std::size_t) { return m_cfg.nDivQRays; }, m_cfg.seed,
      1.0, segments, [&sum](std::size_t, const double* I, int n) {
        for (int r = 0; r < n; ++r) sum += I[r];
      });
  flushSegments(segments);
  return sum / static_cast<double>(m_cfg.nDivQRays);
}

int Tracer::adaptiveBudget(double pilotMean, double pilotStddev,
                           double sigmaT4OverPi) const {
  const int cap = m_cfg.nMaxRays > 0 ? m_cfg.nMaxRays : m_cfg.nDivQRays;
  const int pilot = std::min(m_cfg.nPilotRays, cap);
  if (pilotStddev <= 0.0) return pilot;  // uniform pilot: nothing to refine
  // n rays shrink the standard error to s/sqrt(n); require it below
  // errorTarget * |difference| where the difference is exactly the
  // (source - meanI) factor divQ multiplies — a cell in near-equilibrium
  // saturates at the cap rather than divide by ~0.
  const double denom =
      m_cfg.errorTarget * std::abs(sigmaT4OverPi - pilotMean);
  if (denom <= 0.0) return cap;
  const double ratio = pilotStddev / denom;
  const double need = std::ceil(ratio * ratio);
  if (!(need < static_cast<double>(cap))) return cap;  // also inf/NaN
  return std::max(pilot, static_cast<int>(need));
}

void Tracer::computeDivQTile(const CellRange& tile,
                             MutableFieldView<double> divQ) const {
  RMCRT_TRACE_SPAN("tracer", "divQ_tile");
  const PackedFieldView& records = m_levels.front().packed;
  // The fixed fan is the budget == nDivQRays case of the adaptive
  // controller: its first pass traces the whole fan and the top-up pass
  // traces nothing. Adaptive cells trace a pilot prefix first, then top
  // up to a budget that is a pure function of (seed, cell).
  const bool adaptive = m_cfg.adaptiveRays;
  const int cap = adaptive && m_cfg.nMaxRays > 0 ? m_cfg.nMaxRays
                                                 : m_cfg.nDivQRays;
  const int first = adaptive ? std::min(m_cfg.nPilotRays, cap) : cap;
  const std::uint64_t nCells = static_cast<std::uint64_t>(tile.volume());

  std::vector<IntVector> cells;
  cells.reserve(static_cast<std::size_t>(nCells));
  for (const IntVector& c : tile) cells.push_back(c);
  struct CellState {
    double sum = 0.0;  // intensity sum over the rays traced so far
    int budget = 0;    // total rays granted to this cell
  };
  std::vector<CellState> states(cells.size());

  std::uint64_t segments = 0;
  std::uint64_t raysTraced = 0;
  std::uint64_t tileMaxBudget = 0;
  std::uint64_t segmentsSaved = 0;

  // The band loop: band b marches the same records with kappa scaled by
  // s_b, draws from its own seed, and folds a_b * q_b into divQ in band
  // order.
  for (std::size_t b = 0; b < m_cfg.bands.size(); ++b) {
    const SpectralBand& band = m_cfg.bands[b];
    const std::uint64_t seed = m_cfg.seed + kBandSeedStride * b;
    std::uint64_t bandSegments = 0;
    std::uint64_t bandRays = 0;

    // Pass 1: rays [0, first) of every cell, as one bundle; an adaptive
    // cell sizes its budget from the pilot's streaming variance. Sums run
    // in ray order — concatenated with the top-up this is the fixed
    // fan's exact left-to-right sum.
    const auto firstPass = [&] {
      traceBundle(
          cells, 0, [first](std::size_t) { return first; }, seed,
          band.kappaScale, bandSegments,
          [&](std::size_t k, const double* I, int n) {
            CellState& cs = states[k];
            cs = CellState{};
            for (int r = 0; r < n; ++r) cs.sum += I[r];
            cs.budget = first;
            if (adaptive) {
              RunningStats stats;
              for (int r = 0; r < n; ++r) stats.add(I[r]);
              cs.budget = adaptiveBudget(stats.mean(), stats.stddev(),
                                         records[cells[k]].sigmaT4OverPi);
            }
          });
    };
    // Pass 2: top up where the budget exceeds the first pass, as one
    // bundle, appending to the same running sum so a cell whose budget
    // reaches nDivQRays reproduces the fixed fan's reduction bitwise.
    const auto topUpPass = [&] {
      traceBundle(
          cells, first, [&states](std::size_t k) { return states[k].budget; },
          seed, band.kappaScale, bandSegments,
          [&](std::size_t k, const double* I, int n) {
            CellState& cs = states[k];
            for (int r = 0; r < n; ++r) cs.sum += I[r];
            const IntVector& c = cells[k];
            const double meanI = cs.sum / static_cast<double>(cs.budget);
            const PackedCell& rec = records[c];
            const double q = 4.0 * M_PI * (rec.abskg * band.kappaScale) *
                             (rec.sigmaT4OverPi - meanI);
            // Band 0 assigns; the gray band's a_0 == 1.0 keeps this
            // bitwise the gray solver (IEEE: x*1.0 == x).
            divQ[c] = b == 0 ? band.weight * q : divQ[c] + band.weight * q;
            bandRays += static_cast<std::uint64_t>(cs.budget);
            tileMaxBudget = std::max(tileMaxBudget,
                                     static_cast<std::uint64_t>(cs.budget));
          });
    };
    if (adaptive) {
      {
        RMCRT_TRACE_SPAN("tracer", "adaptive_pilot");
        firstPass();
      }
      RMCRT_TRACE_SPAN("tracer", "adaptive_topup");
      topUpPass();
    } else {
      firstPass();
      topUpPass();
    }

    // Work avoided vs the band's fixed fan, estimated from the band's own
    // mean segments-per-ray over this tile (untraced rays have no exact
    // crossing count).
    const std::uint64_t fixedRays =
        nCells * static_cast<std::uint64_t>(m_cfg.nDivQRays);
    if (bandRays > 0 && fixedRays > bandRays) {
      const double perRay = static_cast<double>(bandSegments) /
                            static_cast<double>(bandRays);
      segmentsSaved += static_cast<std::uint64_t>(
          static_cast<double>(fixedRays - bandRays) * perRay);
    }
    segments += bandSegments;
    raysTraced += bandRays;
  }

  flushSegments(segments);
  tracerRaysCounter().add(raysTraced);
  if (segmentsSaved > 0) tracerSegmentsSavedCounter().add(segmentsSaved);
  m_raysTraced.fetch_add(raysTraced, std::memory_order_relaxed);
  m_cellsTraced.fetch_add(nCells * m_cfg.bands.size(),
                          std::memory_order_relaxed);
  std::uint64_t prev = m_maxBudget.load(std::memory_order_relaxed);
  while (tileMaxBudget > prev &&
         !m_maxBudget.compare_exchange_weak(prev, tileMaxBudget,
                                            std::memory_order_relaxed)) {
  }
}

void Tracer::publishRayGauges(std::initializer_list<const Tracer*> tracers) {
  std::uint64_t rays = 0, cells = 0, maxBudget = 0;
  for (const Tracer* t : tracers) {
    rays += t->raysTraced();
    cells += t->cellsTraced();
    maxBudget = std::max(maxBudget, t->maxRayBudget());
  }
  if (cells == 0) return;
  auto& reg = MetricsRegistry::global();
  reg.setGauge("tracer.rays_per_cell_mean",
               static_cast<double>(rays) / static_cast<double>(cells));
  reg.setGauge("tracer.rays_per_cell_max", static_cast<double>(maxBudget));
}

void Tracer::computeDivQ(const CellRange& cells,
                         MutableFieldView<double> divQ,
                         ThreadPool* pool) const {
  RMCRT_TRACE_SPAN("tracer", "computeDivQ");
  if (pool == nullptr || pool->size() <= 1) {
    computeDivQTile(cells, divQ);
    publishRayGauges({this});
    return;
  }
  // Adapt the tile size to the pool so small sweeps don't undersubscribe
  // it: the default 8^3 tiling of a small range can produce fewer tiles
  // than parallelFor wants chunks (~4 per worker), leaving workers idle.
  const std::vector<CellRange> tiles = tileCells(
      cells, adaptiveTileSize(cells, m_cfg.tileSize, pool->size()));
  std::vector<DivQTileJob> jobs;
  jobs.reserve(tiles.size());
  for (const CellRange& tile : tiles)
    jobs.push_back(DivQTileJob{this, tile, divQ});
  computeDivQBatch(jobs, pool);
}

void Tracer::computeDivQBatch(const std::vector<DivQTileJob>& jobs,
                              ThreadPool* pool) {
  RMCRT_TRACE_SPAN("tracer", "computeDivQBatch");
  const auto run = [](const DivQTileJob& j) {
    j.tracer->computeDivQTile(j.tile, j.sink);
  };
  if (pool == nullptr || pool->size() <= 1) {
    for (const DivQTileJob& j : jobs) run(j);
  } else {
    pool->parallelFor(0, static_cast<std::int64_t>(jobs.size()),
                      [&](std::int64_t i) {
                        run(jobs[static_cast<std::size_t>(i)]);
                      });
  }
  // Rays-per-cell gauges: publish once per drain for each distinct
  // tracer (never per tile, so concurrent tiles cannot race the gauge).
  std::vector<const Tracer*> seen;
  for (const DivQTileJob& j : jobs) {
    if (std::find(seen.begin(), seen.end(), j.tracer) == seen.end()) {
      seen.push_back(j.tracer);
      publishRayGauges({j.tracer});
    }
  }
}

double Tracer::boundaryFlux(const IntVector& cell, const IntVector& face,
                            int nRays, ThreadPool* pool) const {
  RMCRT_TRACE_SPAN("tracer", "boundaryFlux");
  // The flux fan has its own knob: 0 (the default argument) means
  // TraceConfig::nFluxRays, validated positive at construction.
  if (nRays <= 0) nRays = m_cfg.nFluxRays;
  tracerRaysCounter().add(static_cast<std::uint64_t>(nRays));
  // Incident flux on the face = integral over the inward hemisphere of
  // I(s) |s . n| dOmega. Monte Carlo with directions sampled
  // cosine-weighted about the inward normal -> flux = pi * mean(I).
  const LevelGeom& g = m_levels.front().geom;
  const Vector inward = -Vector(face).normalized();
  // Build an orthonormal basis around the inward normal.
  const Vector ref =
      std::abs(inward.x()) < 0.9 ? Vector(1, 0, 0) : Vector(0, 1, 0);
  Vector u = Vector(inward.y() * ref.z() - inward.z() * ref.y(),
                    inward.z() * ref.x() - inward.x() * ref.z(),
                    inward.x() * ref.y() - inward.y() * ref.x())
                 .normalized();
  Vector v(inward.y() * u.z() - inward.z() * u.y(),
           inward.z() * u.x() - inward.x() * u.z(),
           inward.x() * u.y() - inward.y() * u.x());

  // Ray origins sit on the face; nudge inside by a tiny offset so the
  // marcher starts in the boundary cell.
  const Vector faceCenter =
      g.cellCenter(cell) + Vector(face) * (g.dx * 0.5) -
      Vector(face) * (g.dx.minComponent() * 1e-9);

  auto sampleRay = [&](int r, std::uint64_t& segments) {
    Rng rng(m_cfg.seed ^ 0xF00DULL, cell, static_cast<std::uint32_t>(r));
    // Jitter the origin uniformly over the face — the cosine-weighted
    // directions sample the hemisphere, the jitter samples the face area,
    // matching the divQ estimator. The normal-axis coordinate stays on
    // the (nudged) face plane.
    Vector origin = faceCenter;
    if (m_cfg.jitterRayOrigin) {
      for (int i = 0; i < 3; ++i)
        if (face[i] == 0) origin[i] += (rng.nextDouble() - 0.5) * g.dx[i];
    }
    // Cosine-weighted hemisphere sample.
    const double r1 = rng.nextDouble(), r2 = rng.nextDouble();
    const double sinT = std::sqrt(r1);
    const double cosT = std::sqrt(1.0 - r1);
    const double phi = 2.0 * M_PI * r2;
    const Vector dir =
        u * (sinT * std::cos(phi)) + v * (sinT * std::sin(phi)) +
        inward * cosT;
    return traceRay(origin, dir, 0, 1.0, segments);
  };

  double sum = 0.0;
  if (pool != nullptr && pool->size() > 1 && nRays > 1) {
    // Per-ray intensities land in a vector and are reduced in ray order
    // below, so the sum is bitwise identical to the serial loop.
    std::vector<double> intensity(static_cast<std::size_t>(nRays), 0.0);
    pool->parallelFor(0, nRays, [&](std::int64_t r) {
      std::uint64_t segments = 0;
      intensity[static_cast<std::size_t>(r)] =
          sampleRay(static_cast<int>(r), segments);
      flushSegments(segments);
    });
    for (int r = 0; r < nRays; ++r)
      sum += intensity[static_cast<std::size_t>(r)];
  } else {
    std::uint64_t segments = 0;
    for (int r = 0; r < nRays; ++r) sum += sampleRay(r, segments);
    flushSegments(segments);
  }
  return M_PI * sum / static_cast<double>(nRays);
}

}  // namespace rmcrt::core
