#pragma once

/// \file ray_tracer.h
/// The RMCRT kernel: reverse Monte Carlo ray tracing of the radiative
/// transfer equation (paper Eq. 2) to compute the divergence of the heat
/// flux (divQ) for every cell. Rays are traced *backwards* from each cell
/// (the detector) through the participating medium, accumulating the
/// incoming intensity absorbed at the origin; then
///
///   divQ(c) = 4*pi*kappa(c) * ( sigmaT4/pi(c)  -  mean_r I_r )
///
/// which vanishes in radiative equilibrium. Marching is an exact 3-D DDA
/// (amanatides-woo) through the structured mesh; the multi-level
/// configuration marches fine-mesh data inside a region of interest
/// (patch + halo) and the coarsened whole-domain data outside — the
/// paper's communication-avoiding AMR scheme (Section III-B/C).
///
/// The same kernel serves the CPU path and the simulated-GPU path
/// (field views over host or device storage; see field_view.h).

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/field_view.h"
#include "core/packed_field.h"
#include "grid/level.h"
#include "util/rng.h"

namespace rmcrt {
class ThreadPool;
}

/// Whether this build carries the packet-march kernels at all (their
/// `#pragma GCC target` regions keep the rest of the binary baseline-ISA,
/// so carrying them never requires -mavx2). Runtime dispatch
/// (Tracer::simdSupported) decides whether to call them.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RMCRT_SIMD_X86 1
#else
#define RMCRT_SIMD_X86 0
#endif

namespace rmcrt::core {

/// Geometric description of one mesh level, detached from grid::Level so
/// kernels can run against device-resident metadata.
struct LevelGeom {
  Vector physLow;
  Vector dx;
  CellRange cells;

  static LevelGeom from(const grid::Level& l) {
    return LevelGeom{l.physLow(), l.dx(), l.cells()};
  }

  Vector cellCenter(const IntVector& c) const {
    return physLow + (Vector(c - cells.low()) + Vector(0.5)) * dx;
  }
  Vector cellLowCorner(const IntVector& c) const {
    return physLow + Vector(c - cells.low()) * dx;
  }
  IntVector cellAt(const Vector& p) const {
    const Vector rel = (p - physLow) / dx;
    return IntVector(static_cast<int>(std::floor(rel.x())),
                     static_cast<int>(std::floor(rel.y())),
                     static_cast<int>(std::floor(rel.z()))) +
           cells.low();
  }
};

class SpectralTracer;  // spectral.h — band pipeline batched via DivQTileJob

/// Wall (domain boundary / intruding geometry) radiative properties.
struct WallProperties {
  double sigmaT4OverPi = 0.0;  ///< wall emissive source (0: cold walls)
  double emissivity = 1.0;     ///< black walls by default
};

/// Tracing parameters (paper Section V uses 100 rays per cell).
struct TraceConfig {
  int nDivQRays = 100;
  /// Terminate a ray once its transmissivity drops below this.
  double threshold = 1e-4;
  /// Domain seed; (seed, cell, ray) determines each ray exactly, so
  /// results are independent of patch decomposition and thread schedule.
  std::uint64_t seed = 0;
  /// Jitter ray origins uniformly within the cell (true, the Monte Carlo
  /// estimator) or emit from cell centers (deterministic debugging).
  /// boundaryFlux likewise jitters its origins over the face.
  bool jitterRayOrigin = true;
  /// Cells per tile (each axis) when computeDivQ fans out on a thread
  /// pool. Tiles are the unit of work stealing AND of segment-counter
  /// aggregation: one atomic add per tile, none in the march loop. The
  /// default keeps a tile's field data within L1/L2 reach.
  IntVector tileSize = IntVector(8, 8, 8);
  /// March rays in lockstep, one per SIMD lane (the packet march,
  /// DESIGN.md §14), when the host supports it and the first level carries
  /// packed
  /// records; rays retire from lanes on wall hit / extinction / ROI exit
  /// and lanes refill from the pending bundle. Off by default: the SIMD
  /// path uses a vectorized exp and agrees with the scalar golden march
  /// only within a documented ULP tolerance, so bitwise-reproducibility
  /// consumers (golden tests, record/replay) keep the scalar path.
  bool useSimd = false;
  /// Rays per boundaryFlux / radiometer query. Historically these fans
  /// inherited nDivQRays; wall heat-flux QoIs usually want a different
  /// (often larger) count than the volumetric estimator, so they now
  /// have their own knob with the same positive-count ctor validation.
  /// boundaryFlux(nRays = 0) resolves to this value.
  int nFluxRays = 100;
  /// Uniform scale applied to every absorption coefficient the march
  /// sees — both the per-segment extinction and the kappa factor of the
  /// divQ formula. 1.0 (default) is bitwise neutral (IEEE: x*1.0 == x).
  /// The spectral band pipeline sets it to the band's s_b so every band
  /// marches the SAME PackedCell records (one packing, one device
  /// upload) instead of per-band scaled field copies.
  double kappaScale = 1.0;
  /// Variance-adaptive per-cell ray budgets (two-pass pilot/top-up
  /// estimator, DESIGN.md §17). Off (default): every cell fires exactly
  /// nDivQRays rays — the fixed fan, bitwise unchanged. On: each cell
  /// traces nPilotRays pilot rays (a prefix of the fixed fan's
  /// (seed, cell, ray) streams), sizes its budget from the streaming
  /// pilot variance, and tops up only where the relative standard error
  /// of divQ's (source - meanI) difference exceeds errorTarget. Budgets
  /// depend only on (seed, cell), never on threads or tiles.
  bool adaptiveRays = false;
  /// Pilot fan size when adaptiveRays is set: rays 0..nPilotRays-1 are
  /// always traced and double as the budget probe. Must be positive;
  /// clamped to the effective budget cap.
  int nPilotRays = 16;
  /// Relative standard-error target for the adaptive controller: a cell
  /// whose pilot-estimated stderr(meanI) exceeds errorTarget *
  /// |sigmaT4/pi - pilotMean| tops up to ceil((s / (target * |D|))^2)
  /// rays. Calibrated on the 41^3 Burns-Christon golden: 0.015 keeps
  /// the centerline within 1% relative L2 error of the fixed 64-ray fan
  /// while tracing ~1.7x fewer segments. Must be positive when
  /// adaptiveRays is set.
  double errorTarget = 0.015;
  /// Per-cell budget cap when adaptiveRays is set. 0 (default) means
  /// nDivQRays — pure truncation of the fixed fan, so a cell that tops
  /// up to the cap reproduces its fixed-fan value bitwise. Values above
  /// nDivQRays let high-variance cells exceed the fixed fan. Negative
  /// values are rejected at construction.
  int nMaxRays = 0;
};

/// Split \p cells into tiles of at most \p tileSize cells per axis
/// (components clamped to >= 1). Tiles are emitted in z-major order and
/// exactly partition the range.
std::vector<CellRange> tileCells(const CellRange& cells,
                                 const IntVector& tileSize);

/// Shrink \p tileSize — halving the largest axis first — until tiling
/// \p cells yields at least 4 tiles per worker (the granularity
/// ThreadPool::parallelFor's static chunking needs to keep every worker
/// fed), stopping at 2 cells per axis or 64 cells per tile so tiles stay
/// big enough to amortize the per-tile segment-counter flush. Sweeps
/// whose default 8^3 tiling produces fewer tiles than workers would
/// otherwise undersubscribe the pool. Results are unchanged by tiling
/// (each cell's rays are fixed by (seed, cell, ray)), so this only moves
/// work-unit boundaries.
IntVector adaptiveTileSize(const CellRange& cells, IntVector tileSize,
                           std::size_t workers);

/// One level of marching state handed to the tracer.
struct TraceLevel {
  TraceLevel() = default;
  TraceLevel(const LevelGeom& g, const RadiationFieldsView& f,
             const CellRange& a, const PackedFieldView& p = {})
      : geom(g), fields(f), allowed(a), packed(p) {}

  LevelGeom geom;
  RadiationFieldsView fields;
  /// Cells the ray may visit on this level; leaving this box hands the
  /// ray to the next (coarser) entry, or to the wall if none remains.
  /// Must lie within the property windows.
  CellRange allowed;
  /// Fused property records covering the same window as `fields`. Leave
  /// invalid to have the Tracer pack (and own) the records itself at
  /// construction; supply one to share packing across Tracers — the
  /// CPU trace task's PackedLevelCache and the GPU level database.
  PackedFieldView packed;
};

/// The RMCRT tracer over a fine->coarse stack of levels.
///
/// Single-level configuration: one TraceLevel whose `allowed` equals the
/// whole level. Multi-level: entry 0 is the fine level with `allowed` set
/// to the region of interest (patch + halo); the last entry is the
/// coarsest level spanning the whole domain.
class Tracer {
 public:
  /// Levels whose `packed` view is unset are fused into Tracer-owned
  /// PackedCell arrays here (and the owned storage lives as long as the
  /// Tracer); every level marches PackedCell records.
  /// \throws std::invalid_argument when cfg.nDivQRays <= 0: the divQ
  /// estimator divides by nDivQRays, so a non-positive count would
  /// silently fill divQ with NaN/inf.
  Tracer(std::vector<TraceLevel> levels, const WallProperties& walls,
         const TraceConfig& cfg);

  const TraceConfig& config() const { return m_cfg; }

  /// True when this build carries the AVX2 packet-march path and the
  /// host CPU supports AVX2+FMA at runtime (CPUID). The environment
  /// variable RMCRT_NO_SIMD=1 forces false — the CI fallback job uses it
  /// to exercise the scalar dispatch on AVX2 hardware.
  static bool simdSupported();

  /// Name of the instruction set the packet march would use on this
  /// host: "avx512" (AVX-512 F/DQ/VL/BW instance, 8 lanes per register),
  /// "avx2" (4 lanes per register), or "none" when simdSupported() is
  /// false. RMCRT_FORCE_AVX2=1 pins an AVX-512 host to the AVX2 instance
  /// (the CI fallback matrix uses it); RMCRT_NO_SIMD=1 yields "none".
  /// Recorded in the benchmark JSON so speedups compare like for like.
  static const char* simdIsa();

  /// True when traceRays will take the packet path: useSimd is
  /// set, the host qualifies, and level 0 carries packed records.
  bool simdActive() const {
    return m_cfg.useSimd && m_levels.front().packed.valid() &&
           simdSupported();
  }

  /// The trace levels this tracer marches (read-only; tests assert the
  /// spectral band tracers alias one shared packed record set).
  const std::vector<TraceLevel>& levels() const { return m_levels; }

  /// Trace one ray from physical position \p origin in direction \p dir
  /// starting on level \p startLevel; returns the incoming intensity.
  double traceRay(Vector origin, Vector dir, std::size_t startLevel = 0) const;

  /// Trace \p n independent rays (origins[i], dirs[i]) starting on level
  /// 0, writing each ray's incoming intensity to out[i]. Dispatches to
  /// the SIMD packet march when simdActive(); otherwise loops the
  /// scalar march, in which case out[i] is bitwise identical to
  /// traceRay(origins[i], dirs[i]). The SIMD path marches the exact same
  /// cell sequence per ray but evaluates the per-segment exp with a
  /// vectorized kernel, so intensities agree with the scalar path within
  /// the documented ULP tolerance (DESIGN.md §14), not bitwise.
  void traceRays(int n, const Vector* origins, const Vector* dirs,
                 double* out) const;

  /// Mean incoming intensity over nDivQRays rays for \p cell (a cell of
  /// levels[0]): the fixed fan through traceCellRays.
  double meanIncomingIntensity(const IntVector& cell) const;

  /// Compute divQ for every cell in \p cells (cells of levels[0]).
  ///
  /// With a \p pool, the range is split into TraceConfig::tileSize tiles
  /// run via ThreadPool::parallelFor. Because the RNG stream of every
  /// (cell, ray) pair is fixed by (seed, cell, ray) alone and each cell is
  /// written by exactly one tile, the result is bitwise identical to the
  /// serial path for any thread count and tile shape. Segment counts
  /// accumulate in per-tile locals and flush with one atomic add per
  /// tile, so the march loop itself performs no atomic operations.
  void computeDivQ(const CellRange& cells, MutableFieldView<double> divQ,
                   ThreadPool* pool = nullptr) const;

  /// One cross-request batch work unit: a tile of cells traced by \p
  /// tracer with results scattered into the request-scoped \p sink (the
  /// originating query's output buffer, whose window must contain the
  /// tile). Jobs in one batch may reference *different* Tracers — the
  /// radiation service coalesces tiles from many concurrent queries,
  /// each with its own region of interest, into a single drain over the
  /// shared pool (DESIGN.md §16).
  struct DivQTileJob {
    const Tracer* tracer = nullptr;
    CellRange tile;
    MutableFieldView<double> sink;
    /// When set, the tile is traced by this band pipeline instead of
    /// `tracer` (computeDivQBatch dispatches on it): the radiation
    /// service drains spectral scenes through the same batch as gray
    /// ones. Appended last so existing {tracer, tile, sink} aggregate
    /// initializers stay valid.
    const SpectralTracer* spectral = nullptr;
  };

  /// Serial divQ over one tile — the batch work-unit entry point. Each
  /// cell traces its ray budget: nDivQRays (the fixed fan) or, with
  /// adaptiveRays, a pilot fan plus a variance-sized top-up. Every
  /// cell's rays are fixed by (seed, cell, ray), so any partition of a
  /// region into tile calls produces results bitwise identical to one
  /// computeDivQ over the whole region. Flushes the tile's segment count
  /// with a single atomic add.
  void computeDivQTile(const CellRange& tile,
                       MutableFieldView<double> divQ) const;

  /// Drain a batch of tile jobs — potentially from many requests and many
  /// Tracers — across \p pool (serially in job order when null). Each
  /// job's cells land only in its own sink, so results are bitwise
  /// identical to running every job's tile through computeDivQTile
  /// serially, for any thread count.
  static void computeDivQBatch(const std::vector<DivQTileJob>& jobs,
                               ThreadPool* pool);

  /// Incident radiative flux [W/m^2] through the domain-boundary face of
  /// \p cell whose outward normal is \p face (unit axis vector): traces
  /// nRays over the inward hemisphere — the boiler wall heat-flux QoI.
  /// nRays == 0 (the default) resolves to TraceConfig::nFluxRays, the
  /// flux fan's own knob. Origins are jittered uniformly over the face
  /// when TraceConfig::jitterRayOrigin is set (matching the divQ
  /// estimator). With a \p pool, rays fan out in parallel; per-ray
  /// intensities are reduced in ray order, so the flux is bitwise
  /// identical to the serial path.
  double boundaryFlux(const IntVector& cell, const IntVector& face,
                      int nRays = 0, ThreadPool* pool = nullptr) const;

  /// Total cell crossings marched so far (thread-safe, relaxed) — the
  /// work metric the performance model is calibrated against.
  std::uint64_t segmentCount() const {
    return m_segments.load(std::memory_order_relaxed);
  }
  void resetSegmentCount() {
    m_segments.store(0, std::memory_order_relaxed);
  }

  /// Adaptive-sampling work statistics since construction / last reset
  /// (relaxed atomics; exact once trace calls have returned). When
  /// adaptiveRays is off, raysTraced tracks the fixed fan so the
  /// rays-per-cell gauges stay meaningful either way.
  std::uint64_t raysTraced() const {
    return m_raysTraced.load(std::memory_order_relaxed);
  }
  std::uint64_t cellsTraced() const {
    return m_cellsTraced.load(std::memory_order_relaxed);
  }
  /// Largest per-cell ray budget granted by the adaptive controller
  /// (== nDivQRays when adaptivity is off).
  std::uint64_t maxRayBudget() const {
    return m_maxBudget.load(std::memory_order_relaxed);
  }
  void resetRayStats() {
    m_raysTraced.store(0, std::memory_order_relaxed);
    m_cellsTraced.store(0, std::memory_order_relaxed);
    m_maxBudget.store(0, std::memory_order_relaxed);
  }

 private:
  /// The packet kernels' view of this tracer (ray_tracer_simd.cc): reads
  /// the level-0 records and config, and finishes handed-off rays through
  /// finishRayCoarse.
  friend struct PacketMarch;

  /// March within level \p li from physical position \p pos through its
  /// PackedCell records (the incremental-stride DDA, DESIGN.md §12) — the
  /// scalar golden reference; accumulates into sumI/transmissivity and
  /// counts cell crossings into the caller's local \p segments; returns
  /// true if the ray is finished (wall, threshold or domain exit), false
  /// if it left `allowed` and should continue on level li+1 at the
  /// updated \p pos.
  bool marchLevelPacked(std::size_t li, Vector& pos, const Vector& dir,
                        double& sumI, double& transmissivity,
                        std::uint64_t& segments) const;

  /// The single flush point for per-tile / per-call segment counts: adds
  /// \p n to both the tracer's own counter and the global metrics
  /// counter, so the two can never drift.
  void flushSegments(std::uint64_t n) const;

  /// traceRay with the segment count going to a caller-owned local
  /// instead of the shared atomic.
  double traceRay(Vector origin, Vector dir, std::size_t startLevel,
                  std::uint64_t& segments) const;

  /// traceRays with a caller-owned segment counter: the scalar per-ray
  /// loop, bitwise identical to traceRay.
  void traceRaysScalar(int n, const Vector* origins, const Vector* dirs,
                       double* out, std::uint64_t& segments) const;

  /// The SIMD packet march (ray_tracer_simd.cc, DESIGN.md §14): one
  /// kernel template, instantiated for AVX-512 and AVX2 and picked at
  /// runtime. SoA lane state, branchless min-axis selection via vector
  /// compares, masked lane retirement on wall hit / extinction /
  /// `allowed` exit, with retired lanes refilled from the pending
  /// bundle. Rays that exit level 0's allowed box retire from the packet
  /// and finish on the coarser levels via the scalar march. Callers must
  /// check simdActive() first.
  void traceRaysSimd(int n, const Vector* origins, const Vector* dirs,
                     double* out, std::uint64_t& segments) const;

  /// Finish a ray that left level 0's allowed box at \p pos: the coarse
  /// continuation loop shared by the scalar and packet paths.
  void finishRayCoarse(Vector pos, const Vector& dir, double& sumI,
                       double& transmissivity, std::uint64_t& segments) const;

  /// Deterministic per-cell ray budget from the pilot statistics alone —
  /// a pure function of (seed, cell), never of threads or tiles:
  /// clamp(ceil((s / (errorTarget * |sigmaT4OverPi - pilotMean|))^2),
  ///       nPilotRays, effective cap). Zero pilot variance keeps the
  /// pilot fan; a vanishing denominator saturates at the cap.
  int adaptiveBudget(double pilotMean, double pilotStddev,
                     double sigmaT4OverPi) const;

  /// The one cell-fan routine: trace rays [rBegin, rEnd) of \p cell's
  /// (seed, cell, ray) streams — ray r always draws from Rng(seed, cell,
  /// r), so any range is a slice of the fixed fan — appending per-ray
  /// intensities to \p sum in ray order. Dispatches to the packet march
  /// (via the reusable bundle scratch) when simdActive(), else the
  /// scalar loop; intensities[] holds the per-ray values of this range
  /// on return (the adaptive pilot pass reads them for the variance).
  void traceCellRays(const IntVector& cell, int rBegin, int rEnd,
                     double& sum, std::vector<Vector>& origins,
                     std::vector<Vector>& dirs,
                     std::vector<double>& intensities,
                     std::uint64_t& segments) const;

  /// Publish tracer.rays_per_cell_{mean,max} from the ray statistics —
  /// called at the end of computeDivQ / computeDivQBatch (not per tile,
  /// so concurrent tiles never race on the gauges).
  void publishRayGauges() const;

  std::vector<TraceLevel> m_levels;
  WallProperties m_walls;
  TraceConfig m_cfg;
  /// Storage behind the packed views the constructor built itself. Moves
  /// of the outer vector never touch the record buffers, so the views in
  /// m_levels stay valid for the Tracer's lifetime.
  std::vector<PackedLevelField> m_ownedPacked;
  /// Whether level 0's packed records contain any wall cell — scanned
  /// once at construction when the SIMD path is eligible, so wall-free
  /// domains (the Burns-Christon benchmark) skip the per-crossing
  /// cellType gather in the packet march. Conservatively true when not
  /// scanned; domain-boundary walls are handled at box exit and never
  /// depend on this.
  bool m_level0HasWalls = true;
  mutable std::atomic<std::uint64_t> m_segments{0};
  /// Ray-budget accounting behind the rays-per-cell gauges: rays
  /// actually traced by divQ sweeps, cells processed, and the largest
  /// per-cell budget granted. Bumped once per tile (relaxed), like
  /// m_segments.
  mutable std::atomic<std::uint64_t> m_raysTraced{0};
  mutable std::atomic<std::uint64_t> m_cellsTraced{0};
  mutable std::atomic<std::uint64_t> m_maxBudget{0};
};

/// Sample an isotropic direction on the unit sphere.
inline Vector isotropicDirection(Rng& rng) {
  const double cosTheta = 2.0 * rng.nextDouble() - 1.0;
  const double sinTheta = std::sqrt(std::max(0.0, 1.0 - cosTheta * cosTheta));
  const double phi = 2.0 * M_PI * rng.nextDouble();
  return Vector(sinTheta * std::cos(phi), sinTheta * std::sin(phi),
                cosTheta);
}

}  // namespace rmcrt::core
