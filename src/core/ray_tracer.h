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
#include <initializer_list>
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

struct RadiometerSpec;
struct RadiometerReading;

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

/// Wall (domain boundary / intruding geometry) radiative properties.
struct WallProperties {
  double sigmaT4OverPi = 0.0;  ///< wall emissive source (0: cold walls)
  double emissivity = 1.0;     ///< black walls by default
};

/// One spectral band of a weighted-sum-of-gray-gases (WSGG) model — the
/// standard engineering treatment for combustion gases, and the form Sun
/// & Smith's full-spectrum k-distribution reduces to for a few quadrature
/// points. Band b carries a weight a_b (its fraction of the Planck
/// emissive power) and a scale s_b on the gray-mean absorption
/// coefficient, so
///
///   divQ(c) = sum_b a_b * 4*pi*kappa(c)*s_b * ( sigmaT4/pi(c) - meanI_b )
///
/// where meanI_b is traced through the s_b-scaled medium. This is the
/// paper's spectral future work (Section III-A: "adding a loop over
/// wave-lengths").
struct SpectralBand {
  double weight = 1.0;      ///< fraction of blackbody emissive power, a_b
  double kappaScale = 1.0;  ///< s_b multiplying the gray-mean kappa field
};

/// A band set; weights should sum to ~1.
using BandModel = std::vector<SpectralBand>;

/// A single gray band: the gray solver, bitwise.
inline BandModel grayBand() { return {SpectralBand{1.0, 1.0}}; }

/// A 3-band toy combustion-gas model: one nearly transparent window, one
/// moderate band, one strongly absorbing band (CO2/H2O-like), chosen so
/// the Planck-weighted mean equals the gray kappa (sum a_b * s_b = 1).
inline BandModel threeband() {
  return {SpectralBand{0.45, 0.12},
          SpectralBand{0.35, 0.80},
          SpectralBand{0.20, 3.33}};
}

/// Planck-weighted mean absorption scale of a band model — the effective
/// gray kappa multiplier.
inline double planckMeanScale(const BandModel& bands) {
  double s = 0.0;
  for (const auto& b : bands) s += b.weight * b.kappaScale;
  return s;
}

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
  /// DESIGN.md §14), wherever the host supports it (simdSupported()).
  /// It picks the march for every estimator: divQ, boundaryFlux and
  /// radiometers all trace their ray fans through one bundle routine,
  /// every level in packets. On by default. The packet path evaluates exp
  /// with a vector polynomial, so its per-ray intensities agree with the
  /// scalar march within a documented ULP tolerance, not bitwise; the
  /// scalar march therefore stays the golden reference, and `false` (or
  /// RMCRT_NO_SIMD=1) selects it. Either way divQ is bitwise independent
  /// of tiles, threads and patch decomposition.
  bool useSimd = true;
  /// Rays per boundaryFlux / radiometer query. Historically these fans
  /// inherited nDivQRays; wall heat-flux QoIs usually want a different
  /// (often larger) count than the volumetric estimator, so they now
  /// have their own knob with the same positive-count ctor validation.
  /// boundaryFlux(nRays = 0) resolves to this value.
  int nFluxRays = 100;
  /// The band model divQ is traced over (DESIGN.md §17). Every band
  /// marches the same PackedCell records — s_b scales kappa inside the
  /// march — so bands add no packing and no device upload. Band b draws
  /// from seed + kBandSeedStride * b, so band 0 keeps `seed`. The
  /// default, one gray band {1, 1}, is the gray solver bitwise (IEEE:
  /// x*1.0 == x). traceRay(s), meanIncomingIntensity, boundaryFlux and
  /// radiometers march the gray-mean field with `seed`.
  BandModel bands = grayBand();
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

/// Seed offset between consecutive bands: band b traces with seed +
/// kBandSeedStride * b, so bands do not share sample paths.
inline constexpr std::uint64_t kBandSeedStride = 0x5370656Bull;

/// Throws std::invalid_argument unless \p cfg can be traced: positive
/// nDivQRays and nFluxRays (the estimators divide by them), positive
/// nPilotRays and errorTarget and a non-negative nMaxRays when
/// adaptiveRays is set, and a non-empty band model whose weights are
/// finite and whose kappa scales are finite and positive. The Tracer
/// constructor calls it, and so does every registration entry point, so
/// a bad config is refused where it is supplied.
void validateTraceConfig(const TraceConfig& cfg);

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
  LevelGeom geom;
  /// Cells the ray may visit on this level; leaving this box hands the
  /// ray to the next (coarser) entry, or to the wall if none remains.
  /// Must lie within the records' window.
  CellRange allowed;
  /// The level's fused property records (DESIGN.md §12), packed once by
  /// whoever owns the data and only viewed here: a trace task's ROI and
  /// the registration's shared level set, the GPU level database, the
  /// service's per-generation records, the serial solvers' sets. They
  /// must outlive the Tracer.
  PackedFieldView records;
};

/// The RMCRT tracer over a fine->coarse stack of levels.
///
/// Single-level configuration: one TraceLevel whose `allowed` equals the
/// whole level. Multi-level: entry 0 is the fine level with `allowed` set
/// to the region of interest (patch + halo); the last entry is the
/// coarsest level spanning the whole domain.
class Tracer {
 public:
  /// Every level marches the records its TraceLevel views; the Tracer
  /// packs nothing and owns no records. When the packet march can run,
  /// scans each level's `allowed` box once for wall records.
  /// \throws std::invalid_argument when validateTraceConfig(cfg) does.
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

  /// True when traceRays and every estimator's ray fan take the packet
  /// path: useSimd is set (the default) and the host qualifies.
  bool simdActive() const { return m_cfg.useSimd && simdSupported(); }

  /// Trace one ray from physical position \p origin in direction \p dir
  /// starting on level \p startLevel through the gray-mean medium;
  /// returns the incoming intensity.
  double traceRay(Vector origin, Vector dir, std::size_t startLevel = 0) const;

  /// Trace \p n independent rays (origins[i], dirs[i]) starting on level
  /// 0, writing each ray's incoming intensity to out[i]. Dispatches to
  /// the SIMD packet march when simdActive(); otherwise loops the
  /// scalar march, in which case out[i] is bitwise identical to
  /// traceRay(origins[i], dirs[i]). The SIMD path marches the exact same
  /// cell sequence per ray on every level but evaluates the per-segment
  /// exp with a vectorized kernel, so intensities agree with the scalar
  /// path within the documented ULP tolerance (DESIGN.md §14), not
  /// bitwise; out[i] never depends on the other rays of the call.
  void traceRays(int n, const Vector* origins, const Vector* dirs,
                 double* out) const;

  /// Mean incoming intensity over nDivQRays rays for \p cell (a cell of
  /// levels[0]): the fixed fan of the gray-mean medium with `seed` — the
  /// one-cell case of the divQ bundle routine.
  double meanIncomingIntensity(const IntVector& cell) const;

  /// Compute divQ for every cell in \p cells (cells of levels[0]),
  /// summed over TraceConfig::bands.
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
  };

  /// Serial divQ over one tile — the batch work-unit entry point and the
  /// band loop. For each band in order, each cell traces its ray budget:
  /// nDivQRays (the fixed fan) or, with adaptiveRays, a pilot fan plus a
  /// variance-sized top-up; band 0 assigns a_0 * q_0 and later bands add
  /// a_b * q_b. Each pass (the fixed fan, or the pilot and then the
  /// top-up) traces the rays of every cell of the tile as one bundle,
  /// streamed in runs of whole cells. Every cell's rays are fixed by
  /// (band seed, cell, ray) and each lands in its own slot, so any
  /// partition of a region into tile calls produces results bitwise
  /// identical to one computeDivQ over the whole region. Flushes the
  /// tile's segment count with a single atomic add.
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
  /// flux fan's own knob. Ray r draws from Rng(seed ^ 0xF00D, cell, r);
  /// origins are jittered uniformly over the face when
  /// TraceConfig::jitterRayOrigin is set (matching the divQ estimator).
  /// The fan is one call of the bundle routine, one ray per item, so it
  /// streams in bounded runs whatever nRays is, and the intensities are
  /// summed in ray order.
  double boundaryFlux(const IntVector& cell, const IntVector& face,
                      int nRays = 0) const;

  /// Total cell crossings marched so far (thread-safe, relaxed) — the
  /// work metric the performance model is calibrated against.
  std::uint64_t segmentCount() const {
    return m_segments.load(std::memory_order_relaxed);
  }
  void resetSegmentCount() {
    m_segments.store(0, std::memory_order_relaxed);
  }

  /// Adaptive-sampling work statistics since construction / last reset
  /// (relaxed atomics; exact once trace calls have returned). A cell
  /// counts once per band, so rays per cell is per band. When
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

  /// Publish tracer.rays_per_cell_{mean,max} from the combined ray
  /// statistics of \p tracers, so one sweep split across Tracers (the GPU
  /// trace task's kernel and rank-thread halves) reports as one. Called
  /// once a sweep has returned (computeDivQ, computeDivQBatch), never per
  /// tile, so concurrent tiles never race on the gauges.
  static void publishRayGauges(std::initializer_list<const Tracer*> tracers);

 private:
  /// The packet kernels' view of one level of this tracer
  /// (ray_tracer_simd.cc): reads that level's records, wall flag and the
  /// config.
  friend struct PacketMarch;
  /// The radiometer (radiometer.h) traces its fan through traceBundle.
  friend RadiometerReading evaluateRadiometer(const Tracer& tracer,
                                              const RadiometerSpec& spec);

  /// March within level \p li from physical position \p pos through its
  /// PackedCell records (the incremental-stride DDA, DESIGN.md §12) — the
  /// scalar golden reference. Every absorption coefficient is scaled by
  /// \p kappaScale (the band's s_b; 1.0 is the gray-mean medium, bitwise
  /// neutral). Accumulates into sumI/transmissivity and counts cell
  /// crossings into the caller's local \p segments; returns true if the
  /// ray is finished (wall, threshold or domain exit), false if it left
  /// `allowed` and should continue on level li+1 at the updated \p pos.
  bool marchLevelPacked(std::size_t li, Vector& pos, const Vector& dir,
                        double kappaScale, double& sumI,
                        double& transmissivity,
                        std::uint64_t& segments) const;

  /// The single flush point for per-tile / per-call segment counts: adds
  /// \p n to both the tracer's own counter and the global metrics
  /// counter, so the two can never drift.
  void flushSegments(std::uint64_t n) const;

  /// traceRay through the \p kappaScale medium, with the segment count
  /// going to a caller-owned local instead of the shared atomic.
  double traceRay(Vector origin, Vector dir, std::size_t startLevel,
                  double kappaScale, std::uint64_t& segments) const;

  /// The SIMD packet march (ray_tracer_simd.cc, DESIGN.md §14): one
  /// kernel template, instantiated for AVX-512 and AVX2 and picked at
  /// runtime. SoA lane state, branchless min-axis selection via vector
  /// compares, masked lane retirement on wall hit / extinction /
  /// `allowed` exit, with retired lanes refilled from the pending
  /// bundle. It runs one packet pass per level: level 0's pass starts
  /// every ray at its origin, and a ray that leaves a level's `allowed`
  /// box inside the domain is queued with its position, transmissivity
  /// and intensity for the next level's pass, which starts from that
  /// state. Callers must check simdActive() first.
  void traceRaysSimd(int n, const Vector* origins, const Vector* dirs,
                     double kappaScale, double* out,
                     std::uint64_t& segments) const;

  /// traceRays through the \p kappaScale medium with a caller-owned
  /// segment count: the packet march when simdActive(), else the scalar
  /// loop.
  void marchRays(int n, const Vector* origins, const Vector* dirs,
                 double kappaScale, double* out,
                 std::uint64_t& segments) const;

  /// Deterministic per-cell ray budget from the pilot statistics alone —
  /// a pure function of (seed, cell), never of threads or tiles:
  /// clamp(ceil((s / (errorTarget * |sigmaT4OverPi - pilotMean|))^2),
  ///       nPilotRays, effective cap). Zero pilot variance keeps the
  /// pilot fan; a vanishing denominator saturates at the cap.
  int adaptiveBudget(double pilotMean, double pilotStddev,
                     double sigmaT4OverPi) const;

  /// The one fan routine of every estimator: the rays of items 0 ..
  /// nItems-1 through the \p kappaScale medium, starting on level 0.
  /// Item k has raysOf(k) rays (possibly 0); makeRay(k, j, origin, dir)
  /// sets its ray j, called once per ray in item order and then ray
  /// order, so a maker may draw from one sequential stream. The rays
  /// march as one bundle through marchRays, each writing its intensity
  /// into its own (item, ray) slot, streamed in runs of whole items of
  /// at most kRunRays rays (a run always takes at least one item), so
  /// the scratch is bounded by the run, not by the fan. Then
  /// reduce(k, I, n) receives item k's n intensities in ray order, for
  /// every item in order. divQ's items are cells with a slice of the
  /// fixed fan each; a flux face's and a radiometer's are their rays.
  /// Defined in ray_tracer.cc, its only user.
  template <class RaysOf, class MakeRay, class Reduce>
  void traceBundle(std::size_t nItems, RaysOf raysOf, MakeRay makeRay,
                   double kappaScale, std::uint64_t& segments,
                   Reduce reduce) const;

  std::vector<TraceLevel> m_levels;
  WallProperties m_walls;
  TraceConfig m_cfg;
  /// Per level, whether any record inside its `allowed` box — every
  /// cell a lane of that level's packet pass can gather — is a wall
  /// cell. Scanned once at construction when the packet path can run, so
  /// wall-free domains (the Burns-Christon benchmark) skip the
  /// per-crossing cellType gather, and the scan costs in proportion to
  /// the marched boxes, not to the whole windows. Conservatively true
  /// when not scanned; domain-boundary walls are handled at box exit and
  /// never depend on this.
  std::vector<char> m_levelHasWalls;
  mutable std::atomic<std::uint64_t> m_segments{0};
  /// Ray-budget accounting behind the rays-per-cell gauges: rays
  /// actually traced by divQ sweeps, (cell, band) pairs processed, and
  /// the largest per-cell budget granted. Bumped once per tile (relaxed),
  /// like m_segments.
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
