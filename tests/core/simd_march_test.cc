/// Equivalence harness for the 8-wide SIMD packet march (marchPacket8,
/// DESIGN.md §14) against the scalar packed march — the golden reference.
///
/// The packet path performs the exact same DDA arithmetic as the scalar
/// path (bitwise-identical cell sequences and segment lengths); the only
/// divergence is the vectorized exp (≤ ~2 ulp per segment), which
/// accumulates multiplicatively through the transmissivity. Per-ray
/// intensities therefore agree within a small ULP budget, not bitwise;
/// these tests pin that budget (kUlpTolerance) across wall hits,
/// extinction retirement, coarse-level handoff, degenerate directions,
/// and partial packets.
///
/// On hosts without AVX2 (or with RMCRT_NO_SIMD set — the CI fallback
/// job), simdActive() is false and every "SIMD" tracer here runs the
/// scalar dispatch: the comparisons still run and must then hold
/// bitwise, which exercises exactly the runtime-dispatch fallback the
/// non-AVX2 CI job exists to cover.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/problems.h"
#include "core/ray_tracer.h"
#include "grid/grid.h"
#include "grid/operators.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::CellType;
using grid::Grid;

/// ULP budget for per-ray intensity agreement. Each marched segment
/// contributes ≤ ~2 ulp of exp divergence into the running
/// transmissivity product; with the extinction threshold at 1e-4 a ray
/// marches at most a few hundred segments, so a 4096-ulp budget carries
/// ~10x headroom while still catching any real marching divergence
/// (a wrong cell path or segment length shows up as ~1e6+ ulp).
constexpr std::uint64_t kUlpTolerance = 4096;

/// Distance in units-in-the-last-place between two doubles, via the
/// standard monotone reinterpretation of the IEEE bit pattern. a == b
/// (including +0 vs -0) is 0; any NaN is "infinitely" far.
std::uint64_t ulpDistance(double a, double b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b))
    return std::numeric_limits<std::uint64_t>::max();
  auto ordered = [](double x) {
    std::int64_t i;
    std::memcpy(&i, &x, sizeof(i));
    if (i < 0) i = std::numeric_limits<std::int64_t>::min() - i;
    return i;
  };
  const std::int64_t ia = ordered(a), ib = ordered(b);
  const std::uint64_t d = static_cast<std::uint64_t>(ia) -
                          static_cast<std::uint64_t>(ib);
  return d > 0x8000000000000000ULL ? ~d + 1 : d;
}

TEST(UlpDistanceSelfCheck, BehavesLikeUlps) {
  EXPECT_EQ(ulpDistance(1.0, 1.0), 0u);
  EXPECT_EQ(ulpDistance(0.0, -0.0), 0u);
  EXPECT_EQ(ulpDistance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(ulpDistance(1.0, std::nextafter(std::nextafter(1.0, 0.0), 0.0)),
            2u);
  EXPECT_GT(ulpDistance(1.0, 1.0 + 1e-9), 1000000u);
}

/// Owns the fields and grid behind a single-level tracer configuration.
struct SingleLevelSetup {
  std::shared_ptr<Grid> grid;
  CCVariable<double> abskg;
  CCVariable<double> sig;
  CCVariable<CellType> ct;
  WallProperties walls;

  SingleLevelSetup(const RadiationProblem& prob, const IntVector& n)
      : grid(Grid::makeSingleLevel(Vector(0.0), Vector(1.0), n, n)),
        abskg(grid->fineLevel().cells(), 0.0),
        sig(grid->fineLevel().cells(), 0.0),
        ct(grid->fineLevel().cells(), CellType::Flow),
        walls{prob.wallSigmaT4OverPi, prob.wallEmissivity} {
    initializeProperties(grid->fineLevel(), prob, abskg, sig, ct);
  }

  Tracer makeTracer(bool simd, TraceConfig cfg = TraceConfig{}) const {
    cfg.useSimd = simd;
    TraceLevel tl{LevelGeom::from(grid->fineLevel()),
                  RadiationFieldsView{FieldView<double>::fromHost(abskg),
                                      FieldView<double>::fromHost(sig),
                                      FieldView<CellType>::fromHost(ct)},
                  grid->fineLevel().cells()};
    return Tracer({tl}, walls, cfg);
  }
};

/// Deterministic ray bundle spanning the direction sphere plus the
/// degenerate cases: axis-aligned (two exactly-zero components, both
/// signs of zero), axis-plane diagonals, the corner diagonal, and
/// near-axis directions, with origins uniform in [lo, lo + span]^3.
/// Sized to leave a partial final packet.
void makeRayBundle(int n, std::vector<Vector>& origins,
                   std::vector<Vector>& dirs, double lo = 0.05,
                   double span = 0.9) {
  origins.clear();
  dirs.clear();
  const Vector special[] = {
      Vector(1.0, 0.0, 0.0),   Vector(-1.0, 0.0, 0.0),
      Vector(0.0, 1.0, -0.0),  Vector(0.0, -1.0, 0.0),
      Vector(-0.0, 0.0, 1.0),  Vector(0.0, -0.0, -1.0),
      Vector(std::sqrt(0.5), std::sqrt(0.5), 0.0),
      Vector(-std::sqrt(0.5), 0.0, std::sqrt(0.5)),
      Vector(1.0, 1.0, 1.0) / std::sqrt(3.0),
      Vector(-1.0, -1.0, -1.0) / std::sqrt(3.0),
      Vector(1.0, 1e-14, -1e-14).normalized(),
  };
  for (int i = 0; i < n; ++i) {
    Rng rng(/*seed=*/1234, IntVector(i, 2 * i, 3 * i),
            static_cast<std::uint32_t>(i));
    origins.push_back(Vector(lo) + Vector(rng.nextDouble(), rng.nextDouble(),
                                          rng.nextDouble()) *
                                       span);
    if (i < static_cast<int>(std::size(special)))
      dirs.push_back(special[static_cast<std::size_t>(i)]);
    else
      dirs.push_back(isotropicDirection(rng));
  }
}

void expectBundleParity(const Tracer& simd, const Tracer& scalar, int n) {
  std::vector<Vector> origins, dirs;
  makeRayBundle(n, origins, dirs);
  std::vector<double> iSimd(static_cast<std::size_t>(n), -1.0);
  std::vector<double> iScalar(static_cast<std::size_t>(n), -1.0);
  simd.traceRays(n, origins.data(), dirs.data(), iSimd.data());
  scalar.traceRays(n, origins.data(), dirs.data(), iScalar.data());
  for (int i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    EXPECT_LE(ulpDistance(iSimd[s], iScalar[s]), kUlpTolerance)
        << "ray " << i << " dir " << dirs[s] << ": simd " << iSimd[s]
        << " vs scalar " << iScalar[s];
  }
}

TEST(SimdMarch, DispatchMatchesRuntimeSupport) {
  SingleLevelSetup setup(burnsChriston(), IntVector(8));
  const Tracer t = setup.makeTracer(/*simd=*/true);
  EXPECT_EQ(t.simdActive(), Tracer::simdSupported());
  const Tracer s = setup.makeTracer(/*simd=*/false);
  EXPECT_FALSE(s.simdActive());
}

TEST(SimdMarch, BurnsChristonBundleWithinUlpTolerance) {
  // The benchmark medium: no interior walls, absorbing enough that rays
  // both extinguish (lane retirement mid-packet) and reach the walls.
  SingleLevelSetup setup(burnsChriston(), IntVector(16));
  TraceConfig cfg;
  const Tracer simd = setup.makeTracer(true, cfg);
  const Tracer scalar = setup.makeTracer(false, cfg);
  expectBundleParity(simd, scalar, 203);  // partial final packet (203 % 8 != 0)
}

TEST(SimdMarch, PartialPacketsAllSizes) {
  // Every bundle size below and around one packet: lane refill and
  // dead-lane masking must be right for n = 1..19 (not just multiples
  // of 8), and each ray's result must be independent of bundle size.
  SingleLevelSetup setup(burnsChriston(), IntVector(8));
  const Tracer simd = setup.makeTracer(true);
  const Tracer scalar = setup.makeTracer(false);
  for (int n = 1; n <= 19; ++n) {
    SCOPED_TRACE("bundle size " + std::to_string(n));
    expectBundleParity(simd, scalar, n);
  }
}

TEST(SimdMarch, WallHeavyMediumRetiresLanesOnWalls) {
  // Near-transparent medium with hot walls: almost every ray retires on
  // a domain wall rather than by extinction.
  SingleLevelSetup setup(uniformMedium(0.05, 1.0), IntVector(16));
  TraceConfig cfg;
  cfg.threshold = 1e-10;
  expectBundleParity(setup.makeTracer(true, cfg),
                     setup.makeTracer(false, cfg), 100);
}

TEST(SimdMarch, InteriorWallCellsRetireLanes) {
  // A wall slab inside the domain exercises the packet march's cellType
  // gather and the wall-lane retirement mask (the level's wall flag is
  // set).
  SingleLevelSetup setup(uniformMedium(0.5, 1.0), IntVector(16));
  for (const auto& c : setup.ct.window())
    if (c.x() == 11) setup.ct[c] = CellType::Wall;
  TraceConfig cfg;
  cfg.threshold = 1e-10;
  const Tracer simd = setup.makeTracer(true, cfg);
  const Tracer scalar = setup.makeTracer(false, cfg);
  expectBundleParity(simd, scalar, 100);
  // The slab must actually absorb: a +x ray from its doorstep sees the
  // wall emission immediately (identical in both paths up to ulps).
  const Vector o(10.5 / 16.0, 0.53, 0.51), d(1.0, 0.0, 0.0);
  double is = -1.0, ir = -1.0;
  simd.traceRays(1, &o, &d, &is);
  scalar.traceRays(1, &o, &d, &ir);
  EXPECT_LE(ulpDistance(is, ir), kUlpTolerance);
  EXPECT_GT(is, 0.0);
}

TEST(SimdMarch, HighExtinctionRetiresLanesEarly) {
  // Optically thick medium: every lane retires by the transmissivity
  // threshold within a few segments, churning the refill queue hard.
  SingleLevelSetup setup(uniformMedium(60.0, 1.0), IntVector(16));
  expectBundleParity(setup.makeTracer(true), setup.makeTracer(false), 64);
}

TEST(SimdMarch, MeanIntensityAndDivQParity) {
  // The production entry points: meanIncomingIntensity (packet bundle
  // per cell, identical RNG consumption) and computeDivQ.
  SingleLevelSetup setup(burnsChriston(), IntVector(16));
  TraceConfig cfg;
  cfg.nDivQRays = 48;
  cfg.seed = 11;
  const Tracer simd = setup.makeTracer(true, cfg);
  const Tracer scalar = setup.makeTracer(false, cfg);
  for (const IntVector& c :
       {IntVector(0, 0, 0), IntVector(8, 8, 8), IntVector(15, 3, 9)}) {
    const double a = simd.meanIncomingIntensity(c);
    const double b = scalar.meanIncomingIntensity(c);
    EXPECT_LE(ulpDistance(a, b), kUlpTolerance) << "cell " << c;
  }
  CCVariable<double> dqSimd(setup.grid->fineLevel().cells(), 0.0);
  CCVariable<double> dqScalar(setup.grid->fineLevel().cells(), 0.0);
  const CellRange probe(IntVector(4, 4, 4), IntVector(8, 8, 8));
  simd.computeDivQ(probe, MutableFieldView<double>::fromHost(dqSimd));
  scalar.computeDivQ(probe, MutableFieldView<double>::fromHost(dqScalar));
  for (const auto& c : probe) {
    // divQ differences pick up cancellation in (sigmaT4/pi - meanI), so
    // bound relative-to-magnitude rather than raw ulps.
    const double scale = std::max(
        {std::abs(dqSimd[c]), std::abs(dqScalar[c]), 1e-12});
    EXPECT_LE(std::abs(dqSimd[c] - dqScalar[c]) / scale, 1e-10)
        << "cell " << c;
  }
}

TEST(SimdMarch, SegmentCountsAgreeWithScalar) {
  // Ray geometry is bitwise identical between paths, so segment counts
  // can differ only where the exp divergence flips a ray's extinction
  // test on the exact threshold-straddling segment. Allow one segment of
  // slack per ray; with walls and moderate absorption that slack is
  // almost never consumed.
  SingleLevelSetup setup(burnsChriston(), IntVector(16));
  Tracer simd = setup.makeTracer(true);
  Tracer scalar = setup.makeTracer(false);
  std::vector<Vector> origins, dirs;
  const int n = 128;
  makeRayBundle(n, origins, dirs);
  std::vector<double> out(static_cast<std::size_t>(n));
  simd.traceRays(n, origins.data(), dirs.data(), out.data());
  scalar.traceRays(n, origins.data(), dirs.data(), out.data());
  const auto a = static_cast<std::int64_t>(simd.segmentCount());
  const auto b = static_cast<std::int64_t>(scalar.segmentCount());
  EXPECT_LE(std::abs(a - b), n);
  EXPECT_GT(a, 0);
}

/// Burns-Christon on a 16^3 fine level over a 4^3 coarse level, marching
/// the fine level only inside a cubic ROI.
struct TwoLevelSetup {
  std::shared_ptr<Grid> grid = Grid::makeTwoLevel(
      Vector(0.0), Vector(1.0), IntVector(16), IntVector(4), IntVector(16),
      IntVector(4));
  RadiationProblem prob = burnsChriston();
  CCVariable<double> fAbs{grid->fineLevel().cells(), 0.0};
  CCVariable<double> fSig{grid->fineLevel().cells(), 0.0};
  CCVariable<CellType> fCt{grid->fineLevel().cells(), CellType::Flow};
  CCVariable<double> cAbs{grid->coarseLevel().cells(), 0.0};
  CCVariable<double> cSig{grid->coarseLevel().cells(), 0.0};
  CCVariable<CellType> cCt{grid->coarseLevel().cells(), CellType::Flow};
  CellRange roi;

  explicit TwoLevelSetup(int roiLow, int roiHigh)
      : roi(IntVector(roiLow), IntVector(roiHigh)) {
    const grid::Level& fine = grid->fineLevel();
    const grid::Level& coarse = grid->coarseLevel();
    initializeProperties(fine, prob, fAbs, fSig, fCt);
    grid::coarsenAverage(fAbs, fine.refinementRatio(), cAbs, coarse.cells());
    grid::coarsenAverage(fSig, fine.refinementRatio(), cSig, coarse.cells());
    grid::coarsenCellType(fCt, fine.refinementRatio(), cCt, coarse.cells());
  }

  static TraceConfig config(bool simd) {
    TraceConfig cfg;
    cfg.nDivQRays = 32;
    cfg.seed = 5;
    cfg.useSimd = simd;
    return cfg;
  }

  Tracer makeTracer(bool simd) const { return makeTracer(config(simd)); }

  Tracer makeTracer(const TraceConfig& cfg) const {
    TraceLevel fineTL{LevelGeom::from(grid->fineLevel()),
                      RadiationFieldsView{FieldView<double>::fromHost(fAbs),
                                          FieldView<double>::fromHost(fSig),
                                          FieldView<CellType>::fromHost(fCt)},
                      roi};
    TraceLevel coarseTL{
        LevelGeom::from(grid->coarseLevel()),
        RadiationFieldsView{FieldView<double>::fromHost(cAbs),
                            FieldView<double>::fromHost(cSig),
                            FieldView<CellType>::fromHost(cCt)},
        grid->coarseLevel().cells()};
    return Tracer({fineTL, coarseTL},
                  WallProperties{prob.wallSigmaT4OverPi, prob.wallEmissivity},
                  cfg);
  }

  /// A bundle whose origins lie inside the ROI.
  void bundle(int n, std::vector<Vector>& origins,
              std::vector<Vector>& dirs) const {
    makeRayBundle(n, origins, dirs, roi.low().x() / 16.0 + 1e-3,
                  roi.size().x() / 16.0 - 2e-3);
  }
};

TEST(SimdMarch, TwoLevelHandoffParity) {
  // Fine ROI + coarse continuation: rays leaving the fine allowed box
  // are queued for the coarse level's packet pass, which starts them from
  // the state they carried out — intensities must still match the
  // all-scalar result within the ULP budget. A small central ROI makes
  // most rays hand off.
  const TwoLevelSetup setup(5, 11);
  const Tracer simd = setup.makeTracer(true);
  const Tracer scalar = setup.makeTracer(false);
  for (const IntVector& c :
       {IntVector(8, 8, 8), IntVector(6, 9, 10), IntVector(10, 5, 7)}) {
    const double a = simd.meanIncomingIntensity(c);
    const double b = scalar.meanIncomingIntensity(c);
    EXPECT_LE(ulpDistance(a, b), kUlpTolerance) << "cell " << c;
  }
}

TEST(SimdMarch, TwoLevelSegmentCountsMatchScalarExactly) {
  // The packet march walks the scalar march's exact cell sequence, and no
  // Burns-Christon ray reaches the 1e-4 extinction threshold, so the
  // segment count is pure geometry: it must match with no slack, across
  // the fine-to-coarse handoff too. (A fused multiply-add in the packet
  // kernels' setup or handoff position moves rays onto other cells.)
  const TwoLevelSetup setup(4, 12);
  Tracer simd = setup.makeTracer(true);
  Tracer scalar = setup.makeTracer(false);
  std::vector<Vector> origins, dirs;
  const int n = 5003;
  setup.bundle(n, origins, dirs);
  std::vector<double> out(static_cast<std::size_t>(n));
  simd.traceRays(n, origins.data(), dirs.data(), out.data());
  scalar.traceRays(n, origins.data(), dirs.data(), out.data());
  EXPECT_EQ(simd.segmentCount(), scalar.segmentCount());
  EXPECT_GT(scalar.segmentCount(), static_cast<std::uint64_t>(n));
}

/// Sets RMCRT_FORCE_AVX2 for one scope and restores the previous value;
/// the dispatch reads the variable on every call.
class ForceAvx2 {
 public:
  explicit ForceAvx2(bool on) {
    if (const char* e = std::getenv(kVar)) m_saved = e, m_had = true;
    if (on)
      setenv(kVar, "1", 1);
    else
      unsetenv(kVar);
  }
  ~ForceAvx2() {
    if (m_had)
      setenv(kVar, m_saved.c_str(), 1);
    else
      unsetenv(kVar);
  }

 private:
  static constexpr const char* kVar = "RMCRT_FORCE_AVX2";
  std::string m_saved;
  bool m_had = false;
};

/// Traces the bundle through the AVX-512 and then the AVX2 instance and
/// requires bitwise-identical per-ray intensities and equal segment
/// counts: the two instances run one kernel source over the same IEEE
/// operations, so the lane width must not change a single bit.
void expectInstancesBitwiseEqual(Tracer& t, const std::vector<Vector>& origins,
                                 const std::vector<Vector>& dirs) {
  const int n = static_cast<int>(origins.size());
  std::vector<double> wide(origins.size()), narrow(origins.size());
  std::uint64_t wideSegs = 0, narrowSegs = 0;
  {
    const ForceAvx2 env(false);
    ASSERT_STREQ(Tracer::simdIsa(), "avx512");
    t.resetSegmentCount();
    t.traceRays(n, origins.data(), dirs.data(), wide.data());
    wideSegs = t.segmentCount();
  }
  {
    const ForceAvx2 env(true);
    ASSERT_STREQ(Tracer::simdIsa(), "avx2");
    t.resetSegmentCount();
    t.traceRays(n, origins.data(), dirs.data(), narrow.data());
    narrowSegs = t.segmentCount();
  }
  EXPECT_EQ(wideSegs, narrowSegs);
  int mismatched = 0, first = -1;
  for (int i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    if (std::memcmp(&wide[s], &narrow[s], sizeof(double)) != 0) {
      if (first < 0) first = i;
      ++mismatched;
    }
  }
  EXPECT_EQ(mismatched, 0)
      << "rays differ between instances; first is ray " << first;
}

TEST(SimdMarch, Avx2AndAvx512InstancesAgreeBitwise) {
  if (std::string(Tracer::simdIsa()) != "avx512")
    GTEST_SKIP() << "needs an AVX-512 host to run both instances";
  std::vector<Vector> origins, dirs;
  const int n = 5003;
  {
    SCOPED_TRACE("single level");
    SingleLevelSetup setup(burnsChriston(), IntVector(16));
    Tracer t = setup.makeTracer(true);
    makeRayBundle(n, origins, dirs);
    expectInstancesBitwiseEqual(t, origins, dirs);
  }
  {
    SCOPED_TRACE("interior wall");
    SingleLevelSetup setup(uniformMedium(0.5, 1.0), IntVector(16));
    for (const auto& c : setup.ct.window())
      if (c.x() == 11) setup.ct[c] = CellType::Wall;
    TraceConfig cfg;
    cfg.threshold = 1e-10;
    Tracer t = setup.makeTracer(true, cfg);
    makeRayBundle(n, origins, dirs);
    expectInstancesBitwiseEqual(t, origins, dirs);
  }
  {
    SCOPED_TRACE("two level");
    const TwoLevelSetup setup(4, 12);
    Tracer t = setup.makeTracer(true);
    setup.bundle(n, origins, dirs);
    expectInstancesBitwiseEqual(t, origins, dirs);
  }
}

TEST(SimdMarch, BundleCompositionNeverChangesDivQ) {
  // One 4^3 tile traces each pass of its 64 cells as one bundle; 64
  // one-cell tiles trace 64 bundles of one cell each. Every ray marches
  // on its own and lands in its own (cell, ray) slot, so divQ must not
  // change by a bit, for fixed and adaptive budgets, gray and banded.
  const TwoLevelSetup setup(4, 12);
  const CellRange tile(IntVector(6), IntVector(10));
  for (const bool adaptive : {false, true}) {
    for (const BandModel& bands : {grayBand(), threeband()}) {
      SCOPED_TRACE(std::string(adaptive ? "adaptive" : "fixed") + ", " +
                   (bands.size() == 1 ? "gray" : "three bands"));
      TraceConfig cfg = TwoLevelSetup::config(/*simd=*/true);
      cfg.bands = bands;
      cfg.adaptiveRays = adaptive;
      cfg.nPilotRays = 8;
      const Tracer t = setup.makeTracer(cfg);
      CCVariable<double> bundled(tile, 0.0), perCell(tile, 0.0);
      t.computeDivQTile(tile, MutableFieldView<double>::fromHost(bundled));
      const std::uint64_t bundledRays = t.raysTraced();
      for (const IntVector& c : tile)
        t.computeDivQTile(CellRange(c, c + IntVector(1)),
                          MutableFieldView<double>::fromHost(perCell));
      EXPECT_EQ(t.raysTraced(), 2 * bundledRays);
      if (adaptive) {
        // The budgets differ across cells, so the top-up bundle mixes
        // cells of different ray counts.
        const std::uint64_t cellBands = 64 * bands.size();
        EXPECT_GT(bundledRays, 8 * cellBands);
        EXPECT_LT(bundledRays, 32 * cellBands);
      }
      for (const IntVector& c : tile)
        ASSERT_EQ(std::memcmp(&bundled[c], &perCell[c], sizeof(double)), 0)
            << "cell " << c << ": one bundle " << bundled[c]
            << " vs one-cell tiles " << perCell[c];
    }
  }
}

/// Burns-Christon over the unit cube on three levels: a 32^3 fine level
/// marched inside a central ROI, a 16^3 middle level marched inside a
/// larger ROI, and the whole 8^3 coarse level. A ray from the fine ROI
/// crosses two handoffs on its way to the coarse level, so one level's
/// pass feeds the next twice.
struct ThreeLevelSetup {
  struct Level {
    std::shared_ptr<Grid> grid;
    CCVariable<double> abskg, sig;
    CCVariable<CellType> ct;
    CellRange allowed;

    Level(int n, const CellRange& roi, const RadiationProblem& prob)
        : grid(Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(n),
                                     IntVector(n))),
          abskg(grid->fineLevel().cells(), 0.0),
          sig(grid->fineLevel().cells(), 0.0),
          ct(grid->fineLevel().cells(), CellType::Flow),
          allowed(roi) {
      initializeProperties(grid->fineLevel(), prob, abskg, sig, ct);
    }

    TraceLevel traceLevel() const {
      return TraceLevel{LevelGeom::from(grid->fineLevel()),
                        RadiationFieldsView{FieldView<double>::fromHost(abskg),
                                            FieldView<double>::fromHost(sig),
                                            FieldView<CellType>::fromHost(ct)},
                        allowed};
    }
  };

  RadiationProblem prob = burnsChriston();
  Level fine{32, CellRange(IntVector(10), IntVector(22)), prob};
  Level middle{16, CellRange(IntVector(4), IntVector(12)), prob};
  Level coarse{8, CellRange(IntVector(0), IntVector(8)), prob};

  /// All three levels, or (\p withMiddle false) the fine and coarse ones.
  Tracer makeTracer(bool simd, bool withMiddle = true) const {
    TraceConfig cfg;
    cfg.useSimd = simd;
    std::vector<TraceLevel> levels{fine.traceLevel()};
    if (withMiddle) levels.push_back(middle.traceLevel());
    levels.push_back(coarse.traceLevel());
    return Tracer(std::move(levels),
                  WallProperties{prob.wallSigmaT4OverPi, prob.wallEmissivity},
                  cfg);
  }

  /// A bundle whose origins lie inside the fine ROI.
  void bundle(int n, std::vector<Vector>& origins,
              std::vector<Vector>& dirs) const {
    makeRayBundle(n, origins, dirs, 10.0 / 32.0 + 1e-3, 12.0 / 32.0 - 2e-3);
  }
};

TEST(SimdMarch, ThreeLevelHandoffParity) {
  // The fine pass hands rays to the middle pass, which hands them on to
  // the coarse pass. A pass that dropped a handed-off ray would leave its
  // carried intensity as the result; one that finished a ray twice would
  // count its segments twice.
  const ThreeLevelSetup setup;
  Tracer simd = setup.makeTracer(true);
  Tracer scalar = setup.makeTracer(false);
  std::vector<Vector> origins, dirs;
  const int n = 5003;
  setup.bundle(n, origins, dirs);
  std::vector<double> iSimd(static_cast<std::size_t>(n), -1.0);
  std::vector<double> iScalar(static_cast<std::size_t>(n), -1.0);
  simd.traceRays(n, origins.data(), dirs.data(), iSimd.data());
  scalar.traceRays(n, origins.data(), dirs.data(), iScalar.data());
  for (int i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    ASSERT_LE(ulpDistance(iSimd[s], iScalar[s]), kUlpTolerance)
        << "ray " << i << " dir " << dirs[s] << ": simd " << iSimd[s]
        << " vs scalar " << iScalar[s];
  }
  // Cell paths are pure geometry, and no Burns-Christon ray extinguishes.
  EXPECT_EQ(simd.segmentCount(), scalar.segmentCount());
  // The middle level is marched: without it the rays cross fewer cells.
  Tracer twoLevel = setup.makeTracer(false, /*withMiddle=*/false);
  std::vector<double> iTwo(static_cast<std::size_t>(n));
  twoLevel.traceRays(n, origins.data(), dirs.data(), iTwo.data());
  EXPECT_LT(twoLevel.segmentCount(), scalar.segmentCount());
  if (std::string(Tracer::simdIsa()) == "avx512")
    expectInstancesBitwiseEqual(simd, origins, dirs);
}

TEST(SimdMarch, ScalarPathUnchangedByDispatchMachinery) {
  // The golden-reference guarantee: a useSimd=false tracer must produce
  // bitwise-identical results through traceRays and traceRay — the
  // packet-path plumbing cannot perturb the scalar march.
  SingleLevelSetup setup(burnsChriston(), IntVector(8));
  const Tracer t = setup.makeTracer(false);
  std::vector<Vector> origins, dirs;
  makeRayBundle(32, origins, dirs);
  std::vector<double> bundle(32);
  t.traceRays(32, origins.data(), dirs.data(), bundle.data());
  for (int i = 0; i < 32; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    EXPECT_EQ(bundle[s], t.traceRay(origins[s], dirs[s])) << "ray " << i;
  }
}

// ---------------------------------------------------------------------
// Zero-length segment accounting (the hot-path counter fix): crossings
// with segLen == 0 — a ray starting exactly on the face it is about to
// cross, or the 2nd/3rd face crossings of an exact corner hit — are FP
// no-ops and must not count as marched segments.

TEST(SegmentAccounting, RayStartingOnAFaceSkipsTheZeroCrossing) {
  SingleLevelSetup setup(uniformMedium(0.25, 1.0), IntVector(8));
  TraceConfig cfg;
  cfg.threshold = 1e-12;
  Tracer t = setup.makeTracer(false, cfg);
  // Origin exactly on the low face of cell 3 (x = 3/8), marching -x:
  // the Amanatides-Woo setup clamps the first crossing to t = 0, a
  // zero-length segment in cell 3; the marched cells are 2, 1, 0.
  t.resetSegmentCount();
  t.traceRay(Vector(3.0 / 8.0, 0.51, 0.52), Vector(-1.0, 0.0, 0.0));
  EXPECT_EQ(t.segmentCount(), 3u);
}

TEST(SegmentAccounting, CornerDiagonalCountsOneSegmentPerSpan) {
  SingleLevelSetup setup(uniformMedium(0.25, 1.0), IntVector(8));
  TraceConfig cfg;
  cfg.threshold = 1e-12;
  Tracer t = setup.makeTracer(false, cfg);
  // From the exact cell corner at the domain center along the main
  // diagonal: every cell boundary is a 3-fold axis tie, where the x step
  // is followed by zero-length y and z crossings. Only the 4 real spans
  // (corner to corner, cells (4,4,4)..(7,7,7)) may count.
  t.resetSegmentCount();
  t.traceRay(Vector(0.5, 0.5, 0.5),
             Vector(1.0, 1.0, 1.0) / std::sqrt(3.0));
  EXPECT_EQ(t.segmentCount(), 4u);

  // And the packet path applies the identical rule.
  Tracer ts = setup.makeTracer(true, cfg);
  const Vector o(0.5, 0.5, 0.5);
  const Vector d = Vector(1.0, 1.0, 1.0) / std::sqrt(3.0);
  double out = 0.0;
  ts.resetSegmentCount();
  ts.traceRays(1, &o, &d, &out);
  EXPECT_EQ(ts.segmentCount(), 4u);
}

// ---------------------------------------------------------------------
// TraceConfig validation (the NaN-divQ fix): a non-positive ray count
// must be rejected at construction, not surface as NaN divQ later.

TEST(TraceConfigValidation, NonPositiveRayCountThrows) {
  SingleLevelSetup setup(burnsChriston(), IntVector(8));
  for (int bad : {0, -1, -100}) {
    TraceConfig cfg;
    cfg.nDivQRays = bad;
    EXPECT_THROW(setup.makeTracer(false, cfg), std::invalid_argument)
        << "nDivQRays = " << bad;
  }
  // And the boundary case is accepted and produces finite divQ.
  TraceConfig cfg;
  cfg.nDivQRays = 1;
  Tracer t = setup.makeTracer(false, cfg);
  EXPECT_TRUE(std::isfinite(t.meanIncomingIntensity(IntVector(4, 4, 4))));
}

TEST(TraceConfigValidation, RejectsInvalidBandModel) {
  // divQ sums a_b * q_b with kappa scaled by s_b in the march: an empty
  // model, a non-finite weight, or a scale that is not finite and
  // positive would trace nothing or fill divQ with NaN.
  SingleLevelSetup setup(burnsChriston(), IntVector(8));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<BandModel> bad = {
      {},
      {SpectralBand{nan, 1.0}},
      {SpectralBand{0.5, 1.0}, SpectralBand{inf, 1.0}},
      {SpectralBand{1.0, 0.0}},
      {SpectralBand{1.0, -0.5}},
      {SpectralBand{1.0, nan}},
      {SpectralBand{1.0, inf}}};
  for (std::size_t i = 0; i < bad.size(); ++i) {
    TraceConfig cfg;
    cfg.bands = bad[i];
    EXPECT_THROW(validateTraceConfig(cfg), std::invalid_argument)
        << "band model " << i;
    EXPECT_THROW(setup.makeTracer(false, cfg), std::invalid_argument)
        << "band model " << i;
  }
  TraceConfig cfg;
  cfg.bands = threeband();
  EXPECT_NO_THROW(validateTraceConfig(cfg));
  Tracer t = setup.makeTracer(false, cfg);
  CCVariable<double> q(CellRange(IntVector(4), IntVector(5)), 0.0);
  t.computeDivQ(q.window(), MutableFieldView<double>::fromHost(q));
  EXPECT_TRUE(std::isfinite(q[IntVector(4)]));
}

}  // namespace
}  // namespace rmcrt::core
