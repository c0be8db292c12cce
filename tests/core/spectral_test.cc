#include "core/spectral.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/problems.h"
#include "grid/grid.h"
#include "util/thread_pool.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::CellType;
using grid::Grid;

struct SpectralHarness {
  std::shared_ptr<Grid> grid;
  CCVariable<double> abskg, sig;
  CCVariable<CellType> ct;
  WallProperties walls;

  explicit SpectralHarness(const RadiationProblem& prob, int n = 12)
      : grid(Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(n),
                                   IntVector(n))),
        abskg(grid->fineLevel().cells(), 0.0),
        sig(grid->fineLevel().cells(), 0.0),
        ct(grid->fineLevel().cells(), CellType::Flow),
        walls{prob.wallSigmaT4OverPi, prob.wallEmissivity} {
    initializeProperties(grid->fineLevel(), prob, abskg, sig, ct);
  }

  std::vector<TraceLevel> levels() const {
    return {TraceLevel{LevelGeom::from(grid->fineLevel()),
                       RadiationFieldsView{
                           FieldView<double>::fromHost(abskg),
                           FieldView<double>::fromHost(sig),
                           FieldView<CellType>::fromHost(ct)},
                       grid->fineLevel().cells()}};
  }
};

TEST(BandModel, ThreebandIsPlanckConsistent) {
  const BandModel bands = threeband();
  double wsum = 0.0;
  for (const auto& b : bands) wsum += b.weight;
  EXPECT_NEAR(wsum, 1.0, 1e-12);
  // Planck-weighted mean kappa scale equals the gray mean (within the
  // rounding of the published-style coefficients).
  EXPECT_NEAR(planckMeanScale(bands), 1.0, 0.01);
}

TEST(SpectralTracer, SingleGrayBandMatchesGrayTracerExactly) {
  SpectralHarness h(burnsChriston());
  TraceConfig cfg;
  cfg.nDivQRays = 16;
  cfg.seed = 9;

  SpectralTracer spectral(h.levels(), h.walls, cfg, grayBand());
  CCVariable<double> sq(h.grid->fineLevel().cells(), 0.0);
  spectral.computeDivQ(h.grid->fineLevel().cells(),
                       MutableFieldView<double>::fromHost(sq));

  Tracer gray(h.levels(), h.walls, cfg);
  CCVariable<double> gq(h.grid->fineLevel().cells(), 0.0);
  gray.computeDivQ(h.grid->fineLevel().cells(),
                   MutableFieldView<double>::fromHost(gq));

  for (const auto& c : sq.window())
    EXPECT_DOUBLE_EQ(sq[c], gq[c]) << "cell " << c;
}

TEST(SpectralTracer, EquilibriumStillZero) {
  // Radiative equilibrium holds band by band (each band sees a uniform
  // medium with matching hot walls), so spectral divQ is also zero.
  SpectralHarness h(uniformMedium(4.0, 1.0));
  TraceConfig cfg;
  cfg.nDivQRays = 8;
  cfg.threshold = 1e-12;
  SpectralTracer spectral(h.levels(), h.walls, cfg, threeband());
  CCVariable<double> q(h.grid->fineLevel().cells(), 0.0);
  spectral.computeDivQ(h.grid->fineLevel().cells(),
                       MutableFieldView<double>::fromHost(q));
  for (const auto& c : q.window()) EXPECT_NEAR(q[c], 0.0, 1e-9);
}

TEST(SpectralTracer, WindowBandLosesMoreFromTheCenter) {
  // Non-gray physics: with cold walls, the optically thin window band
  // lets the domain center radiate straight to the walls, so the
  // spectral divQ at the center EXCEEDS the gray result computed from
  // the Planck-mean kappa (the classic non-gray enhancement).
  SpectralHarness h(uniformMedium(8.0, 1.0), 16);
  h.walls.sigmaT4OverPi = 0.0;  // cold walls
  TraceConfig cfg;
  cfg.nDivQRays = 300;
  cfg.threshold = 1e-9;

  SpectralTracer spectral(h.levels(), h.walls, cfg, threeband());
  Tracer gray(h.levels(), h.walls, cfg);

  const IntVector center(8, 8, 8);
  CCVariable<double> sq(CellRange(center, center + IntVector(1)), 0.0);
  spectral.computeDivQ(sq.window(), MutableFieldView<double>::fromHost(sq));
  const double grayI = gray.meanIncomingIntensity(center);
  const double grayQ = 4.0 * M_PI * 8.0 * (1.0 / M_PI - grayI);

  EXPECT_GT(sq[center], grayQ * 1.1)
      << "the transparent band must enhance net loss at the center";
}

TEST(SpectralTracer, BandIntensitiesOrderedByOpacity) {
  // Cold walls: the more transparent a band, the less of the medium's
  // emission reaches the detector (shorter emitting paths + wall escape),
  // so band intensity increases with kappa scale.
  SpectralHarness h(uniformMedium(8.0, 1.0), 16);
  h.walls.sigmaT4OverPi = 0.0;
  TraceConfig cfg;
  cfg.nDivQRays = 400;
  cfg.threshold = 1e-9;
  SpectralTracer spectral(h.levels(), h.walls, cfg, threeband());
  const auto I = spectral.bandIntensities(IntVector(8, 8, 8));
  ASSERT_EQ(I.size(), 3u);
  EXPECT_LT(I[0], I[1]);  // window < moderate
  EXPECT_LT(I[1], I[2]);  // moderate < strong
}

TEST(SpectralTracer, TiledBatchMatchesFullSolveBitwise) {
  // The service drains spectral scenes as DivQTileJob work units; any
  // tiling of a range through computeDivQBatch must reproduce the
  // whole-range band loop bitwise.
  SpectralHarness h(burnsChriston());
  TraceConfig cfg;
  cfg.nDivQRays = 8;
  cfg.seed = 5;
  SpectralTracer spectral(h.levels(), h.walls, cfg, threeband());
  const CellRange cells = h.grid->fineLevel().cells();

  CCVariable<double> whole(cells, 0.0);
  spectral.computeDivQ(cells, MutableFieldView<double>::fromHost(whole));

  CCVariable<double> tiled(cells, 0.0);
  const MutableFieldView<double> sink =
      MutableFieldView<double>::fromHost(tiled);
  std::vector<Tracer::DivQTileJob> jobs;
  for (const CellRange& tile : tileCells(cells, IntVector(5, 3, 7)))
    jobs.push_back(Tracer::DivQTileJob{nullptr, tile, sink, &spectral});
  ThreadPool pool(4);
  Tracer::computeDivQBatch(jobs, &pool);

  for (const auto& c : cells)
    ASSERT_EQ(whole[c], tiled[c]) << "cell " << c;
}

TEST(SpectralTracer, AdaptiveBudgetsPropagateThroughBands) {
  // Bands inherit the adaptive-ray knobs: the band loop traces fewer
  // rays than the fixed fan, and stays bitwise deterministic across
  // pool sizes.
  SpectralHarness h(burnsChriston());
  TraceConfig fixed;
  fixed.nDivQRays = 16;
  fixed.seed = 5;
  TraceConfig adaptive = fixed;
  adaptive.adaptiveRays = true;
  adaptive.nPilotRays = 4;
  adaptive.errorTarget = 0.05;
  const CellRange cells = h.grid->fineLevel().cells();

  SpectralTracer sf(h.levels(), h.walls, fixed, threeband());
  SpectralTracer sa(h.levels(), h.walls, adaptive, threeband());
  CCVariable<double> qf(cells, 0.0), qa(cells, 0.0);
  sf.computeDivQ(cells, MutableFieldView<double>::fromHost(qf));
  sa.computeDivQ(cells, MutableFieldView<double>::fromHost(qa));
  EXPECT_LT(sa.segmentCount(), sf.segmentCount());

  ThreadPool pool(3);
  CCVariable<double> qa2(cells, 0.0);
  sa.computeDivQ(cells, MutableFieldView<double>::fromHost(qa2), &pool);
  for (const auto& c : cells) ASSERT_EQ(qa[c], qa2[c]) << "cell " << c;
}

TEST(SpectralTracer, SharedPackAcrossBands) {
  // One record set serves every band: the three-band tracer's levels all
  // alias the same packed view (kappa scaling lives in the march), so
  // per-band memory is O(1), not O(bands).
  SpectralHarness h(burnsChriston());
  TraceConfig cfg;
  cfg.nDivQRays = 4;
  SpectralTracer spectral(h.levels(), h.walls, cfg, threeband());
  const PackedCell* base =
      spectral.bandTracer(0).levels()[0].packed.data();
  ASSERT_NE(base, nullptr);
  for (std::size_t b = 1; b < spectral.numBands(); ++b)
    EXPECT_EQ(spectral.bandTracer(b).levels()[0].packed.data(), base)
        << "band " << b << " packed its own copy";
}

TEST(SpectralTracer, BandCountScalesWork) {
  SpectralHarness h(burnsChriston());
  TraceConfig cfg;
  cfg.nDivQRays = 4;
  SpectralTracer one(h.levels(), h.walls, cfg, grayBand());
  SpectralTracer three(h.levels(), h.walls, cfg, threeband());
  EXPECT_EQ(one.numBands(), 1u);
  EXPECT_EQ(three.numBands(), 3u);
}

}  // namespace
}  // namespace rmcrt::core
