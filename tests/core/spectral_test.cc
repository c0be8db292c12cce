/// The spectral band loop (DESIGN.md §17): TraceConfig::bands turns
/// Tracer::computeDivQ into a weighted sum of gray-gas bands, each
/// marching the same packed records with its kappa scale and its own
/// seed. The suites keep their historical names: BandModel covers the
/// band-model helpers, SpectralTracer the band loop itself.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/problems.h"
#include "core/ray_tracer.h"
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

  /// divQ over \p cells traced with \p cfg (its band model included).
  CCVariable<double> divQ(const TraceConfig& cfg,
                          const CellRange& cells) const {
    Tracer tracer(levels(), walls, cfg);
    CCVariable<double> q(cells, 0.0);
    tracer.computeDivQ(cells, MutableFieldView<double>::fromHost(q));
    return q;
  }
};

TraceConfig withBands(TraceConfig cfg, BandModel bands) {
  cfg.bands = std::move(bands);
  return cfg;
}

/// Band \p b of \p bands alone: a one-band {1, s_b} model on band b's
/// seed traces exactly the rays band b traces inside the band loop.
TraceConfig bandAlone(TraceConfig cfg, const BandModel& bands,
                      std::size_t b) {
  cfg.seed += kBandSeedStride * b;
  cfg.bands = {SpectralBand{1.0, bands[b].kappaScale}};
  return cfg;
}

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
  // One gray band {1, 1} — the default band model — is the gray solver
  // bit for bit: divQ = 4*pi*kappa*(S - meanI) with meanI the gray-mean
  // fan on `seed`.
  SpectralHarness h(burnsChriston());
  TraceConfig cfg = withBands(TraceConfig{}, {SpectralBand{1.0, 1.0}});
  cfg.nDivQRays = 16;
  cfg.seed = 9;
  EXPECT_EQ(TraceConfig{}.bands.size(), 1u);
  const CellRange cells = h.grid->fineLevel().cells();
  const CCVariable<double> banded = h.divQ(cfg, cells);
  const Tracer gray(h.levels(), h.walls, cfg);
  for (const auto& c : cells)
    ASSERT_EQ(banded[c], 4.0 * M_PI * h.abskg[c] *
                             (h.sig[c] - gray.meanIncomingIntensity(c)))
        << "cell " << c;
}

TEST(SpectralTracer, EquilibriumStillZero) {
  // Radiative equilibrium holds band by band (each band sees a uniform
  // medium with matching hot walls), so spectral divQ is also zero.
  SpectralHarness h(uniformMedium(4.0, 1.0));
  TraceConfig cfg;
  cfg.nDivQRays = 8;
  cfg.threshold = 1e-12;
  const CCVariable<double> q =
      h.divQ(withBands(cfg, threeband()), h.grid->fineLevel().cells());
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

  const IntVector center(8, 8, 8);
  const CellRange one(center, center + IntVector(1));
  const double spectralQ = h.divQ(withBands(cfg, threeband()), one)[center];
  const double grayQ = h.divQ(cfg, one)[center];
  EXPECT_GT(spectralQ, grayQ * 1.1)
      << "the transparent band must enhance net loss at the center";
}

TEST(SpectralTracer, BandIntensitiesOrderedByOpacity) {
  // Cold walls: the more transparent a band, the less of the medium's
  // emission reaches the detector (shorter emitting paths + wall escape),
  // so band intensity increases with kappa scale. Band b's mean incoming
  // intensity follows from its own divQ, q_b = 4*pi*kappa*s_b*(S - I_b).
  SpectralHarness h(uniformMedium(8.0, 1.0), 16);
  h.walls.sigmaT4OverPi = 0.0;
  TraceConfig cfg;
  cfg.nDivQRays = 400;
  cfg.threshold = 1e-9;
  const BandModel bands = threeband();
  const IntVector center(8, 8, 8);
  const CellRange one(center, center + IntVector(1));
  std::vector<double> I;
  for (std::size_t b = 0; b < bands.size(); ++b) {
    const double q = h.divQ(bandAlone(cfg, bands, b), one)[center];
    I.push_back(h.sig[center] -
                q / (4.0 * M_PI * h.abskg[center] * bands[b].kappaScale));
  }
  EXPECT_LT(I[0], I[1]);  // window < moderate
  EXPECT_LT(I[1], I[2]);  // moderate < strong
}

TEST(SpectralTracer, TiledBatchMatchesFullSolveBitwise) {
  // The service drains banded scenes as DivQTileJob work units; any
  // tiling of a range through computeDivQBatch must reproduce the
  // whole-range band loop bitwise.
  SpectralHarness h(burnsChriston());
  TraceConfig cfg = withBands(TraceConfig{}, threeband());
  cfg.nDivQRays = 8;
  cfg.seed = 5;
  Tracer tracer(h.levels(), h.walls, cfg);
  const CellRange cells = h.grid->fineLevel().cells();

  CCVariable<double> whole(cells, 0.0);
  tracer.computeDivQ(cells, MutableFieldView<double>::fromHost(whole));

  CCVariable<double> tiled(cells, 0.0);
  const MutableFieldView<double> sink =
      MutableFieldView<double>::fromHost(tiled);
  std::vector<Tracer::DivQTileJob> jobs;
  for (const CellRange& tile : tileCells(cells, IntVector(5, 3, 7)))
    jobs.push_back(Tracer::DivQTileJob{&tracer, tile, sink});
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
  TraceConfig fixed = withBands(TraceConfig{}, threeband());
  fixed.nDivQRays = 16;
  fixed.seed = 5;
  TraceConfig adaptive = fixed;
  adaptive.adaptiveRays = true;
  adaptive.nPilotRays = 4;
  adaptive.errorTarget = 0.05;
  const CellRange cells = h.grid->fineLevel().cells();

  Tracer tf(h.levels(), h.walls, fixed);
  Tracer ta(h.levels(), h.walls, adaptive);
  CCVariable<double> qf(cells, 0.0), qa(cells, 0.0);
  tf.computeDivQ(cells, MutableFieldView<double>::fromHost(qf));
  ta.computeDivQ(cells, MutableFieldView<double>::fromHost(qa));
  EXPECT_LT(ta.segmentCount(), tf.segmentCount());

  ThreadPool pool(3);
  CCVariable<double> qa2(cells, 0.0);
  ta.computeDivQ(cells, MutableFieldView<double>::fromHost(qa2), &pool);
  for (const auto& c : cells) ASSERT_EQ(qa[c], qa2[c]) << "cell " << c;
}

TEST(SpectralTracer, BandCountScalesWork) {
  // The band loop is exactly its bands traced one at a time: K bands
  // march the segments of the K one-band solves on the band seeds, and
  // divQ is their a_b-weighted fold in band order, bitwise.
  SpectralHarness h(burnsChriston());
  TraceConfig cfg;
  cfg.nDivQRays = 4;
  cfg.seed = 3;
  const BandModel bands = threeband();
  const CellRange cells = h.grid->fineLevel().cells();

  Tracer banded(h.levels(), h.walls, withBands(cfg, bands));
  CCVariable<double> q(cells, 0.0);
  banded.computeDivQ(cells, MutableFieldView<double>::fromHost(q));

  CCVariable<double> folded(cells, 0.0);
  std::uint64_t segments = 0;
  for (std::size_t b = 0; b < bands.size(); ++b) {
    Tracer one(h.levels(), h.walls, bandAlone(cfg, bands, b));
    CCVariable<double> qb(cells, 0.0);
    one.computeDivQ(cells, MutableFieldView<double>::fromHost(qb));
    segments += one.segmentCount();
    for (const auto& c : cells)
      folded[c] = b == 0 ? bands[b].weight * qb[c]
                         : folded[c] + bands[b].weight * qb[c];
  }
  EXPECT_EQ(banded.segmentCount(), segments);
  for (const auto& c : cells) ASSERT_EQ(q[c], folded[c]) << "cell " << c;
}

}  // namespace
}  // namespace rmcrt::core
