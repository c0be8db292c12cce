/// Determinism suite for the multithreaded tiled tracer: divQ must be
/// bitwise identical to the serial path for every thread count, tile
/// shape and patch decomposition (the property the paper's validation
/// rests on — the counter-based RNG fixes every ray by (seed, cell, ray)
/// alone), and boundaryFlux must agree with analytic wall limits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "grid/grid.h"
#include "grid/load_balancer.h"
#include "runtime/scheduler.h"
#include "util/thread_pool.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::CellType;
using grid::Grid;

struct Harness {
  std::shared_ptr<Grid> grid;
  CCVariable<double> abskg, sig;
  CCVariable<CellType> ct;
  WallProperties walls;

  Harness(const RadiationProblem& prob, int n)
      : grid(Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(n),
                                   IntVector(n))),
        abskg(grid->fineLevel().cells(), 0.0),
        sig(grid->fineLevel().cells(), 0.0),
        ct(grid->fineLevel().cells(), CellType::Flow),
        walls{prob.wallSigmaT4OverPi, prob.wallEmissivity} {
    initializeProperties(grid->fineLevel(), prob, abskg, sig, ct);
  }

  Tracer makeTracer(const TraceConfig& cfg) const {
    TraceLevel tl{LevelGeom::from(grid->fineLevel()),
                  RadiationFieldsView{FieldView<double>::fromHost(abskg),
                                      FieldView<double>::fromHost(sig),
                                      FieldView<CellType>::fromHost(ct)},
                  grid->fineLevel().cells()};
    return Tracer({tl}, walls, cfg);
  }

  CCVariable<double> solve(const TraceConfig& cfg,
                           ThreadPool* pool = nullptr) const {
    Tracer tracer = makeTracer(cfg);
    CCVariable<double> divQ(grid->fineLevel().cells(), 0.0);
    tracer.computeDivQ(grid->fineLevel().cells(),
                       MutableFieldView<double>::fromHost(divQ), pool);
    return divQ;
  }
};

TraceConfig smallCfg() {
  TraceConfig cfg;
  cfg.nDivQRays = 8;
  cfg.seed = 1234;
  return cfg;
}

void expectBitwiseEqual(const CCVariable<double>& a,
                        const CCVariable<double>& b) {
  for (const auto& c : a.window())
    ASSERT_EQ(a[c], b[c]) << "cell " << c;  // exact, not NEAR
}

TEST(TileCells, PartitionsExactly) {
  const CellRange r(IntVector(-2, 0, 3), IntVector(9, 7, 10));
  for (const IntVector& ts :
       {IntVector(4, 4, 4), IntVector(1, 16, 3), IntVector(64, 64, 64)}) {
    const auto tiles = tileCells(r, ts);
    std::int64_t covered = 0;
    for (const CellRange& t : tiles) {
      EXPECT_TRUE(r.contains(t));
      covered += t.volume();
    }
    EXPECT_EQ(covered, r.volume()) << "tile " << ts;
  }
  EXPECT_TRUE(tileCells(CellRange(), IntVector(4, 4, 4)).empty());
  // Degenerate tile sizes clamp to 1 instead of looping forever.
  EXPECT_EQ(tileCells(CellRange(IntVector(0), IntVector(2)), IntVector(0))
                .size(),
            8u);
}

TEST(Determinism, DivQBitwiseIdenticalAcrossThreadCounts) {
  Harness h(burnsChriston(), 16);
  const TraceConfig cfg = smallCfg();
  const CCVariable<double> serial = h.solve(cfg);
  for (int threads : {2, 3, 8}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    const CCVariable<double> threaded = h.solve(cfg, &pool);
    expectBitwiseEqual(serial, threaded);
  }
}

TEST(Determinism, DivQBitwiseIdenticalAcrossTileShapes) {
  Harness h(burnsChriston(), 16);
  const CCVariable<double> serial = h.solve(smallCfg());
  ThreadPool pool(4);
  for (const IntVector& ts :
       {IntVector(1, 16, 16), IntVector(4, 4, 4), IntVector(5, 3, 2),
        IntVector(16, 16, 16), IntVector(3, 64, 1)}) {
    TraceConfig cfg = smallCfg();
    cfg.tileSize = ts;
    const CCVariable<double> tiled = h.solve(cfg, &pool);
    expectBitwiseEqual(serial, tiled);
  }
}

TEST(Determinism, DivQIndependentOfPatchDecomposition) {
  Harness h(burnsChriston(), 16);
  const TraceConfig cfg = smallCfg();
  const CCVariable<double> whole = h.solve(cfg);

  // Same tracer, driven patch-by-patch over an uneven decomposition, with
  // and without a pool: each cell's rays depend only on (seed, cell, ray),
  // so the assembled field matches the whole-range solve bitwise.
  Tracer tracer = h.makeTracer(cfg);
  ThreadPool pool(3);
  const CellRange all = h.grid->fineLevel().cells();
  const std::vector<CellRange> patches = {
      CellRange(IntVector(0, 0, 0), IntVector(7, 16, 16)),
      CellRange(IntVector(7, 0, 0), IntVector(16, 5, 16)),
      CellRange(IntVector(7, 5, 0), IntVector(16, 16, 16))};
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    CCVariable<double> assembled(all, 0.0);
    std::int64_t covered = 0;
    for (const CellRange& patch : patches) {
      tracer.computeDivQ(patch, MutableFieldView<double>::fromHost(assembled),
                         p);
      covered += patch.volume();
    }
    ASSERT_EQ(covered, all.volume());
    expectBitwiseEqual(whole, assembled);
  }
}

TEST(Determinism, AdaptiveDivQBitwiseAcrossThreadsAndTiles) {
  // The variance-adaptive controller must inherit the full determinism
  // contract: a cell's budget is a pure function of (seed, cell), so any
  // thread count and tile shape reproduces the serial adaptive solve
  // bitwise.
  Harness h(burnsChriston(), 16);
  TraceConfig cfg = smallCfg();
  cfg.adaptiveRays = true;
  cfg.nPilotRays = 3;
  cfg.errorTarget = 0.05;
  const CCVariable<double> serial = h.solve(cfg);
  for (int threads : {2, 5}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    for (const IntVector& ts :
         {IntVector(4, 4, 4), IntVector(1, 16, 16), IntVector(5, 3, 2)}) {
      TraceConfig tiled = cfg;
      tiled.tileSize = ts;
      expectBitwiseEqual(serial, h.solve(tiled, &pool));
    }
  }
}

TEST(Determinism, SegmentCountIndependentOfThreadCount) {
  // Per-tile counters must aggregate to exactly the serial total — the
  // perf model is calibrated against this quantity.
  Harness h(burnsChriston(), 16);
  const TraceConfig cfg = smallCfg();
  Tracer tracer = h.makeTracer(cfg);
  CCVariable<double> divQ(h.grid->fineLevel().cells(), 0.0);
  tracer.computeDivQ(h.grid->fineLevel().cells(),
                     MutableFieldView<double>::fromHost(divQ));
  const std::uint64_t serialSegments = tracer.segmentCount();
  ASSERT_GT(serialSegments, 0u);
  for (int threads : {2, 8}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    tracer.resetSegmentCount();
    tracer.computeDivQ(h.grid->fineLevel().cells(),
                       MutableFieldView<double>::fromHost(divQ), &pool);
    EXPECT_EQ(tracer.segmentCount(), serialSegments);
  }
}

TEST(Determinism, BoundaryFluxPoolMatchesSerialBitwise) {
  Harness h(burnsChriston(), 16);
  TraceConfig cfg = smallCfg();
  Tracer tracer = h.makeTracer(cfg);
  ThreadPool pool(4);
  for (const auto& [cell, face] :
       std::vector<std::pair<IntVector, IntVector>>{
           {IntVector(0, 8, 8), IntVector(-1, 0, 0)},
           {IntVector(15, 3, 12), IntVector(1, 0, 0)},
           {IntVector(5, 0, 5), IntVector(0, -1, 0)}}) {
    const double serial = tracer.boundaryFlux(cell, face, 64);
    const double threaded = tracer.boundaryFlux(cell, face, 64, &pool);
    EXPECT_EQ(serial, threaded) << "face " << face;
  }
}

TEST(Determinism, ScheduledPipelineWithPoolMatchesSerialExactly) {
  // End-to-end plumbing: both ranks' trace tasks tile on the one pool
  // their shared setup names; the distributed result must still match
  // the pool-free serial solve bitwise.
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(4), IntVector(4));
  RmcrtSetup setup;
  setup.problem = burnsChriston();
  setup.trace.nDivQRays = 6;
  setup.trace.seed = 77;
  setup.trace.tileSize = IntVector(4, 4, 4);
  setup.roiHalo = 3;

  const RmcrtSetup serialSetup = setup;
  ThreadPool pool(4);
  setup.pool = &pool;
  const int numRanks = 2;
  auto lb = std::make_shared<grid::LoadBalancer>(*grid, numRanks);
  comm::Communicator world(numRanks);
  std::vector<std::unique_ptr<runtime::Scheduler>> scheds;
  for (int r = 0; r < numRanks; ++r)
    scheds.push_back(
        std::make_unique<runtime::Scheduler>(grid, lb, world, r));
  std::vector<std::thread> threads;
  for (int r = 0; r < numRanks; ++r) {
    threads.emplace_back([&, r] {
      RmcrtComponent::registerTwoLevelPipeline(*scheds[r], setup);
      scheds[r]->executeTimestep();
    });
  }
  for (auto& t : threads) t.join();

  const CCVariable<double> serial =
      RmcrtComponent::solveSerialTwoLevel(*grid, serialSetup);
  for (auto& s : scheds) {
    for (int pid : s->loadBalancer().patchesOf(s->rank(), *grid,
                                               grid->numLevels() - 1)) {
      const auto& divQ = s->newDW().get<double>(RmcrtLabels::divQ, pid);
      for (const auto& c : grid->patchById(pid)->cells())
        ASSERT_EQ(divQ[c], serial[c]) << "patch " << pid << " cell " << c;
    }
  }
}

TEST(BoundaryFlux, ColdWallLimitIsZero) {
  // Transparent medium, cold black walls: every ray reaches a wall with
  // zero emission, so the incident flux is exactly zero.
  RadiationProblem prob = uniformMedium(1e-12, 0.0);
  prob.wallSigmaT4OverPi = 0.0;
  Harness h(prob, 8);
  TraceConfig cfg;
  cfg.threshold = 1e-12;
  Tracer tracer = h.makeTracer(cfg);
  const double q =
      tracer.boundaryFlux(IntVector(0, 4, 4), IntVector(-1, 0, 0), 256);
  EXPECT_EQ(q, 0.0);
}

TEST(BoundaryFlux, HotWallLimitIsPiTimesIntensity) {
  // Transparent medium, hot black walls emitting sigmaT4/pi = 1/pi:
  // every ray carries exactly 1/pi, so flux = pi * (1/pi) = 1, jittered
  // origins or not.
  RadiationProblem prob = uniformMedium(1e-12, 0.0);
  prob.wallSigmaT4OverPi = 1.0 / M_PI;
  Harness h(prob, 8);
  TraceConfig cfg;
  cfg.threshold = 1e-12;
  Tracer tracer = h.makeTracer(cfg);
  const double q =
      tracer.boundaryFlux(IntVector(7, 4, 4), IntVector(1, 0, 0), 256);
  EXPECT_NEAR(q, 1.0, 1e-9);
}

TEST(BoundaryFlux, JitteredOriginsCoverTheFace) {
  // A hot slab hugging one half of the viewed face's cell column: rays
  // launched from the face center only would see a systematically
  // different solid angle than rays spread over the face. Check the
  // jittered estimator differs from the center-origin one (the bug was
  // jitterRayOrigin being ignored here) while both stay positive.
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                    IntVector(16));
  CCVariable<double> abskg(grid->fineLevel().cells(), 1e-6);
  CCVariable<double> sig(grid->fineLevel().cells(), 0.0);
  CCVariable<CellType> ct(grid->fineLevel().cells(), CellType::Flow);
  for (const auto& c : abskg.window()) {
    if (c.x() >= 14 && c.y() >= 8) {
      abskg[c] = 200.0;
      sig[c] = 1.0;
    }
  }
  TraceLevel tl{LevelGeom::from(grid->fineLevel()),
                RadiationFieldsView{FieldView<double>::fromHost(abskg),
                                    FieldView<double>::fromHost(sig),
                                    FieldView<CellType>::fromHost(ct)},
                grid->fineLevel().cells()};
  TraceConfig jittered;
  jittered.nDivQRays = 4;
  TraceConfig centered = jittered;
  centered.jitterRayOrigin = false;
  const IntVector cell(0, 8, 8), face(-1, 0, 0);
  const double qJit = Tracer({tl}, WallProperties{0.0, 1.0}, jittered)
                          .boundaryFlux(cell, face, 512);
  const double qCen = Tracer({tl}, WallProperties{0.0, 1.0}, centered)
                          .boundaryFlux(cell, face, 512);
  EXPECT_GT(qJit, 0.0);
  EXPECT_GT(qCen, 0.0);
  EXPECT_NE(qJit, qCen);
  // Both estimators agree on the physics to MC tolerance.
  EXPECT_NEAR(qJit, qCen, 0.5 * std::max(qJit, qCen));
}

}  // namespace
}  // namespace rmcrt::core
