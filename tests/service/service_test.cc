/// rmcrt::service::Service tests (DESIGN.md §16): cross-request batching
/// bitwise identical to the serial one-shot path under ≥8 concurrent
/// tenants, exactly one shared coarse upload per scene generation,
/// scene-generation invalidation (property update and regrid bump the
/// generation, evict the shared packed cache, and turn pinned stale
/// queries into typed errors — never stale data), banded scenes matching
/// the one-shot band loop, typed admission shedding and InvalidQuery
/// rejections with no deadlocks (this suite also runs under TSan in CI),
/// per-tenant metrics views, and the submitted == completed + rejected
/// reconciliation invariant.

#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault_injector.h"
#include "grid/grid.h"

namespace rmcrt::service {
namespace {

using core::RmcrtSetup;
using core::TraceConfig;

std::shared_ptr<const grid::Grid> makeScene(int fineEdge = 16) {
  // Patch sizes must divide the level extents (coarse edge = fineEdge/4).
  const int finePatch = std::min(8, fineEdge);
  const int coarsePatch = std::min(4, fineEdge / 4);
  return grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0),
                                  IntVector(fineEdge), IntVector(4),
                                  IntVector(finePatch),
                                  IntVector(coarsePatch));
}

RmcrtSetup makeSetup(int nRays = 4, std::uint64_t seed = 7) {
  RmcrtSetup setup;
  setup.problem = core::burnsChriston();
  setup.trace = TraceConfig{};
  setup.trace.nDivQRays = nRays;
  setup.trace.seed = seed;
  setup.roiHalo = 4;
  return setup;
}

/// Carve the fine level into one disjoint slab per tenant.
std::vector<CellRange> tenantSlabs(const grid::Grid& g, int nTenants) {
  const CellRange cells = g.fineLevel().cells();
  const int nx = cells.size().x();
  std::vector<CellRange> slabs;
  for (int t = 0; t < nTenants; ++t) {
    const int lo = cells.low().x() + t * nx / nTenants;
    const int hi = cells.low().x() + (t + 1) * nx / nTenants;
    slabs.push_back(CellRange(IntVector(lo, cells.low().y(), cells.low().z()),
                              IntVector(hi, cells.high().y(),
                                        cells.high().z())));
  }
  return slabs;
}

TEST(ServiceTest, ConcurrentTenantsBitwiseIdenticalToOneShot) {
  auto g = makeScene();
  const RmcrtSetup setup = makeSetup();
  Service svc;
  const SceneHandle h = svc.registerScene(g, setup);

  constexpr int kTenants = 8;
  const auto slabs = tenantSlabs(*g, kTenants);

  // All tenants submit concurrently from their own threads.
  std::vector<std::future<Outcome<DivQResult>>> futs(kTenants);
  {
    std::vector<std::thread> clients;
    for (int t = 0; t < kTenants; ++t) {
      clients.emplace_back([&, t] {
        futs[t] = svc.submitDivQ(DivQQuery{"tenant" + std::to_string(t),
                                           h.id, 0, slabs[t]});
      });
    }
    for (auto& c : clients) c.join();
  }

  for (int t = 0; t < kTenants; ++t) {
    Outcome<DivQResult> o = futs[t].get();
    ASSERT_TRUE(o.ok()) << toString(o.reject);
    EXPECT_EQ(o.value.generation, 1u);
    const DivQResult ref = Service::solveDivQOneShot(*g, setup, slabs[t]);
    ASSERT_EQ(o.value.divQ.size(), ref.divQ.size());
    for (std::size_t i = 0; i < ref.divQ.size(); ++i)
      ASSERT_EQ(o.value.divQ[i], ref.divQ[i])
          << "tenant " << t << " element " << i
          << ": batched result must be bitwise identical to one-shot";
  }

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kTenants));
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kTenants));
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_GT(st.tileJobs, 0u);
}

TEST(ServiceTest, ExactlyOneCoarseUploadPerGenerationUnderConcurrentLoad) {
  auto g = makeScene();
  Service svc;
  const SceneHandle h = svc.registerScene(g, makeSetup(2));
  const auto slabs = tenantSlabs(*g, 8);

  auto floodOnce = [&] {
    std::vector<std::future<Outcome<DivQResult>>> futs;
    std::vector<std::thread> clients;
    std::mutex mu;
    for (int t = 0; t < 8; ++t) {
      clients.emplace_back([&, t] {
        for (int rep = 0; rep < 3; ++rep) {
          auto f = svc.submitDivQ(DivQQuery{
              std::string("t").append(std::to_string(t)), h.id, 0, slabs[t]});
          std::lock_guard<std::mutex> lk(mu);
          futs.push_back(std::move(f));
        }
      });
    }
    for (auto& c : clients) c.join();
    for (auto& f : futs) ASSERT_TRUE(f.get().ok());
  };

  floodOnce();
  EXPECT_EQ(svc.stats().coarseUploads, 1u)
      << "24 concurrent queries on one generation must share ONE upload";

  // A property update bumps the generation; the next load re-uploads
  // exactly once more.
  const auto upd = svc.updateProperties(h.id, core::syntheticBoiler());
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd.value.generation, 2u);
  floodOnce();
  EXPECT_EQ(svc.stats().coarseUploads, 2u);
  EXPECT_EQ(svc.stats().generationEvictions, 1u);
}

TEST(ServiceTest, PropertyUpdateInvalidatesAndRejectsPinnedStaleQueries) {
  auto g = makeScene();
  const RmcrtSetup setup = makeSetup();
  Service svc;
  const SceneHandle h = svc.registerScene(g, setup);

  // Warm generation 1.
  const auto slab = tenantSlabs(*g, 4)[0];
  ASSERT_TRUE(svc.submitDivQ(DivQQuery{"a", h.id, h.generation, slab})
                  .get()
                  .ok());

  const auto upd = svc.updateProperties(h.id, core::syntheticBoiler());
  ASSERT_TRUE(upd.ok());

  // Pinned to the evicted generation: typed error, not stale data.
  Outcome<DivQResult> stale =
      svc.submitDivQ(DivQQuery{"a", h.id, h.generation, slab}).get();
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.reject, RejectReason::StaleGeneration);
  EXPECT_TRUE(stale.value.divQ.empty()) << "no data rides on a rejection";

  // Unpinned (latest) queries are served by generation 2 and match a
  // one-shot solve of the UPDATED scene.
  RmcrtSetup updated = setup;
  updated.problem = core::syntheticBoiler();
  Outcome<DivQResult> fresh =
      svc.submitDivQ(DivQQuery{"a", h.id, 0, slab}).get();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value.generation, 2u);
  const DivQResult ref = Service::solveDivQOneShot(*g, updated, slab);
  for (std::size_t i = 0; i < ref.divQ.size(); ++i)
    ASSERT_EQ(fresh.value.divQ[i], ref.divQ[i]);
}

TEST(ServiceTest, RegridBumpsGenerationAndServesTheNewGrid) {
  auto g = makeScene(16);
  const RmcrtSetup setup = makeSetup();
  Service svc;
  const SceneHandle h = svc.registerScene(g, setup);
  const auto slab = tenantSlabs(*g, 4)[1];
  ASSERT_TRUE(svc.submitDivQ(DivQQuery{"a", h.id, 1, slab}).get().ok());
  const std::uint64_t uploadsBefore = svc.stats().coarseUploads;

  auto g2 = makeScene(8);  // regrid to a coarser fine level
  const auto re = svc.regrid(h.id, g2);
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(re.value.generation, 2u);

  // The pre-regrid generation is gone.
  Outcome<DivQResult> stale = svc.submitDivQ(DivQQuery{"a", h.id, 1, slab})
                                  .get();
  EXPECT_EQ(stale.reject, RejectReason::StaleGeneration);

  // Queries against the new grid rebuild shared state (one more upload)
  // and match the one-shot solve on the new grid.
  const CellRange newSlab = tenantSlabs(*g2, 4)[1];
  Outcome<DivQResult> fresh =
      svc.submitDivQ(DivQQuery{"a", h.id, 0, newSlab}).get();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(svc.stats().coarseUploads, uploadsBefore + 1);
  const DivQResult ref = Service::solveDivQOneShot(*g2, setup, newSlab);
  for (std::size_t i = 0; i < ref.divQ.size(); ++i)
    ASSERT_EQ(fresh.value.divQ[i], ref.divQ[i]);
}

TEST(ServiceTest, AdmissionShedsWithTypedRejectionsAndRecovers) {
  ServiceConfig cfg;
  cfg.admission.maxQueueDepth = 3;
  cfg.admission.maxPerTenant = 1;
  Service svc(cfg);
  auto g = makeScene();
  const SceneHandle h = svc.registerScene(g, makeSetup(2));
  const auto slab = tenantSlabs(*g, 4)[0];

  svc.pause();  // deterministic queue buildup
  auto f1 = svc.submitDivQ(DivQQuery{"flood", h.id, 0, slab});
  auto f2 = svc.submitDivQ(DivQQuery{"flood", h.id, 0, slab});
  auto f3 = svc.submitDivQ(DivQQuery{"polite", h.id, 0, slab});
  auto f4 = svc.submitDivQ(DivQQuery{"calm", h.id, 0, slab});
  auto f5 = svc.submitDivQ(DivQQuery{"late", h.id, 0, slab});

  // Tenant cap sheds the flooder's second request immediately...
  Outcome<DivQResult> shed = f2.get();
  EXPECT_EQ(shed.reject, RejectReason::TenantBacklog);
  // ...and the global depth cap sheds the 4th distinct tenant.
  Outcome<DivQResult> full = f5.get();
  EXPECT_EQ(full.reject, RejectReason::QueueFull);

  svc.resume();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f3.get().ok());
  EXPECT_TRUE(f4.get().ok());

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 5u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.rejected, 2u);
  EXPECT_EQ(st.submitted, st.completed + st.rejected)
      << "reconciliation: nothing lost, nothing double-counted";
  EXPECT_EQ(st.admission.inFlight, 0u);
}

TEST(ServiceTest, UnknownSceneAndShutdownAreTypedErrors) {
  Service svc;
  Outcome<DivQResult> bad =
      svc.submitDivQ(DivQQuery{"a", 42, 0, CellRange(IntVector(0),
                                                     IntVector(4))})
          .get();
  EXPECT_EQ(bad.reject, RejectReason::UnknownScene);
  EXPECT_EQ(svc.updateProperties(7, core::burnsChriston()).reject,
            RejectReason::UnknownScene);

  svc.shutdown();
  Outcome<DivQResult> dead =
      svc.submitDivQ(DivQQuery{"a", 0, 0, CellRange(IntVector(0),
                                                    IntVector(4))})
          .get();
  EXPECT_EQ(dead.reject, RejectReason::ShuttingDown);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, st.completed + st.rejected);
}

TEST(ServiceTest, ShutdownRejectsQueuedRequestsInsteadOfLosingThem) {
  Service svc;
  auto g = makeScene();
  const SceneHandle h = svc.registerScene(g, makeSetup(2));
  const auto slab = tenantSlabs(*g, 4)[2];
  svc.pause();
  auto f1 = svc.submitDivQ(DivQQuery{"a", h.id, 0, slab});
  auto f2 = svc.submitDivQ(DivQQuery{"b", h.id, 0, slab});
  svc.shutdown();
  EXPECT_EQ(f1.get().reject, RejectReason::ShuttingDown);
  EXPECT_EQ(f2.get().reject, RejectReason::ShuttingDown);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.rejected, 2u);
  EXPECT_EQ(st.admission.inFlight, 0u) << "shed requests release slots";
}

TEST(ServiceTest, FluxAndRadiometerMatchOneShotAndShareTheBatch) {
  auto g = makeScene();
  const RmcrtSetup setup = makeSetup(4);
  Service svc;
  const SceneHandle h = svc.registerScene(g, setup);

  const CellRange fine = g->fineLevel().cells();
  FluxQuery fq;
  fq.tenant = "wall-watcher";
  fq.scene = h.id;
  fq.faces = {{IntVector(0, 8, 8), IntVector(-1, 0, 0)},
              {IntVector(15, 8, 8), IntVector(1, 0, 0)}};
  fq.nRays = 16;

  RadiometerQuery rq;
  rq.tenant = "instrument";
  rq.scene = h.id;
  rq.spec.position = Vector(0.5, 0.5, 0.1);
  rq.spec.viewDirection = Vector(0.0, 0.0, 1.0);
  rq.spec.nRays = 32;

  DivQQuery dq{"solver", h.id, 0, tenantSlabs(*g, 4)[3]};

  // All three query kinds ride one batch.
  svc.pause();
  auto ff = svc.submitBoundaryFlux(fq);
  auto rf = svc.submitRadiometer(rq);
  auto df = svc.submitDivQ(dq);
  svc.resume();

  Outcome<FluxResult> fo = ff.get();
  ASSERT_TRUE(fo.ok());
  const FluxResult fref = Service::solveFluxOneShot(*g, setup, fq.faces, 16);
  ASSERT_EQ(fo.value.fluxes.size(), 2u);
  EXPECT_EQ(fo.value.fluxes[0], fref.fluxes[0]);
  EXPECT_EQ(fo.value.fluxes[1], fref.fluxes[1]);
  EXPECT_GT(fo.value.fluxes[0], 0.0) << "emitting medium: flux onto wall";

  Outcome<RadiometerResult> ro = rf.get();
  ASSERT_TRUE(ro.ok());
  const RadiometerResult rref = Service::solveRadiometerOneShot(*g, setup,
                                                                rq.spec);
  EXPECT_EQ(ro.value.reading.flux, rref.reading.flux);
  EXPECT_EQ(ro.value.reading.meanIntensity, rref.reading.meanIntensity);

  ASSERT_TRUE(df.get().ok());
  (void)fine;
}

TEST(ServiceTest, ThreeBandSceneMatchesOneShotBitwise) {
  auto g = makeScene();
  RmcrtSetup setup = makeSetup(2);
  setup.trace.bands = core::threeband();
  Service svc;
  const SceneHandle h = svc.registerScene(g, setup);
  const auto slabs = tenantSlabs(*g, 4);

  std::vector<std::future<Outcome<DivQResult>>> futs;
  svc.pause();  // every band tile of every tenant rides one drain
  for (int t = 0; t < 4; ++t)
    futs.push_back(svc.submitDivQ(DivQQuery{
        std::string("t").append(std::to_string(t)), h.id, 0, slabs[t]}));
  svc.resume();

  RmcrtSetup gray = setup;
  gray.trace.bands = core::grayBand();
  for (int t = 0; t < 4; ++t) {
    Outcome<DivQResult> o = futs[t].get();
    ASSERT_TRUE(o.ok()) << toString(o.reject);
    const DivQResult ref = Service::solveDivQOneShot(*g, setup, slabs[t]);
    ASSERT_EQ(o.value.divQ.size(), ref.divQ.size());
    for (std::size_t i = 0; i < ref.divQ.size(); ++i)
      ASSERT_EQ(o.value.divQ[i], ref.divQ[i])
          << "tenant " << t << " element " << i;
    EXPECT_NE(o.value.divQ, Service::solveDivQOneShot(*g, gray, slabs[t]).divQ)
        << "the band model must change the answer";
  }
  EXPECT_EQ(svc.stats().coarseUploads, 1u)
      << "bands alias the scene's one coarse upload";
}

/// The pending outcome \p f must be a typed InvalidQuery rejection.
template <typename Fut>
void expectInvalid(Fut&& f, const std::string& what) {
  EXPECT_EQ(f.get().reject, RejectReason::InvalidQuery) << what;
}

/// The rejections reconcile and release every admission slot.
void expectReconciled(const Service& svc, std::uint64_t rejected) {
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.rejected, rejected);
  EXPECT_EQ(st.submitted, st.completed + st.rejected);
  EXPECT_EQ(st.admission.inFlight, 0u);
}

TEST(ServiceTest, InvalidDivQCellsAreTypedRejections) {
  auto g = makeScene(16);
  Service svc;
  const SceneHandle h = svc.registerScene(g, makeSetup(2));
  const CellRange inside(IntVector(8, 0, 0), IntVector(12, 16, 16));

  svc.pause();  // the bad queries share a drain with a good one
  auto empty = svc.submitDivQ(
      DivQQuery{"a", h.id, 0, CellRange(IntVector(4), IntVector(4))});
  auto inverted = svc.submitDivQ(
      DivQQuery{"a", h.id, 0, CellRange(IntVector(8), IntVector(4))});
  auto pastEdge = svc.submitDivQ(DivQQuery{
      "a", h.id, 0, CellRange(IntVector(12, 0, 0), IntVector(20, 16, 16))});
  auto good = svc.submitDivQ(DivQQuery{"b", h.id, 0, inside});
  svc.resume();
  expectInvalid(empty, "empty range");
  expectInvalid(inverted, "inverted range");
  expectInvalid(pastEdge, "range past the fine level");
  ASSERT_TRUE(good.get().ok()) << "one bad tenant must not sink the batch";

  // Valid at submit, invalid once a regrid shrinks the fine level before
  // the drain: the check runs against the serving generation's grid.
  svc.pause();
  auto shrunk = svc.submitDivQ(DivQQuery{"a", h.id, 0, inside});
  ASSERT_TRUE(svc.regrid(h.id, makeScene(8)).ok());
  svc.resume();
  expectInvalid(shrunk, "range outside the regridded fine level");

  expectReconciled(svc, 4);
  EXPECT_STREQ(toString(RejectReason::InvalidQuery), "invalid_query");
}

TEST(ServiceTest, InvalidFluxFacesAreTypedRejections) {
  auto g = makeScene(16);
  Service svc;
  const SceneHandle h = svc.registerScene(g, makeSetup(2));
  const auto flux = [&](IntVector cell, IntVector face) {
    return svc.submitBoundaryFlux(FluxQuery{"a", h.id, 0, {{cell, face}}, 8});
  };
  expectInvalid(flux(IntVector(16, 8, 8), IntVector(1, 0, 0)),
                "cell outside the fine level");
  expectInvalid(flux(IntVector(0, 8, 8), IntVector(0, 0, 0)), "zero face");
  expectInvalid(flux(IntVector(0, 8, 8), IntVector(-1, 1, 0)),
                "diagonal face");
  expectInvalid(flux(IntVector(0, 8, 8), IntVector(-2, 0, 0)),
                "non-unit face");
  Outcome<FluxResult> good =
      flux(IntVector(0, 8, 8), IntVector(-1, 0, 0)).get();
  ASSERT_TRUE(good.ok());
  EXPECT_GT(good.value.fluxes.at(0), 0.0);
  expectReconciled(svc, 4);
}

TEST(ServiceTest, InvalidRadiometersAreTypedRejections) {
  auto g = makeScene(16);
  Service svc;
  const SceneHandle h = svc.registerScene(g, makeSetup(2));
  const auto radiometer = [&](Vector position, int nRays) {
    RadiometerQuery q{"a", h.id, 0, {}};
    q.spec.position = position;
    q.spec.viewDirection = Vector(0.0, 0.0, 1.0);
    q.spec.nRays = nRays;
    return svc.submitRadiometer(q);
  };
  const Vector inside(0.5, 0.5, 0.1);
  expectInvalid(radiometer(inside, 0), "no rays");
  expectInvalid(radiometer(inside, -3), "negative rays");
  expectInvalid(radiometer(Vector(0.5, 1.5, 0.1), 16), "outside the domain");
  expectInvalid(radiometer(Vector(0.5, std::nan(""), 0.1), 16),
                "NaN position");

  // A cone that yields NaN flux: no axis, a non-finite axis, or a
  // half-angle outside (0, pi].
  const auto cone = [&](Vector view, double halfAngle) {
    RadiometerQuery q{"a", h.id, 0, {}};
    q.spec.position = inside;
    q.spec.viewDirection = view;
    q.spec.halfAngleRadians = halfAngle;
    q.spec.nRays = 16;
    return svc.submitRadiometer(q);
  };
  const Vector up(0.0, 0.0, 1.0);
  const double inf = std::numeric_limits<double>::infinity();
  expectInvalid(cone(Vector(0.0, 0.0, 0.0), 0.2), "zero view direction");
  expectInvalid(cone(Vector(0.0, std::nan(""), 1.0), 0.2),
                "NaN view direction");
  expectInvalid(cone(Vector(inf, 0.0, 0.0), 0.2), "infinite view direction");
  expectInvalid(cone(up, 0.0), "zero half-angle");
  expectInvalid(cone(up, -0.1), "negative half-angle");
  expectInvalid(cone(up, M_PI + 1e-9), "half-angle past pi");
  expectInvalid(cone(up, std::nan("")), "NaN half-angle");
  expectInvalid(cone(up, inf), "infinite half-angle");
  const Outcome<RadiometerResult> wide = cone(up, M_PI).get();
  ASSERT_TRUE(wide.ok()) << "a full-sphere cone is a real instrument";
  EXPECT_TRUE(std::isfinite(wide.value.reading.flux));

  ASSERT_TRUE(radiometer(inside, 16).get().ok());
  expectReconciled(svc, 12);
}

TEST(ServiceTest, RegisterSceneRejectsInvalidSetup) {
  // A setup the tracer cannot run is refused where it is supplied, with
  // a typed exception to the caller: a scene that registered could
  // otherwise fail on the batcher thread and take the process down.
  auto g = makeScene(16);
  Service svc;
  const auto rejects = [&](RmcrtSetup setup, const std::string& what) {
    EXPECT_THROW(svc.registerScene(g, setup), std::invalid_argument) << what;
  };
  RmcrtSetup bad = makeSetup(2);
  bad.trace.nDivQRays = 0;
  rejects(bad, "no divQ rays");
  bad = makeSetup(2);
  bad.trace.nFluxRays = -1;
  rejects(bad, "negative flux rays");
  bad = makeSetup(2);
  bad.trace.bands = {};
  rejects(bad, "empty band model");
  bad = makeSetup(2);
  bad.trace.bands = core::threeband();
  bad.trace.bands[1].weight = std::nan("");
  rejects(bad, "NaN band weight");
  bad = makeSetup(2);
  bad.trace.bands = {core::SpectralBand{1.0, 0.0}};
  rejects(bad, "zero kappa scale");
  bad = makeSetup(2);
  bad.roiHalo = -6;
  rejects(bad, "negative ROI halo");

  // Nothing was registered, and the service still answers a good scene.
  const CellRange cells(IntVector(0), IntVector(2));
  EXPECT_EQ(svc.submitDivQ(DivQQuery{"a", 0, 0, cells}).get().reject,
            RejectReason::UnknownScene);
  const SceneHandle h = svc.registerScene(g, makeSetup(2));
  Outcome<DivQResult> o = svc.submitDivQ(DivQQuery{"a", h.id, 0, cells}).get();
  ASSERT_TRUE(o.ok()) << toString(o.reject);
  EXPECT_EQ(o.value.divQ,
            Service::solveDivQOneShot(*g, makeSetup(2), cells).divQ);
}

TEST(ServiceTest, PerTenantMetricsViewsCarryTheSplit) {
  auto g = makeScene();
  Service svc;
  const SceneHandle h = svc.registerScene(g, makeSetup(2));
  const auto slab = tenantSlabs(*g, 4)[0];
  ASSERT_TRUE(svc.submitDivQ(DivQQuery{"alice", h.id, 0, slab}).get().ok());
  ASSERT_TRUE(svc.submitDivQ(DivQQuery{"alice", h.id, 0, slab}).get().ok());
  EXPECT_EQ(svc.submitDivQ(DivQQuery{"bob", 99, 0, slab}).get().reject,
            RejectReason::UnknownScene);

  auto alice = svc.metrics().view("service.tenant.alice").snapshot();
  const auto* aSub = alice.find("service.tenant.alice.submitted");
  const auto* aDone = alice.find("service.tenant.alice.completed");
  ASSERT_NE(aSub, nullptr);
  ASSERT_NE(aDone, nullptr);
  EXPECT_EQ(aSub->value, 2.0);
  EXPECT_EQ(aDone->value, 2.0);
  EXPECT_EQ(alice.find("service.tenant.bob.submitted"), nullptr);

  auto bob = svc.metrics().view("service.tenant.bob").snapshot();
  const auto* bRej = bob.find("service.tenant.bob.rejected");
  ASSERT_NE(bRej, nullptr);
  EXPECT_EQ(bRej->value, 1.0);

  // Latency estimator published after completions.
  const ServiceStats st = svc.stats();
  EXPECT_GT(st.p50Ms, 0.0);
  EXPECT_GE(st.p99Ms, st.p50Ms * 0.5);
}

TEST(ServiceTest, FaultInjectedSubmissionsStillReconcileExactly) {
  ServiceConfig cfg;
  cfg.injector = std::make_shared<comm::FaultInjector>(1234);
  comm::FaultProbabilities p;
  p.drop = 0.2;
  p.delay = 0.2;
  p.duplicate = 0.1;
  p.reorder = 0.1;
  p.delayMinMs = 0.05;
  p.delayMaxMs = 0.2;
  cfg.injector->setDefaultProbabilities(p);
  Service svc(cfg);
  auto g = makeScene();
  const SceneHandle h = svc.registerScene(g, makeSetup(2));
  const auto slabs = tenantSlabs(*g, 4);

  std::vector<std::thread> clients;
  std::vector<std::future<Outcome<DivQResult>>> futs(24);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int rep = 0; rep < 6; ++rep)
        futs[t * 6 + rep] = svc.submitDivQ(DivQQuery{
            std::string("t").append(std::to_string(t)), h.id, 0, slabs[t]});
    });
  }
  for (auto& c : clients) c.join();
  for (auto& f : futs) ASSERT_TRUE(f.get().ok());

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 24u);
  EXPECT_EQ(st.submitted, st.completed + st.rejected)
      << "drops retransmit and duplicates dedup: nothing lost or doubled";
  EXPECT_GT(st.faultsRetransmitted + st.faultsDelayed +
                st.faultsDeduplicated + st.faultsReordered,
            0u)
      << "with these probabilities over 24 sends, some fault must fire";
}

}  // namespace
}  // namespace rmcrt::service
