/// \file bench_service.cc
/// Radiation-as-a-service load generator (DESIGN.md §16): N tenant
/// threads flood one registered scene with a mixed divQ / boundary-flux /
/// radiometer query stream against the batched service (cross-request
/// tile coalescing, one shared coarse upload per generation). Emits
/// BENCH_service.json with queries/s and the streaming p50/p99 latency
/// plus a bitwise accuracy verdict (every response compared element-wise
/// against Service::solve*OneShot on the same query), gated in CI by
/// tools/check_bench_regression.py --mode service.
///
///   --smoke        small scene + short stream (CI smoke / soak mode)
///   --json=<path>  output path (default BENCH_service.json)
///   --chaos        run an additional fault-injected soak against the
///                  batched service: lossy submit transport, tight
///                  admission caps, concurrent property updates — then
///                  assert the submitted == completed + rejected
///                  reconciliation invariant (exit 1 on violation)
///   --tenants=N / --queries=N  override the stream shape

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault_injector.h"
#include "core/problems.h"
#include "grid/grid.h"
#include "service/service.h"
#include "util/timers.h"

namespace {

using namespace rmcrt;
using namespace rmcrt::service;

struct LoadShape {
  int fineEdge = 32;
  int nRays = 8;
  int tenants = 8;
  int queriesPerTenant = 24;
  int fluxRays = 16;
  int radiometerRays = 32;
};

std::shared_ptr<const grid::Grid> makeScene(int fineEdge) {
  return grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0),
                                  IntVector(fineEdge), IntVector(4),
                                  IntVector(std::min(8, fineEdge)),
                                  IntVector(std::min(4, fineEdge / 4)));
}

core::RmcrtSetup makeSetup(int nRays) {
  core::RmcrtSetup setup;
  setup.problem = core::burnsChriston();
  setup.trace.nDivQRays = nRays;
  setup.trace.seed = 71;
  setup.roiHalo = 4;
  return setup;
}

/// Deterministic query mix for tenant t, sequence j. Every response is
/// stored at slot t*Q+j so it compares element-wise against the one-shot
/// answer to the same plan no matter what order the service drained it in.
struct QueryPlan {
  enum class Kind { DivQ, Flux, Radiometer };
  Kind kind = Kind::DivQ;
  CellRange cells;                                      // DivQ
  std::vector<std::pair<IntVector, IntVector>> faces;   // Flux
  core::RadiometerSpec spec;                            // Radiometer
};

QueryPlan planQuery(const grid::Grid& grid, const LoadShape& shape, int t,
                    int j) {
  const CellRange fine = grid.fineLevel().cells();
  const IntVector lo = fine.low();
  const IntVector hi = fine.high();
  const int edge = hi.x() - lo.x();
  QueryPlan q;
  // Probe-heavy mix — a service's bread-and-butter stream is sensor
  // reads (radiometer cones, wall-flux probes) punctuated by field
  // queries (divQ slabs). Small per-request trace work against a large
  // shared scene is exactly the regime cross-request batching exists
  // for: one shared pack and upload instead of one per probe.
  const int phase = j % 8;
  if (phase == 0 || phase == 4) {
    // Thin x-slab of divQ marching across the domain.
    const int w = 1;
    const int x0 = lo.x() + (t + j * 3) % (edge - w + 1);
    q.cells = CellRange(IntVector(x0, lo.y(), lo.z()),
                        IntVector(x0 + w, hi.y(), hi.z()));
  } else if (phase == 2 || phase == 6) {
    q.kind = QueryPlan::Kind::Flux;
    // Four cells along the y=0 wall, stepping with (t, j) so tenants
    // probe different footprints.
    for (int k = 0; k < 4; ++k) {
      const int x = lo.x() + (t * 3 + j + k * 5) % edge;
      const int z = lo.z() + (t * 7 + j * 2 + k) % edge;
      q.faces.emplace_back(IntVector(x, lo.y(), z), IntVector(0, -1, 0));
    }
  } else {
    q.kind = QueryPlan::Kind::Radiometer;
    q.spec.position = Vector(0.2 + 0.07 * (t % 8), 0.35, 0.3 + 0.05 * (j % 9));
    q.spec.viewDirection = Vector(0.0, 0.0, 1.0);
    q.spec.halfAngleRadians = 0.2;
    q.spec.nRays = shape.radiometerRays;
  }
  return q;
}

struct LoadRun {
  double wallSeconds = 0.0;
  ServiceStats stats;
  /// One slot per (tenant, sequence): divQ vector, flux vector, or the
  /// single radiometer mean — whichever the plan asked for.
  std::vector<std::vector<double>> responses;
  bool allOk = true;
};

LoadRun runLoad(const grid::Grid& grid, std::shared_ptr<const grid::Grid> gp,
                const core::RmcrtSetup& setup, const LoadShape& shape) {
  ServiceConfig cfg;
  cfg.workers = std::max(2u, std::thread::hardware_concurrency() / 2);
  cfg.admission.maxQueueDepth = 1 << 14;  // the gate load runs shed-free
  cfg.admission.maxPerTenant = 1 << 12;
  Service svc(cfg);
  const SceneHandle h = svc.registerScene(gp, setup);

  const int T = shape.tenants, Q = shape.queriesPerTenant;
  LoadRun run;
  run.responses.assign(static_cast<std::size_t>(T) * Q, {});

  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(T);
  for (int t = 0; t < T; ++t) {
    clients.emplace_back([&, t] {
      const std::string tenant = "tenant-" + std::to_string(t);
      // Pipelined client: every query in flight before the first drain,
      // the open-loop pattern a real service front-end produces and the
      // regime cross-request coalescing exists for.
      std::vector<std::future<Outcome<DivQResult>>> divq(Q);
      std::vector<std::future<Outcome<FluxResult>>> flux(Q);
      std::vector<std::future<Outcome<RadiometerResult>>> radio(Q);
      std::vector<QueryPlan::Kind> kinds(Q);
      for (int j = 0; j < Q; ++j) {
        const QueryPlan plan = planQuery(grid, shape, t, j);
        kinds[j] = plan.kind;
        switch (plan.kind) {
          case QueryPlan::Kind::DivQ:
            divq[j] = svc.submitDivQ({tenant, h.id, 0, plan.cells});
            break;
          case QueryPlan::Kind::Flux:
            flux[j] = svc.submitBoundaryFlux(
                {tenant, h.id, 0, plan.faces, shape.fluxRays});
            break;
          case QueryPlan::Kind::Radiometer:
            radio[j] = svc.submitRadiometer({tenant, h.id, 0, plan.spec});
            break;
        }
      }
      for (int j = 0; j < Q; ++j) {
        std::vector<double>& slot =
            run.responses[static_cast<std::size_t>(t) * Q + j];
        switch (kinds[j]) {
          case QueryPlan::Kind::DivQ: {
            auto out = divq[j].get();
            if (!out.ok()) { run.allOk = false; break; }
            slot = std::move(out.value.divQ);
            break;
          }
          case QueryPlan::Kind::Flux: {
            auto out = flux[j].get();
            if (!out.ok()) { run.allOk = false; break; }
            slot = std::move(out.value.fluxes);
            break;
          }
          case QueryPlan::Kind::Radiometer: {
            auto out = radio[j].get();
            if (!out.ok()) { run.allOk = false; break; }
            slot = {out.value.reading.meanIntensity,
                    out.value.reading.flux};
            break;
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  run.wallSeconds = wall.seconds();
  run.stats = svc.stats();
  svc.shutdown();
  return run;
}

/// The serial reference answer to one plan, laid out like a response slot.
std::vector<double> oneShotResponse(const grid::Grid& grid,
                                    const core::RmcrtSetup& setup,
                                    const LoadShape& shape,
                                    const QueryPlan& plan) {
  switch (plan.kind) {
    case QueryPlan::Kind::DivQ:
      return Service::solveDivQOneShot(grid, setup, plan.cells).divQ;
    case QueryPlan::Kind::Flux:
      return Service::solveFluxOneShot(grid, setup, plan.faces,
                                       shape.fluxRays)
          .fluxes;
    case QueryPlan::Kind::Radiometer: {
      const auto reading =
          Service::solveRadiometerOneShot(grid, setup, plan.spec).reading;
      return {reading.meanIntensity, reading.flux};
    }
  }
  return {};
}

/// Every response bitwise equal to the one-shot solve of its plan.
bool matchesOneShot(const grid::Grid& grid, const core::RmcrtSetup& setup,
                    const LoadShape& shape, const LoadRun& run) {
  const int Q = shape.queriesPerTenant;
  for (int t = 0; t < shape.tenants; ++t)
    for (int j = 0; j < Q; ++j)
      if (run.responses[static_cast<std::size_t>(t) * Q + j] !=
          oneShotResponse(grid, setup, shape, planQuery(grid, shape, t, j)))
        return false;
  return true;
}

double qps(const LoadRun& r) {
  return r.wallSeconds > 0.0
             ? static_cast<double>(r.stats.completed) / r.wallSeconds
             : 0.0;
}

/// Fault-injected soak: lossy transport + tight admission + concurrent
/// property updates. Correctness bar is the reconciliation invariant,
/// not throughput. Returns false on violation.
bool runChaos(const grid::Grid& grid, std::shared_ptr<const grid::Grid> gp,
              const core::RmcrtSetup& setup, const LoadShape& shape,
              std::ostream& json) {
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.admission.maxQueueDepth = 12;
  cfg.admission.maxPerTenant = 3;
  cfg.injector = std::make_shared<comm::FaultInjector>(0xC4A05u);
  comm::FaultProbabilities p;
  p.drop = 0.2;
  p.delay = 0.15;
  p.duplicate = 0.1;
  p.reorder = 0.1;
  cfg.injector->setDefaultProbabilities(p);
  Service svc(cfg);
  const SceneHandle h = svc.registerScene(gp, setup);

  std::vector<std::thread> clients;
  for (int t = 0; t < shape.tenants; ++t) {
    clients.emplace_back([&, t] {
      const std::string tenant = "tenant-" + std::to_string(t);
      // Bursts of 6 against a per-tenant cap of 3: admission must shed
      // part of every wave with typed rejections while the rest completes.
      for (int j = 0; j < shape.queriesPerTenant; j += 6) {
        std::vector<std::future<Outcome<DivQResult>>> wave;
        for (int k = j; k < std::min(j + 6, shape.queriesPerTenant); ++k) {
          const QueryPlan plan = planQuery(grid, shape, t, k);
          // generation 0 = latest: queries stay valid across the
          // updater's generation bumps; sheds come back as typed
          // rejections.
          if (plan.kind == QueryPlan::Kind::Flux)
            svc.submitBoundaryFlux({tenant, h.id, 0, plan.faces,
                                    shape.fluxRays}).get();
          else if (plan.kind == QueryPlan::Kind::Radiometer)
            svc.submitRadiometer({tenant, h.id, 0, plan.spec}).get();
          else
            wave.push_back(svc.submitDivQ({tenant, h.id, 0, plan.cells}));
        }
        for (auto& f : wave) f.get();
      }
    });
  }
  // Concurrent scene churn: two property swaps while the stream runs.
  std::thread updater([&] {
    for (int i = 0; i < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      svc.updateProperties(h.id, core::uniformMedium(1.0 + i, 900.0 + 50 * i));
    }
  });
  for (auto& c : clients) c.join();
  updater.join();

  const ServiceStats st = svc.stats();
  svc.shutdown();
  const bool reconciled =
      st.submitted == st.completed + st.rejected &&
      st.admission.admitted == st.admission.released &&
      st.admission.inFlight == 0;
  json << ",\n  \"chaos\": {\n"
       << "    \"submitted\": " << st.submitted << ",\n"
       << "    \"completed\": " << st.completed << ",\n"
       << "    \"rejected\": " << st.rejected << ",\n"
       << "    \"generation_evictions\": " << st.generationEvictions << ",\n"
       << "    \"faults_retransmitted\": " << st.faultsRetransmitted << ",\n"
       << "    \"faults_delayed\": " << st.faultsDelayed << ",\n"
       << "    \"faults_deduplicated\": " << st.faultsDeduplicated << ",\n"
       << "    \"faults_reordered\": " << st.faultsReordered << ",\n"
       << "    \"reconciled\": " << (reconciled ? "true" : "false") << "\n"
       << "  }";
  std::cout << "chaos soak: " << st.submitted << " submitted = "
            << st.completed << " completed + " << st.rejected
            << " rejected; evictions " << st.generationEvictions
            << ", faults (retx/delay/dedup/reorder) "
            << st.faultsRetransmitted << "/" << st.faultsDelayed << "/"
            << st.faultsDeduplicated << "/" << st.faultsReordered
            << (reconciled ? " — reconciled\n" : " — RECONCILIATION FAILED\n");
  return reconciled;
}

void writeLoadJson(std::ostream& out, const LoadRun& r) {
  out << "  \"batched\": {\n"
      << "    \"queries_per_s\": " << qps(r) << ",\n"
      << "    \"p50_ms\": " << r.stats.p50Ms << ",\n"
      << "    \"p99_ms\": " << r.stats.p99Ms << ",\n"
      << "    \"wall_seconds\": " << r.wallSeconds << ",\n"
      << "    \"submitted\": " << r.stats.submitted << ",\n"
      << "    \"completed\": " << r.stats.completed << ",\n"
      << "    \"rejected\": " << r.stats.rejected << ",\n"
      << "    \"coarse_uploads\": " << r.stats.coarseUploads << ",\n"
      << "    \"batches\": " << r.stats.batches << ",\n"
      << "    \"tile_jobs\": " << r.stats.tileJobs << ",\n"
      << "    \"slo_breaches\": " << r.stats.sloBreaches << "\n"
      << "  }";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool chaos = false;
  std::string jsonPath = "BENCH_service.json";
  LoadShape shape;
  bool tenantsSet = false, queriesSet = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
    else if (std::strncmp(argv[i], "--json=", 7) == 0) jsonPath = argv[i] + 7;
    else if (std::strncmp(argv[i], "--tenants=", 10) == 0) {
      shape.tenants = std::atoi(argv[i] + 10);
      tenantsSet = true;
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      shape.queriesPerTenant = std::atoi(argv[i] + 10);
      queriesSet = true;
    }
  }
  if (smoke) {
    shape.fineEdge = 32;
    shape.nRays = 4;
    if (!tenantsSet) shape.tenants = 8;
    if (!queriesSet) shape.queriesPerTenant = 12;
    shape.fluxRays = 8;
    shape.radiometerRays = 16;
  }

  auto gp = makeScene(shape.fineEdge);
  const core::RmcrtSetup setup = makeSetup(shape.nRays);

  std::cout << "service load: " << shape.tenants << " tenants x "
            << shape.queriesPerTenant << " queries, fine "
            << shape.fineEdge << "^3, " << shape.nRays << " rays/cell\n";

  const LoadRun batched = runLoad(*gp, gp, setup, shape);
  const bool match =
      batched.allOk && matchesOneShot(*gp, setup, shape, batched);

  std::cout << std::fixed << std::setprecision(2)
            << "  batched: " << qps(batched) << " q/s, p50 "
            << batched.stats.p50Ms << " ms, p99 " << batched.stats.p99Ms
            << " ms, " << batched.stats.coarseUploads << " coarse upload(s), "
            << batched.stats.batches << " batches / "
            << batched.stats.tileJobs << " tile jobs\n"
            << "  bitwise vs one-shot: " << (match ? "MATCH" : "MISMATCH")
            << "\n";

  std::ofstream out(jsonPath);
  out << std::setprecision(6) << std::fixed;
  out << "{\n"
      << "  \"benchmark\": \"rmcrt_service\",\n"
      << "  \"problem\": \"burns_christon\",\n"
      << "  \"fine_edge\": " << shape.fineEdge << ",\n"
      << "  \"tenants\": " << shape.tenants << ",\n"
      << "  \"queries_per_tenant\": " << shape.queriesPerTenant << ",\n"
      << "  \"rays_per_query\": " << shape.nRays << ",\n"
      << "  \"bitwise_match\": " << (match ? "true" : "false") << ",\n";
  writeLoadJson(out, batched);

  bool chaosOk = true;
  if (chaos) chaosOk = runChaos(*gp, gp, setup, shape, out);
  out << "\n}\n";
  out.close();
  std::cout << "  written to " << jsonPath << "\n";

  if (!match) {
    std::cerr << "bench_service: batched responses are not bitwise "
                 "identical to the one-shot solvers\n";
    return 1;
  }
  if (!chaosOk) {
    std::cerr << "bench_service: chaos soak failed reconciliation\n";
    return 1;
  }
  return 0;
}
