/// \file driver.cc
/// The benchmark driver:
///
///   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Runs one workload (pipeline_kernel, pipeline_comm or service_mixed),
/// checks its outputs against the serial oracles, and prints two JSON
/// lines: a detail record (host metadata, per-step series, samples), then
/// the result line {"correct", "attempted", "failed", "metrics"} with the
/// end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1).
/// Exits 1 when any output disagrees with its oracle, 2 on bad arguments.

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "core/ray_tracer.h"
#include "util/trace_recorder.h"
#include "workloads.h"

namespace perfbench {

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

namespace {

std::string layerOf(const std::string& cat, const std::string& name) {
  if (cat == "bench") {
    const auto colon = name.find(':');
    const std::string prefix =
        colon == std::string::npos ? "" : name.substr(0, colon);
    if (prefix == "core" || prefix == "service") return prefix;
    return "bench";
  }
  if (cat == "sched" || cat == "sim") return "runtime";
  if (cat == "tracer") return "core";
  if (cat == "comm" || cat == "gpu" || cat == "service") return cat;
  return "bench";
}

}  // namespace

void foldRecordedSpans(const std::string& root, SpanFold& into) {
  rmcrt::TraceRecorder& rec = rmcrt::TraceRecorder::global();
  into.dropped += rec.droppedEvents();
  const std::vector<rmcrt::TraceEvent> events = rec.snapshotEvents();
  rec.clear();

  std::vector<Span> spans;
  spans.reserve(events.size());
  for (const rmcrt::TraceEvent& ev : events)
    if (ev.phase == 'X')
      spans.push_back(Span{ev.tid, ev.tsNs, ev.durNs, ev.cat, ev.name});
  const std::vector<std::int64_t> self = selfTimes(spans);

  // Root intervals per thread: only time inside them is attributed.
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      roots;
  for (const Span& s : spans)
    if (s.cat == "bench" && s.name == root)
      roots[s.tid].emplace_back(s.startNs, s.startNs + s.durNs);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    into.byName[s.name] += static_cast<double>(s.durNs) * 1e-9;
    const auto it = roots.find(s.tid);
    if (it == roots.end()) continue;
    bool inside = false;
    for (const auto& [lo, hi] : it->second)
      inside = inside || (s.startNs >= lo && s.startNs < hi);
    if (!inside) continue;
    const double selfS = static_cast<double>(self[i]) * 1e-9;
    into.layerSelf[layerOf(s.cat, s.name)] += selfS;
    into.selfByName[s.name] += selfS;
  }
}

void addLayerLedger(const SpanFold& fold, double steps, double wallSeconds,
                    std::map<std::string, double>& metrics) {
  double sum = 0.0;
  for (const char* layer :
       {"runtime", "comm", "core", "gpu", "service", "bench"}) {
    const auto it = fold.layerSelf.find(layer);
    const double v = it == fold.layerSelf.end() ? 0.0 : it->second;
    metrics[std::string("ledger.") + layer + "_self_s"] = v / steps;
    sum += v;
  }
  metrics["ledger.reconcile_frac"] = wallSeconds > 0 ? sum / wallSeconds : 0.0;
}

JsonObject spanTable(const SpanFold& fold, double steps) {
  JsonObject out;
  for (const auto& [name, incl] : fold.byName) {
    const auto it = fold.selfByName.find(name);
    JsonObject row;
    row.num("inclusive_s", incl / steps);
    if (it != fold.selfByName.end()) row.num("self_s", it->second / steps);
    out.obj(name, row);
  }
  return out;
}

}  // namespace perfbench

namespace {

using perfbench::JsonObject;

int usage(const char* why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload "
               "<pipeline_kernel|pipeline_comm|service_mixed> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

JsonObject hostMetadata(bool useSimd) {
  JsonObject m;
  m.count("hardware_threads", std::thread::hardware_concurrency());
  m.str("simd_isa", rmcrt::core::Tracer::simdIsa());
  m.flag("use_simd", useSimd);
#if defined(__clang__)
  m.str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  m.str("compiler", std::string("gcc ") + __VERSION__);
#else
  m.str("compiler", "unknown");
#endif
  m.str("build_type", PERFBENCH_BUILD_TYPE);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) return usage("--seed takes an integer");
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0)
        return usage("--seconds takes a number in (0, 600]");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      opt.trace = val == "1";
    } else {
      return usage(("unknown argument " + key).c_str());
    }
    seen.insert(key);
  }
  if (seen.size() != 4) return usage("all four arguments are required");

  // Spans are folded once per step (pipelines) or once per run (service);
  // rings large enough for a whole traced service phase keep
  // droppedEvents at 0.
  if (opt.trace) rmcrt::TraceRecorder::global().setCapacityPerThread(1 << 18);

  perfbench::RunResult res;
  try {
    if (opt.workload == "pipeline_kernel" || opt.workload == "pipeline_comm")
      res = perfbench::runPipeline(opt);
    else if (opt.workload == "service_mixed")
      res = perfbench::runService(opt);
    else
      return usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << opt.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }

  const auto& names = opt.trace ? perfbench::perLayerMetrics()
                                : perfbench::endToEndMetrics();
  const auto& values = opt.trace ? res.perLayer : res.endToEnd;
  std::vector<perfbench::Metric> metrics;
  for (const auto& m : names) {
    const auto it = values.find(m.name);
    if (it == values.end()) {
      std::cerr << "perfbench_driver: workload did not report " << m.name
                << "\n";
      return 1;
    }
    metrics.push_back({m.name, it->second, m.unit});
  }

  // The traced run's layer self times must add up to the measured wall.
  const bool reconciled =
      !opt.trace ||
      std::abs(res.perLayer["ledger.reconcile_frac"] - 1.0) <= 0.02;
  const bool correct = res.mismatches == 0 && res.tally.failed == 0 &&
                       res.droppedEvents == 0 && reconciled &&
                       res.tally.attempted > 0;
  JsonObject detail;
  detail.str("workload", opt.workload)
      .count("seed", opt.seed)
      .num("seconds", opt.seconds)
      .flag("trace", opt.trace)
      .obj("host", hostMetadata(res.useSimd))
      .num("error_rate", res.tally.errorRate())
      .count("oracle_mismatches", res.mismatches)
      .count("dropped_events", res.droppedEvents)
      .flag("ledger_reconciled", reconciled)
      .obj("workload_detail", res.detail);
  std::cout << JsonObject().obj("detail", detail).text() << "\n";
  std::cout << JsonObject()
                   .flag("correct", correct)
                   .count("attempted", res.tally.attempted)
                   .count("failed", res.tally.failed)
                   .obj("metrics", perfbench::metricsObject(metrics))
                   .text()
            << std::endl;
  return correct ? 0 : 1;
}
