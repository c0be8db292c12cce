#pragma once

/// \file workloads.h
/// The benchmark's workloads and the metric names they report. Every
/// workload reports every metric: a layer a workload does not exercise
/// (the service has no scheduler or channel; the pipelines have no
/// service) reads 0 there.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, tracing off. true: the first half of the
  /// window runs untraced (the overhead baseline), the second half traced,
  /// and the per-layer ledger comes from the traced half.
  bool trace = false;
};

struct RunResult {
  Tally tally;
  /// Oracle checks that failed (also counted in tally.failed).
  std::uint64_t mismatches = 0;
  /// TraceRecorder events lost to ring overflow (must be 0).
  std::uint64_t droppedEvents = 0;
  /// TraceConfig::useSimd on the measured path.
  bool useSimd = false;
  std::map<std::string, double> endToEnd;
  std::map<std::string, double> perLayer;
  /// Workload-specific record: shape, per-step series, shares, samples.
  JsonObject detail;
};

struct MetricName {
  const char* name;
  const char* unit;
};

inline const std::vector<MetricName>& endToEndMetrics() {
  static const std::vector<MetricName> k = {
      {"step_p50_s", "s"}, {"step_p90_s", "s"},   {"qps", "1/s"},
      {"p50_ms", "ms"},    {"p99_ms", "ms"},      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return k;
}

inline const std::vector<MetricName>& perLayerMetrics() {
  static const std::vector<MetricName> k = {
      {"runtime.local_comm_s", "s"},
      {"runtime.wait_s", "s"},
      {"runtime.task_exec_s", "s"},
      {"runtime.unattributed_s", "s"},
      {"runtime.unattributed_frac", "frac"},
      {"comm.msgs_sent", "count"},
      {"comm.msgs_received", "count"},
      {"comm.bytes_sent", "bytes"},
      {"comm.us_per_msg", "us"},
      {"comm.retransmits", "count"},
      {"comm.duplicates_discarded", "count"},
      {"comm.acks_sent", "count"},
      {"comm.useful_frac", "frac"},
      {"core.trace_s", "s"},
      {"core.init_s", "s"},
      {"core.coarsen_s", "s"},
      {"core.segments", "count"},
      {"core.rays", "count"},
      {"core.mseg_per_s", "Mseg/s"},
      {"gpu.h2d_bytes", "bytes"},
      {"gpu.h2d_transfers", "count"},
      {"gpu.d2h_bytes", "bytes"},
      {"gpu.kernels", "count"},
      {"gpu.level_db_copies", "count"},
      {"gpu.cpu_fallbacks", "count"},
      {"gpu.peak_device_mb", "MB"},
      {"gpu.kernel_s", "s"},
      {"gpu.h2d_s", "s"},
      {"gpu.sync_wait_s", "s"},
      {"service.submit_us", "us"},
      {"service.batches", "count"},
      {"service.requests_per_batch", "count"},
      {"service.tile_jobs", "count"},
      {"service.update_ms", "ms"},
      {"service.post_update_ms", "ms"},
      {"service.coarse_uploads", "count"},
      {"service.generation_evictions", "count"},
      {"service.rejected", "count"},
      {"service.slo_breaches", "count"},
      {"service.batch_drain_s", "s"},
      {"mem.arena_peak_mb", "MB"},
      {"ledger.runtime_self_s", "s"},
      {"ledger.comm_self_s", "s"},
      {"ledger.core_self_s", "s"},
      {"ledger.gpu_self_s", "s"},
      {"ledger.service_self_s", "s"},
      {"ledger.bench_self_s", "s"},
      {"ledger.reconcile_frac", "frac"},
      {"trace_overhead_frac", "frac"},
      {"trace_p50_overhead_frac", "frac"},
  };
  return k;
}

/// pipeline_kernel / pipeline_comm: the distributed two-level GPU
/// pipeline on two in-process ranks.
RunResult runPipeline(const RunOptions& opt);

/// service_mixed: a closed-loop request stream against one Service.
RunResult runService(const RunOptions& opt);

/// Process peak resident set size in MB (getrusage).
double peakRssMb();

/// Span totals folded from the TraceRecorder (see foldRecordedSpans).
struct SpanFold {
  /// Self time per layer, on threads inside a root span [s].
  std::map<std::string, double> layerSelf;
  /// Per span name: inclusive time on every thread, and self time inside
  /// root spans [s].
  std::map<std::string, double> byName;
  std::map<std::string, double> selfByName;
  std::uint64_t dropped = 0;

  double inclusive(const std::string& name) const {
    const auto it = byName.find(name);
    return it == byName.end() ? 0.0 : it->second;
  }
};

/// Fold the recorder's events since the last call into \p into, then
/// clear the recorder. Self time is attributed only inside spans of
/// category "bench" named \p root (on their own threads). A span's layer
/// is its category ("sched"/"sim" -> runtime, "comm", "tracer" -> core,
/// "gpu", "service"); the benchmark's own spans are named
/// "<layer>:<what>" ("core:trace", "service:submit"), anything else is
/// the benchmark's own time ("bench").
void foldRecordedSpans(const std::string& root, SpanFold& into);

/// Publish the fold as per-step layer self times (ledger.<layer>_self_s,
/// divided by \p steps) and ledger.reconcile_frac: their sum over the
/// measured wall time \p wallSeconds of the root spans' threads.
void addLayerLedger(const SpanFold& fold, double steps, double wallSeconds,
                    std::map<std::string, double>& metrics);

/// Per span name: inclusive and root-thread self seconds per step.
JsonObject spanTable(const SpanFold& fold, double steps);

}  // namespace perfbench
