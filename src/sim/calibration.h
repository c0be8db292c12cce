#pragma once

/// \file calibration.h
/// Calibrates the machine model from *measured* quantities of this very
/// repository: the real RMCRT kernel's segment throughput (per patch
/// size) and the real request containers' per-message cost. The
/// host-to-K20X scale factor converts one host core's measured kernel
/// throughput to the device's (documented substitution — absolute
/// seconds are testbed-specific; the scaling *shape* is what the model
/// must preserve).

#include <cstdint>
#include <string>

#include "sim/machine_model.h"
#include "sim/perf_model.h"

namespace rmcrt::sim {

/// Where a Calibration's numbers came from. The scaling studies record
/// this in BENCH_scaling.json so a committed artifact is traceable to
/// its input.
enum class CalibrationSource {
  Measured,   ///< measureHost(): kernels/containers re-run on this host
  BenchJson,  ///< loaded from a committed bench_rmcrt_kernel baseline
  Fallback,   ///< deterministic reference constants (no file, no timer)
};

const char* calibrationSourceName(CalibrationSource s);

/// Results of running the real kernels/containers on this host.
struct Calibration {
  /// Measured ray-marching throughput [cell crossings / s] on one host
  /// core (Burns & Christon fields, production-like parameters).
  double hostSegmentsPerSecond = 0;
  /// Measured per-message post+process cost of the wait-free pool [s].
  double waitFreePerMessage = 0;
  /// Same for the legacy locked vector (serialized mode).
  double lockedPerMessage = 0;
  CalibrationSource source = CalibrationSource::Measured;
  /// Which key/kernel produced hostSegmentsPerSecond (for provenance in
  /// emitted JSON), e.g. "simd_microbench.simd_mseg_per_s [avx512 @128^3]".
  std::string detail;
};

/// Run the real RMCRT kernel on a small problem and measure segment
/// throughput. \p patchSize controls the tested patch edge.
double measureKernelSegmentsPerSecond(int patchSize = 16,
                                      int raysPerCell = 4);

/// Run both request containers through an identical simulated-MPI
/// workload with \p threads pollers and return per-message costs.
void measureContainerCosts(double& waitFreePerMessage,
                           double& lockedPerMessage, int threads = 4,
                           int messages = 20000);

/// Measure everything.
Calibration measureHost();

/// Deterministic reference calibration: the committed AVX-512 baseline's
/// packet-march throughput rounded to a constant, no timers touched.
/// Used whenever a bench baseline is unavailable so the scaling study —
/// and its CI shape gate — stay reproducible byte for byte.
Calibration fallbackCalibration();

/// Load per-segment cost from a committed bench_rmcrt_kernel JSON
/// baseline instead of re-measuring this host. Key priority:
///   1. simd_microbench.simd_mseg_per_s   (supported == true — the SIMD
///      packed kernel at the 128^3 per-rank fixture, the production path)
///   2. simd_microbench.scalar_mseg_per_s (host without SIMD support)
///   3. sweep[threads==1].mseg_per_s      (pre-SIMD baselines)
/// Only a finite positive rate counts. Any missing file, parse error, or
/// absent or unusable key returns fallbackCalibration() with the reason
/// recorded in .detail — the result is always usable and always
/// deterministic, and no input makes this throw. Container costs are
/// not part of the kernel baseline and stay 0 (calibrate() then keeps
/// the machine-model defaults).
Calibration calibrationFromBenchJson(const std::string& path);

/// Apply a calibration to a machine model: GPU throughput = host
/// throughput * hostToGpuScale (K20X vs one Opteron core for this
/// memory-latency-bound kernel), and container costs taken as measured.
MachineModel calibrate(MachineModel m, const Calibration& c,
                       double hostToGpuScale = 12.0);

}  // namespace rmcrt::sim
