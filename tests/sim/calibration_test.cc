#include "sim/calibration.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

namespace rmcrt::sim {
namespace {

/// Writes \p text as a temp baseline file and returns its path.
std::string writeBaseline(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(Calibration, KernelMeasurementIsPositiveAndPlausible) {
  const double segPerSec = measureKernelSegmentsPerSecond(16, 2);
  EXPECT_GT(segPerSec, 1e5);   // even a slow host marches >100k cells/s
  EXPECT_LT(segPerSec, 1e11);  // and no host marches 100G cells/s
}

TEST(Calibration, ContainerCostsMeasured) {
  double wf = 0, locked = 0;
  measureContainerCosts(wf, locked, /*threads=*/2, /*messages=*/4000);
  EXPECT_GT(wf, 0.0);
  EXPECT_GT(locked, 0.0);
  EXPECT_LT(wf, 1e-3);  // < 1 ms per message
  EXPECT_LT(locked, 1e-2);
}

TEST(Calibration, CalibrateAppliesMeasurements) {
  Calibration c;
  c.hostSegmentsPerSecond = 1.0e8;
  c.waitFreePerMessage = 2.0e-6;
  c.lockedPerMessage = 5.0e-6;
  const MachineModel m = calibrate(titan(), c, /*hostToGpuScale=*/10.0);
  EXPECT_DOUBLE_EQ(m.gpuSegmentsPerSecond, 1.0e9);
  EXPECT_DOUBLE_EQ(m.perMessageOverheadWaitFree, 2.0e-6);
  EXPECT_DOUBLE_EQ(m.perMessageOverheadLocked, 5.0e-6);
}

TEST(Calibration, ZeroMeasurementsKeepDefaults) {
  const MachineModel base = titan();
  const MachineModel m = calibrate(base, Calibration{});
  EXPECT_DOUBLE_EQ(m.gpuSegmentsPerSecond, base.gpuSegmentsPerSecond);
  EXPECT_DOUBLE_EQ(m.perMessageOverheadWaitFree,
                   base.perMessageOverheadWaitFree);
}

TEST(Calibration, BenchJsonPrefersSimdThroughput) {
  const std::string path = writeBaseline(
      "cal_simd.json",
      R"({"simd_microbench": {"supported": true, "isa": "avx512",
           "grid_n": 128, "simd_mseg_per_s": 50.25,
           "scalar_mseg_per_s": 10.0},
          "sweep": [{"threads": 1, "mseg_per_s": 40.0}]})");
  const Calibration c = calibrationFromBenchJson(path);
  EXPECT_EQ(c.source, CalibrationSource::BenchJson);
  EXPECT_DOUBLE_EQ(c.hostSegmentsPerSecond, 50.25e6);
  EXPECT_NE(c.detail.find("simd_microbench.simd_mseg_per_s"),
            std::string::npos)
      << c.detail;
  EXPECT_NE(c.detail.find("avx512"), std::string::npos) << c.detail;
  // Container costs are not in the baseline; calibrate() must keep the
  // machine defaults for them.
  EXPECT_DOUBLE_EQ(c.waitFreePerMessage, 0.0);
  const MachineModel m = calibrate(titan(), c);
  EXPECT_DOUBLE_EQ(m.perMessageOverheadWaitFree,
                   titan().perMessageOverheadWaitFree);
  EXPECT_DOUBLE_EQ(m.gpuSegmentsPerSecond, 50.25e6 * 12.0);
}

TEST(Calibration, BenchJsonFallsBackToScalarWhenSimdUnsupported) {
  const std::string path = writeBaseline(
      "cal_scalar.json",
      R"({"simd_microbench": {"supported": false, "grid_n": 64,
           "scalar_mseg_per_s": 10.5}})");
  const Calibration c = calibrationFromBenchJson(path);
  EXPECT_EQ(c.source, CalibrationSource::BenchJson);
  EXPECT_DOUBLE_EQ(c.hostSegmentsPerSecond, 10.5e6);
  EXPECT_NE(c.detail.find("scalar_mseg_per_s"), std::string::npos)
      << c.detail;
}

TEST(Calibration, BenchJsonReadsSweepFromPreSimdBaselines) {
  // Baselines committed before the SIMD microbench existed only carry
  // the thread-sweep; the serial sample is the calibration quantity.
  const std::string path = writeBaseline(
      "cal_sweep.json",
      R"({"sweep": [{"threads": 4, "mseg_per_s": 120.0},
                    {"threads": 1, "mseg_per_s": 41.83}]})");
  const Calibration c = calibrationFromBenchJson(path);
  EXPECT_EQ(c.source, CalibrationSource::BenchJson);
  EXPECT_DOUBLE_EQ(c.hostSegmentsPerSecond, 41.83e6);
  EXPECT_NE(c.detail.find("sweep[threads==1]"), std::string::npos)
      << c.detail;
}

TEST(Calibration, MissingFileYieldsDeterministicFallback) {
  const Calibration a = calibrationFromBenchJson("/nonexistent/b.json");
  const Calibration b = calibrationFromBenchJson("/nonexistent/b.json");
  EXPECT_EQ(a.source, CalibrationSource::Fallback);
  EXPECT_DOUBLE_EQ(a.hostSegmentsPerSecond, 36.0e6);
  EXPECT_DOUBLE_EQ(a.hostSegmentsPerSecond, b.hostSegmentsPerSecond);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_NE(a.detail.find("cannot open"), std::string::npos) << a.detail;
}

TEST(Calibration, MalformedOrKeylessJsonYieldsFallback) {
  const Calibration bad =
      calibrationFromBenchJson(writeBaseline("cal_bad.json", "{not json"));
  EXPECT_EQ(bad.source, CalibrationSource::Fallback);
  EXPECT_DOUBLE_EQ(bad.hostSegmentsPerSecond, 36.0e6);

  const Calibration keyless = calibrationFromBenchJson(
      writeBaseline("cal_keyless.json", R"({"benchmark": "other"})"));
  EXPECT_EQ(keyless.source, CalibrationSource::Fallback);
  EXPECT_NE(keyless.detail.find("no usable mseg_per_s"), std::string::npos)
      << keyless.detail;
}

TEST(Calibration, DeeplyNestedJsonYieldsFallback) {
  // 50,000 nested arrays overflowed the recursive parser's stack; past its
  // depth bound it now reports a parse error like any other bad file.
  const Calibration c = calibrationFromBenchJson(
      writeBaseline("cal_nested.json", std::string(50000, '[')));
  EXPECT_EQ(c.source, CalibrationSource::Fallback);
  EXPECT_DOUBLE_EQ(c.hostSegmentsPerSecond, 36.0e6);
  EXPECT_NE(c.detail.find("nested too deeply"), std::string::npos)
      << c.detail;
}

TEST(Calibration, NonFiniteRatesYieldFallback) {
  // strtod reads an exponent past the double range as inf; no key may
  // hand the model an infinite segment rate.
  const Calibration c = calibrationFromBenchJson(writeBaseline(
      "cal_inf.json",
      R"({"simd_microbench": {"supported": true, "grid_n": 128,
           "simd_mseg_per_s": 1e999, "scalar_mseg_per_s": 1e999},
          "sweep": [{"threads": 1, "mseg_per_s": 1e999}]})"));
  EXPECT_EQ(c.source, CalibrationSource::Fallback) << c.detail;
  EXPECT_DOUBLE_EQ(c.hostSegmentsPerSecond, 36.0e6);

  // A finite rate that overflows once scaled to segments per second.
  const Calibration big = calibrationFromBenchJson(writeBaseline(
      "cal_big.json", R"({"sweep": [{"threads": 1, "mseg_per_s": 1e305}]})"));
  EXPECT_EQ(big.source, CalibrationSource::Fallback) << big.detail;
}

TEST(Calibration, OutOfRangeGridSizeIsNotFormatted) {
  // grid_n only labels the detail; casting inf or 1e10 to int is
  // undefined, so such a label reads "?" and the rate still loads.
  for (const char* n : {"1e999", "1e10", "-1e10"}) {
    SCOPED_TRACE(n);
    const Calibration c = calibrationFromBenchJson(writeBaseline(
        "cal_grid.json",
        std::string(R"({"simd_microbench": {"supported": true, "grid_n": )") +
            n + R"(, "isa": "avx2", "simd_mseg_per_s": 20.0}})"));
    EXPECT_EQ(c.source, CalibrationSource::BenchJson);
    EXPECT_DOUBLE_EQ(c.hostSegmentsPerSecond, 20.0e6);
    EXPECT_NE(c.detail.find("[avx2 @?^3]"), std::string::npos) << c.detail;
  }
}

/// One random corruption of \p b: a truncation, a bit flip, a byte
/// insertion, or a digit inflation (a run of nines after a digit, which
/// can push a number past the double range).
void mutate(std::string& b, std::mt19937_64& rng) {
  const auto at = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  switch (rng() % 4) {
    case 0:
      b.resize(at(b.size()));
      break;
    case 1:
      b[at(b.size())] ^= static_cast<char>(1u << (rng() % 8));
      break;
    case 2:
      b.insert(at(b.size() + 1), 1, static_cast<char>(rng()));
      break;
    default:
      for (int tries = 0; tries < 64; ++tries) {
        const std::size_t p = at(b.size());
        if (std::isdigit(static_cast<unsigned char>(b[p]))) {
          b.insert(p + 1, 300 + at(40), '9');
          break;
        }
      }
  }
}

TEST(Calibration, MutatedKernelBaselinesNeverThrow) {
  // The committed baseline, corrupted at random: every result is either
  // the fallback or a finite positive rate, and nothing throws.
  std::ifstream in(std::string(RMCRT_REPO_DIR) + "/BENCH_rmcrt_kernel.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string baseline = buf.str();
  ASSERT_FALSE(baseline.empty());

  std::mt19937_64 rng(20261018);
  int loaded = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string bytes = baseline;
    mutate(bytes, rng);
    if (rng() % 2 == 0) mutate(bytes, rng);
    const std::string path = writeBaseline("cal_mutated.json", bytes);
    Calibration c;
    ASSERT_NO_THROW(c = calibrationFromBenchJson(path)) << "iteration " << i;
    if (c.source == CalibrationSource::Fallback) continue;
    ASSERT_EQ(c.source, CalibrationSource::BenchJson) << "iteration " << i;
    ASSERT_TRUE(std::isfinite(c.hostSegmentsPerSecond) &&
                c.hostSegmentsPerSecond > 0.0)
        << "iteration " << i << ": " << c.hostSegmentsPerSecond;
    ++loaded;
  }
  // Most mutations (a flipped bit in a label, say) still calibrate.
  EXPECT_GT(loaded, 0);
}

TEST(Calibration, CommittedKernelBaselineLoads) {
  // The repo's own committed baseline must calibrate, and from the SIMD
  // key — this is the exact chain bench_scaling and the scaling shape
  // gate run on.
  const Calibration c = calibrationFromBenchJson(
      std::string(RMCRT_REPO_DIR) + "/BENCH_rmcrt_kernel.json");
  EXPECT_EQ(c.source, CalibrationSource::BenchJson);
  EXPECT_GT(c.hostSegmentsPerSecond, 1e6);
  EXPECT_LT(c.hostSegmentsPerSecond, 1e11);
  EXPECT_EQ(calibrationSourceName(c.source), std::string("bench_json"));
}

TEST(Calibration, SourceNamesAreStable) {
  // check_bench_regression.py and the shape gate match on these strings.
  EXPECT_STREQ(calibrationSourceName(CalibrationSource::Measured),
               "measured");
  EXPECT_STREQ(calibrationSourceName(CalibrationSource::BenchJson),
               "bench_json");
  EXPECT_STREQ(calibrationSourceName(CalibrationSource::Fallback),
               "fallback");
}

TEST(Calibration, CalibratedModelStillScales) {
  // The scaling SHAPE must be robust to the calibrated throughput:
  // monotone decrease while over-decomposed, regardless of host speed.
  Calibration c;
  c.hostSegmentsPerSecond = measureKernelSegmentsPerSecond(16, 2);
  const MachineModel m = calibrate(titan(), c);
  ProblemConfig p = largeProblem(16);
  double prev = 1e99;
  for (int g : {512, 2048, 8192}) {
    const double t = simulateTimestep(m, p, g).total;
    EXPECT_LT(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace rmcrt::sim
