#include "sim/calibration.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "comm/communicator.h"
#include "comm/locked_queue.h"
#include "comm/request_pool.h"
#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "util/mini_json.h"
#include "util/timers.h"

namespace rmcrt::sim {

const char* calibrationSourceName(CalibrationSource s) {
  switch (s) {
    case CalibrationSource::Measured:
      return "measured";
    case CalibrationSource::BenchJson:
      return "bench_json";
    case CalibrationSource::Fallback:
      return "fallback";
  }
  return "unknown";
}

double measureKernelSegmentsPerSecond(int patchSize, int raysPerCell) {
  using namespace rmcrt::core;
  // A 2-level problem sized so one patch's trace is representative:
  // fine level = 2x the patch, coarse level at RR 4.
  const int fine = std::max(16, 2 * patchSize);
  auto grid = grid::Grid::makeTwoLevel(
      Vector(0.0), Vector(1.0), IntVector(fine), IntVector(4),
      IntVector(patchSize), IntVector(std::max(1, fine / 4)));

  const grid::Level& fineLevel = grid->fineLevel();
  const grid::Level& coarseLevel = grid->coarseLevel();
  const TwoLevelFields fields = sampleTwoLevelFields(*grid, burnsChriston());

  const grid::Patch& patch = fineLevel.patch(0);
  TraceLevel fineTL{LevelGeom::from(fineLevel), fields.fineViews(),
                    patch.ghostWindow(4).intersect(fineLevel.cells())};
  TraceLevel coarseTL{LevelGeom::from(coarseLevel), fields.coarseViews(),
                      coarseLevel.cells()};
  TraceConfig cfg;
  cfg.nDivQRays = raysPerCell;
  Tracer tracer({fineTL, coarseTL}, WallProperties{0.0, 1.0}, cfg);

  grid::CCVariable<double> divQ(patch.cells(), 0.0);
  tracer.resetSegmentCount();
  Timer timer;
  tracer.computeDivQ(patch.cells(),
                     MutableFieldView<double>::fromHost(divQ));
  const double secs = timer.seconds();
  return static_cast<double>(tracer.segmentCount()) / secs;
}

namespace {

template <typename Container>
double timeContainer(Container& container, int threads, int messages) {
  // Steady-state shape: a bounded number of outstanding records at any
  // time (the scheduler posts a phase's receives, drains, repeats) —
  // otherwise the O(outstanding) scans of either container make the
  // measurement quadratic in the total message count.
  constexpr int kBatch = 256;
  comm::Communicator world(2);
  std::atomic<int> done{0};

  Timer timer;
  std::vector<std::thread> pollers;
  for (int t = 0; t < threads; ++t) {
    pollers.emplace_back([&] {
      while (done.load(std::memory_order_relaxed) < messages)
        container.processReady();
    });
  }
  std::vector<std::unique_ptr<int[]>> bufs(kBatch);
  for (int base = 0; base < messages; base += kBatch) {
    const int n = std::min(kBatch, messages - base);
    for (int i = 0; i < n; ++i) {
      bufs[static_cast<std::size_t>(i)] = std::make_unique<int[]>(1);
      comm::Request r = world.irecv(
          1, 0, base + i, bufs[static_cast<std::size_t>(i)].get(),
          sizeof(int));
      container.add(
          comm::CommNode(std::move(r), [&done](const comm::Request&) {
            done.fetch_add(1, std::memory_order_relaxed);
          }));
    }
    for (int i = 0; i < n; ++i) {
      const int v = base + i;
      world.isend(0, 1, v, &v, sizeof v);
    }
    while (done.load(std::memory_order_relaxed) < base + n)
      std::this_thread::yield();
  }
  for (auto& t : pollers) t.join();
  return timer.seconds() / static_cast<double>(messages);
}

}  // namespace

void measureContainerCosts(double& waitFreePerMessage,
                           double& lockedPerMessage, int threads,
                           int messages) {
  comm::WaitFreeRequestPool pool;
  waitFreePerMessage = timeContainer(pool, threads, messages);
  comm::LockedRequestQueue queue(comm::LockedRequestQueue::Mode::Serialized);
  lockedPerMessage = timeContainer(queue, threads, messages);
}

Calibration measureHost() {
  Calibration c;
  c.hostSegmentsPerSecond = measureKernelSegmentsPerSecond();
  measureContainerCosts(c.waitFreePerMessage, c.lockedPerMessage);
  c.source = CalibrationSource::Measured;
  c.detail = "measureKernelSegmentsPerSecond(16, 4) on this host";
  return c;
}

Calibration fallbackCalibration() {
  Calibration c;
  // The committed AVX-512 packet-march baseline (simd_mseg_per_s at the
  // 128^3 fixture) rounded to a constant: 36 Mseg/s on one host core.
  c.hostSegmentsPerSecond = 36.0e6;
  c.source = CalibrationSource::Fallback;
  c.detail = "reference constant 36 Mseg/s (no bench baseline)";
  return c;
}

namespace {

/// \p obj's \p key, a throughput in Mseg/s, as segments per second; 0
/// unless that is a finite positive number. strtod turns an exponent past
/// the double range into inf, and a finite rate can still overflow when
/// scaled; neither may reach the machine model.
double segmentsPerSecond(const minijson::Value& obj, const char* key) {
  if (!obj.has(key) || obj.at(key).type != minijson::Value::Type::Number)
    return 0.0;
  const double rate = obj.at(key).number * 1e6;
  return std::isfinite(rate) && rate > 0.0 ? rate : 0.0;
}

/// The fixture edge \p n as text, or "?" unless it is a number that fits
/// in an int (casting any other double to int is undefined).
std::string gridLabel(const minijson::Value& n) {
  if (n.type != minijson::Value::Type::Number || !std::isfinite(n.number) ||
      n.number < std::numeric_limits<int>::min() ||
      n.number > std::numeric_limits<int>::max())
    return "?";
  return std::to_string(static_cast<int>(n.number));
}

/// threads==1 sample of the sweep array, or nullptr.
const minijson::Value* serialSweepSample(const minijson::Value& doc) {
  if (!doc.has("sweep")) return nullptr;
  for (const minijson::Value& s : doc.at("sweep").array) {
    if (s.has("threads") && s.at("threads").number == 1.0 &&
        s.has("mseg_per_s") &&
        s.at("mseg_per_s").type == minijson::Value::Type::Number)
      return &s;
  }
  return nullptr;
}

}  // namespace

Calibration calibrationFromBenchJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Calibration c = fallbackCalibration();
    c.detail = "fallback: cannot open " + path;
    return c;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  minijson::Value doc;
  try {
    doc = minijson::parse(buf.str());
  } catch (const std::exception& e) {
    Calibration c = fallbackCalibration();
    c.detail = "fallback: " + path + " does not parse (" + e.what() + ")";
    return c;
  }

  Calibration c;
  c.source = CalibrationSource::BenchJson;
  if (doc.has("simd_microbench")) {
    const minijson::Value& simd = doc.at("simd_microbench");
    const bool supported = simd.has("supported") &&
                           simd.at("supported").type ==
                               minijson::Value::Type::Bool &&
                           simd.at("supported").boolean;
    const std::string isa = simd.has("isa") ? simd.at("isa").str : "?";
    const std::string grid =
        simd.has("grid_n") ? gridLabel(simd.at("grid_n")) : "?";
    if (const double rate = segmentsPerSecond(simd, "simd_mseg_per_s");
        supported && rate > 0.0) {
      c.hostSegmentsPerSecond = rate;
      c.detail = "simd_microbench.simd_mseg_per_s [" + isa + " @" + grid +
                 "^3] from " + path;
      return c;
    }
    if (const double rate = segmentsPerSecond(simd, "scalar_mseg_per_s");
        rate > 0.0) {
      c.hostSegmentsPerSecond = rate;
      c.detail = "simd_microbench.scalar_mseg_per_s [@" + grid +
                 "^3] from " + path;
      return c;
    }
  }
  const minijson::Value* serial = serialSweepSample(doc);
  if (const double rate =
          serial ? segmentsPerSecond(*serial, "mseg_per_s") : 0.0;
      rate > 0.0) {
    c.hostSegmentsPerSecond = rate;
    c.detail = "sweep[threads==1].mseg_per_s from " + path;
    return c;
  }
  c = fallbackCalibration();
  c.detail = "fallback: " + path + " has no usable mseg_per_s key";
  return c;
}

MachineModel calibrate(MachineModel m, const Calibration& c,
                       double hostToGpuScale) {
  if (c.hostSegmentsPerSecond > 0)
    m.gpuSegmentsPerSecond = c.hostSegmentsPerSecond * hostToGpuScale;
  if (c.waitFreePerMessage > 0)
    m.perMessageOverheadWaitFree = c.waitFreePerMessage;
  if (c.lockedPerMessage > 0)
    m.perMessageOverheadLocked = c.lockedPerMessage;
  return m;
}

}  // namespace rmcrt::sim
