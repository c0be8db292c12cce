#include "core/spectral.h"

#include <cassert>
#include <chrono>
#include <cmath>
#include <string>

#include "util/metrics.h"
#include "util/trace_recorder.h"

namespace rmcrt::core {

SpectralTracer::SpectralTracer(const std::vector<TraceLevel>& levels,
                               const WallProperties& walls,
                               const TraceConfig& cfg, BandModel bands)
    : m_bands(std::move(bands)), m_levels(levels) {
  assert(!m_bands.empty());
  // ONE record set across every band: kappa scaling happens in the march
  // (TraceConfig::kappaScale), so bands share the same PackedCell
  // records — and, for GPU-staged levels, the same single device upload
  // — instead of the per-band scaled field copies the old driver built.
  m_sharedPacked.reserve(m_levels.size());
  for (TraceLevel& L : m_levels) {
    if (L.packed.valid() || !L.fields.abskg.valid()) continue;
    m_sharedPacked.emplace_back(L.fields);
    L.packed = m_sharedPacked.back().view();
  }
  m_tracers.reserve(m_bands.size());
  for (std::size_t b = 0; b < m_bands.size(); ++b) {
    TraceConfig bandCfg = cfg;
    bandCfg.kappaScale = cfg.kappaScale * m_bands[b].kappaScale;
    // Per-band RNG decorrelation: offset the seed so bands don't share
    // sample paths (a correlated estimator would hide band differences).
    // Band 0 keeps cfg.seed exactly — the single-band model reproduces
    // the gray solver bitwise.
    bandCfg.seed = cfg.seed + 0x5370656Bull * b;
    m_tracers.push_back(
        std::make_unique<Tracer>(m_levels, walls, bandCfg));
  }
}

void SpectralTracer::computeDivQ(const CellRange& cells,
                                 MutableFieldView<double> divQ,
                                 ThreadPool* pool) const {
  RMCRT_TRACE_SPAN("tracer", "spectral_divQ");
  grid::CCVariable<double> scratch(cells, 0.0);
  MutableFieldView<double> sview = MutableFieldView<double>::fromHost(scratch);
  for (std::size_t b = 0; b < m_bands.size(); ++b) {
    const std::uint64_t seg0 = m_tracers[b]->segmentCount();
    const auto t0 = std::chrono::steady_clock::now();
    m_tracers[b]->computeDivQ(cells, sview, pool);
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const std::uint64_t dseg = m_tracers[b]->segmentCount() - seg0;
    if (dt > 0.0)
      MetricsRegistry::global().setGauge(
          "tracer.band" + std::to_string(b) + ".mseg_per_s",
          static_cast<double>(dseg) / dt / 1e6);
    // Fold a_b * q_b into the output. Band 0 assigns (w == 1.0 for the
    // single-band model keeps this bitwise: x*1.0 == x).
    const double w = m_bands[b].weight;
    if (b == 0) {
      for (const IntVector& c : cells) divQ[c] = w * scratch[c];
    } else {
      for (const IntVector& c : cells) divQ[c] += w * scratch[c];
    }
  }
}

void SpectralTracer::computeDivQTile(const CellRange& tile,
                                     MutableFieldView<double> divQ) const {
  RMCRT_TRACE_SPAN("tracer", "spectral_divQ_tile");
  grid::CCVariable<double> scratch(tile, 0.0);
  MutableFieldView<double> sview = MutableFieldView<double>::fromHost(scratch);
  for (std::size_t b = 0; b < m_bands.size(); ++b) {
    m_tracers[b]->computeDivQTile(tile, sview);
    const double w = m_bands[b].weight;
    if (b == 0) {
      for (const IntVector& c : tile) divQ[c] = w * scratch[c];
    } else {
      for (const IntVector& c : tile) divQ[c] += w * scratch[c];
    }
  }
}

std::vector<double> SpectralTracer::bandIntensities(
    const IntVector& cell) const {
  std::vector<double> out;
  out.reserve(m_tracers.size());
  for (const auto& t : m_tracers)
    out.push_back(t->meanIncomingIntensity(cell));
  return out;
}

std::uint64_t SpectralTracer::segmentCount() const {
  std::uint64_t n = 0;
  for (const auto& t : m_tracers) n += t->segmentCount();
  return n;
}

void SpectralTracer::resetSegmentCount() {
  for (const auto& t : m_tracers) t->resetSegmentCount();
}

}  // namespace rmcrt::core
