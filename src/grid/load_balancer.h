#pragma once

/// \file load_balancer.h
/// Static patch-to-rank assignment. Uintah load-balances patches over MPI
/// ranks with locality-preserving orderings; we provide contiguous-block,
/// round-robin, and Morton space-filling-curve strategies. The SFC
/// ordering keeps a rank's fine patches spatially clustered, which
/// matters for the halo-volume accounting in the communication model.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "grid/grid.h"

namespace rmcrt::grid {

enum class LbStrategy {
  Block,       ///< contiguous runs of patch ids per rank
  RoundRobin,  ///< patch i -> rank i % P
  Morton,      ///< Morton-order patches, then contiguous blocks
};

/// Interleave the low 21 bits of x,y,z into a 63-bit Morton code.
inline std::uint64_t mortonEncode(std::uint32_t x, std::uint32_t y,
                                  std::uint32_t z) {
  auto split = [](std::uint64_t v) {
    v &= 0x1FFFFF;  // 21 bits
    v = (v | v << 32) & 0x1F00000000FFFFull;
    v = (v | v << 16) & 0x1F0000FF0000FFull;
    v = (v | v << 8) & 0x100F00F00F00F00Full;
    v = (v | v << 4) & 0x10C30C30C30C30C3ull;
    v = (v | v << 2) & 0x1249249249249249ull;
    return v;
  };
  return split(x) | (split(y) << 1) | (split(z) << 2);
}

/// Immutable patch->rank map for one grid.
class LoadBalancer {
 public:
  /// Distribute every patch of \p grid over \p numRanks ranks. Each level
  /// is balanced independently so every rank holds patches of every level
  /// (required: every rank traces rays on its own fine patches and owns a
  /// share of the coarse level). Both constructors throw
  /// std::invalid_argument when \p numRanks <= 0.
  LoadBalancer(const Grid& grid, int numRanks,
               LbStrategy strategy = LbStrategy::Morton);

  /// Measured-cost distribution: partition each level's Morton (or id)
  /// order into contiguous runs whose *costs* — not cell counts — are
  /// balanced. \p patchCosts is indexed by patch id over the whole grid;
  /// non-positive entries are treated as free. This is the dynamic
  /// rebalancing path: the amr:: engine feeds EWMA-smoothed traced-segment
  /// counts per patch so hot patches spread over ranks.
  LoadBalancer(const Grid& grid, int numRanks,
               const std::vector<double>& patchCosts,
               LbStrategy strategy = LbStrategy::Morton);

  int numRanks() const { return m_numRanks; }

  /// Owning rank of a patch id.
  int rankOf(int patchId) const {
    return m_rankOf[static_cast<std::size_t>(patchId)];
  }

  /// All patch ids owned by \p rank (ascending).
  const std::vector<int>& patchesOf(int rank) const {
    return m_patchesOf[static_cast<std::size_t>(rank)];
  }

  /// Patch ids owned by \p rank on a given level.
  std::vector<int> patchesOf(int rank, const Grid& grid, int level) const {
    std::vector<int> out;
    for (int id : patchesOf(rank)) {
      const Patch* p = grid.patchById(id);
      if (p && p->levelIndex() == level) out.push_back(id);
    }
    return out;
  }

  /// Max/min owned fine-cell imbalance across ranks (1.0 = perfect).
  double imbalance(const Grid& grid) const;

  /// Measured-cost imbalance: max over ranks of total owned cost divided
  /// by the mean rank cost (1.0 = perfect). Uses max/mean rather than
  /// max/min so a single idle rank does not blow the metric up; this is
  /// the value exported as the `rmcrt.lb.imbalance` gauge.
  double imbalance(const Grid& grid, const std::vector<double>& costs) const;

 private:
  void distributeLevel(const Grid& grid, const Level& level,
                       LbStrategy strategy,
                       const std::vector<double>* costs);

  static int positiveRankCount(int numRanks) {
    if (numRanks <= 0)
      throw std::invalid_argument(
          "LoadBalancer: rank count must be positive, got " +
          std::to_string(numRanks));
    return numRanks;
  }

  int m_numRanks;
  std::vector<int> m_rankOf;                // by patch id
  std::vector<std::vector<int>> m_patchesOf;  // by rank
};

inline LoadBalancer::LoadBalancer(const Grid& grid, int numRanks,
                                  LbStrategy strategy)
    : m_numRanks(positiveRankCount(numRanks)),
      m_rankOf(static_cast<std::size_t>(grid.numPatches()), 0),
      m_patchesOf(static_cast<std::size_t>(numRanks)) {
  for (int l = 0; l < grid.numLevels(); ++l)
    distributeLevel(grid, grid.level(l), strategy, nullptr);
  for (auto& v : m_patchesOf) std::sort(v.begin(), v.end());
}

inline LoadBalancer::LoadBalancer(const Grid& grid, int numRanks,
                                  const std::vector<double>& patchCosts,
                                  LbStrategy strategy)
    : m_numRanks(positiveRankCount(numRanks)),
      m_rankOf(static_cast<std::size_t>(grid.numPatches()), 0),
      m_patchesOf(static_cast<std::size_t>(numRanks)) {
  for (int l = 0; l < grid.numLevels(); ++l)
    distributeLevel(grid, grid.level(l), strategy, &patchCosts);
  for (auto& v : m_patchesOf) std::sort(v.begin(), v.end());
}

inline void LoadBalancer::distributeLevel(const Grid& grid,
                                          const Level& level,
                                          LbStrategy strategy,
                                          const std::vector<double>* costs) {
  std::vector<int> order;
  order.reserve(level.numPatches());
  for (const Patch& p : level.patches()) order.push_back(p.id());

  if (strategy == LbStrategy::Morton) {
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const Patch* pa = grid.patchById(a);
      const Patch* pb = grid.patchById(b);
      const IntVector ca = pa->low() - level.cells().low();
      const IntVector cb = pb->low() - level.cells().low();
      const std::uint64_t ma =
          mortonEncode(static_cast<std::uint32_t>(ca.x()),
                       static_cast<std::uint32_t>(ca.y()),
                       static_cast<std::uint32_t>(ca.z()));
      const std::uint64_t mb =
          mortonEncode(static_cast<std::uint32_t>(cb.x()),
                       static_cast<std::uint32_t>(cb.y()),
                       static_cast<std::uint32_t>(cb.z()));
      return ma != mb ? ma < mb : a < b;
    });
  }

  const std::size_t n = order.size();
  if (n == 0) return;

  if (costs) {
    // Cost-weighted contiguous partition of the (Morton) order: patch i
    // goes to the rank whose ideal cost interval contains the midpoint of
    // i's cumulative-cost span. Monotone in i, so each rank still gets a
    // contiguous SFC run (locality preserved); falls back to the uniform
    // split when no patch on this level carries cost.
    double total = 0.0;
    std::vector<double> c(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::size_t>(order[i]);
      const double v = id < costs->size() ? (*costs)[id] : 0.0;
      c[i] = v > 0.0 ? v : 0.0;
      total += c[i];
    }
    double cum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      int rank;
      if (total > 0.0) {
        rank = static_cast<int>((cum + 0.5 * c[i]) *
                                static_cast<double>(m_numRanks) / total);
        rank = std::min(rank, m_numRanks - 1);
      } else {
        rank = static_cast<int>(i * static_cast<std::size_t>(m_numRanks) / n);
      }
      cum += c[i];
      m_rankOf[static_cast<std::size_t>(order[i])] = rank;
      m_patchesOf[static_cast<std::size_t>(rank)].push_back(order[i]);
    }
    return;
  }

  for (std::size_t i = 0; i < n; ++i) {
    int rank;
    if (strategy == LbStrategy::RoundRobin) {
      rank = static_cast<int>(i) % m_numRanks;
    } else {  // Block and Morton both take contiguous runs of the order
      rank = static_cast<int>(i * static_cast<std::size_t>(m_numRanks) / n);
    }
    m_rankOf[static_cast<std::size_t>(order[i])] = rank;
    m_patchesOf[static_cast<std::size_t>(rank)].push_back(order[i]);
  }
}

inline double LoadBalancer::imbalance(const Grid& grid) const {
  const Level& fine = grid.fineLevel();
  std::vector<std::int64_t> cells(static_cast<std::size_t>(m_numRanks), 0);
  for (const Patch& p : fine.patches())
    cells[static_cast<std::size_t>(rankOf(p.id()))] += p.numCells();
  const auto [mn, mx] = std::minmax_element(cells.begin(), cells.end());
  return *mn > 0 ? static_cast<double>(*mx) / static_cast<double>(*mn)
                 : static_cast<double>(*mx);
}

inline double LoadBalancer::imbalance(const Grid& grid,
                                      const std::vector<double>& costs) const {
  std::vector<double> rankCost(static_cast<std::size_t>(m_numRanks), 0.0);
  double total = 0.0;
  for (int id = 0; id < grid.numPatches(); ++id) {
    const auto i = static_cast<std::size_t>(id);
    const double c = i < costs.size() && costs[i] > 0.0 ? costs[i] : 0.0;
    rankCost[static_cast<std::size_t>(rankOf(id))] += c;
    total += c;
  }
  if (total <= 0.0) return 1.0;
  const double mean = total / static_cast<double>(m_numRanks);
  const double mx = *std::max_element(rankCost.begin(), rankCost.end());
  return mx / mean;
}

}  // namespace rmcrt::grid
