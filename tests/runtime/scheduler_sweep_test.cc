/// Property sweeps over the scheduler's staging machinery: ghost widths,
/// rank counts and container choices must all deliver exactly the
/// fingerprint field into every staged window cell.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "runtime/scheduler.h"

namespace rmcrt::runtime {
namespace {

using grid::Grid;
using grid::LoadBalancer;

double fingerprint(const IntVector& c) {
  return 7.0 * c.x() + 0.01 * c.y() - 3.0 * c.z();
}

using GhostSweepParam = std::tuple<int /*ghost*/, int /*ranks*/>;

class GhostWidthSweep : public ::testing::TestWithParam<GhostSweepParam> {};

TEST_P(GhostWidthSweep, StagedWindowExactEverywhere) {
  const auto [ng, ranks] = GetParam();
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(12),
                                    IntVector(4));
  auto lb = std::make_shared<LoadBalancer>(*grid, ranks);
  comm::Communicator world(ranks);
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < ranks; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r));

  std::atomic<int> badCells{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r, ng = ng] {
      Scheduler& s = *scheds[r];
      Task fill("fill", 0, [](const TaskContext& ctx) {
        auto& v = ctx.newDW->getModifiable<double>("phi", ctx.patch->id());
        for (const auto& c : ctx.patch->cells()) v[c] = fingerprint(c);
      });
      fill.addComputes(Computes{"phi", VarType::Double, 0});
      s.addTask(std::move(fill));
      Task consume("consume", 0, [&badCells, ng](const TaskContext& ctx) {
        const auto& g = ctx.getGhosted<double>("phi", ng);
        for (const auto& c : g.window())
          if (g[c] != fingerprint(c)) badCells.fetch_add(1);
      });
      consume.addRequires(Requires{"phi", VarType::Double, 0, ng, false});
      s.addTask(std::move(consume));
      s.executeTimestep();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(badCells.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    GhostByRanks, GhostWidthSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 4, 6),
                       ::testing::Values(1, 3)),
    [](const auto& info) {
      return std::string("g")
          .append(std::to_string(std::get<0>(info.param)))
          .append("_r")
          .append(std::to_string(std::get<1>(info.param)));
    });

TEST(SchedulerSweep, GhostWiderThanPatchStillExact) {
  // Ghost width exceeding the patch edge pulls data from beyond nearest
  // neighbors — stresses the transfer enumeration.
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(12),
                                    IntVector(3));
  const int ranks = 4, ng = 7;  // > 2 patch widths
  auto lb = std::make_shared<LoadBalancer>(*grid, ranks);
  comm::Communicator world(ranks);
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < ranks; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r));
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      Scheduler& s = *scheds[r];
      Task fill("fill", 0, [](const TaskContext& ctx) {
        auto& v = ctx.newDW->getModifiable<double>("phi", ctx.patch->id());
        for (const auto& c : ctx.patch->cells()) v[c] = fingerprint(c);
      });
      fill.addComputes(Computes{"phi", VarType::Double, 0});
      s.addTask(std::move(fill));
      Task consume("consume", 0, [&bad](const TaskContext& ctx) {
        const auto& g = ctx.getGhosted<double>("phi", ng);
        for (const auto& c : g.window())
          if (g[c] != fingerprint(c)) bad.fetch_add(1);
      });
      consume.addRequires(Requires{"phi", VarType::Double, 0, ng, false});
      s.addTask(std::move(consume));
      s.executeTimestep();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(SchedulerSweep, CellTypeVariableExchanges) {
  // The non-double payload path (CellType = int32) through staging.
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(4));
  const int ranks = 2;
  auto lb = std::make_shared<LoadBalancer>(*grid, ranks);
  comm::Communicator world(ranks);
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < ranks; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r));
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      Scheduler& s = *scheds[r];
      Task fill("fill", 0, [](const TaskContext& ctx) {
        auto& v = ctx.newDW->getModifiable<grid::CellType>(
            "cellType", ctx.patch->id());
        for (const auto& c : ctx.patch->cells())
          v[c] = (c.x() + c.y() + c.z()) % 2 == 0 ? grid::CellType::Wall
                                                  : grid::CellType::Flow;
      });
      fill.addComputes(Computes{"cellType", VarType::CellTypeVar, 0});
      s.addTask(std::move(fill));
      Task consume("consume", 0, [&bad](const TaskContext& ctx) {
        const auto& g = ctx.getGhosted<grid::CellType>("cellType", 2);
        for (const auto& c : g.window()) {
          const auto expect = (c.x() + c.y() + c.z()) % 2 == 0
                                  ? grid::CellType::Wall
                                  : grid::CellType::Flow;
          if (g[c] != expect) bad.fetch_add(1);
        }
      });
      consume.addRequires(
          Requires{"cellType", VarType::CellTypeVar, 0, 2, false});
      s.addTask(std::move(consume));
      s.executeTimestep();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace rmcrt::runtime
