/// Integration tests of the per-rank scheduler: multi-rank halo exchange,
/// whole-level ("infinite ghost cells") replication, and inter-level
/// requires to a finer and to a coarser level — the communication
/// patterns the RMCRT pipeline needs.
/// Each test spawns one thread per rank over a shared Communicator, runs
/// identical task declarations, and checks the staged data is exactly what
/// a serial computation would produce.

#include "runtime/scheduler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "grid/operators.h"

namespace rmcrt::runtime {
namespace {

using grid::Grid;
using grid::LoadBalancer;
using grid::Patch;

/// Deterministic cell fingerprint so any mis-staged cell is detectable.
double fingerprint(const IntVector& c, int level) {
  return 1000.0 * level + c.x() + 0.001 * c.y() + 0.000001 * c.z();
}

/// Run `configure(sched)` + executeTimestep on every rank concurrently.
void runRanks(std::shared_ptr<const Grid> grid, int numRanks,
              const std::function<void(Scheduler&)>& configure,
              const std::function<void(Scheduler&)>& verify,
              grid::LbStrategy strategy = grid::LbStrategy::Block) {
  auto lb = std::make_shared<LoadBalancer>(*grid, numRanks, strategy);
  comm::Communicator world(numRanks);
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < numRanks; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r));

  std::vector<std::thread> threads;
  for (int r = 0; r < numRanks; ++r) {
    threads.emplace_back([&, r] {
      configure(*scheds[r]);
      scheds[r]->executeTimestep();
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < numRanks; ++r) verify(*scheds[r]);
}

/// Task that fills a label with the fingerprint on every patch of a level.
Task makeFillTask(const std::string& label, int level) {
  Task t("fill:" + label, level, [label, level](const TaskContext& ctx) {
    auto& v = ctx.newDW->getModifiable<double>(label, ctx.patch->id());
    for (const auto& c : ctx.patch->cells()) v[c] = fingerprint(c, level);
  });
  t.addComputes(Computes{label, VarType::Double, 0});
  return t;
}

TEST(Scheduler, LocalComputeNoCommunication) {
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(4));
  runRanks(
      grid, 2,
      [](Scheduler& s) { s.addTask(makeFillTask("phi", 0)); },
      [&](Scheduler& s) {
        for (int pid : s.loadBalancer().patchesOf(s.rank())) {
          const auto& v = s.newDW().get<double>("phi", pid);
          for (const auto& c : grid->patchById(pid)->cells())
            EXPECT_DOUBLE_EQ(v[c], fingerprint(c, 0));
        }
        EXPECT_EQ(s.stats().messagesSent, 0u);
      });
}

TEST(Scheduler, GhostExchangeAcrossRanks) {
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                    IntVector(4));  // 64 patches
  const int ng = 2;
  runRanks(
      grid, 4,
      [&](Scheduler& s) {
        s.addTask(makeFillTask("phi", 0));
        Task consume("consume", 0, [&](const TaskContext& ctx) {
          const auto& ghosted = ctx.getGhosted<double>("phi", ng);
          // Every cell of the clipped ghost window must carry the global
          // fingerprint, including cells owned by other ranks.
          for (const auto& c : ghosted.window())
            if (ghosted[c] != fingerprint(c, 0))
              ADD_FAILURE() << "bad ghost value at " << c;
        });
        consume.addRequires(Requires{"phi", VarType::Double, 0, ng, false});
        s.addTask(std::move(consume));
      },
      [](Scheduler& s) { EXPECT_GT(s.stats().tasksExecuted, 0u); });
}

TEST(Scheduler, WholeLevelReplication) {
  // The paper's "infinite ghost cells": every rank needs the whole coarse
  // level. Fill on owners, require wholeLevel, verify full coverage.
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(2));  // 64 tiny patches
  runRanks(
      grid, 4,
      [&](Scheduler& s) {
        s.addTask(makeFillTask("abskg", 0));
        Task trace("trace", 0, [&](const TaskContext& ctx) {
          const auto& lv = ctx.getWholeLevel<double>("abskg", 0);
          for (const auto& c : ctx.grid->level(0).cells())
            if (lv[c] != fingerprint(c, 0))
              ADD_FAILURE() << "bad replicated value at " << c;
        });
        trace.addRequires(
            Requires{"abskg", VarType::Double, 0, 0, /*wholeLevel=*/true});
        s.addTask(std::move(trace));
      },
      [](Scheduler& s) {
        // Each rank must have sent its owned patches to the other ranks.
        EXPECT_GT(s.stats().messagesSent, 0u);
        EXPECT_GT(s.stats().bytesReceived, 0u);
      });
}

TEST(Scheduler, InterLevelRequiresForCoarsen) {
  // Coarsen task: coarse patches read the fine region they cover (possibly
  // remote) and average it down — the RMCRT property projection.
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                 IntVector(4), IntVector(4), IntVector(2));
  runRanks(
      grid, 3,
      [&](Scheduler& s) {
        s.addTask(makeFillTask("phi", 1));  // fill fine level
        Task coarsen("coarsen", 0, [&](const TaskContext& ctx) {
          const auto& fine = ctx.getFineRegion<double>("phi", 1);
          auto& out = ctx.newDW->getModifiable<double>("phiCoarse",
                                                       ctx.patch->id());
          grid::coarsenAverage(fine, IntVector(4), out,
                               ctx.patch->cells());
        });
        coarsen.addRequires(Requires{"phi", VarType::Double, 1, 0, false});
        coarsen.addComputes(Computes{"phiCoarse", VarType::Double, 0});
        s.addTask(std::move(coarsen));
      },
      [&](Scheduler& s) {
        // Verify against a serial coarsening of the fingerprint field.
        for (int pid : s.loadBalancer().patchesOf(s.rank(), *grid, 0)) {
          const auto& v = s.newDW().get<double>("phiCoarse", pid);
          for (const auto& cc : grid->patchById(pid)->cells()) {
            double sum = 0.0;
            const IntVector fLo = cc * IntVector(4);
            for (const auto& fc : CellRange(fLo, fLo + IntVector(4)))
              sum += fingerprint(fc, 1);
            EXPECT_NEAR(v[cc], sum / 64.0, 1e-9) << "coarse cell " << cc;
          }
        }
      });
}

TEST(Scheduler, CoarserLevelRequiresWithGhostCells) {
  // A fine-level task reads the coarse cells under its patch plus one
  // coarse ghost cell. 6^3 fine patches at ratio 4 cover coarse cells only
  // partly, and with 3 ranks a fine patch's coarse cells mostly live on
  // other ranks.
  auto grid = Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(24),
                                 IntVector(4), IntVector(6), IntVector(3));
  const Requires coarse{"phi", VarType::Double, 0, 1, false};
  runRanks(
      grid, 3,
      [&](Scheduler& s) {
        s.addTask(makeFillTask("phi", 0));
        Task read("readCoarse", 1, [&](const TaskContext& ctx) {
          const auto& staged = ctx.getRequired<double>(coarse);
          for (const auto& c : staged.window())
            if (staged[c] != fingerprint(c, 0))
              ADD_FAILURE() << "bad coarse value at " << c;
        });
        read.addRequires(coarse);
        s.addTask(std::move(read));
      },
      [&](Scheduler& s) {
        EXPECT_GT(s.stats().messagesReceived, 0u);
        // The interior patch [6,12)^3 covers coarse [1,3)^3; the corner
        // patch [18,24)^3 covers [4,6)^3, clipped after growing.
        for (int pid : s.loadBalancer().patchesOf(s.rank(), *grid, 1)) {
          const IntVector low = grid->patchById(pid)->low();
          if (low == IntVector(6)) {
            EXPECT_TRUE(s.newDW().existsRegion(
                "phi", 0, CellRange(IntVector(0), IntVector(4))));
          }
          if (low == IntVector(18)) {
            EXPECT_TRUE(s.newDW().existsRegion(
                "phi", 0, CellRange(IntVector(3), IntVector(6))));
          }
        }
      });
}

TEST(Scheduler, FromOldDWReadsPreviousTimestep) {
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(4));
  auto lb = std::make_shared<LoadBalancer>(*grid, 2);
  comm::Communicator world(2);
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (int r = 0; r < 2; ++r)
    scheds.push_back(std::make_unique<Scheduler>(grid, lb, world, r));

  // Timestep 1: fill phi. Then advance. Timestep 2: carry forward from
  // the old DW with ghosts.
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Scheduler& s = *scheds[r];
      s.addTask(makeFillTask("phi", 0));
      s.executeTimestep();
      s.advanceDataWarehouses();
      s.clearTasks();
      Task carry("carryForward", 0, [](const TaskContext& ctx) {
        const auto& old = ctx.getGhosted<double>("phi", 1, /*fromOld=*/true);
        auto& out = ctx.newDW->getModifiable<double>("phi", ctx.patch->id());
        for (const auto& c : ctx.patch->cells()) out[c] = old[c];
      });
      carry.addRequires(
          Requires{"phi", VarType::Double, 0, 1, false, /*fromOldDW=*/true});
      carry.addComputes(Computes{"phi", VarType::Double, 0});
      s.addTask(std::move(carry));
      s.executeTimestep();
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < 2; ++r) {
    for (int pid : scheds[r]->loadBalancer().patchesOf(r)) {
      const auto& v = scheds[r]->newDW().get<double>("phi", pid);
      for (const auto& c : grid->patchById(pid)->cells())
        EXPECT_DOUBLE_EQ(v[c], fingerprint(c, 0));
    }
  }
}

TEST(Scheduler, StatsAttributeTimeAndTraffic) {
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                    IntVector(4));
  runRanks(
      grid, 4,
      [&](Scheduler& s) {
        s.addTask(makeFillTask("phi", 0));
        Task consume("consume", 0, [](const TaskContext& ctx) {
          (void)ctx.getGhosted<double>("phi", 1);
        });
        consume.addRequires(Requires{"phi", VarType::Double, 0, 1, false});
        s.addTask(std::move(consume));
      },
      [](Scheduler& s) {
        const SchedulerStats& st = s.stats();
        EXPECT_GT(st.tasksExecuted, 0u);
        EXPECT_GT(st.localCommSeconds, 0.0);
        EXPECT_GT(st.taskExecSeconds, 0.0);
        EXPECT_EQ(st.messagesReceived > 0, st.bytesReceived > 0);
      });
}

TEST(Scheduler, SingleRankWholeLevelNeedsNoMessages) {
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(4));
  runRanks(
      grid, 1,
      [&](Scheduler& s) {
        s.addTask(makeFillTask("abskg", 0));
        Task trace("trace", 0, [](const TaskContext& ctx) {
          const auto& lv = ctx.getWholeLevel<double>("abskg", 0);
          (void)lv;
        });
        trace.addRequires(Requires{"abskg", VarType::Double, 0, 0, true});
        s.addTask(std::move(trace));
      },
      [](Scheduler& s) {
        EXPECT_EQ(s.stats().messagesSent, 0u);
        EXPECT_EQ(s.stats().messagesReceived, 0u);
      });
}

TEST(Scheduler, MortonLoadBalancedExchangeMatches) {
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                    IntVector(4));
  runRanks(
      grid, 4,
      [&](Scheduler& s) {
        s.addTask(makeFillTask("phi", 0));
        Task consume("consume", 0, [](const TaskContext& ctx) {
          const auto& g = ctx.getGhosted<double>("phi", 2);
          for (const auto& c : g.window())
            if (g[c] != fingerprint(c, 0))
              ADD_FAILURE() << "bad ghost at " << c;
        });
        consume.addRequires(Requires{"phi", VarType::Double, 0, 2, false});
        s.addTask(std::move(consume));
      },
      [](Scheduler&) {}, grid::LbStrategy::Morton);
}

TEST(Scheduler, AddTaskRejectsMoreRequiresThanTagSlots) {
  // A message tag has 64 requirement slots; a 65th requires would alias
  // the next phase's tags, so registration must refuse it.
  auto grid = Grid::makeSingleLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(4));
  auto lb = std::make_shared<LoadBalancer>(*grid, 1);
  comm::Communicator world(1);
  Scheduler sched(grid, lb, world, 0);
  Task wide("wide", 0, [](const TaskContext&) {});
  for (int i = 0; i < 64; ++i)
    wide.addRequires(Requires{"phi", VarType::Double, 0, 1, false});
  sched.addTask(wide);
  wide.addRequires(Requires{"phi", VarType::Double, 0, 1, false});
  EXPECT_THROW(sched.addTask(std::move(wide)), std::length_error);
  EXPECT_EQ(sched.tasks().size(), 1u);
}

}  // namespace
}  // namespace rmcrt::runtime
