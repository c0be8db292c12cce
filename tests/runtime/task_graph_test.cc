#include "runtime/task_graph.h"

#include <gtest/gtest.h>

#include <functional>

#include "core/problems.h"
#include "core/rmcrt_component.h"
#include "gpu/gpu_data_warehouse.h"
#include "runtime/scheduler.h"

namespace rmcrt::runtime {
namespace {

Task simpleTask(const std::string& name, int level) {
  return Task(name, level, [](const TaskContext&) {});
}

TEST(TaskGraph, EmptyGraphIsValid) {
  TaskGraph g({});
  EXPECT_TRUE(g.valid());
  EXPECT_TRUE(g.executionOrder().empty());
  EXPECT_TRUE(g.declaredOrderIsValid());
}

TEST(TaskGraph, ProducerConsumerEdge) {
  std::vector<Task> tasks;
  Task produce = simpleTask("produce", 0);
  produce.addComputes(Computes{"phi", VarType::Double, 0});
  Task consume = simpleTask("consume", 0);
  consume.addRequires(Requires{"phi", VarType::Double, 0, 1, false});
  tasks.push_back(std::move(produce));
  tasks.push_back(std::move(consume));

  TaskGraph g(tasks);
  EXPECT_TRUE(g.valid());
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0].producer, 0u);
  EXPECT_EQ(g.edges()[0].consumer, 1u);
  EXPECT_EQ(g.edges()[0].label, "phi");
  EXPECT_FALSE(g.edges()[0].interLevel);
  EXPECT_TRUE(g.declaredOrderIsValid());
}

TEST(TaskGraph, MissingProducerDiagnosed) {
  std::vector<Task> tasks;
  Task consume = simpleTask("consume", 0);
  consume.addRequires(Requires{"ghost", VarType::Double, 0, 0, false});
  tasks.push_back(std::move(consume));
  TaskGraph g(tasks);
  EXPECT_FALSE(g.valid());
  ASSERT_EQ(g.diagnostics().size(), 1u);
  EXPECT_EQ(g.diagnostics()[0].kind,
            GraphDiagnostic::Kind::MissingProducer);
}

TEST(TaskGraph, OldDwRequiresNeedNoProducer) {
  std::vector<Task> tasks;
  Task carry = simpleTask("carry", 0);
  carry.addRequires(Requires{"phi", VarType::Double, 0, 0, false,
                             /*fromOldDW=*/true});
  carry.addComputes(Computes{"phi", VarType::Double, 0});
  tasks.push_back(std::move(carry));
  TaskGraph g(tasks);
  EXPECT_TRUE(g.valid());
  EXPECT_TRUE(g.edges().empty());
}

TEST(TaskGraph, DuplicateComputeDiagnosed) {
  std::vector<Task> tasks;
  for (int i = 0; i < 2; ++i) {
    Task t = simpleTask(std::string("t").append(std::to_string(i)), 0);
    t.addComputes(Computes{"phi", VarType::Double, 0});
    tasks.push_back(std::move(t));
  }
  TaskGraph g(tasks);
  EXPECT_TRUE(g.valid());  // duplicate compute is a warning, not fatal
  ASSERT_EQ(g.diagnostics().size(), 1u);
  EXPECT_EQ(g.diagnostics()[0].kind,
            GraphDiagnostic::Kind::DuplicateCompute);
}

TEST(TaskGraph, CycleDetected) {
  std::vector<Task> tasks;
  Task a = simpleTask("a", 0);
  a.addComputes(Computes{"x", VarType::Double, 0});
  a.addRequires(Requires{"y", VarType::Double, 0, 0, false});
  Task b = simpleTask("b", 0);
  b.addComputes(Computes{"y", VarType::Double, 0});
  b.addRequires(Requires{"x", VarType::Double, 0, 0, false});
  tasks.push_back(std::move(a));
  tasks.push_back(std::move(b));
  TaskGraph g(tasks);
  EXPECT_FALSE(g.valid());
  EXPECT_TRUE(g.executionOrder().empty());
  bool sawCycle = false;
  for (const auto& d : g.diagnostics())
    sawCycle |= d.kind == GraphDiagnostic::Kind::Cycle;
  EXPECT_TRUE(sawCycle);
}

TEST(TaskGraph, TopologicalOrderRespectsDependencies) {
  // Declare out of order: consumer first.
  std::vector<Task> tasks;
  Task consume = simpleTask("consume", 0);
  consume.addRequires(Requires{"phi", VarType::Double, 0, 0, false});
  Task produce = simpleTask("produce", 0);
  produce.addComputes(Computes{"phi", VarType::Double, 0});
  tasks.push_back(std::move(consume));
  tasks.push_back(std::move(produce));
  TaskGraph g(tasks);
  EXPECT_TRUE(g.valid());
  EXPECT_FALSE(g.declaredOrderIsValid());  // declared order is wrong
  ASSERT_EQ(g.executionOrder().size(), 2u);
  EXPECT_EQ(g.executionOrder()[0], 1u);  // produce first
  EXPECT_EQ(g.executionOrder()[1], 0u);
}

TEST(TaskGraph, RmcrtPipelineCompilesCleanly) {
  // Every production registration compiles with no diagnostics and a
  // valid declared order. Two-level: coarsen reads the three fine
  // properties (inter-level), and trace reads them over its ROI plus the
  // three coarse ones over the whole coarse level (inter-level).
  // Single-level: trace reads the three fine properties over the level.
  auto twoLevel = grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0),
                                           IntVector(16), IntVector(4),
                                           IntVector(8), IntVector(4));
  auto oneLevel = grid::Grid::makeSingleLevel(Vector(0.0), Vector(1.0),
                                              IntVector(16), IntVector(8));
  core::RmcrtSetup setup;
  setup.problem = core::burnsChriston();
  gpu::GpuDevice device;
  gpu::GpuDataWarehouse gdw(device);
  comm::Communicator world(2);

  struct Case {
    const char* name;
    std::shared_ptr<grid::Grid> grid;
    std::function<void(Scheduler&)> registerPipeline;
    std::size_t tasks, edges, interLevelEdges;
  };
  const Case cases[] = {
      {"cpu two-level", twoLevel,
       [&](Scheduler& s) {
         core::RmcrtComponent::registerTwoLevelPipeline(s, setup);
       },
       3, 9, 6},
      {"gpu two-level", twoLevel,
       [&](Scheduler& s) {
         core::RmcrtComponent::registerTwoLevelGpuPipeline(s, setup, gdw);
       },
       3, 9, 6},
      {"single-level", oneLevel,
       [&](Scheduler& s) {
         core::RmcrtComponent::registerSingleLevelPipeline(s, setup);
       },
       2, 3, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Scheduler sched(c.grid,
                    std::make_shared<grid::LoadBalancer>(*c.grid, 2), world,
                    0);
    c.registerPipeline(sched);
    ASSERT_EQ(sched.tasks().size(), c.tasks);
    TaskGraph g(sched.tasks());
    EXPECT_TRUE(g.valid());
    EXPECT_TRUE(g.diagnostics().empty());
    EXPECT_TRUE(g.declaredOrderIsValid());
    EXPECT_EQ(g.edges().size(), c.edges);
    std::size_t interLevel = 0;
    for (const auto& e : g.edges()) interLevel += e.interLevel ? 1 : 0;
    EXPECT_EQ(interLevel, c.interLevelEdges);
  }
}

}  // namespace
}  // namespace rmcrt::runtime
