#pragma once

/// \file task_graph.h
/// Task-graph compilation and analysis — the front half of Uintah's
/// scheduler ("Uintah is unique in its ... use of a directed acyclic
/// graph (DAG) approach", paper Section II). Given the declared tasks,
/// the compiler:
///
///  * builds producer->consumer edges from matching computes/requires
///    labels (same level, or cross-level for coarsen-style requires);
///  * validates the declarations (every require has a producer or comes
///    from the old DataWarehouse; no label is computed twice on a level;
///    no dependency cycles);
///  * emits a topological phase order (the execution order the
///    phase-based Scheduler runs).
///
/// SimulationController recompiles the graph after every regrid. The
/// message plan that satisfies the requires is the Scheduler's.

#include <string>
#include <vector>

#include "runtime/task.h"

namespace rmcrt::runtime {

/// One compiled edge: consumer task depends on producer task.
struct TaskEdge {
  std::size_t producer;  ///< index into the task list
  std::size_t consumer;
  std::string label;  ///< variable carrying the dependency
  bool interLevel = false;
};

/// Problems found during compilation.
struct GraphDiagnostic {
  enum class Kind {
    MissingProducer,   ///< require with no computing task (and not OldDW)
    DuplicateCompute,  ///< two tasks compute the same (label, level)
    Cycle,             ///< dependency cycle
  };
  Kind kind;
  std::string detail;
};

/// The compiled graph.
class TaskGraph {
 public:
  /// Compile \p tasks. Diagnostics are collected rather than thrown;
  /// valid() is false if any MissingProducer/Cycle was found.
  explicit TaskGraph(const std::vector<Task>& tasks);

  bool valid() const;
  const std::vector<GraphDiagnostic>& diagnostics() const {
    return m_diagnostics;
  }
  const std::vector<TaskEdge>& edges() const { return m_edges; }

  /// Topological execution order (task indices). Empty if cyclic.
  const std::vector<std::size_t>& executionOrder() const { return m_order; }

  /// True if the declared order (task list order) already respects all
  /// dependencies — the condition for the phase-based Scheduler to be
  /// correct as declared.
  bool declaredOrderIsValid() const;

 private:
  std::vector<TaskEdge> m_edges;
  std::vector<GraphDiagnostic> m_diagnostics;
  std::vector<std::size_t> m_order;
};

}  // namespace rmcrt::runtime
