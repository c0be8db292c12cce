#include "runtime/task_graph.h"

#include <deque>
#include <map>

namespace rmcrt::runtime {

namespace {

std::string computeKey(const std::string& label, int level) {
  return label + "@L" + std::to_string(level);
}

}  // namespace

TaskGraph::TaskGraph(const std::vector<Task>& tasks) {
  // Index producers by (label, level).
  std::map<std::string, std::size_t> producerOf;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (const Computes& c : tasks[i].computesList()) {
      const std::string key = computeKey(c.label, tasks[i].level());
      auto [it, inserted] = producerOf.emplace(key, i);
      if (!inserted) {
        // Re-computing a label in a later task (e.g. carryForward then
        // overwrite) is legal Uintah practice only across timesteps; in
        // one graph it is a declaration error.
        m_diagnostics.push_back(GraphDiagnostic{
            GraphDiagnostic::Kind::DuplicateCompute,
            key + " computed by both '" + tasks[it->second].name() +
                "' and '" + tasks[i].name() + "'"});
      }
    }
  }

  // Edges from requires.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (const Requires& r : tasks[i].requiresList()) {
      if (r.fromOldDW) continue;  // satisfied by the previous timestep
      const std::string key = computeKey(r.label, r.level);
      auto it = producerOf.find(key);
      if (it == producerOf.end()) {
        m_diagnostics.push_back(GraphDiagnostic{
            GraphDiagnostic::Kind::MissingProducer,
            "task '" + tasks[i].name() + "' requires " + key +
                " which no task computes"});
        continue;
      }
      if (it->second == i) continue;  // self-dependency via modifies: skip
      m_edges.push_back(TaskEdge{it->second, i, r.label,
                                 r.level != tasks[i].level()});
    }
  }

  // Kahn topological sort.
  std::vector<int> inDegree(tasks.size(), 0);
  std::vector<std::vector<std::size_t>> out(tasks.size());
  for (const TaskEdge& e : m_edges) {
    // Duplicate edges (several labels between same pair) inflate the
    // degree; that's fine for Kahn.
    ++inDegree[e.consumer];
    out[e.producer].push_back(e.consumer);
  }
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (inDegree[i] == 0) ready.push_back(i);
  while (!ready.empty()) {
    const std::size_t t = ready.front();
    ready.pop_front();
    m_order.push_back(t);
    for (std::size_t c : out[t])
      if (--inDegree[c] == 0) ready.push_back(c);
  }
  if (m_order.size() != tasks.size()) {
    m_diagnostics.push_back(GraphDiagnostic{GraphDiagnostic::Kind::Cycle,
                                            "dependency cycle detected"});
    m_order.clear();
  }
}

bool TaskGraph::valid() const {
  for (const auto& d : m_diagnostics) {
    if (d.kind == GraphDiagnostic::Kind::MissingProducer ||
        d.kind == GraphDiagnostic::Kind::Cycle) {
      return false;
    }
  }
  return true;
}

bool TaskGraph::declaredOrderIsValid() const {
  if (!valid()) return false;
  for (const TaskEdge& e : m_edges)
    if (e.producer > e.consumer) return false;
  return true;
}

}  // namespace rmcrt::runtime
