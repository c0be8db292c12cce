#pragma once

/// \file task.h
/// Uintah-style task declaration: a named computation over the patches of
/// one level, with declared requires (inputs, possibly with ghost cells or
/// a whole-level halo) and computes (outputs). The scheduler compiles the
/// declarations into per-patch DetailedTasks and the message list that
/// satisfies the remote requires.

#include <functional>
#include <string>
#include <vector>

#include "grid/grid.h"
#include "runtime/data_warehouse.h"

namespace rmcrt::runtime {

/// Variable payload type, needed by the scheduler to pack/unpack messages.
enum class VarType { Double, CellTypeVar };

/// What a task needs before it can run on a patch.
struct Requires {
  std::string label;
  VarType type = VarType::Double;
  /// Level the data lives on (absolute level index).
  int level = 0;
  /// Ghost cells needed around the patch (same-level halo exchange).
  int numGhost = 0;
  /// The paper's "infinite ghost cells": the task needs the variable over
  /// the ENTIRE level (coarse radiation data). Triggers whole-level
  /// replication instead of halo exchange.
  bool wholeLevel = false;
  /// Read the previous timestep's DataWarehouse instead of this one.
  bool fromOldDW = false;
};

/// What a task produces on each of its patches.
struct Computes {
  std::string label;
  VarType type = VarType::Double;
  /// Ghost margin to allocate with the output (usually 0).
  int numGhost = 0;
};

/// The cells requirement \p req needs for a task on \p patch: the one
/// geometry rule behind staging, message planning and every TaskContext
/// accessor. On the patch's own level, the patch grown by numGhost; on a
/// finer level, the patch refined down to req.level, then grown; on a
/// coarser level, the coarse cells covering the patch, then grown. A
/// wholeLevel requirement needs the whole level. Always clipped to the
/// level's extent.
inline grid::CellRange requiredWindow(const grid::Grid& grid,
                                      const grid::Patch& patch,
                                      const Requires& req) {
  const grid::Level& level = grid.level(req.level);
  if (req.wholeLevel) return level.cells();
  grid::CellRange r = patch.cells();
  for (int l = patch.levelIndex() + 1; l <= req.level; ++l)
    r = r.refined(grid.level(l).refinementRatio());
  for (int l = patch.levelIndex(); l > req.level; --l)
    r = r.coarsened(grid.level(l).refinementRatio());
  return r.grown(req.numGhost).intersect(level.cells());
}

/// Execution context handed to a task's action for one patch. Actions
/// run on the scheduler thread; the accessors return the regions the
/// scheduler staged for the matching Requires.
struct TaskContext {
  int rank;
  const grid::Grid* grid;
  const grid::Patch* patch;  ///< the patch to operate on
  DataWarehouse* oldDW;      ///< previous timestep state
  DataWarehouse* newDW;      ///< this timestep's results

  /// Staged data for \p req, over requiredWindow(*grid, *patch, req).
  /// req.type plays no part in the window, so the accessors below pass
  /// VarType::Double whatever T is.
  template <typename T>
  const grid::CCVariable<T>& getRequired(const Requires& req) const {
    return (req.fromOldDW ? oldDW : newDW)
        ->getRegion<T>(req.label, req.level,
                       requiredWindow(*grid, *patch, req));
  }

  /// Staged same-level data with \p numGhost ghost cells.
  template <typename T>
  const grid::CCVariable<T>& getGhosted(const std::string& label,
                                        int numGhost,
                                        bool fromOld = false) const {
    return getRequired<T>(Requires{label, VarType::Double,
                                   patch->levelIndex(), numGhost, false,
                                   fromOld});
  }

  /// Staged whole-level data (the "infinite ghost cells" requirement).
  template <typename T>
  const grid::CCVariable<T>& getWholeLevel(const std::string& label,
                                           int levelIndex,
                                           bool fromOld = false) const {
    return getRequired<T>(
        Requires{label, VarType::Double, levelIndex, 0, true, fromOld});
  }

  /// Staged finer-level data covering this patch (inter-level requires,
  /// e.g. the coarsen task reading the fine CFD mesh).
  template <typename T>
  const grid::CCVariable<T>& getFineRegion(const std::string& label,
                                           int fineLevel, int numGhost = 0,
                                           bool fromOld = false) const {
    return getRequired<T>(
        Requires{label, VarType::Double, fineLevel, numGhost, false, fromOld});
  }
};

/// A task declaration. Tasks added to the scheduler run as ordered phases;
/// within a phase, per-patch instances run as soon as their own inputs
/// (local copies + remote messages) are satisfied.
class Task {
 public:
  using Action = std::function<void(const TaskContext&)>;

  /// \param name   diagnostic name ("RMCRT::rayTrace")
  /// \param level  absolute index of the level whose patches the task
  ///               visits
  /// \param action per-patch callback
  Task(std::string name, int level, Action action)
      : m_name(std::move(name)), m_level(level), m_action(std::move(action)) {}

  // ("requires" itself is a C++20 keyword, hence addRequires.)
  Task& addRequires(Requires r) {
    m_requires.push_back(std::move(r));
    return *this;
  }
  Task& addComputes(Computes c) {
    m_computes.push_back(std::move(c));
    return *this;
  }

  const std::string& name() const { return m_name; }
  int level() const { return m_level; }
  const std::vector<Requires>& requiresList() const { return m_requires; }
  const std::vector<Computes>& computesList() const { return m_computes; }
  const Action& action() const { return m_action; }

 private:
  std::string m_name;
  int m_level;
  Action m_action;
  std::vector<Requires> m_requires;
  std::vector<Computes> m_computes;
};

}  // namespace rmcrt::runtime
