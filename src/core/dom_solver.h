#pragma once

/// \file dom_solver.h
/// Discrete ordinates (S_N) baseline solver — the method the paper's
/// RMCRT replaces inside ARCHES (its Section II-A / III-A context: DOM
/// "is computationally expensive, involves multiple global, sparse linear
/// solves and presents challenges with the incorporation of scattering
/// physics", and suffers false scattering from spatial discretization).
///
/// Without scattering the RTE decouples per ordinate, so each ordinate is
/// solved exactly by one upwind finite-volume sweep (no Hypre needed —
/// source iteration degenerates to a single pass). Incident radiation
/// G = sum_m w_m I_m and divQ = 4*pi*kappa*(sigmaT4/pi - G/(4*pi)),
/// matching the tracer's sign convention.

#include <vector>

#include "core/field_view.h"
#include "core/ray_tracer.h"

namespace rmcrt::core {

/// One discrete ordinate: unit direction and quadrature weight.
struct Ordinate {
  Vector dir;
  double weight;  ///< weights sum to 4*pi over the full set
};

/// Level-symmetric quadrature sets.
/// \param n 2 (8 ordinates) or 4 (24 ordinates).
std::vector<Ordinate> levelSymmetricQuadrature(int n);

/// S_N solver over one uniform level.
class DomSolver {
 public:
  /// \param geom    level geometry (whole level)
  /// \param fields  radiative properties spanning geom.cells
  /// \param walls   boundary emission
  /// \param order   quadrature order (2 or 4)
  DomSolver(const LevelGeom& geom, const RadiationFieldsView& fields,
            const WallProperties& walls, int order = 4);

  /// Solve every ordinate by sweeping and write divQ over \p cells.
  void computeDivQ(const CellRange& cells,
                   MutableFieldView<double> divQ) const;

  /// Incident radiation G for one cell set (exposed for tests).
  void computeIncidentRadiation(grid::CCVariable<double>& G) const;

 private:
  void sweepOrdinate(const Ordinate& ord,
                     grid::CCVariable<double>& intensity) const;

  LevelGeom m_geom;
  RadiationFieldsView m_fields;
  WallProperties m_walls;
  std::vector<Ordinate> m_quad;
};

}  // namespace rmcrt::core
