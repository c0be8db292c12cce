#pragma once

/// \file radiometer.h
/// The virtual radiometer: Uintah RMCRT's instrument model (used in the
/// CCMSC boiler validation campaigns alongside the divQ solve this paper
/// scales). A radiometer sits at a physical location, looks along a unit
/// direction, and integrates incoming intensity over a cone of
/// half-angle theta — exactly what a physical narrow-angle radiometer
/// mounted in a boiler wall measures. Monte Carlo: directions sampled
/// uniformly over the spherical cap, flux = mean(I) * solid angle.

#include "core/ray_tracer.h"

namespace rmcrt::core {

/// Radiometer description.
struct RadiometerSpec {
  Vector position;          ///< physical mounting point (inside the domain)
  Vector viewDirection;     ///< unit vector the instrument looks along
  double halfAngleRadians = 0.2;  ///< cone half-angle (narrow-angle inst.)
  int nRays = 500;
};

/// Result of one radiometer evaluation.
struct RadiometerReading {
  double meanIntensity = 0.0;   ///< [W/m^2/sr] average over the cone
  double solidAngle = 0.0;      ///< [sr] of the viewing cone
  double flux = 0.0;            ///< meanIntensity * solidAngle [W/m^2]
};

/// Evaluate a radiometer against an existing tracer (any level stack).
///
/// Directions are sampled uniformly on the spherical cap around
/// viewDirection: cosTheta uniform in [cos(halfAngle), 1], every ray from
/// one sequential Rng(seed ^ "RADI") in ray order, every origin at
/// `position` on level 0. The fan runs through the Tracer's bundle routine
/// as one ray per item, so TraceConfig::useSimd picks its march as it does
/// divQ's, and the scratch stays bounded by one run whatever nRays is. The
/// intensities are summed in ray order; the segments flush once per call,
/// and the rays do not count in `tracer.rays`. Defined in ray_tracer.cc.
RadiometerReading evaluateRadiometer(const Tracer& tracer,
                                     const RadiometerSpec& spec);

}  // namespace rmcrt::core
