// Angular math on the sphere and the equirectangular plane.
//
// Conventions used throughout pstream360:
//  - Longitude (yaw)  x in [0, 360) degrees, wraps around.
//  - Colatitude       y in [0, 180] degrees, 0 = zenith (top of the frame),
//                     no wrap. A head "pitch" of p degrees (+up) maps to
//                     y = 90 - p.
//  - The equirectangular frame is W x H (e.g. 3840x2160) pixels covering the
//    full 360 x 180 degree sphere; we work in degrees and convert only for
//    display.
//
// Angles crossing this API are strongly typed (util::Degrees / util::Radians,
// see util/units.h); degree<->radian conversion goes through the explicit
// util::to_radians / util::to_degrees helpers. Struct data members and
// private math stay `double` with a unit suffix in the name.
//
// Eq. 5 of the paper defines view-switching speed from 3-D orientation
// vectors; `orientation_vector` and `angular_distance` implement that.
#pragma once

#include <cmath>

#include "util/units.h"

namespace ps360::geometry {

using util::Degrees;
using util::Radians;
using util::Seconds;
using util::to_degrees;
using util::to_radians;

inline constexpr double kDegreesPerTurn = 360.0;

// The wrap helpers below are inline because k-means (ptile/kmeans.cpp) calls
// them millions of times per set-up of the 172 s workload. Each skips
// std::fmod when its argument is already in range. That fast path is exact:
// fmod(x, 360) returns x itself, bit for bit, whenever |x| < 360. NaN fails
// the range test and takes the fmod path as before, and -0.0 stays -0.0 on
// both paths.

// Wrap an angle into [0, 360).
inline Degrees wrap360(Degrees deg) {
  const double v = deg.value();
  if (v >= 0.0 && v < kDegreesPerTurn) return deg;
  double w = std::fmod(v, kDegreesPerTurn);
  if (w < 0.0) w += kDegreesPerTurn;
  // fmod of a value just below a multiple of 360 can round to exactly 360.
  if (w >= kDegreesPerTurn) w = 0.0;
  return Degrees(w);
}

// Shortest signed angular difference a - b, result in (-180, 180].
inline Degrees wrap_delta(Degrees a, Degrees b) {
  double d = a.value() - b.value();
  if (!(d > -kDegreesPerTurn && d < kDegreesPerTurn)) d = std::fmod(d, kDegreesPerTurn);
  if (d > 180.0) d -= kDegreesPerTurn;
  if (d <= -180.0) d += kDegreesPerTurn;
  return Degrees(d);
}

// Absolute shortest angular distance between two longitudes, in [0, 180].
inline Degrees circular_distance(Degrees a, Degrees b) {
  return Degrees(std::fabs(wrap_delta(a, b).value()));
}

// 3-D unit vector on the sphere.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  double dot(const Vec3& other) const;
  double norm() const;
  Vec3 normalized() const;  // requires non-zero norm
};

// Unit orientation vector for a viewing direction given as longitude (yaw)
// and colatitude. Uses the standard spherical parameterisation: z is the
// zenith axis.
Vec3 orientation_vector(Degrees lon, Degrees colat);

// Great-circle (angular) distance between two unit orientation vectors.
// This is the arccos term in Eq. 5.
Degrees angular_distance(const Vec3& a, const Vec3& b);

// Eq. 5: view-switching speed in degrees/second between two orientations
// sampled dt seconds apart (dt > 0).
double switching_speed_deg_per_s(const Vec3& from, const Vec3& to, Seconds dt);

}  // namespace ps360::geometry
