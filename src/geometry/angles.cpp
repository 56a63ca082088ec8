#include "geometry/angles.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ps360::geometry {

double Vec3::dot(const Vec3& other) const {
  return x * other.x + y * other.y + z * other.z;
}

double Vec3::norm() const { return std::sqrt(dot(*this)); }

Vec3 Vec3::normalized() const {
  const double n = norm();
  PS360_CHECK_MSG(n > 0.0, "cannot normalize a zero vector");
  return Vec3{x / n, y / n, z / n};
}

Vec3 orientation_vector(Degrees lon, Degrees colat) {
  PS360_CHECK(colat.value() >= 0.0 && colat.value() <= 180.0);
  const double lon_rad = to_radians(wrap360(lon)).value();
  const double colat_rad = to_radians(colat).value();
  return Vec3{std::sin(colat_rad) * std::cos(lon_rad),
              std::sin(colat_rad) * std::sin(lon_rad), std::cos(colat_rad)};
}

Degrees angular_distance(const Vec3& a, const Vec3& b) {
  const double na = a.norm();
  const double nb = b.norm();
  PS360_CHECK(na > 0.0 && nb > 0.0);
  const double cosine = std::clamp(a.dot(b) / (na * nb), -1.0, 1.0);
  return to_degrees(Radians(std::acos(cosine)));
}

double switching_speed_deg_per_s(const Vec3& from, const Vec3& to, Seconds dt) {
  PS360_CHECK(dt.value() > 0.0);
  return angular_distance(from, to).value() / dt.value();
}

}  // namespace ps360::geometry
