#include "ptile/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace ps360::ptile {

using geometry::EquirectPoint;

std::vector<std::vector<std::size_t>> KMeansResult::groups() const {
  std::vector<std::vector<std::size_t>> out(centroids.size());
  for (std::size_t i = 0; i < assignment.size(); ++i) out[assignment[i]].push_back(i);
  return out;
}

namespace {

double weight_of(const std::vector<double>& weights, std::size_t i) {
  return weights.empty() ? 1.0 : weights[i];
}

// cos and sin of a point's longitude, the terms of the circular mean.
struct LonTrig {
  double cos = 1.0;
  double sin = 0.0;
};

LonTrig lon_trig(const EquirectPoint& p) {
  const double rad = geometry::to_radians(geometry::Degrees(p.x)).value();
  return LonTrig{std::cos(rad), std::sin(rad)};
}

// The one centroid implementation. `trig_of(i)` is lon_trig(points[i]):
// computed on the spot by the public centroid(), read from a per-call table
// by the Lloyd loop, which needs it for every point on every iteration.
template <typename TrigOf>
EquirectPoint centroid_of(const std::vector<EquirectPoint>& points,
                          const std::vector<std::size_t>& member_indices,
                          const std::vector<double>& weights, TrigOf&& trig_of) {
  PS360_CHECK(!member_indices.empty());
  double sx = 0.0, sy = 0.0, y_sum = 0.0, w_sum = 0.0;
  for (std::size_t idx : member_indices) {
    PS360_CHECK(idx < points.size());
    const double w = weight_of(weights, idx);
    const LonTrig trig = trig_of(idx);
    sx += w * trig.cos;
    sy += w * trig.sin;
    y_sum += w * points[idx].y;
    w_sum += w;
  }
  PS360_CHECK_MSG(w_sum > 0.0, "centroid of zero-weight members");
  double x;
  if (std::fabs(sx) < 1e-12 && std::fabs(sy) < 1e-12) {
    x = points[member_indices.front()].x;  // antipodal degenerate case
  } else {
    x = geometry::wrap360(geometry::to_degrees(geometry::Radians(std::atan2(sy, sx))))
            .value();
  }
  return EquirectPoint{x, std::clamp(y_sum / w_sum, 0.0, 180.0)};
}

KMeansResult lloyd_iterate(const std::vector<EquirectPoint>& points,
                           const std::vector<double>& weights,
                           std::vector<EquirectPoint> centroids,
                           std::size_t max_iterations) {
  const std::size_t k = centroids.size();
  KMeansResult result;
  result.assignment.assign(points.size(), 0);
  std::vector<LonTrig> trig;
  trig.reserve(points.size());
  for (const EquirectPoint& p : points) trig.push_back(lon_trig(p));
  const auto trig_of = [&trig](std::size_t i) { return trig[i]; };
  std::vector<std::vector<std::size_t>> members(k);

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = geometry::wrapped_distance(points[i], centroids[c]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      if (result.assignment[i] != best_c) {
        result.assignment[i] = best_c;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;

    // Recompute centroids; an emptied cluster keeps its previous centroid.
    for (auto& m : members) m.clear();
    for (std::size_t i = 0; i < points.size(); ++i)
      members[result.assignment[i]].push_back(i);
    for (std::size_t c = 0; c < k; ++c) {
      if (!members[c].empty())
        centroids[c] = centroid_of(points, members[c], weights, trig_of);
    }
  }

  result.centroids = std::move(centroids);
  result.inertia = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d =
        geometry::wrapped_distance(points[i], result.centroids[result.assignment[i]]);
    result.inertia += weight_of(weights, i) * d * d;
  }
  return result;
}

}  // namespace

EquirectPoint centroid(const std::vector<EquirectPoint>& points,
                       const std::vector<std::size_t>& member_indices,
                       const std::vector<double>& weights) {
  return centroid_of(points, member_indices, weights,
                     [&points](std::size_t i) { return lon_trig(points[i]); });
}

KMeansResult kmeans(const std::vector<EquirectPoint>& points,
                    const std::vector<double>& weights, std::size_t k,
                    util::Rng& rng, std::size_t max_iterations) {
  PS360_CHECK(k >= 1 && k <= points.size());
  PS360_CHECK(weights.empty() || weights.size() == points.size());
  for (const double w : weights)
    PS360_CHECK_MSG(std::isfinite(w) && w >= 0.0,
                    "kmeans weights must be finite and non-negative");

  // k-means++ seeding on weighted squared distances.
  std::vector<EquirectPoint> seeds;
  seeds.reserve(k);
  // First seed: weighted draw.
  double w_total = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) w_total += weight_of(weights, i);
  PS360_CHECK_MSG(w_total > 0.0, "kmeans requires positive total weight");
  {
    double u = rng.uniform() * w_total;
    std::size_t pick = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      u -= weight_of(weights, i);
      if (u <= 0.0) {
        pick = i;
        break;
      }
    }
    seeds.push_back(points[pick]);
  }
  std::vector<double> d2(points.size());
  // Distance from each point to its nearest seed so far: each round folds
  // in only the newest seed, O(n) distances instead of O(n · seeds). min is
  // exact, so this is the same value as a scan over every seed.
  std::vector<double> nearest(points.size(), std::numeric_limits<double>::infinity());
  while (seeds.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      nearest[i] = std::min(nearest[i], geometry::wrapped_distance(points[i], seeds.back()));
      d2[i] = weight_of(weights, i) * nearest[i] * nearest[i];
      total += d2[i];
    }
    std::size_t pick = points.size() - 1;
    if (total > 0.0) {
      double u = rng.uniform() * total;
      for (std::size_t i = 0; i < points.size(); ++i) {
        u -= d2[i];
        if (u <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = static_cast<std::size_t>(rng.uniform_index(points.size()));
    }
    seeds.push_back(points[pick]);
  }

  return lloyd_iterate(points, weights, std::move(seeds), max_iterations);
}

KMeansResult kmeans_split2(const std::vector<EquirectPoint>& points,
                           std::size_t max_iterations) {
  PS360_CHECK(points.size() >= 2);
  // Farthest pair as deterministic seeds (O(n^2); Algorithm 1 clusters are
  // small).
  std::size_t a = 0, b = 1;
  double best = -1.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const double d = geometry::wrapped_distance(points[i], points[j]);
      if (d > best) {
        best = d;
        a = i;
        b = j;
      }
    }
  }
  return lloyd_iterate(points, {}, {points[a], points[b]}, max_iterations);
}

}  // namespace ps360::ptile
