// k-means clustering on the equirectangular plane (longitude wraps).
//
// Two entry points:
//  * kmeans()        — general weighted k-means with k-means++ seeding, used
//                      to build the Ftile baseline layout (cluster 450
//                      blocks into 10 tiles by view density).
//  * kmeans_split2() — deterministic 2-means (seeded with the farthest pair)
//                      used by Algorithm 1 to split an oversized cluster.
//
// Centroids use the circular mean on x and the plain mean on y; distances
// are geometry::wrapped_distance, inline and fmod-free for in-range inputs
// (see geometry/angles.h). A clustering call computes each point's cos/sin
// once; the Lloyd loop and centroid() share one centroid implementation.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/viewport.h"
#include "util/rng.h"

namespace ps360::ptile {

struct KMeansResult {
  std::vector<std::size_t> assignment;            // point index -> cluster id
  std::vector<geometry::EquirectPoint> centroids;  // cluster id -> centroid
  double inertia = 0.0;  // weighted sum of squared wrapped distances

  // Indices of the points in each cluster.
  std::vector<std::vector<std::size_t>> groups() const;
};

// Weighted k-means. `weights` may be empty (all ones) or match points'
// size with finite, non-negative entries (at least k strictly positive);
// a negative or non-finite weight throws. Requires 1 <= k <= #points.
KMeansResult kmeans(const std::vector<geometry::EquirectPoint>& points,
                    const std::vector<double>& weights, std::size_t k,
                    util::Rng& rng, std::size_t max_iterations = 100);

// Deterministic 2-means seeded with the two mutually farthest points.
// Requires at least 2 points.
KMeansResult kmeans_split2(const std::vector<geometry::EquirectPoint>& points,
                           std::size_t max_iterations = 100);

// Weighted centroid of a point set (circular mean on x).
geometry::EquirectPoint centroid(const std::vector<geometry::EquirectPoint>& points,
                                 const std::vector<std::size_t>& member_indices,
                                 const std::vector<double>& weights);

}  // namespace ps360::ptile
