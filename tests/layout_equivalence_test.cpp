// Equivalence gate for the Ftile set-up geometry. FtileLayout counts view
// density once per training viewport and ptile::kmeans runs on the inline,
// fmod-free wrap helpers; both are checked bit for bit against a reference
// kept here: the previous constructor, which tested every (block, training
// user) pair through its own viewport, and the previous k-means, whose
// distances always went through std::fmod. Compared:
//   * tile_blocks() and tile_areas() on every segment of the 172 s workload
//     at seeds 42 and 7, on the 20 s clip, and on random centre sets under
//     non-default layout configs;
//   * kmeans / kmeans_split2 assignment, centroids and inertia on 200 seeded
//     random point sets, including clusters across the 0/360 seam, points
//     with x outside [0, 360), duplicated points and lattice points with
//     exact distance ties.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "ptile/ftile.h"
#include "ptile/kmeans.h"
#include "sim/workload.h"
#include "trace/video_catalog.h"
#include "util/rng.h"

namespace ps360::ptile {
namespace {

using geometry::EquirectPoint;
using geometry::TileIndex;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ------------------------------------------------- the previous k-means

double wrap360_fmod(double deg) {
  double w = std::fmod(deg, 360.0);
  if (w < 0.0) w += 360.0;
  if (w >= 360.0) w = 0.0;
  return w;
}

double wrapped_distance_fmod(const EquirectPoint& a, const EquirectPoint& b) {
  double d = std::fmod(a.x - b.x, 360.0);
  if (d > 180.0) d -= 360.0;
  if (d <= -180.0) d += 360.0;
  const double dx = std::fabs(d);
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

double weight_of(const std::vector<double>& weights, std::size_t i) {
  return weights.empty() ? 1.0 : weights[i];
}

EquirectPoint centroid_reference(const std::vector<EquirectPoint>& points,
                                 const std::vector<std::size_t>& members,
                                 const std::vector<double>& weights) {
  double sx = 0.0, sy = 0.0, y_sum = 0.0, w_sum = 0.0;
  for (std::size_t idx : members) {
    const double w = weight_of(weights, idx);
    const double rad = geometry::to_radians(geometry::Degrees(points[idx].x)).value();
    sx += w * std::cos(rad);
    sy += w * std::sin(rad);
    y_sum += w * points[idx].y;
    w_sum += w;
  }
  if (!(w_sum > 0.0)) throw std::invalid_argument("centroid of zero-weight members");
  double x;
  if (std::fabs(sx) < 1e-12 && std::fabs(sy) < 1e-12) {
    x = points[members.front()].x;
  } else {
    x = wrap360_fmod(geometry::to_degrees(geometry::Radians(std::atan2(sy, sx))).value());
  }
  return EquirectPoint{x, std::clamp(y_sum / w_sum, 0.0, 180.0)};
}

KMeansResult lloyd_reference(const std::vector<EquirectPoint>& points,
                             const std::vector<double>& weights,
                             std::vector<EquirectPoint> centroids,
                             std::size_t max_iterations) {
  const std::size_t k = centroids.size();
  KMeansResult result;
  result.assignment.assign(points.size(), 0);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = wrapped_distance_fmod(points[i], centroids[c]);
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
    std::vector<std::vector<std::size_t>> members(k);
    for (std::size_t i = 0; i < points.size(); ++i)
      members[result.assignment[i]].push_back(i);
    for (std::size_t c = 0; c < k; ++c) {
      if (!members[c].empty()) centroids[c] = centroid_reference(points, members[c], weights);
    }
  }
  result.centroids = std::move(centroids);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d =
        wrapped_distance_fmod(points[i], result.centroids[result.assignment[i]]);
    result.inertia += weight_of(weights, i) * d * d;
  }
  return result;
}

KMeansResult kmeans_reference(const std::vector<EquirectPoint>& points,
                              const std::vector<double>& weights, std::size_t k,
                              util::Rng& rng) {
  std::vector<EquirectPoint> seeds;
  double w_total = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) w_total += weight_of(weights, i);
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
  std::vector<double> nearest(points.size(), std::numeric_limits<double>::infinity());
  while (seeds.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      nearest[i] = std::min(nearest[i], wrapped_distance_fmod(points[i], seeds.back()));
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
  return lloyd_reference(points, weights, std::move(seeds), 100);
}

KMeansResult kmeans_split2_reference(const std::vector<EquirectPoint>& points) {
  std::size_t a = 0, b = 1;
  double best = -1.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const double d = wrapped_distance_fmod(points[i], points[j]);
      if (d > best) {
        best = d;
        a = i;
        b = j;
      }
    }
  }
  return lloyd_reference(points, {}, {points[a], points[b]}, 100);
}

void expect_same_clustering(const KMeansResult& got, const KMeansResult& want) {
  ASSERT_EQ(got.assignment, want.assignment);
  ASSERT_EQ(got.centroids.size(), want.centroids.size());
  for (std::size_t c = 0; c < want.centroids.size(); ++c) {
    ASSERT_EQ(bits(got.centroids[c].x), bits(want.centroids[c].x)) << "centroid " << c;
    ASSERT_EQ(bits(got.centroids[c].y), bits(want.centroids[c].y)) << "centroid " << c;
  }
  ASSERT_EQ(bits(got.inertia), bits(want.inertia));
}

// ---------------------------------------- the previous FtileLayout body

struct ReferenceLayout {
  std::vector<std::vector<TileIndex>> tile_blocks;
  std::vector<double> tile_areas;
};

// One containment test per (block, training user) pair, through that
// user's viewport rect (Viewport::area with an fmod wrap), then k-means and
// the tile assembly of the previous constructor.
ReferenceLayout layout_reference(const std::vector<EquirectPoint>& centers,
                                 const FtileLayoutConfig& config) {
  const geometry::TileGrid blocks(config.block_rows, config.block_cols);
  const std::size_t n_blocks = blocks.tile_count();
  const double fov = config.fov_deg;
  std::vector<EquirectPoint> block_centers;
  std::vector<double> weights;
  for (std::size_t r = 0; r < blocks.rows(); ++r) {
    for (std::size_t c = 0; c < blocks.cols(); ++c) {
      const auto area = blocks.tile_area(TileIndex{r, c});
      const EquirectPoint center{wrap360_fmod(area.lon.lo + area.lon.width / 2.0),
                                 (area.y_lo + area.y_hi) / 2.0};
      block_centers.push_back(center);
      double views = 0.0;
      for (const EquirectPoint& user : centers) {
        const double y_lo = std::max(0.0, user.y - fov / 2.0);
        const double y_hi = std::min(180.0, user.y + fov / 2.0);
        const double lon_lo = wrap360_fmod(user.x - fov / 2.0);
        const bool lon_in = fov >= 360.0 || wrap360_fmod(center.x - lon_lo) <= fov;
        if (lon_in && center.y >= y_lo && center.y <= y_hi) views += 1.0;
      }
      weights.push_back(1.0 + views);
    }
  }
  util::Rng rng(util::derive_seed(config.seed, 0xF71E5ULL));
  const KMeansResult clustering =
      kmeans_reference(block_centers, weights, config.tile_count, rng);

  std::vector<std::vector<TileIndex>> tile_blocks(config.tile_count);
  std::vector<double> areas(config.tile_count, 0.0);
  const double block_area = 1.0 / static_cast<double>(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t tile = clustering.assignment[b];
    tile_blocks[tile].push_back(TileIndex{b / blocks.cols(), b % blocks.cols()});
    areas[tile] += block_area;
  }
  ReferenceLayout out;
  for (std::size_t t = 0; t < config.tile_count; ++t) {
    if (tile_blocks[t].empty()) continue;
    out.tile_blocks.push_back(std::move(tile_blocks[t]));
    out.tile_areas.push_back(areas[t]);
  }
  return out;
}

void expect_same_layout(const FtileLayout& got, const ReferenceLayout& want) {
  ASSERT_EQ(got.tile_count(), want.tile_blocks.size());
  for (std::size_t t = 0; t < want.tile_blocks.size(); ++t) {
    const auto& g = got.tile_blocks()[t];
    const auto& w = want.tile_blocks[t];
    ASSERT_EQ(g.size(), w.size()) << "tile " << t;
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(g[i].row, w[i].row) << "tile " << t;
      ASSERT_EQ(g[i].col, w[i].col) << "tile " << t;
    }
    ASSERT_EQ(bits(got.tile_areas()[t]), bits(want.tile_areas[t])) << "tile " << t;
  }
}

// Every segment's lazily built layout against the reference, with the
// config VideoWorkload::ftile hands the constructor.
void expect_workload_layouts_match(double clip_s, std::uint64_t seed) {
  trace::VideoInfo video = trace::test_videos()[1];
  if (clip_s > 0.0) video.duration_s = clip_s;
  sim::WorkloadConfig config;
  config.seed = seed;
  const sim::VideoWorkload workload(video, config);
  FtileLayoutConfig ftile = config.ftile;
  ftile.seed = config.seed;
  ftile.fov_deg = config.fov_deg;
  for (std::size_t k = 0; k < workload.segment_count(); ++k) {
    SCOPED_TRACE("segment " + std::to_string(k));
    expect_same_layout(workload.ftile(k),
                       layout_reference(workload.training_centers(k), ftile));
  }
}

TEST(FtileLayoutEquivalence, FullVideoAtSeed42) { expect_workload_layouts_match(0.0, 42); }

TEST(FtileLayoutEquivalence, FullVideoAtSeed7) { expect_workload_layouts_match(0.0, 7); }

TEST(FtileLayoutEquivalence, Clip20s) { expect_workload_layouts_match(20.0, 42); }

TEST(FtileLayoutEquivalence, RandomCentresAndConfigs) {
  // Other grids, tile counts and FoVs (including 180, whose rect spans the
  // whole colatitude range), centres on the seam, at the poles and none.
  util::Rng rng(61);
  for (int trial = 0; trial < 40; ++trial) {
    FtileLayoutConfig config;
    config.block_rows = 1 + rng.uniform_index(20);
    config.block_cols = 1 + rng.uniform_index(40);
    config.tile_count =
        1 + rng.uniform_index(std::min<std::uint64_t>(12, config.block_rows * config.block_cols));
    config.seed = rng.next_u64();
    config.fov_deg = trial % 5 == 0 ? 180.0 : rng.uniform(20.0, 179.0);
    std::vector<EquirectPoint> centers;
    const std::size_t n = rng.uniform_index(50);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = rng.bernoulli(0.3) ? wrap360_fmod(rng.uniform(-15.0, 15.0))
                                          : rng.uniform(0.0, 360.0);
      const double y = rng.bernoulli(0.1) ? (rng.bernoulli(0.5) ? 0.0 : 180.0)
                                          : rng.uniform(0.0, 180.0);
      centers.push_back(EquirectPoint{x, y});
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_same_layout(FtileLayout(centers, config), layout_reference(centers, config));
  }
}

// ------------------------------------------------------------- k-means

std::vector<EquirectPoint> random_points(util::Rng& rng, std::size_t n, int mode) {
  std::vector<EquirectPoint> points;
  for (std::size_t i = 0; i < n; ++i) {
    double x = 0.0, y = 0.0;
    switch (mode) {
      case 0:  // uniform over the frame
        x = rng.uniform(0.0, 360.0);
        y = rng.uniform(0.0, 180.0);
        break;
      case 1: {  // two or three clusters, one straddling the 0/360 seam
        const double cx = i % 3 == 0 ? 0.0 : (i % 3 == 1 ? 120.0 : 250.0);
        x = wrap360_fmod(cx + rng.uniform(-12.0, 12.0));
        y = std::clamp(90.0 + rng.uniform(-20.0, 20.0), 0.0, 180.0);
        break;
      }
      case 2:  // longitudes outside [0, 360)
        x = rng.uniform(-800.0, 1100.0);
        y = rng.uniform(0.0, 180.0);
        break;
      case 3:  // integer lattice: exact distance ties
        x = static_cast<double>(rng.uniform_index(8)) * 45.0;
        y = static_cast<double>(rng.uniform_index(5)) * 45.0;
        break;
      default:  // few distinct points, many duplicates
        x = static_cast<double>(rng.uniform_index(3)) * 179.0;
        y = 90.0;
        break;
    }
    points.push_back(EquirectPoint{x, y});
  }
  return points;
}

std::vector<double> random_weights(util::Rng& rng, std::size_t n) {
  std::vector<double> weights;
  switch (rng.uniform_index(4)) {
    case 0:
      return weights;  // empty: all ones
    case 1:
      for (std::size_t i = 0; i < n; ++i) weights.push_back(rng.uniform(0.1, 5.0));
      return weights;
    case 2:  // small integers, as FtileLayout's view counts
      for (std::size_t i = 0; i < n; ++i)
        weights.push_back(1.0 + static_cast<double>(rng.uniform_index(40)));
      return weights;
    default:  // some zeros
      for (std::size_t i = 0; i < n; ++i)
        weights.push_back(rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.5, 3.0));
      weights[0] = 1.0;
      return weights;
  }
}

TEST(KMeansEquivalence, RandomPointSetsMatchFmodReference) {
  util::Rng rng(62);
  std::size_t compared = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t n = 2 + rng.uniform_index(80);
    const std::vector<EquirectPoint> points = random_points(rng, n, trial % 5);
    const std::vector<double> weights = random_weights(rng, n);
    const std::size_t k = 1 + rng.uniform_index(std::min<std::size_t>(n, 10));
    const std::uint64_t seed = rng.next_u64();

    // A cluster left holding only zero-weight points throws; then both must.
    util::Rng rng_got(seed), rng_want(seed);
    bool got_threw = false, want_threw = false;
    KMeansResult got, want;
    try {
      got = kmeans(points, weights, k, rng_got);
    } catch (const std::invalid_argument&) {
      got_threw = true;
    }
    try {
      want = kmeans_reference(points, weights, k, rng_want);
    } catch (const std::invalid_argument&) {
      want_threw = true;
    }
    ASSERT_EQ(got_threw, want_threw);
    if (!got_threw) {
      expect_same_clustering(got, want);
      ++compared;
    }
    expect_same_clustering(kmeans_split2(points), kmeans_split2_reference(points));
  }
  EXPECT_GT(compared, 150u);
}

}  // namespace
}  // namespace ps360::ptile
