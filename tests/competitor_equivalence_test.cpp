// Equivalence gate for the table-driven competitor plan path (GhoshLP /
// GhoshRobust). Each rewrite is checked bit for bit against a reference
// kept here:
//   * EncodingManifest::ghosh_tile_bytes against EncodingModel::region_bytes
//     with the per-tile noise key the controllers used to draw, for every
//     (segment, quality, tile) of the 172 s workload at seeds 42 and 7 and
//     of the 20 s clip;
//   * lp_allocate (flat arrays, cached next upgrades) against the previous
//     greedy, which rescanned every tile's next upgrade per step, on 600
//     seeded instances with free and negative-cost upgrades, zero-gain and
//     negative-gain levels, zero weights, infeasible floors and exact ratio
//     ties;
//   * predict::tile_visibility (one longitude factor per column, one
//     colatitude factor per row) against the previous per-tile loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "geometry/angles.h"
#include "geometry/tile_grid.h"
#include "predict/visibility.h"
#include "sim/competitors.h"
#include "sim/manifest.h"
#include "sim/workload.h"
#include "trace/video_catalog.h"
#include "util/rng.h"
#include "video/encoding.h"

namespace ps360::sim {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ------------------------------------------------ manifest Ghosh tiles

void expect_ghosh_tiles_match_model(double clip_s, std::uint64_t seed) {
  trace::VideoInfo video = trace::test_videos()[1];
  if (clip_s > 0.0) video.duration_s = clip_s;
  WorkloadConfig workload_config;
  workload_config.seed = seed;
  const VideoWorkload workload(video, workload_config);
  video::EncodingConfig encoding_config;
  encoding_config.seed = seed;
  const video::EncodingModel model(encoding_config);
  ManifestNeeds needs;
  needs.ghosh_tiles = true;
  const EncodingManifest manifest(workload, model, needs);
  const geometry::TileGrid grid(4, 8);
  ASSERT_EQ(grid.tile_count(), kGhoshTileIds);
  const double seconds = 1.0;
  for (std::size_t i = 0; i < workload.segment_count(); ++i) {
    for (int v = video::QualityLadder::kMinLevel; v <= video::QualityLadder::kMaxLevel;
         ++v) {
      for (std::size_t id = 0; id < grid.tile_count(); ++id) {
        const double area =
            grid.tile_area({id / grid.cols(), id % grid.cols()}).area_fraction();
        const double want = model.region_bytes(
            area, 1, v, workload.features(i), seconds, 1.0,
            noise_key(workload, i, v, video::FrameRateLadder::kOptions, kRoleGhoshTile,
                      id));
        ASSERT_EQ(bits(manifest.ghosh_tile_bytes(i, v, id, area, seconds)), bits(want))
            << "segment " << i << " quality " << v << " tile " << id;
      }
    }
  }
}

TEST(GhoshTileManifest, FullVideoAtSeed42) { expect_ghosh_tiles_match_model(0.0, 42); }

TEST(GhoshTileManifest, FullVideoAtSeed7) { expect_ghosh_tiles_match_model(0.0, 7); }

TEST(GhoshTileManifest, Clip20sAtSeeds42And7) {
  expect_ghosh_tiles_match_model(20.0, 42);
  expect_ghosh_tiles_match_model(20.0, 7);
}

// ------------------------------------------------ the previous greedy

LpAllocation lp_allocate_reference(const std::vector<double>& weights,
                                   const std::vector<std::vector<double>>& tile_bytes,
                                   const std::vector<std::vector<double>>& tile_utility,
                                   double budget) {
  const std::size_t n = weights.size();
  LpAllocation out;
  out.level.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    out.spent += tile_bytes[i][0];
    out.utility += weights[i] * tile_utility[i][0];
  }
  out.feasible = out.spent <= budget;
  if (!out.feasible) return out;

  for (;;) {
    std::size_t best_tile = n;
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto l = static_cast<std::size_t>(out.level[i]);
      if (l + 1 >= tile_bytes[i].size()) continue;
      const double cost = tile_bytes[i][l + 1] - tile_bytes[i][l];
      const double gain = weights[i] * (tile_utility[i][l + 1] - tile_utility[i][l]);
      if (gain <= 0.0) continue;
      if (out.spent + std::max(cost, 0.0) > budget) continue;
      const double ratio = cost <= 0.0 ? std::numeric_limits<double>::infinity()
                                       : gain / cost;
      if (best_tile == n || ratio > best_ratio) {
        best_tile = i;
        best_ratio = ratio;
      }
    }
    if (best_tile == n) break;
    const auto l = static_cast<std::size_t>(out.level[best_tile]);
    out.spent += tile_bytes[best_tile][l + 1] - tile_bytes[best_tile][l];
    out.utility +=
        weights[best_tile] * (tile_utility[best_tile][l + 1] - tile_utility[best_tile][l]);
    out.level[best_tile] = static_cast<int>(l + 1);
  }
  return out;
}

// One random instance. Sizes and utilities are small integers or dyadic
// steps often enough that gain/cost ratios tie exactly across tiles, and
// identical tiles appear on purpose.
struct Instance {
  std::vector<double> weights;
  std::vector<std::vector<double>> bytes;
  std::vector<std::vector<double>> utility;
  double budget = 0.0;
};

Instance random_instance(util::Rng& rng) {
  Instance in;
  const std::size_t n = rng.uniform_index(33);  // 0..32 tiles
  const std::size_t levels = 1 + rng.uniform_index(6);
  const bool integral = rng.bernoulli(0.5);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.bernoulli(0.15)) {  // an exact copy of the previous tile
      in.weights.push_back(in.weights.back());
      in.bytes.push_back(in.bytes.back());
      in.utility.push_back(in.utility.back());
      continue;
    }
    const double r = rng.uniform(0.0, 1.0);
    in.weights.push_back(r < 0.1 ? 0.0 : r < 0.4 ? 1.0 : rng.uniform(0.05, 2.0));
    std::vector<double> b = {integral ? static_cast<double>(1 + rng.uniform_index(8))
                                      : rng.uniform(1.0, 8.0)};
    std::vector<double> u = {integral ? static_cast<double>(rng.uniform_index(4))
                                      : rng.uniform(0.0, 4.0)};
    for (std::size_t l = 1; l < levels; ++l) {
      const double c = rng.uniform(0.0, 1.0);
      // Mostly paid upgrades; some free, some that shrink the tile.
      const double step = c < 0.1   ? 0.0
                          : c < 0.2 ? -static_cast<double>(1 + rng.uniform_index(3))
                          : integral ? static_cast<double>(1 + rng.uniform_index(8))
                                     : rng.uniform(0.5, 8.0);
      b.push_back(b.back() + step);
      const double g = rng.uniform(0.0, 1.0);
      // Mostly gains; some zero-gain and some losing levels.
      const double gain = g < 0.12   ? 0.0
                          : g < 0.2  ? -static_cast<double>(1 + rng.uniform_index(2))
                          : integral ? static_cast<double>(1 + rng.uniform_index(10))
                                     : rng.uniform(0.1, 10.0);
      u.push_back(u.back() + gain);
    }
    in.bytes.push_back(b);
    in.utility.push_back(u);
  }
  double floor = 0.0;
  double top = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    floor += in.bytes[i].front();
    top += *std::max_element(in.bytes[i].begin(), in.bytes[i].end());
  }
  const double r = rng.uniform(0.0, 1.0);
  // Below the floor (infeasible), exactly at it, or anywhere up to all-top.
  in.budget = r < 0.1    ? floor * rng.uniform(0.0, 0.99)
              : r < 0.2  ? floor
              : integral ? std::floor(rng.uniform(floor, top + 2.0))
                         : rng.uniform(floor, top + 2.0);
  return in;
}

TEST(LpAllocateEquivalence, MatchesThePreviousGreedy) {
  util::Rng rng(0x6A05Cu);
  std::size_t infeasible = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const Instance in = random_instance(rng);
    const std::size_t levels = in.bytes.empty() ? 1 : in.bytes.front().size();
    std::vector<double> flat_bytes;
    std::vector<double> flat_utility;
    for (std::size_t i = 0; i < in.bytes.size(); ++i) {
      flat_bytes.insert(flat_bytes.end(), in.bytes[i].begin(), in.bytes[i].end());
      flat_utility.insert(flat_utility.end(), in.utility[i].begin(), in.utility[i].end());
    }
    const LpAllocation got =
        lp_allocate(in.weights, flat_bytes, flat_utility, levels, util::Bytes(in.budget));
    const LpAllocation want =
        lp_allocate_reference(in.weights, in.bytes, in.utility, in.budget);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(got.level, want.level);
    EXPECT_EQ(bits(got.utility), bits(want.utility));
    EXPECT_EQ(bits(got.spent), bits(want.spent));
    EXPECT_EQ(got.feasible, want.feasible);
    if (!want.feasible) ++infeasible;
  }
  EXPECT_GT(infeasible, 0u);
}

TEST(LpAllocateEquivalence, ExactRatioTiesKeepTheLowerTile) {
  // Tile 1's upgrade costs twice tile 0's and gains twice as much, so the
  // ratios tie exactly; tile 0 must go first, as in the previous greedy.
  const std::vector<double> weights = {1.0, 1.0, 0.5};
  const std::vector<std::vector<double>> bytes = {{1, 3, 4}, {1, 5, 7}, {2, 6, 8}};
  const std::vector<std::vector<double>> utility = {{0, 2, 3}, {0, 4, 5}, {0, 8, 10}};
  for (double budget = 4.0; budget <= 20.0; budget += 1.0) {
    std::vector<double> flat_bytes;
    std::vector<double> flat_utility;
    for (std::size_t i = 0; i < 3; ++i) {
      flat_bytes.insert(flat_bytes.end(), bytes[i].begin(), bytes[i].end());
      flat_utility.insert(flat_utility.end(), utility[i].begin(), utility[i].end());
    }
    const LpAllocation got =
        lp_allocate(weights, flat_bytes, flat_utility, 3, util::Bytes(budget));
    const LpAllocation want = lp_allocate_reference(weights, bytes, utility, budget);
    EXPECT_EQ(got.level, want.level) << "budget " << budget;
    EXPECT_EQ(bits(got.spent), bits(want.spent)) << "budget " << budget;
  }
}

// ------------------------------------------- the previous visibility loop

double phi(double x) { return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0))); }

double interval_probability(double lo, double hi, double sigma) {
  if (hi <= lo) return 0.0;
  return std::clamp(phi(hi / sigma) - phi(lo / sigma), 0.0, 1.0);
}

std::vector<double> tile_visibility_reference(
    const geometry::TileGrid& grid, const geometry::EquirectPoint& predicted_center,
    double fov_h, double fov_v, double speed, double horizon,
    const predict::VisibilityConfig& config) {
  const double sigma_deg =
      std::min(config.base_sigma_deg + config.speed_sigma_factor * speed * horizon,
               config.max_sigma_deg);
  std::vector<double> visibility;
  for (std::size_t row = 0; row < grid.rows(); ++row) {
    for (std::size_t col = 0; col < grid.cols(); ++col) {
      const geometry::EquirectRect tile = grid.tile_area({row, col});
      const double lon_width = std::min(tile.lon.width + fov_h, 360.0);
      double p_lon = 1.0;
      if (lon_width < 360.0) {
        const double tile_center_lon = tile.lon.lo + tile.lon.width / 2.0;
        const double offset =
            geometry::wrap_delta(geometry::Degrees(tile_center_lon),
                                 predicted_center.lon())
                .value();
        p_lon = interval_probability(offset - lon_width / 2.0,
                                     offset + lon_width / 2.0, sigma_deg);
      }
      const double y_lo = tile.y_lo - fov_v / 2.0;
      const double y_hi = tile.y_hi + fov_v / 2.0;
      const double p_colat = interval_probability(y_lo - predicted_center.y,
                                                  y_hi - predicted_center.y, sigma_deg);
      visibility.push_back(p_lon * p_colat);
    }
  }
  return visibility;
}

TEST(TileVisibilityEquivalence, MatchesThePerTileLoop) {
  util::Rng rng(0x715u);
  for (int trial = 0; trial < 400; ++trial) {
    const bool default_grid = trial % 4 == 0;
    const geometry::TileGrid grid(default_grid ? 4 : 1 + rng.uniform_index(10),
                                  default_grid ? 8 : 1 + rng.uniform_index(20));
    // Centres anywhere, on the seam and at the poles.
    const double x = trial % 7 == 0 ? 0.0 : rng.uniform(0.0, 360.0);
    const double y = trial % 11 == 0   ? 0.0
                     : trial % 13 == 0 ? 180.0
                                       : rng.uniform(0.0, 180.0);
    const auto center =
        geometry::EquirectPoint::make(geometry::Degrees(x), geometry::Degrees(y));
    // FoVs up to the full circle, where every longitude qualifies.
    const double fov_h = trial % 9 == 0 ? 360.0 : rng.uniform(1.0, 360.0);
    const double fov_v = trial % 10 == 0 ? 180.0 : rng.uniform(1.0, 180.0);
    const double speed = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 400.0);
    const double horizon = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 5.0);
    predict::VisibilityConfig config;
    if (rng.bernoulli(0.3)) {
      config.base_sigma_deg = rng.uniform(1.0, 30.0);
      config.speed_sigma_factor = rng.uniform(0.0, 2.0);
      config.max_sigma_deg = config.base_sigma_deg + rng.uniform(0.0, 120.0);
    }
    const std::vector<double> got = predict::tile_visibility(
        grid, center, util::Degrees(fov_h), util::Degrees(fov_v), util::DegPerSec(speed),
        util::Seconds(horizon), config);
    const std::vector<double> want =
        tile_visibility_reference(grid, center, fov_h, fov_v, speed, horizon, config);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < got.size(); ++t)
      ASSERT_EQ(bits(got[t]), bits(want[t])) << "trial " << trial << " tile " << t;
  }
}

}  // namespace
}  // namespace ps360::sim
