#include "ptile/ftile.h"

#include <algorithm>

#include "ptile/kmeans.h"
#include "util/check.h"
#include "util/rng.h"

namespace ps360::ptile {

using geometry::EquirectPoint;
using geometry::TileIndex;
using geometry::Viewport;

FtileLayout::FtileLayout(const std::vector<EquirectPoint>& centers,
                         const FtileLayoutConfig& config)
    : blocks_(config.block_rows, config.block_cols),
      block_center_x_(config.block_cols),
      block_center_y_(config.block_rows) {
  PS360_CHECK(config.tile_count >= 1);
  const std::size_t n_blocks = blocks_.tile_count();
  PS360_CHECK(config.tile_count <= n_blocks);
  PS360_CHECK_MSG(config.fov_deg > 0.0 && config.fov_deg <= 180.0,
                  "Ftile fov_deg must lie in (0, 180]");

  // The block-centre lattice: a centre's longitude depends only on its
  // column and its colatitude only on its row.
  for (std::size_t c = 0; c < blocks_.cols(); ++c) {
    const auto area = blocks_.tile_area(TileIndex{0, c});
    block_center_x_[c] =
        geometry::wrap360(geometry::Degrees(area.lon.lo + area.lon.width / 2.0)).value();
  }
  for (std::size_t r = 0; r < blocks_.rows(); ++r) {
    const auto area = blocks_.tile_area(TileIndex{r, 0});
    block_center_y_[r] = (area.y_lo + area.y_hi) / 2.0;
  }
  std::vector<EquirectPoint> block_centers;
  block_centers.reserve(n_blocks);
  for (std::size_t r = 0; r < blocks_.rows(); ++r) {
    for (std::size_t c = 0; c < blocks_.cols(); ++c)
      block_centers.push_back(EquirectPoint{block_center_x_[c], block_center_y_[r]});
  }

  // View density: 1 plus the number of training viewports that hold the
  // block centre. The +1 keeps unwatched blocks clusterable; view-dense
  // blocks dominate centroid placement so the hot region gets fine tiles.
  // One viewport per user, each counted through for_each_block_in (exactly
  // Viewport::contains on the lattice); the sums are small integers, so
  // they are exact in any order.
  std::vector<double> weights(n_blocks, 1.0);
  for (const auto& user_center : centers) {
    const Viewport viewport(user_center, geometry::Degrees(config.fov_deg),
                            geometry::Degrees(config.fov_deg));
    for_each_block_in(viewport.area(), [&weights](std::size_t b) { weights[b] += 1.0; });
  }

  util::Rng rng(util::derive_seed(config.seed, 0xF71E5ULL));
  const KMeansResult clustering =
      kmeans(block_centers, weights, config.tile_count, rng);

  // Size each tile's block list exactly: the layouts live as long as the
  // workload, so growth slack would stay resident for every segment.
  std::vector<std::size_t> tile_sizes(config.tile_count, 0);
  for (const std::size_t tile : clustering.assignment) ++tile_sizes[tile];
  tile_blocks_.assign(config.tile_count, {});
  for (std::size_t t = 0; t < config.tile_count; ++t)
    tile_blocks_[t].reserve(tile_sizes[t]);
  block_owner_.assign(n_blocks, 0);
  const double block_area = 1.0 / static_cast<double>(n_blocks);
  std::vector<double> areas(config.tile_count, 0.0);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t tile = clustering.assignment[b];
    block_owner_[b] = tile;
    tile_blocks_[tile].push_back(
        TileIndex{b / blocks_.cols(), b % blocks_.cols()});
    areas[tile] += block_area;
  }

  // Drop tiles that received no blocks (k-means can empty a cluster).
  std::vector<std::vector<TileIndex>> kept_blocks;
  std::vector<double> kept_areas;
  std::vector<std::size_t> remap(config.tile_count, 0);
  for (std::size_t t = 0; t < config.tile_count; ++t) {
    if (tile_blocks_[t].empty()) continue;
    remap[t] = kept_blocks.size();
    kept_blocks.push_back(std::move(tile_blocks_[t]));
    kept_areas.push_back(areas[t]);
  }
  for (auto& owner : block_owner_) owner = remap[owner];
  tile_blocks_ = std::move(kept_blocks);
  tile_areas_ = std::move(kept_areas);
}

template <typename Fn>
void FtileLayout::for_each_block_in(const geometry::EquirectRect& area, Fn&& fn) const {
  // EquirectRect::contains(p) is lon.contains(p.x) && y_lo <= p.y <= y_hi,
  // and a block centre's x depends only on its column and y only on its
  // row, so each column and each row is tested once.
  const std::size_t cols = blocks_.cols();
  std::vector<char> col_in(cols);
  for (std::size_t c = 0; c < cols; ++c)
    col_in[c] = area.lon.contains(geometry::Degrees(block_center_x_[c])) ? 1 : 0;
  for (std::size_t r = 0; r < blocks_.rows(); ++r) {
    const double y = block_center_y_[r];
    if (!(y >= area.y_lo && y <= area.y_hi)) continue;
    for (std::size_t c = 0; c < cols; ++c) {
      if (col_in[c] != 0) fn(r * cols + c);
    }
  }
}

std::vector<std::size_t> FtileLayout::tiles_overlapping(
    const Viewport& viewport, double min_block_fraction) const {
  PS360_CHECK(min_block_fraction >= 0.0 && min_block_fraction <= 1.0);
  std::vector<std::size_t> hits(tile_blocks_.size(), 0);
  for_each_block_in(viewport.area(), [&](std::size_t b) { ++hits[block_owner_[b]]; });
  std::vector<std::size_t> out;
  for (std::size_t t = 0; t < hits.size(); ++t) {
    if (hits[t] == 0) continue;
    const double fraction =
        static_cast<double>(hits[t]) / static_cast<double>(tile_blocks_[t].size());
    if (fraction >= min_block_fraction) out.push_back(t);
  }
  return out;
}

FtileSplit FtileLayout::split(const Viewport& viewport,
                              double min_block_fraction) const {
  FtileSplit out;
  out.hq_tiles = tiles_overlapping(viewport, min_block_fraction);
  std::size_t next = 0;  // cursor into the ascending hq_tiles
  for (std::size_t t = 0; t < tile_areas_.size(); ++t) {
    if (next < out.hq_tiles.size() && out.hq_tiles[next] == t) {
      out.hq_area += tile_areas_[t];
      ++next;
    } else {
      out.bg_area += tile_areas_[t];
      ++out.bg_tiles;
    }
  }
  out.hq_area = std::min(out.hq_area, 1.0);
  out.bg_area = std::min(out.bg_area, 1.0);
  return out;
}

double FtileLayout::coverage(const Viewport& viewport,
                             const std::vector<std::size_t>& tile_ids) const {
  std::vector<bool> selected(tile_blocks_.size(), false);
  for (std::size_t t : tile_ids) {
    PS360_CHECK(t < tile_blocks_.size());
    selected[t] = true;
  }
  std::size_t in_view = 0, covered = 0;
  for_each_block_in(viewport.area(), [&](std::size_t b) {
    ++in_view;
    if (selected[block_owner_[b]]) ++covered;
  });
  if (in_view == 0) return 1.0;
  return static_cast<double>(covered) / static_cast<double>(in_view);
}

}  // namespace ps360::ptile
