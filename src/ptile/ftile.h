// The Ftile baseline layout (Section V-A, after ClusTile [12]).
//
// Each segment is first divided into 450 small blocks (15 rows x 30
// columns); the blocks are then clustered into ten tiles based on the
// training users' views: k-means over block centers weighted by view
// density, so blocks that many users watch end up in compact, view-aligned
// tiles. Each resulting tile is encoded independently (variable size, fixed
// count), which is cheaper than 32 fixed tiles but still pays ten per-tile
// overheads and still fragments the hot region.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/tile_grid.h"

namespace ps360::ptile {

struct FtileLayoutConfig {
  std::size_t block_rows = 15;
  std::size_t block_cols = 30;
  std::size_t tile_count = 10;
  std::uint64_t seed = 42;
  double fov_deg = 100.0;  // FoV used when counting views per block
};

// A layout's tiles split for one predicted viewport: the tiles_overlapping
// set at high quality, every other tile as low-quality background. Each
// area is summed in tile order and clipped at 1, exactly as
// video::EncodingModel::tiled_bytes sums the areas it is given.
struct FtileSplit {
  std::vector<std::size_t> hq_tiles;  // ascending tile ids
  double hq_area = 0.0;
  std::size_t bg_tiles = 0;
  double bg_area = 0.0;
};

class FtileLayout {
 public:
  // Build the layout for one segment from the training users' viewing
  // centers. Each block is weighted by 1 plus the number of training
  // viewports (config.fov_deg square) that hold its centre, counted with one
  // Viewport per user over the block-centre lattice. Throws when fov_deg is
  // not in (0, 180], with or without training centers.
  FtileLayout(const std::vector<geometry::EquirectPoint>& centers,
              const FtileLayoutConfig& config);

  std::size_t tile_count() const { return tile_blocks_.size(); }

  // Area fraction of each tile (sums to 1 across tiles).
  const std::vector<double>& tile_areas() const { return tile_areas_; }

  // Blocks (indices into the block grid) belonging to each tile.
  const std::vector<std::vector<geometry::TileIndex>>& tile_blocks() const {
    return tile_blocks_;
  }

  // Tiles the client downloads at high quality for this viewport: a tile
  // qualifies when at least `min_block_fraction` of its own blocks fall in
  // the viewport (a large background tile merely grazed by the FoV corner is
  // not worth fetching at high quality).
  std::vector<std::size_t> tiles_overlapping(const geometry::Viewport& viewport,
                                             double min_block_fraction = 0.2) const;

  // tiles_overlapping plus the area totals of both sides (see FtileSplit).
  FtileSplit split(const geometry::Viewport& viewport,
                   double min_block_fraction = 0.2) const;

  // Fraction of the viewport's blocks that the given tile set covers.
  double coverage(const geometry::Viewport& viewport,
                  const std::vector<std::size_t>& tile_ids) const;

 private:
  // Calls fn(b) for every block b (row-major) whose centre lies in `area`:
  // exactly area.contains(centre), tested once per column and once per row.
  template <typename Fn>
  void for_each_block_in(const geometry::EquirectRect& area, Fn&& fn) const;

  geometry::TileGrid blocks_;
  // Block centres lie on a lattice: the longitude depends only on the
  // column and the latitude only on the row. Computed first thing at
  // construction; the view-density count already scans it.
  std::vector<double> block_center_x_;  // per column
  std::vector<double> block_center_y_;  // per row
  std::vector<std::vector<geometry::TileIndex>> tile_blocks_;
  std::vector<double> tile_areas_;
  // block (row-major) -> owning tile id
  std::vector<std::size_t> block_owner_;
};

}  // namespace ps360::ptile
