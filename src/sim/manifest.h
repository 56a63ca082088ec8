// The encoding manifest: the segment sizes a controller can request,
// tabulated once per (workload, EncodingConfig) from the encoding model.
//
// Real players read segment sizes from a manifest the offline encoder wrote.
// Here EncodingModel::region_bytes is the offline encoder and this table is
// what it wrote (DESIGN.md §2). It holds
//   * per (segment, quality): the full-frame area rate and the per-tile
//     overhead (EncodingModel::area_rate_mbps / tile_overhead_mbps);
//   * per frame index: the frame-rate size factor (f / fm)^γ;
//   * per (segment, quality, frame index, role): the keyed size-noise factor;
//   * per (segment, quality, tile id): the GhoshLP/GhoshRobust per-tile
//     size-noise factor (role kRoleGhoshTile, salted by the tile id).
// bytes() and ghosh_tile_bytes() evaluate region_bytes' formula from those
// tables in region_bytes' floating-point order, so every byte count is
// bit-identical to the model's while an option costs a few multiplies
// instead of a keyed lognormal draw and a pow.
//
// Sharing contract: an entry point (simulate_session, run_fleet,
// run_fleet_replications) builds one manifest before any session or worker
// thread starts, and every session borrows it read-only. Nothing mutates a
// manifest after construction, so concurrent readers need no locking.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/schemes.h"
#include "sim/workload.h"
#include "util/check.h"
#include "util/rng.h"
#include "video/encoding.h"
#include "video/quality.h"

namespace ps360::sim {

// Size-noise roles: the last component of a noise key, one per kind of
// encoded region, so two regions of one segment never share a draw. The
// background roles ship at the lowest quality only.
enum NoiseRole : int {
  kRoleCtileFov = 0,
  kRoleCtileBackground = 1,
  kRoleFtileFov = 2,
  kRoleFtileBackground = 3,
  kRoleNontile = 4,
  kRolePtile = 5,
  kRolePtileBackground = 6,
};
// Roles 0..kManifestRoles-1 are tabulated per (segment, quality, frame
// index).
inline constexpr int kManifestRoles = 7;
// GhoshLP/GhoshRobust size every tile of their grid as its own one-tile
// region at the original frame rate, keyed by this role with the tile's
// row-major id folded in through the salted noise_key overload.
inline constexpr int kRoleGhoshTile = 7;
// Tile ids the Ghosh table covers: the 4 x 8 grid of SchemeEnv's defaults.
inline constexpr std::size_t kGhoshTileIds = 32;

// Deterministic per-(segment, version, role) key for the encoding-size
// noise.
inline std::uint64_t noise_key(const VideoWorkload& workload, std::size_t segment,
                               int quality, std::size_t frame_index, int role) {
  return util::derive_seed(
      workload.config().seed,
      static_cast<std::uint64_t>(workload.video().id) * 1000003ULL + segment,
      static_cast<std::uint64_t>(quality) * 100 + frame_index * 10 +
          static_cast<std::uint64_t>(role));
}

// Same, with a salt folded in (a competitor's tile index) so per-tile
// noise never collides with the tabulated roles.
inline std::uint64_t noise_key(const VideoWorkload& workload, std::size_t segment,
                               int quality, std::size_t frame_index, int role,
                               std::uint64_t salt) {
  return util::derive_seed(noise_key(workload, segment, quality, frame_index, role),
                           salt + 1, 0);
}

// Which noise factors a manifest tabulates. Bit r of `roles` tabulates role
// r at the original frame rate (frame index FrameRateLadder::kOptions); bit
// r of `ladder_roles` tabulates it at every frame index. Foreground roles
// are tabulated at every quality, background roles at the lowest only.
// `ghosh_tiles` tabulates the Ghosh per-tile factors for tile ids
// [0, kGhoshTileIds) at every quality.
struct ManifestNeeds {
  std::uint32_t roles = 0;
  std::uint32_t ladder_roles = 0;
  bool ghosh_tiles = false;

  // Every role at every frame index, and the Ghosh tiles.
  static ManifestNeeds all();
};

// What the registered controller `kind` reads from a manifest (its row in
// the schemes.cpp registry).
ManifestNeeds manifest_needs(SchemeKind kind);

class EncodingManifest {
 public:
  // Tabulate `needs` for every segment of `workload` under `encoding`'s
  // config. Both are borrowed only during construction, except that the
  // workload's address is kept for matches().
  EncodingManifest(const VideoWorkload& workload, const video::EncodingModel& encoding,
                   ManifestNeeds needs);

  // True when this manifest was built for `workload` under `config` and
  // tabulates at least `needs` — the precondition for a session to borrow
  // it.
  bool matches(const VideoWorkload& workload, const video::EncodingConfig& config,
               ManifestNeeds needs) const;

  // The frame-rate size factor (f / fm)^γ of ladder index `frame_index`.
  double frame_factor(std::size_t frame_index) const {
    PS360_ASSERT(frame_index >= 1 && frame_index <= video::FrameRateLadder::kOptions);
    return frame_factor_[frame_index - 1];
  }
  // The size-noise factor EncodingModel::size_noise(noise_key(...)).
  double noise(std::size_t segment, int quality, std::size_t frame_index,
               int role) const;

  // EncodingModel::region_bytes(area_fraction, n_tiles, quality,
  // features(segment), seconds, ratio, noise_key(segment, quality,
  // frame_index, role)) with `frame_size_factor` = ratio^γ — 1.0 for the
  // original rate, frame_factor(fi) for a reduced one — evaluated from the
  // tables in the same order, hence bit-identical.
  double bytes(std::size_t segment, int quality, std::size_t frame_index, int role,
               double area_fraction, std::size_t n_tiles, double seconds,
               double frame_size_factor = 1.0) const {
    return sized(rate_index(segment, quality), area_fraction, n_tiles, seconds,
                 frame_size_factor, noise(segment, quality, frame_index, role));
  }

  // EncodingModel::region_bytes(area_fraction, 1, quality, features(segment),
  // seconds, 1.0, noise_key(segment, quality, kOptions, kRoleGhoshTile,
  // tile)) — one Ghosh tile at the original frame rate, bit-identical.
  double ghosh_tile_bytes(std::size_t segment, int quality, std::size_t tile,
                          double area_fraction, double seconds) const {
    PS360_ASSERT_MSG(needs_.ghosh_tiles, "Ghosh tiles not tabulated in this manifest");
    PS360_ASSERT(tile < kGhoshTileIds);
    const std::size_t r = rate_index(segment, quality);
    return sized(r, area_fraction, 1, seconds, 1.0, ghosh_noise_[r * kGhoshTileIds + tile]);
  }

 private:
  static constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();

  // Where one role's noise factors live in noise_: segment-major, then
  // quality, then frame index, over `qualities` x `frames` slots.
  struct RoleTable {
    std::size_t offset = kAbsent;
    std::size_t qualities = 0;  // kLevels, or 1 (lowest only)
    std::size_t frames = 0;     // kOptions, or 1 (original rate only)
  };

  // region_bytes' formula on tabulated factors, in its FP order. A
  // `frame_size_factor` of 1.0 stands for pow(1.0, γ), which is exactly 1.
  double sized(std::size_t r, double area_fraction, std::size_t n_tiles, double seconds,
               double frame_size_factor, double noise) const {
    PS360_ASSERT(area_fraction > 0.0 && area_fraction <= 1.0 + 1e-9);
    PS360_ASSERT(n_tiles >= 1 && seconds > 0.0);
    const double mbps = area_fraction * area_rate_[r] +
                        static_cast<double>(n_tiles) * tile_overhead_[r];
    return mbps * 1e6 / 8.0 * seconds * frame_size_factor * noise;
  }

  std::size_t rate_index(std::size_t segment, int quality) const {
    PS360_ASSERT(segment < segments_ && quality >= video::QualityLadder::kMinLevel &&
                 quality <= video::QualityLadder::kMaxLevel);
    return segment * video::QualityLadder::kLevels +
           static_cast<std::size_t>(quality - video::QualityLadder::kMinLevel);
  }

  const VideoWorkload* workload_;
  video::EncodingConfig config_;
  ManifestNeeds needs_;
  std::size_t segments_;
  std::vector<double> area_rate_;      // [segment][quality]
  std::vector<double> tile_overhead_;  // [segment][quality]
  std::array<double, video::FrameRateLadder::kOptions> frame_factor_{};
  std::array<RoleTable, kManifestRoles> role_tables_{};
  std::vector<double> noise_;
  std::vector<double> ghosh_noise_;  // [segment][quality][tile id]
};

inline double EncodingManifest::noise(std::size_t segment, int quality,
                                      std::size_t frame_index, int role) const {
  PS360_ASSERT_MSG(role >= 0 && role < kManifestRoles &&
                       role_tables_[static_cast<std::size_t>(role)].offset != kAbsent,
                   "noise role not tabulated in this manifest");
  const RoleTable& t = role_tables_[static_cast<std::size_t>(role)];
  (void)rate_index(segment, quality);  // bounds-checks segment and quality
  const auto q = static_cast<std::size_t>(quality - video::QualityLadder::kMinLevel);
  PS360_ASSERT_MSG(t.qualities == video::QualityLadder::kLevels || q == 0,
                   "background roles are tabulated at the lowest quality only");
  PS360_ASSERT(frame_index >= 1 && frame_index <= video::FrameRateLadder::kOptions);
  PS360_ASSERT_MSG(t.frames == video::FrameRateLadder::kOptions ||
                       frame_index == video::FrameRateLadder::kOptions,
                   "role not tabulated across the frame-rate ladder");
  const std::size_t q_slot = t.qualities == 1 ? 0 : q;
  const std::size_t f_slot = t.frames == 1 ? 0 : frame_index - 1;
  return noise_[t.offset + (segment * t.qualities + q_slot) * t.frames + f_slot];
}

}  // namespace ps360::sim
