// EncodingManifest: the offline pass over the encoding model. Every entry is
// computed by the same EncodingModel calls region_bytes makes (area rate,
// tile overhead, pow of the frame ratio, keyed size noise), so the online
// bytes() is bit-identical to region_bytes by construction. Deterministic:
// a pure function of (workload, EncodingConfig, needs).
#include "sim/manifest.h"

#include <cmath>

namespace ps360::sim {

namespace {

constexpr std::uint32_t kAllRoles = (1u << kManifestRoles) - 1;

bool is_background(int role) {
  return role == kRoleCtileBackground || role == kRoleFtileBackground ||
         role == kRolePtileBackground;
}

}  // namespace

ManifestNeeds ManifestNeeds::all() {
  return ManifestNeeds{kAllRoles, kAllRoles, /*ghosh_tiles=*/true};
}

EncodingManifest::EncodingManifest(const VideoWorkload& workload,
                                   const video::EncodingModel& encoding,
                                   ManifestNeeds needs)
    : workload_(&workload),
      config_(encoding.config()),
      needs_(needs),
      segments_(workload.segment_count()) {
  PS360_CHECK_MSG(((needs.roles | needs.ladder_roles) & ~kAllRoles) == 0,
                  "manifest needs name an unknown noise role");
  needs_.roles |= needs_.ladder_roles;

  constexpr std::size_t kLevels = video::QualityLadder::kLevels;
  constexpr std::size_t kFrames = video::FrameRateLadder::kOptions;
  area_rate_.resize(segments_ * kLevels);
  tile_overhead_.resize(segments_ * kLevels);
  for (std::size_t i = 0; i < segments_; ++i) {
    const video::ContentFeatures& feat = workload.features(i);
    for (int v = video::QualityLadder::kMinLevel; v <= video::QualityLadder::kMaxLevel;
         ++v) {
      area_rate_[rate_index(i, v)] = encoding.area_rate_mbps(v, feat);
      tile_overhead_[rate_index(i, v)] = encoding.tile_overhead_mbps(v, feat);
    }
  }

  const video::FrameRateLadder ladder(workload.video().fps);
  for (std::size_t fi = 1; fi <= kFrames; ++fi) {
    frame_factor_[fi - 1] =
        std::pow(ladder.ratio(fi), config_.framerate_size_exponent);
  }

  std::size_t offset = 0;
  for (int role = 0; role < kManifestRoles; ++role) {
    const std::uint32_t bit = 1u << role;
    if ((needs_.roles & bit) == 0) continue;
    RoleTable& t = role_tables_[static_cast<std::size_t>(role)];
    t.offset = offset;
    t.qualities = is_background(role) ? 1 : kLevels;
    t.frames = (needs_.ladder_roles & bit) != 0 ? kFrames : 1;
    offset += segments_ * t.qualities * t.frames;
  }
  noise_.resize(offset);
  for (int role = 0; role < kManifestRoles; ++role) {
    const RoleTable& t = role_tables_[static_cast<std::size_t>(role)];
    if (t.offset == kAbsent) continue;
    for (std::size_t i = 0; i < segments_; ++i) {
      for (std::size_t q = 0; q < t.qualities; ++q) {
        const int v = video::QualityLadder::kMinLevel + static_cast<int>(q);
        for (std::size_t f = 0; f < t.frames; ++f) {
          const std::size_t fi = t.frames == 1 ? kFrames : f + 1;
          noise_[t.offset + (i * t.qualities + q) * t.frames + f] =
              encoding.size_noise(noise_key(workload, i, v, fi, role));
        }
      }
    }
  }

  if (needs_.ghosh_tiles) {
    ghosh_noise_.resize(segments_ * kLevels * kGhoshTileIds);
    for (std::size_t i = 0; i < segments_; ++i) {
      for (int v = video::QualityLadder::kMinLevel; v <= video::QualityLadder::kMaxLevel;
           ++v) {
        const std::size_t r = rate_index(i, v);
        for (std::size_t tile = 0; tile < kGhoshTileIds; ++tile) {
          ghosh_noise_[r * kGhoshTileIds + tile] = encoding.size_noise(
              noise_key(workload, i, v, kFrames, kRoleGhoshTile, tile));
        }
      }
    }
  }
}

bool EncodingManifest::matches(const VideoWorkload& workload,
                               const video::EncodingConfig& config,
                               ManifestNeeds needs) const {
  const std::uint32_t roles = needs.roles | needs.ladder_roles;
  return &workload == workload_ && config == config_ &&
         (roles & ~needs_.roles) == 0 &&
         (needs.ladder_roles & ~needs_.ladder_roles) == 0 &&
         (!needs.ghosh_tiles || needs_.ghosh_tiles);
}

}  // namespace ps360::sim
