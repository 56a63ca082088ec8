// Shared planning machinery behind every registered controller (internal to
// sim/; the stable surface is sim/schemes.h). SchemeBase owns the pieces all
// controllers need — the tile grid, the frame-rate ladder, the Eq. 3/Eq. 4
// predicted-Qo evaluation, and the MPC horizon builder — so in-paper schemes
// (schemes.cpp) and the competitor zoo (competitors.cpp) plan against one
// implementation. Deterministic: every helper is a pure function of the
// SchemeEnv and its arguments (segment sizes come from the env's immutable
// EncodingManifest, whose size noise is keyed, never drawn).
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "core/mpc.h"
#include "qoe/qo_model.h"
#include "sim/manifest.h"
#include "sim/schemes.h"
#include "util/check.h"
#include "video/quality.h"

namespace ps360::sim {

class SchemeBase : public Scheme {
 public:
  SchemeBase(SchemeKind kind, const SchemeEnv& env)
      : Scheme(kind),
        env_(env),
        grid_(env.grid_rows, env.grid_cols),
        frame_ladder_(env.workload->video().fps) {
    PS360_CHECK(env_.workload != nullptr && env_.encoding != nullptr &&
                env_.qo_model != nullptr && env_.device != nullptr);
    PS360_CHECK_MSG(env_.manifest != nullptr &&
                        env_.manifest->matches(*env_.workload, env_.encoding->config(),
                                               manifest_needs(kind)),
                    "the env's manifest must be built for its workload and "
                    "encoding and cover the scheme's manifest_needs()");
    PS360_CHECK(env_.mpc_horizon >= 1);
  }

 protected:
  // Eq. 3 Qo of every quality level of segment `segment` at the original
  // frame rate (index v - kMinLevel).
  std::array<double, video::QualityLadder::kLevels> level_qo(std::size_t segment) const {
    const auto& feat = env_.workload->features(segment);
    std::array<double, video::QualityLadder::kLevels> qo{};
    for (int v = video::QualityLadder::kMinLevel; v <= video::QualityLadder::kMaxLevel;
         ++v) {
      const double b = env_.encoding->fov_bitrate_mbps(v, feat);
      qo[static_cast<std::size_t>(v - video::QualityLadder::kMinLevel)] =
          env_.qo_model->qo(feat.si, feat.ti, util::Mbps(b));
    }
    return qo;
  }

  // The planner's per-segment multiplier on predicted Qo: 1 for controllers
  // that plan on Eq. 3 + Eq. 4 as they stand. Perceptual controllers (Pano)
  // override it to re-weight the objective their planner optimizes;
  // delivered-QoE accounting always uses the unweighted model.
  virtual double qo_weight(std::size_t /*segment*/, double /*predicted_sfov*/) const {
    return 1.0;
  }

  // One past the last segment of the MPC horizon [k, k+H-1], clipped to the
  // video end.
  std::size_t horizon_end(std::size_t k) const {
    return std::min(k + env_.mpc_horizon, env_.workload->segment_count());
  }

  // Build the MPC horizon [k, horizon_end(k)). `bytes(i, v, fi)` sizes
  // version (v, fi) of lookahead segment i. An option's predicted Qo is
  // Eq. 3 at its quality, times the Eq. 4 factor (with the *predicted*
  // switching speed) below the original frame rate, times qo_weight(). The
  // factors are evaluated once per segment — Eq. 3 per quality, Eq. 4 per
  // reduced frame index, the weight once — and multiplied per option in
  // that order.
  template <typename BytesOf>
  std::vector<core::SegmentChoices> build_horizon(std::size_t k, const BytesOf& bytes,
                                                  bool frame_options,
                                                  double predicted_sfov,
                                                  power::DecodeProfile profile) const {
    constexpr std::size_t kFrames = video::FrameRateLadder::kOptions;
    const std::size_t end = horizon_end(k);
    const std::size_t first_frame = frame_options ? 1 : kFrames;
    std::vector<core::SegmentChoices> horizon(end - k);
    std::array<double, kFrames> frame_factor{};  // Eq. 4, per index below kFrames
    for (std::size_t i = k; i < end; ++i) {
      const std::array<double, video::QualityLadder::kLevels> qo = level_qo(i);
      if (first_frame < kFrames) {
        const double alpha = qoe::QoModel::alpha(util::DegPerSec(predicted_sfov),
                                                 env_.workload->features(i).ti);
        for (std::size_t fi = first_frame; fi < kFrames; ++fi) {
          frame_factor[fi - 1] =
              qoe::QoModel::frame_rate_factor(alpha, frame_ladder_.ratio(fi));
        }
      }
      const double weight = qo_weight(i, predicted_sfov);
      core::SegmentChoices& choices = horizon[i - k];
      choices.options.reserve(video::QualityLadder::kLevels * (kFrames + 1 - first_frame));
      for (int v = video::QualityLadder::kMinLevel; v <= video::QualityLadder::kMaxLevel;
           ++v) {
        const double qo_v =
            qo[static_cast<std::size_t>(v - video::QualityLadder::kMinLevel)];
        for (std::size_t fi = first_frame; fi <= kFrames; ++fi) {
          core::QualityOption option;
          option.quality = v;
          option.frame_index = fi;
          option.fps = frame_ladder_.fps(fi);
          option.bytes = bytes(i, v, fi);
          option.qo = (fi == kFrames ? qo_v : qo_v * frame_factor[fi - 1]) * weight;
          option.profile = profile;
          choices.options.push_back(option);
        }
      }
    }
    return horizon;
  }

  const EncodingManifest& manifest() const { return *env_.manifest; }

  const SchemeEnv env_;
  const geometry::TileGrid grid_;
  const video::FrameRateLadder frame_ladder_;
};

}  // namespace ps360::sim
