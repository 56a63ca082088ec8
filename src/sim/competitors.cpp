// Competitor controllers (GhoshLP / GhoshRobust / Pano). Deterministic
// contract: plan() is a pure function of the SchemeEnv, segment state, and
// the session seed — the LP greedy iterates tiles in row-major index order
// with strict-> tie-breaking, tile sizes come from the encoding manifest's
// Ghosh table (keyed noise, role kRoleGhoshTile salted by tile id), and no
// unordered containers or wall-clock reads appear anywhere.
// attach_plan_cache is a documented no-op and attach_observer only adds
// counters, so hook wiring never changes decisions (pinned by
// tests/tournament_test.cpp).
#include "sim/competitors.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "obs/observer.h"
#include "predict/visibility.h"
#include "qoe/qo_model.h"
#include "sim/scheme_base.h"
#include "util/check.h"

namespace ps360::sim {

using geometry::EquirectRect;
using geometry::TileIndex;
using geometry::Viewport;

LpAllocation lp_allocate(const std::vector<double>& weights,
                         const std::vector<double>& tile_bytes,
                         const std::vector<double>& tile_utility, std::size_t levels,
                         util::Bytes budget) {
  const std::size_t n = weights.size();
  PS360_CHECK(levels >= 1);
  PS360_CHECK(tile_bytes.size() == n * levels && tile_utility.size() == n * levels);
  PS360_CHECK(budget.value() >= 0.0);
  for (std::size_t i = 0; i < n; ++i) PS360_CHECK(weights[i] >= 0.0);

  LpAllocation out;
  out.level.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    out.spent += tile_bytes[i * levels];
    out.utility += weights[i] * tile_utility[i * levels];
  }
  out.feasible = out.spent <= budget.value();
  if (!out.feasible) return out;  // even the floor does not fit: stay there

  // Each tile's next upgrade. A tile stays closed once it is at its top
  // level or its next level gains nothing: its level never changes again,
  // so the greedy would skip it on every later scan too.
  struct Upgrade {
    double cost = 0.0;   // marginal bytes
    double gain = 0.0;   // weighted marginal utility
    double ratio = 0.0;  // gain per byte; +inf for a free upgrade
    bool open = false;
  };
  std::vector<Upgrade> next(n);
  const auto refresh = [&](std::size_t i) {
    const std::size_t at = i * levels + static_cast<std::size_t>(out.level[i]);
    Upgrade& up = next[i];
    up.open = false;
    if (static_cast<std::size_t>(out.level[i]) + 1 >= levels) return;
    up.cost = tile_bytes[at + 1] - tile_bytes[at];
    up.gain = weights[i] * (tile_utility[at + 1] - tile_utility[at]);
    if (up.gain <= 0.0) return;
    // Free (or size-shrinking) upgrades rank above any paid one.
    up.ratio = up.cost <= 0.0 ? std::numeric_limits<double>::infinity() : up.gain / up.cost;
    up.open = true;
  };
  for (std::size_t i = 0; i < n; ++i) refresh(i);

  for (;;) {
    std::size_t best_tile = n;
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Upgrade& up = next[i];
      if (!up.open) continue;
      if (out.spent + std::max(up.cost, 0.0) > budget.value()) continue;
      if (best_tile == n || up.ratio > best_ratio) {  // strict: ties keep lower i
        best_tile = i;
        best_ratio = up.ratio;
      }
    }
    if (best_tile == n) break;
    out.spent += next[best_tile].cost;
    out.utility += next[best_tile].gain;
    ++out.level[best_tile];
    refresh(best_tile);
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// GhoshLP / GhoshRobust

class GhoshScheme : public SchemeBase {
 public:
  GhoshScheme(SchemeKind kind, const SchemeEnv& env, bool robust)
      : SchemeBase(kind, env), robust_(robust) {
    PS360_CHECK_MSG(grid_.tile_count() <= kGhoshTileIds,
                    "the manifest's Ghosh table covers the 4 x 8 grid's tile ids");
    for (std::size_t id = 0; id < grid_.tile_count(); ++id)
      tile_area_.push_back(grid_.tile_area({id / grid_.cols(), id % grid_.cols()}));
  }

  void attach_observer(obs::Observer* observer, std::uint32_t session) override {
    observer_ = observer;
    session_ = session;
    if (observer_ != nullptr && observer_->metrics != nullptr)
      id_allocations_ = observer_->metrics->counter("lp.allocations");
  }

  // No MPC inside: the allocator is a closed-form greedy, so there is no
  // solve to memoize. Accepting (and ignoring) the cache keeps the
  // cache-on ≡ cache-off differential trivially true for this controller.
  void attach_plan_cache(core::PlanCache*) override {}

  DownloadPlan plan(std::size_t k, const Viewport& predicted, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double /*prev_qo*/) const override {
    constexpr std::size_t kLevels = video::QualityLadder::kLevels;
    const double L = env_.mpc.segment_seconds;
    const EncodingManifest& m = manifest();

    // Candidate (allocated) tile ids and their weights.
    std::vector<std::size_t> candidates;
    std::vector<double> weights;
    if (robust_) {
      // Weight every tile the viewport might touch by its visibility
      // probability; the lookahead horizon is the buffer level (how far in
      // the future this segment plays).
      const std::vector<double> visibility = predict::tile_visibility(
          grid_, predicted.center(), predicted.fov_h(), predicted.fov_v(),
          util::DegPerSec(predicted_sfov),
          util::Seconds(std::max(buffer.value(), 0.0)));
      for (std::size_t id = 0; id < visibility.size(); ++id) {
        if (visibility[id] < kVisibilityFloor) continue;
        candidates.push_back(id);
        weights.push_back(visibility[id]);
      }
    }
    if (candidates.empty()) {
      // Plain variant (and the robust degenerate case): the predicted-FoV
      // tiles, equally weighted — prediction taken at face value.
      const auto rect =
          grid_.covering_rect(predicted.area(), env_.tile_overlap_threshold);
      for (const TileIndex& t : grid_.tiles_in(rect)) candidates.push_back(tile_id(t));
      weights.assign(candidates.size(), 1.0);
    }

    // Background: every non-candidate tile ships at the lowest level,
    // charged before the allocation budget.
    std::vector<char> is_candidate(grid_.tile_count(), 0);
    for (const std::size_t id : candidates) is_candidate[id] = 1;
    double bg_bytes = 0.0;
    for (std::size_t id = 0; id < grid_.tile_count(); ++id) {
      if (is_candidate[id]) continue;
      bg_bytes += m.ghosh_tile_bytes(k, video::QualityLadder::kMinLevel, id,
                                     tile_area_[id].area_fraction(), L);
    }
    const double total_budget = bandwidth.value() * L;
    const double budget = std::max(total_budget - bg_bytes, 0.0);

    // Per-candidate cost and utility ladders (utility = Eq. 3 Qo at the
    // level's FoV bitrate; identical across tiles, but costs differ by
    // area and keyed noise, so the allocation is still non-trivial).
    const std::array<double, kLevels> level_utility = level_qo(k);
    std::vector<double> tile_bytes(candidates.size() * kLevels);
    std::vector<double> tile_utility(candidates.size() * kLevels);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      for (std::size_t l = 0; l < kLevels; ++l) {
        const int v = video::QualityLadder::kMinLevel + static_cast<int>(l);
        tile_bytes[i * kLevels + l] = m.ghosh_tile_bytes(
            k, v, candidates[i], tile_area_[candidates[i]].area_fraction(), L);
        tile_utility[i * kLevels + l] = level_utility[l];
      }
    }

    const LpAllocation alloc =
        lp_allocate(weights, tile_bytes, tile_utility, kLevels, util::Bytes(budget));
    if (observer_ != nullptr && observer_->metrics != nullptr)
      observer_->metrics->add(id_allocations_);

    // Collapse the per-tile levels into the session-level plan: the
    // weight-averaged FoV level (deterministic round-half-up) plus the
    // union of the upgraded tiles as the high-quality region.
    double level_sum = 0.0;
    double weight_sum = 0.0;
    bool any_upgraded = false;
    EquirectRect hq;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      level_sum += weights[i] * (alloc.level[i] + video::QualityLadder::kMinLevel);
      weight_sum += weights[i];
      if (alloc.level[i] > 0) {
        const EquirectRect& area = tile_area_[candidates[i]];
        hq = any_upgraded ? hq.united(area) : area;
        any_upgraded = true;
      }
    }
    const int quality = std::clamp(
        static_cast<int>(std::floor(level_sum / std::max(weight_sum, 1e-12) + 0.5)),
        video::QualityLadder::kMinLevel, video::QualityLadder::kMaxLevel);
    if (!any_upgraded) {
      // Everything stayed at the floor: the whole candidate set is the
      // (lowest-quality) served region.
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const EquirectRect& area = tile_area_[candidates[i]];
        hq = i == 0 ? area : hq.united(area);
      }
    }

    DownloadPlan plan;
    plan.option.quality = quality;
    plan.option.frame_index = video::FrameRateLadder::kOptions;
    plan.option.fps = frame_ladder_.fps(video::FrameRateLadder::kOptions);
    plan.option.bytes = bg_bytes + alloc.spent;
    plan.option.qo =
        level_utility[static_cast<std::size_t>(quality - video::QualityLadder::kMinLevel)];
    plan.option.profile = power::DecodeProfile::kCtile;
    plan.frame_ratio = 1.0;
    plan.mpc_feasible = alloc.feasible && bg_bytes <= total_budget;
    plan.hq_region = hq;
    return plan;
  }

  double coverage(const DownloadPlan& plan, const Viewport& actual) const override {
    return plan.hq_region.coverage_of(actual.area());
  }

 private:
  static constexpr double kVisibilityFloor = 0.05;  // robust candidate cutoff

  std::size_t tile_id(const TileIndex& t) const { return t.row * grid_.cols() + t.col; }

  bool robust_;
  std::vector<EquirectRect> tile_area_;  // per tile id
  obs::Observer* observer_ = nullptr;
  std::uint32_t session_ = 0;
  obs::MetricsRegistry::Id id_allocations_{};
};

// ---------------------------------------------------------------------------
// Pano

class PanoScheme : public SchemeBase {
 public:
  explicit PanoScheme(const SchemeEnv& env)
      : SchemeBase(SchemeKind::kPano, env),
        controller_(env.mpc, *env.device, core::MpcObjective::kMaxQoE) {}

  void attach_observer(obs::Observer* observer, std::uint32_t session) override {
    controller_.set_observer(observer, session);
  }

  void attach_plan_cache(core::PlanCache* cache) override {
    controller_.set_plan_cache(cache);
  }

  DownloadPlan plan(std::size_t k, const Viewport& predicted, double predicted_sfov,
                    util::BytesPerSec bandwidth, util::Seconds buffer,
                    double prev_qo) const override {
    // Ctile download geometry (same tiling, same per-role noise keys, so
    // Pano streams the exact same encodings Ctile would) — the difference
    // is purely the objective: perceptually weighted Qo over the full
    // (quality, frame-rate) ladder.
    const auto rect =
        grid_.covering_rect(predicted.area(), env_.tile_overlap_threshold);
    const EquirectRect hq = grid_.rect_area(rect);
    const double hq_area = hq.area_fraction();
    const std::size_t n_hq = rect.tile_count();
    const std::size_t n_bg = grid_.tile_count() - n_hq;
    const double bg_area = std::max(1.0 - hq_area, 0.0);
    const double L = env_.mpc.segment_seconds;
    const EncodingManifest& m = manifest();

    const auto bytes = [&](std::size_t i, int v, std::size_t fi) {
      double total =
          m.bytes(i, v, fi, kRoleCtileFov, hq_area, n_hq, L, m.frame_factor(fi));
      if (n_bg > 0 && bg_area > 0.0)
        total += m.bytes(i, 1, fi, kRoleCtileBackground, bg_area, n_bg, L);
      return total;
    };

    const auto horizon =
        build_horizon(k, bytes, /*frame_options=*/true, predicted_sfov,
                      power::DecodeProfile::kCtile);
    const core::MpcDecision decision =
        controller_.decide(horizon, bandwidth, buffer, prev_qo);

    DownloadPlan plan;
    plan.option = decision.choice;
    plan.frame_ratio = frame_ladder_.ratio(decision.choice.frame_index);
    plan.mpc_feasible = decision.feasible;
    plan.hq_region = hq;
    return plan;
  }

  double coverage(const DownloadPlan& plan, const Viewport& actual) const override {
    return plan.hq_region.coverage_of(actual.area());
  }

 protected:
  // The Pano twist: the planner's Qo is masked by what the viewer can
  // actually perceive at this switching speed and content. Delivered-QoE
  // accounting stays on the unweighted Eq. 3 (accounting.cpp owns that).
  double qo_weight(std::size_t segment, double predicted_sfov) const override {
    const auto& feat = env_.workload->features(segment);
    return qoe::QoModel::perceptual_sensitivity(util::DegPerSec(predicted_sfov), feat.si,
                                                feat.ti);
  }

 private:
  core::MpcController controller_;
};

}  // namespace

std::unique_ptr<Scheme> make_ghosh_lp(const SchemeEnv& env) {
  return std::make_unique<GhoshScheme>(SchemeKind::kGhoshLp, env, /*robust=*/false);
}

std::unique_ptr<Scheme> make_ghosh_robust(const SchemeEnv& env) {
  return std::make_unique<GhoshScheme>(SchemeKind::kGhoshRobust, env, /*robust=*/true);
}

std::unique_ptr<Scheme> make_pano(const SchemeEnv& env) {
  return std::make_unique<PanoScheme>(env);
}

}  // namespace ps360::sim
