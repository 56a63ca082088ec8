// Differential validation of the flat-arena DP solver (core/mpc.cpp):
// decide() must agree with the exhaustive reference decide_exhaustive() on
// randomized horizons across both objectives, config grids (including buffer
// quanta that do not divide the buffer cap), bandwidth regimes and
// near-empty buffers — plus the steady-state zero-allocation contract of the
// scratch arena, observed through the MpcController scratch hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/buffer.h"
#include "core/mpc.h"
#include "util/rng.h"

namespace ps360::core {
namespace {

using power::DecodeProfile;
using power::Device;

std::vector<SegmentChoices> random_horizon(util::Rng& rng, std::size_t h,
                                           std::size_t max_options) {
  std::vector<SegmentChoices> horizon(h);
  for (auto& seg : horizon) {
    const std::size_t n = 1 + rng.uniform_index(max_options);
    for (std::size_t o = 0; o < n; ++o) {
      QualityOption option;
      option.quality = static_cast<int>(o % 5) + 1;
      option.frame_index = 1 + o % 4;
      option.fps = 21.0 + 3.0 * static_cast<double>(o % 4);
      option.bytes = rng.uniform(5e4, 3e6);
      option.qo = rng.uniform(10.0, 95.0);
      option.profile = DecodeProfile::kPtile;
      seg.options.push_back(option);
    }
  }
  return horizon;
}

// ~200 seeded horizons per objective. Exhaustive search is exponential, so
// horizons stay short (H <= 4) while everything else varies: option counts,
// bandwidths spanning stall-free to hopeless, buffers from empty to full,
// quanta that do and do not divide the buffer cap, and epsilon from pinned
// to loose.
class SolverDifferential : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SolverDifferential, DecideMatchesExhaustive) {
  const auto [seed, energy_mode] = GetParam();
  util::Rng rng(util::derive_seed(0xD1FFu, static_cast<std::uint64_t>(seed),
                                  energy_mode ? 1 : 0));
  const MpcObjective objective = energy_mode
                                     ? MpcObjective::kMinEnergyQoEConstrained
                                     : MpcObjective::kMaxQoE;

  MpcConfig config;
  config.segment_seconds = 1.0;
  config.buffer_threshold_s = 3.0;
  // Exercise grid-aligned and non-aligned quanta (cap = 4 s): 0.6 and 0.75
  // make the cap round up to an extra bucket.
  const double quanta[] = {0.5, 0.6, 0.75};
  config.buffer_quantum_s = quanta[rng.uniform_index(3)];
  const double epsilons[] = {0.0, 0.05, 0.2};
  config.epsilon = epsilons[rng.uniform_index(3)];

  const MpcController controller(config, power::device_model(Device::kPixel3),
                                 objective);

  const std::size_t h = 1 + rng.uniform_index(4);            // 1..4
  const auto horizon = random_horizon(rng, h, 6);            // 1..6 options
  const double bandwidth = rng.uniform(5e4, 2e6);
  // Bias towards near-empty buffers, where stalls and the strict/relaxed
  // fallback are actually exercised.
  const double buffer =
      rng.bernoulli(0.5) ? rng.uniform(0.0, 0.3) : rng.uniform(0.0, 4.0);
  const double prev_qo = rng.bernoulli(0.25) ? -1.0 : rng.uniform(0.0, 100.0);

  const MpcDecision dp = controller.decide(horizon, util::BytesPerSec(bandwidth), util::Seconds(buffer), prev_qo);
  const MpcDecision brute =
      controller.decide_exhaustive(horizon, util::BytesPerSec(bandwidth), util::Seconds(buffer), prev_qo);

  const double tol = 1e-9 * std::max(1.0, std::fabs(brute.objective));
  EXPECT_NEAR(dp.objective, brute.objective, tol)
      << "seed " << seed << " energy_mode " << energy_mode;
  EXPECT_EQ(dp.feasible, brute.feasible)
      << "seed " << seed << " energy_mode " << energy_mode;
  EXPECT_EQ(dp.choice.quality, brute.choice.quality)
      << "seed " << seed << " energy_mode " << energy_mode;
  EXPECT_EQ(dp.choice.frame_index, brute.choice.frame_index)
      << "seed " << seed << " energy_mode " << energy_mode;
  EXPECT_DOUBLE_EQ(dp.choice.bytes, brute.choice.bytes)
      << "seed " << seed << " energy_mode " << energy_mode;
}

INSTANTIATE_TEST_SUITE_P(RandomHorizons, SolverDifferential,
                         ::testing::Combine(::testing::Range(0, 200),
                                            ::testing::Bool()));

// ------------------------------------ Energy objective: sparse-sweep corners
//
// The energy objective's sparse sweep skips dead buckets, ε-infeasible
// options and stalling options in the strict pass. These batteries aim at
// the places that skipping could go wrong — a single surviving option, a
// strict pass that dies, exact cost ties, and every start bucket — and
// require decide() to match decide_exhaustive() bit for bit (both add the
// same step costs in the same order).

void expect_same_decision(const MpcController& controller,
                          const std::vector<SegmentChoices>& horizon,
                          double bandwidth, double buffer,
                          const std::string& where, double prev_qo = -1.0) {
  const MpcDecision dp = controller.decide(horizon, util::BytesPerSec(bandwidth),
                                           util::Seconds(buffer), prev_qo);
  const MpcDecision brute = controller.decide_exhaustive(
      horizon, util::BytesPerSec(bandwidth), util::Seconds(buffer), prev_qo);
  EXPECT_EQ(dp.objective, brute.objective) << where;
  EXPECT_EQ(dp.feasible, brute.feasible) << where;
  EXPECT_EQ(dp.choice.quality, brute.choice.quality) << where;
  EXPECT_EQ(dp.choice.frame_index, brute.choice.frame_index) << where;
  EXPECT_EQ(dp.choice.bytes, brute.choice.bytes) << where;
  EXPECT_EQ(dp.choice.qo, brute.choice.qo) << where;
}

// Every DP bucket's level, including those above β (3.5 s and 4 s on the
// default grid, where the Eq. 6 wait Δt is nonzero).
std::vector<double> every_bucket_level(const MpcConfig& config) {
  const BufferModel model(util::Seconds(config.segment_seconds),
                          util::Seconds(config.buffer_threshold_s),
                          util::Seconds(config.buffer_quantum_s));
  std::vector<double> levels;
  for (std::size_t b = 0; b < model.bucket_count(); ++b)
    levels.push_back(model.level_of(static_cast<int>(b)));
  return levels;
}

std::size_t eps_feasible_count(const SegmentChoices& seg, double bandwidth,
                               const MpcConfig& config) {
  const double q_ref = reference_option(seg, util::BytesPerSec(bandwidth),
                                        util::Seconds(config.segment_seconds))
                           .qo;
  std::size_t n = 0;
  for (const QualityOption& option : seg.options)
    if (option.qo >= (1.0 - config.epsilon) * q_ref) ++n;
  return n;
}

class EnergyCorners : public ::testing::TestWithParam<int> {
 protected:
  MpcConfig config_;
  const power::DeviceModel& device_ = power::device_model(Device::kPixel3);
};

TEST_P(EnergyCorners, EpsilonLeavesASingleOption) {
  util::Rng rng(util::derive_seed(0xE5u, static_cast<std::uint64_t>(GetParam())));
  config_.epsilon = 0.0;
  const MpcController controller(config_, device_,
                                 MpcObjective::kMinEnergyQoEConstrained);
  const double bandwidth = rng.uniform(2e5, 2e6);
  auto horizon = random_horizon(rng, 1 + rng.uniform_index(4), 6);
  // One option per segment becomes the reference: the top frame rate,
  // sustainable at the bandwidth, and strictly the best Qo. With ε = 0 it
  // is the only option constraint (8c) admits.
  for (SegmentChoices& seg : horizon) {
    std::size_t max_frame = 0;
    double max_qo = 0.0;
    for (const QualityOption& option : seg.options) {
      max_frame = std::max(max_frame, option.frame_index);
      max_qo = std::max(max_qo, option.qo);
    }
    QualityOption& pick = seg.options[rng.uniform_index(seg.options.size())];
    pick.frame_index = max_frame;
    pick.bytes = rng.uniform(0.1, 0.9) * bandwidth * config_.segment_seconds;
    pick.qo = max_qo + 1.0;
    ASSERT_EQ(eps_feasible_count(seg, bandwidth, config_), 1u);
  }
  for (const double buffer : every_bucket_level(config_))
    expect_same_decision(controller, horizon, bandwidth, buffer,
                         "seed " + std::to_string(GetParam()) + " buffer " +
                             std::to_string(buffer));
}

TEST_P(EnergyCorners, StrictPassInfeasibleForEveryOption) {
  util::Rng rng(util::derive_seed(0x1FEAu, static_cast<std::uint64_t>(GetParam())));
  config_.epsilon = 0.2;
  const MpcController controller(config_, device_,
                                 MpcObjective::kMinEnergyQoEConstrained);
  const auto horizon = random_horizon(rng, 1 + rng.uniform_index(4), 6);
  // Every option takes longer to download than the fullest bucket holds at
  // request time (β = 3 s), so the strict pass dies at its first step from
  // any start and the relaxed fallback must match the exhaustive one.
  double min_bytes = 1e300;
  for (const SegmentChoices& seg : horizon)
    for (const QualityOption& option : seg.options)
      min_bytes = std::min(min_bytes, option.bytes);
  const double bandwidth = min_bytes / rng.uniform(3.5, 8.0);
  for (const double buffer : every_bucket_level(config_)) {
    const std::string where =
        "seed " + std::to_string(GetParam()) + " buffer " + std::to_string(buffer);
    expect_same_decision(controller, horizon, bandwidth, buffer, where);
    EXPECT_FALSE(controller
                     .decide(horizon, util::BytesPerSec(bandwidth),
                             util::Seconds(buffer), -1.0)
                     .feasible)
        << where;
  }
}

TEST_P(EnergyCorners, DuplicatedOptionsTieAcrossBucketsAndRoots) {
  util::Rng rng(util::derive_seed(0xD0Bu, static_cast<std::uint64_t>(GetParam())));
  config_.epsilon = 0.2;
  // A radio that draws no power makes an option's energy depend on its
  // frame rate and decode profile only, so options that differ only in
  // size cost exactly the same and still land in different buckets.
  power::DeviceModel free_radio = device_;
  free_radio.transmit_mw = 0.0;
  // Each option also appears twice (equal costs, different roots), and
  // every segment is the same ladder. The copies carry a quality label of
  // their own, which neither solver reads (energy depends on bytes, fps and
  // profile; constraint (8c) on Qo and the frame index), so a decision
  // naming the wrong copy is caught.
  SegmentChoices seg = random_horizon(rng, 1, 8)[0];
  std::vector<QualityOption> copies = seg.options;
  for (QualityOption& option : copies) option.quality += 5;
  seg.options.insert(seg.options.begin() +
                         static_cast<std::ptrdiff_t>(rng.uniform_index(copies.size() + 1)),
                     copies.begin(), copies.end());
  const std::vector<SegmentChoices> horizon(2 + rng.uniform_index(2), seg);
  const double bandwidth = rng.uniform(2e5, 3e6);
  const power::DeviceModel* const devices[] = {&device_, &free_radio};
  for (const power::DeviceModel* device : devices) {
    const MpcController controller(config_, *device,
                                   MpcObjective::kMinEnergyQoEConstrained);
    for (const double buffer : every_bucket_level(config_))
      expect_same_decision(controller, horizon, bandwidth, buffer,
                           "seed " + std::to_string(GetParam()) + " device " +
                               device->name + " transmit_mw " +
                               std::to_string(device->transmit_mw) + " buffer " +
                               std::to_string(buffer));
  }
}

TEST_P(EnergyCorners, EveryStartBucketOnEveryGrid) {
  util::Rng rng(util::derive_seed(0xB0Cu, static_cast<std::uint64_t>(GetParam())));
  const double quanta[] = {0.5, 0.6, 0.75};
  config_.buffer_quantum_s = quanta[rng.uniform_index(3)];
  const double epsilons[] = {0.0, 0.05, 0.2};
  config_.epsilon = epsilons[rng.uniform_index(3)];
  const MpcController controller(config_, device_,
                                 MpcObjective::kMinEnergyQoEConstrained);
  const auto horizon = random_horizon(rng, 1 + rng.uniform_index(4), 6);
  const double bandwidth = rng.uniform(5e4, 2e6);
  for (const double buffer : every_bucket_level(config_))
    expect_same_decision(controller, horizon, bandwidth, buffer,
                         "seed " + std::to_string(GetParam()) + " buffer " +
                             std::to_string(buffer));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnergyCorners, ::testing::Range(0, 25));

// ------------------------------------ kMaxQoE objective: pruned sparse sweep
//
// The kMaxQoE sweep reduces a bucket's prev states per option in registers
// and drops a prev state that another state of its bucket beats by more
// than the pruning margin for every option. These batteries aim at what
// that could get wrong — Pano-sized 20-option ladders, duplicated Qo (exact
// cost ties between prev states), prev states 1 ulp apart or about one
// margin apart, no previous segment, variation weights 0 / 1 / 5, plans
// that stall whatever they pick, and every start bucket — and require
// decide() to match decide_exhaustive() bit for bit.

// `n` options per segment over the quality × frame-rate ladder.
std::vector<SegmentChoices> ladder_horizon(util::Rng& rng, std::size_t h, std::size_t n,
                                           double qo_lo = 10.0, double qo_hi = 95.0) {
  std::vector<SegmentChoices> horizon(h);
  for (auto& seg : horizon) {
    for (std::size_t o = 0; o < n; ++o) {
      QualityOption option;
      option.quality = static_cast<int>(o / 4) + 1;
      option.frame_index = 1 + o % 4;
      option.fps = 21.0 + 3.0 * static_cast<double>(o % 4);
      option.bytes = rng.uniform(5e4, 3e6);
      option.qo = rng.uniform(qo_lo, qo_hi);
      option.profile = DecodeProfile::kCtile;
      seg.options.push_back(option);
    }
  }
  return horizon;
}

class QoeMaxCorners : public ::testing::TestWithParam<int> {
 protected:
  MpcController controller(double variation_weight) const {
    MpcConfig config = config_;
    config.weights.variation = variation_weight;
    return MpcController(config, device_, MpcObjective::kMaxQoE);
  }

  // decide ≡ decide_exhaustive from every start bucket.
  void expect_every_bucket(const MpcController& controller,
                           const std::vector<SegmentChoices>& horizon, double bandwidth,
                           double prev_qo, const std::string& where) const {
    for (const double buffer : every_bucket_level(controller.config()))
      expect_same_decision(controller, horizon, bandwidth, buffer,
                           where + " buffer " + std::to_string(buffer), prev_qo);
  }

  std::string where(double w, double prev_qo) const {
    return "seed " + std::to_string(GetParam()) + " w " + std::to_string(w) +
           " prev_qo " + std::to_string(prev_qo);
  }

  MpcConfig config_;
  const power::DeviceModel& device_ = power::device_model(Device::kPixel3);
};

constexpr double kVariationWeights[] = {0.0, 1.0, 5.0};

TEST_P(QoeMaxCorners, TwentyOptionLadders) {
  util::Rng rng(util::derive_seed(0x20Au, static_cast<std::uint64_t>(GetParam())));
  const auto horizon = ladder_horizon(rng, 1 + rng.uniform_index(3), 20);
  const double bandwidth = rng.uniform(1e5, 2e6);
  const double prev_qo = rng.bernoulli(0.3) ? -1.0 : rng.uniform(0.0, 100.0);
  for (const double w : kVariationWeights)
    expect_every_bucket(controller(w), horizon, bandwidth, prev_qo, where(w, prev_qo));
}

TEST_P(QoeMaxCorners, DuplicatedQoAcrossOptions) {
  util::Rng rng(util::derive_seed(0xD0Fu, static_cast<std::uint64_t>(GetParam())));
  // Qo drawn from three values and sizes from two, so many prev states of
  // one bucket tie exactly in cost and Qo and differ only in root.
  const double qos[] = {rng.uniform(10.0, 95.0), rng.uniform(10.0, 95.0),
                        rng.uniform(10.0, 95.0)};
  const double sizes[] = {rng.uniform(5e4, 1e6), rng.uniform(5e4, 3e6)};
  std::vector<SegmentChoices> horizon(2 + rng.uniform_index(2));
  for (SegmentChoices& seg : horizon) {
    for (std::size_t o = 0; o < 10; ++o) {
      QualityOption option;
      option.quality = static_cast<int>(o) + 1;  // a distinct label per copy
      option.frame_index = 1 + o % 4;
      option.bytes = sizes[rng.uniform_index(2)];
      option.qo = qos[rng.uniform_index(3)];
      seg.options.push_back(option);
    }
  }
  const double bandwidth = rng.uniform(2e5, 3e6);
  const double prev_options[] = {-1.0, qos[0], rng.uniform(0.0, 100.0)};
  for (const double w : kVariationWeights)
    for (const double prev_qo : prev_options)
      expect_every_bucket(controller(w), horizon, bandwidth, prev_qo, where(w, prev_qo));
}

TEST_P(QoeMaxCorners, PrevStatesOneUlpOrOneMarginApart) {
  // Two first-segment options of equal size lead to prev states j (root 0)
  // and k (root 1) in one bucket. With no previous segment and no stall,
  // their costs are exactly -Qo, and k beats j at every next option by
  // (1 - w)·(Qo_k - Qo_j). One ulp apart, that lead rounds away at the
  // second segment's magnitudes and j wins the tie on its smaller root: a
  // pruning margin below the rounding error would drop j and flip the
  // plan. About one margin apart (the margin is 1e-9 × the bucket's cost
  // and Qo scale plus the step's Qo and stall-penalty scale, mirrored
  // here), the sweep must agree with the exhaustive search on either side.
  util::Rng rng(util::derive_seed(0x0E1Fu, static_cast<std::uint64_t>(GetParam())));
  const double bandwidth = rng.uniform(5e5, 2e6);
  const double qo_j = rng.uniform(5.0, 20.0);
  const double bytes = rng.uniform(0.05, 0.5) * bandwidth;
  const std::vector<SegmentChoices> tail = ladder_horizon(rng, 1, 20, 60.0, 95.0);
  double q_max = 0.0;
  double d_max = 0.0;
  for (const QualityOption& option : tail[0].options) {
    q_max = std::max(q_max, std::fabs(option.qo));
    d_max = std::max(d_max, option.bytes / bandwidth);
  }
  for (const double w : {0.0, 0.25}) {
    const MpcController solver = controller(w);
    const double step_scale =
        1.0 + (1.0 + w) * q_max + solver.config().stall_penalty_per_s * d_max;
    std::vector<double> gaps = {std::nextafter(qo_j, 1e300) - qo_j};
    for (const double f : {0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0}) {
      const double state_scale = (1.0 + w) * qo_j;
      gaps.push_back(1e-9 * (step_scale + state_scale) * f / (1.0 - w));
    }
    for (const double gap : gaps) {
      std::vector<SegmentChoices> horizon(1);
      for (const double qo : {qo_j, qo_j + gap}) {
        QualityOption option;
        option.quality = qo == qo_j ? 1 : 2;
        option.bytes = bytes;
        option.qo = qo;
        horizon[0].options.push_back(option);
      }
      horizon.push_back(tail[0]);
      expect_every_bucket(solver, horizon, bandwidth, -1.0,
                          where(w, -1.0) + " gap " + std::to_string(gap));
      // Mirrored: the lower-cost state comes first.
      std::swap(horizon[0].options[0], horizon[0].options[1]);
      expect_every_bucket(solver, horizon, bandwidth, -1.0,
                          where(w, -1.0) + " mirrored gap " + std::to_string(gap));
    }
  }
}

TEST_P(QoeMaxCorners, NoPreviousSegmentAndNegativeQo) {
  // A negative prev_qo means "no previous segment", and an option with a
  // negative Qo switches the variation term off for the segment after it:
  // neither state may take part in the dominance test.
  util::Rng rng(util::derive_seed(0x9E6u, static_cast<std::uint64_t>(GetParam())));
  auto horizon = ladder_horizon(rng, 2 + rng.uniform_index(2), 6);
  for (SegmentChoices& seg : horizon)
    for (QualityOption& option : seg.options)
      if (rng.bernoulli(0.3)) option.qo = -rng.uniform(0.0, 50.0);
  const double bandwidth = rng.uniform(2e5, 3e6);
  for (const double w : kVariationWeights)
    for (const double prev_qo : {-1.0, -0.5, -1e9, rng.uniform(0.0, 100.0)})
      expect_every_bucket(controller(w), horizon, bandwidth, prev_qo, where(w, prev_qo));
}

TEST_P(QoeMaxCorners, EveryPlanStalls) {
  util::Rng rng(util::derive_seed(0x57Au, static_cast<std::uint64_t>(GetParam())));
  const auto horizon = ladder_horizon(rng, 1 + rng.uniform_index(3), 8);
  // Every download outlasts the fullest buffer (cap 4 s): each candidate
  // pays a stall penalty that dwarfs its Qo terms.
  double min_bytes = 1e300;
  for (const SegmentChoices& seg : horizon)
    for (const QualityOption& option : seg.options)
      min_bytes = std::min(min_bytes, option.bytes);
  const double bandwidth = min_bytes / rng.uniform(4.5, 9.0);
  const double prev_qo = rng.bernoulli(0.5) ? -1.0 : rng.uniform(0.0, 100.0);
  for (const double w : kVariationWeights) {
    const MpcController solver = controller(w);
    expect_every_bucket(solver, horizon, bandwidth, prev_qo, where(w, prev_qo));
    EXPECT_FALSE(solver
                     .decide(horizon, util::BytesPerSec(bandwidth), util::Seconds(4.0),
                             prev_qo)
                     .feasible);
  }
}

TEST_P(QoeMaxCorners, EveryStartBucketOnEveryGrid) {
  util::Rng rng(util::derive_seed(0xB1Du, static_cast<std::uint64_t>(GetParam())));
  const double quanta[] = {0.5, 0.6, 0.75};
  config_.buffer_quantum_s = quanta[rng.uniform_index(3)];
  const auto horizon = random_horizon(rng, 1 + rng.uniform_index(4), 6);
  const double bandwidth = rng.uniform(5e4, 2e6);
  const double prev_qo = rng.bernoulli(0.3) ? -1.0 : rng.uniform(0.0, 100.0);
  for (const double w : kVariationWeights)
    expect_every_bucket(controller(w), horizon, bandwidth, prev_qo, where(w, prev_qo));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QoeMaxCorners, ::testing::Range(0, 25));

// One first-segment option of Qo -5 (state j) and one of Qo 10 (state k),
// equal in size. At w = 0.5, cost_k + w·|Qo_k − Qo_j| = -10 + 7.5 is below
// cost_j = 5, but j pays no variation term, so at the 95-Qo option j's
// candidate (5 − 95) beats k's (-10 − 95 + 42.5): a negative-Qo state must
// never be dropped on the dominance test.
TEST(QoeMaxPruning, NegativeQoPrevStateIsKept) {
  MpcConfig config;
  config.weights.variation = 0.5;
  const MpcController controller(config, power::device_model(Device::kPixel3),
                                 MpcObjective::kMaxQoE);
  std::vector<SegmentChoices> horizon(2);
  for (const double qo : {-5.0, 10.0}) {
    QualityOption option;
    option.quality = qo < 0.0 ? 1 : 2;
    option.bytes = 1e5;
    option.qo = qo;
    horizon[0].options.push_back(option);
  }
  QualityOption best;
  best.quality = 5;
  best.bytes = 2e5;
  best.qo = 95.0;
  horizon[1].options.push_back(best);
  const MpcDecision dp =
      controller.decide(horizon, util::BytesPerSec(1e6), util::Seconds(3.0), -1.0);
  EXPECT_EQ(dp.choice.quality, 1);
  EXPECT_EQ(dp.objective, 5.0 - 95.0);
  expect_same_decision(controller, horizon, 1e6, 3.0, "negative qo");
}

// A download of exactly 2.75 s from a 3 s buffer leaves 0.25 s, so the next
// level is 1.25 s: halfway between the 1.0 s and 1.5 s buckets, where Eq. 6
// quantization rounds up. From 1.5 s the 1.4 s download of the second
// segment's top option does not stall; from 1.0 s it would.
TEST(QoeMaxPruning, HalfwayTransitionsRoundUp) {
  const MpcConfig config;
  const MpcController controller(config, power::device_model(Device::kPixel3),
                                 MpcObjective::kMaxQoE);
  std::vector<SegmentChoices> horizon(2);
  QualityOption first;
  first.bytes = 2.75e6;
  first.qo = 60.0;
  horizon[0].options.push_back(first);
  for (const auto& [bytes, qo] : {std::pair{1.4e6, 90.0}, std::pair{0.5e6, 50.0}}) {
    QualityOption option;
    option.bytes = bytes;
    option.qo = qo;
    option.quality = qo > 60.0 ? 5 : 2;
    horizon[1].options.push_back(option);
  }
  const MpcDecision dp =
      controller.decide(horizon, util::BytesPerSec(1e6), util::Seconds(3.0), 60.0);
  EXPECT_TRUE(dp.feasible);
  EXPECT_EQ(dp.choice.quality, 1);
  EXPECT_EQ(dp.objective, (0.0 - 60.0) - (90.0 - 30.0));
  expect_same_decision(controller, horizon, 1e6, 3.0, "halfway", 60.0);
}

// ------------------------------------------------- Scratch arena contract

std::vector<SegmentChoices> fixed_horizon(std::size_t h, std::size_t options_n,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<SegmentChoices> horizon(h);
  for (auto& seg : horizon) {
    for (std::size_t o = 0; o < options_n; ++o) {
      QualityOption option;
      option.quality = static_cast<int>(o % 5) + 1;
      option.frame_index = 1 + o % 4;
      option.fps = 21.0 + 3.0 * static_cast<double>(o % 4);
      option.bytes = rng.uniform(5e4, 2e6);
      option.qo = rng.uniform(10.0, 95.0);
      option.profile = DecodeProfile::kPtile;
      seg.options.push_back(option);
    }
  }
  return horizon;
}

class ScratchReuse : public ::testing::TestWithParam<bool> {};

TEST_P(ScratchReuse, SteadyStateDecideDoesNotReallocate) {
  const bool energy_mode = GetParam();
  MpcConfig config;
  const MpcController controller(
      config, power::device_model(Device::kPixel3),
      energy_mode ? MpcObjective::kMinEnergyQoEConstrained
                  : MpcObjective::kMaxQoE);

  // Warm up with the largest shape this test will ever solve.
  const auto big = fixed_horizon(20, 20, 7);
  (void)controller.decide(big, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);

  const std::size_t capacity = controller.scratch_capacity_bytes();
  const std::uint64_t grows = controller.scratch_grow_events();
  EXPECT_GT(capacity, 0u);
  EXPECT_GT(grows, 0u);  // the warm-up itself had to allocate

  // Steady state: repeated solves — including smaller shapes, low-bandwidth
  // horizons that trigger the relaxed fallback, and near-empty buffers —
  // must never grow the arena again.
  const auto small = fixed_horizon(3, 5, 11);
  for (int rep = 0; rep < 100; ++rep) {
    (void)controller.decide(big, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
    (void)controller.decide(small, util::BytesPerSec(2e5), util::Seconds(0.0), -1.0);
    (void)controller.decide(big, util::BytesPerSec(1e3), util::Seconds(0.0), 50.0);  // hopeless: fallback path
  }
  EXPECT_EQ(controller.scratch_capacity_bytes(), capacity);
  EXPECT_EQ(controller.scratch_grow_events(), grows);
}

INSTANTIATE_TEST_SUITE_P(BothObjectives, ScratchReuse, ::testing::Bool());

// ------------------------------------------ BufferModel dense-table sizing

TEST(BufferModelDenseTest, BucketCountCoversRoundedUpCap) {
  // cap = 4 s, quantum 0.6 s: quantize(4.0) rounds to 4.2 (bucket 7), so the
  // grid must have 8 states — a floor-based count would be overrun.
  const BufferModel model(util::Seconds(1.0), util::Seconds(3.0), util::Seconds(0.6));
  EXPECT_DOUBLE_EQ(model.quantize(util::Seconds(4.0)), 4.2);
  EXPECT_EQ(model.bucket_of(util::Seconds(4.0)), 7);
  EXPECT_EQ(model.bucket_count(), 8u);
  EXPECT_DOUBLE_EQ(model.level_of(7), 4.2);
}

TEST(BufferModelDenseTest, LevelOfInvertsBucketOfOnTheGrid) {
  const BufferModel model(util::Seconds(1.0), util::Seconds(3.0), util::Seconds(0.5));
  for (std::size_t b = 0; b < model.bucket_count(); ++b) {
    const double level = model.level_of(static_cast<int>(b));
    EXPECT_EQ(model.bucket_of(util::Seconds(level)), static_cast<int>(b));
  }
  EXPECT_THROW(model.level_of(-1), std::invalid_argument);
  EXPECT_THROW(model.level_of(static_cast<int>(model.bucket_count())),
               std::invalid_argument);
}

}  // namespace
}  // namespace ps360::core
