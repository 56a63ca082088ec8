#include "core/mpc.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/buffer.h"
#include "core/plan_cache.h"
#include "util/check.h"
#include "util/strings.h"
#include "util/units.h"

namespace ps360::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Relaxed-mode stall penalty in the energy objective: large enough to
// dominate any realistic horizon energy, so the fallback minimises stall
// first and energy second.
constexpr double kStallPenaltyMjPerS = 1e7;

// Eq. 6 buffer dynamics on the paper's 500 ms DP grid.
BufferModel buffer_model_of(const MpcConfig& config) {
  return BufferModel(util::Seconds(config.segment_seconds),
                     util::Seconds(config.buffer_threshold_s),
                     util::Seconds(config.buffer_quantum_s));
}

// bytes / bandwidth, rejected unless finite. A positive but tiny bandwidth
// (1e-310 B/s) overflows the division to +inf; every plan would then cost
// +inf and neither solver would have a plan to return.
double checked_download_s(double bytes, double bandwidth_bytes_per_s) {
  const double download_s = bytes / bandwidth_bytes_per_s;
  PS360_CHECK_MSG(std::isfinite(download_s),
                  util::strfmt("download time of a %g-byte option is not "
                               "finite at bandwidth %g B/s",
                               bytes, bandwidth_bytes_per_s));
  return download_s;
}

// The Qo inputs both solvers read. A negative finite prev_qo means "no
// previous segment"; NaN would silently mean the same (every comparison
// with it is false), and a NaN option Qo would silently drop that option,
// so neither is accepted.
void check_qo_inputs(const std::vector<SegmentChoices>& horizon, double prev_qo) {
  PS360_CHECK_MSG(std::isfinite(prev_qo),
                  util::strfmt("prev_qo %g is not finite (pass a negative "
                               "value for no previous segment)",
                               prev_qo));
  for (const SegmentChoices& seg : horizon) {
    PS360_CHECK(!seg.options.empty());
    for (const QualityOption& option : seg.options) {
      PS360_CHECK_MSG(std::isfinite(option.qo),
                      util::strfmt("option qo %g is not finite", option.qo));
    }
  }
}

// resize() that tracks reallocations for the zero-allocation contract.
template <typename T>
void grow(std::vector<T>& vec, std::size_t n, std::uint64_t& grow_events) {
  if (vec.capacity() < n) ++grow_events;
  vec.resize(n);
}

}  // namespace

std::size_t MpcScratch::capacity_bytes() const {
  return (step_cost.capacity() + download_s.capacity() + q_ref.capacity() +
          at_request_s.capacity() + frontier_cost.capacity() +
          next_cost.capacity() + live_cost.capacity() + live_qo.capacity()) *
             sizeof(double) +
         (eps_ok.capacity() + frontier_stall.capacity() + next_stall.capacity() +
          live_stall.capacity()) *
             sizeof(unsigned char) +
         (frontier_root.capacity() + next_root.capacity() + live_root.capacity()) *
             sizeof(std::int32_t);
}

const QualityOption& reference_option(const SegmentChoices& choices,
                                      util::BytesPerSec bandwidth,
                                      util::Seconds budget) {
  const double bandwidth_bytes_per_s = bandwidth.value();
  const double budget_seconds = budget.value();
  PS360_CHECK(!choices.options.empty());
  PS360_CHECK(bandwidth_bytes_per_s > 0.0);
  PS360_CHECK(budget_seconds > 0.0);
  // "Highest possible bitrate level and frame rate": f_m is by definition
  // the original (maximal) frame rate, so the reference is the best
  // perceived quality sustainable *at the original frame rate* — the quality
  // a non-energy-aware client would fetch. Ours and Ptile therefore share
  // the same anchor; the frame ladder only ever trades quality downward.
  std::size_t max_frame = 0;
  for (const auto& option : choices.options)
    max_frame = std::max(max_frame, option.frame_index);
  const QualityOption* best = nullptr;
  const QualityOption* cheapest = &choices.options.front();
  for (const auto& option : choices.options) {
    if (option.bytes < cheapest->bytes) cheapest = &option;
    if (option.frame_index != max_frame) continue;
    if (option.bytes / bandwidth_bytes_per_s > budget_seconds) continue;
    if (best == nullptr || option.qo > best->qo ||
        (option.qo == best->qo && option.bytes < best->bytes)) {
      best = &option;
    }
  }
  return best != nullptr ? *best : *cheapest;
}

MpcController::MpcController(MpcConfig config, const power::DeviceModel& device,
                             MpcObjective objective)
    : config_(config), device_(&device), objective_(objective) {
  PS360_CHECK(config_.segment_seconds > 0.0);
  PS360_CHECK(config_.buffer_threshold_s > 0.0);
  PS360_CHECK(config_.buffer_quantum_s > 0.0 &&
              config_.buffer_quantum_s <= config_.buffer_threshold_s);
  PS360_CHECK(config_.epsilon >= 0.0 && config_.epsilon < 1.0);
  PS360_CHECK(config_.stall_penalty_per_s >= 0.0);
  PS360_CHECK_MSG(std::isfinite(config_.weights.variation) &&
                      config_.weights.variation >= 0.0,
                  util::strfmt("variation weight %g must be finite and >= 0",
                               config_.weights.variation));
  PS360_CHECK_MSG(std::isfinite(config_.weights.rebuffer) &&
                      config_.weights.rebuffer >= 0.0,
                  util::strfmt("rebuffer weight %g must be finite and >= 0",
                               config_.weights.rebuffer));

  // Fingerprint of everything decide() reads besides the live decision
  // state: the objective, every MpcConfig field, and the device power model
  // (option_energy depends on it). Folded into every plan-cache key, so two
  // controllers share cached plans only when their solves are identical —
  // never via pointer identity, which ASLR would make nondeterministic.
  PlanKeyHasher fp;
  fp.mix(static_cast<std::uint64_t>(objective_));
  fp.mix_double(config_.segment_seconds);
  fp.mix_double(config_.buffer_threshold_s);
  fp.mix_double(config_.buffer_quantum_s);
  fp.mix_double(config_.epsilon);
  fp.mix_double(config_.weights.variation);
  fp.mix_double(config_.weights.rebuffer);
  fp.mix_double(config_.stall_penalty_per_s);
  fp.mix_double(device.transmit_mw);
  for (const power::LinearPower& p : device.decode) {
    fp.mix_double(p.base_mw);
    fp.mix_double(p.slope_mw_per_fps);
  }
  fp.mix_double(device.render.base_mw);
  fp.mix_double(device.render.slope_mw_per_fps);
  const PlanKey fp_key = fp.key();
  config_fp_hi_ = fp_key.hi;
  config_fp_lo_ = fp_key.lo;
}

void MpcController::set_plan_cache(PlanCache* cache) { plan_cache_ = cache; }

void MpcController::set_observer(obs::Observer* observer, std::uint32_t session) {
  observer_ = observer;
  obs_session_ = session;
  if (observer_ != nullptr && observer_->metrics != nullptr) {
    id_decides_ = observer_->metrics->counter("mpc.decides");
    id_relaxed_ = observer_->metrics->counter("mpc.relaxed_fallbacks");
    id_infeasible_ = observer_->metrics->counter("mpc.infeasible");
  }
}

power::SegmentEnergy MpcController::option_energy(const QualityOption& option,
                                                  util::BytesPerSec bandwidth) const {
  const double bandwidth_bytes_per_s = bandwidth.value();
  PS360_CHECK(bandwidth_bytes_per_s > 0.0);
  return power::segment_energy(
      *device_, option.profile,
      util::Seconds(option.bytes / bandwidth_bytes_per_s), option.fps,
      util::Seconds(config_.segment_seconds));
}

void MpcController::reference_qualities(const std::vector<SegmentChoices>& horizon,
                                        util::BytesPerSec bandwidth,
                                        std::vector<double>& q_ref) const {
  for (std::size_t i = 0; i < horizon.size(); ++i) {
    q_ref[i] = reference_option(horizon[i], bandwidth,
                                util::Seconds(config_.segment_seconds))
                   .qo;
  }
}

namespace {

// Exact plan-cache key of one decide() call: the controller fingerprint
// (objective + config + device) folded with the live decision state. The
// buffer enters as its DP bucket — lossless, since decide() reads the start
// buffer only through bucket_of — while bandwidth and prev_qo enter as raw
// double bits, never bucketed. The horizon content (every option's v, f,
// fps, bytes, Qo, decode profile, per segment) subsumes the segment index:
// per-segment encoding noise makes different segments hash differently.
// prev_qo is folded only in kMaxQoE mode; the energy objective provably
// never reads it, so excluding it is what lets energy-mode plans hit across
// segments whose previous qualities differ.
PlanKey make_plan_key(std::uint64_t fp_hi, std::uint64_t fp_lo,
                      const std::vector<SegmentChoices>& horizon, int bucket,
                      double bandwidth_bytes_per_s, bool include_prev_qo,
                      double prev_qo) {
  PlanKeyHasher hasher;
  hasher.mix(fp_hi);
  hasher.mix(fp_lo);
  hasher.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(bucket)));
  hasher.mix_double(bandwidth_bytes_per_s);
  if (include_prev_qo) hasher.mix_double(prev_qo);
  hasher.mix(horizon.size());
  for (const SegmentChoices& seg : horizon) {
    hasher.mix(seg.options.size());
    for (const QualityOption& option : seg.options) {
      // The three small integer fields share one word (v and the ladder
      // index each fit 24 bits by construction; the profile enum fits 16),
      // keeping the hot hashing loop at four mixes per option.
      hasher.mix(static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(option.quality)) |
                 (static_cast<std::uint64_t>(option.frame_index) << 24) |
                 (static_cast<std::uint64_t>(option.profile) << 48));
      hasher.mix_double(option.fps);
      hasher.mix_double(option.bytes);
      hasher.mix_double(option.qo);
    }
  }
  return hasher.key();
}

}  // namespace

void MpcController::publish_decision(const MpcDecision& decision,
                                     bool relaxed_fallback,
                                     std::size_t horizon_len) const {
  if (observer_ == nullptr) return;
  if (observer_->metrics != nullptr) {
    observer_->metrics->add(id_decides_);
    if (relaxed_fallback) observer_->metrics->add(id_relaxed_);
    if (!decision.feasible) observer_->metrics->add(id_infeasible_);
  }
  obs::trace(observer_, obs_session_,
             relaxed_fallback ? obs::TraceEventKind::kMpcRelaxed
                              : obs::TraceEventKind::kMpcStrict,
             static_cast<std::int64_t>(horizon_len), decision.objective);
}

// The DP of Eq. 8 over dense tables. State = (quantized buffer bucket,
// option chosen for the previous segment); the previous option matters only
// through its Qo (the kMaxQoE variation term), so in energy mode — where the
// step cost is state-independent — that dimension collapses to a single slot
// and the frontier is just the buffer grid.
//
// Everything that does not depend on the DP state is precomputed once per
// decide() call into the scratch arena:
//   * step_cost[i][oi]   — option energy (Eq. 1) or raw Qo,
//   * eps_ok[i][oi]      — constraint (8c) vs the shared reference ladder,
//   * at_request_s[b]    — the bucket's buffer once the Eq. 6 wait Δt passed.
//
// Both objectives run sparse sweeps that compute each quantized Eq. 6
// transition inline (stall_of / next_bucket_of below).
//
// Energy mode visits only live frontier buckets (cost < +inf) and, in the
// strict pass, only ε-feasible options whose download does not stall. Every
// candidate it skips would cost +inf, and a +inf candidate never updates the
// frontier (+inf is never strictly less than a target, and on an inf == inf
// tie its nonnegative root never beats the target's -1), so the sweep is
// exact.
//
// kMaxQoE loops bucket → option → live prev state. The stall and the next
// bucket depend only on (bucket, option), so every prev state of a bucket
// lands on the same target (next bucket, option); the sweep reduces them in
// registers and merges the winner into the target with the same relax().
// Each target still sees its candidates in (bucket asc, prev asc) order, and
// the (cost, root) fold is associative with first-visited-wins, so the
// result is the dense DP's. Before expanding a bucket it drops a prev state
// j (Qo_j >= 0) when another state k of the bucket has
//   cost_k + w·|Qo_k − Qo_j| < cost_j − δ.
// By the triangle inequality k's candidate then beats j's by more than δ
// for every option (a k with Qo_k < 0 pays no variation term at all, which
// only lowers its candidates); δ exceeds the rounding error of both
// candidates (see DESIGN.md §5), so j's computed total is strictly larger
// and j can never win or tie. A j with Qo_j < 0 pays no variation term
// either, so the bound does not hold for it and it is always kept.
//
// Both modes update the next frontier with branchless selects. Ties on the
// optimal objective are broken toward the smallest horizon[0] option index —
// (cost, root choice) propagates lexicographically through the DP —
// matching decide_exhaustive(), whose depth-first enumeration visits root
// options in ascending order and only replaces on strictly better cost.
// Such ties are structural, not exotic: with variation weight 1, every
// no-stall option above the previous quality scores identically.
MpcDecision MpcController::decide(const std::vector<SegmentChoices>& horizon,
                                  util::BytesPerSec bandwidth,
                                  util::Seconds buffer, double prev_qo) const {
  const double bandwidth_bytes_per_s = bandwidth.value();
  const double buffer_s = buffer.value();
  PS360_CHECK(!horizon.empty());
  PS360_CHECK(bandwidth_bytes_per_s > 0.0);
  PS360_CHECK(buffer_s >= 0.0);
  check_qo_inputs(horizon, prev_qo);

  const bool energy_mode = objective_ == MpcObjective::kMinEnergyQoEConstrained;
  const std::size_t h = horizon.size();

  const BufferModel buffers = buffer_model_of(config_);

  // Cross-session memoization: on a hit, rebuild the decision from the live
  // horizon and replay the observer emissions — bit-identical to a solve.
  PlanKey plan_key{};
  if (plan_cache_ != nullptr) {
    plan_key = make_plan_key(config_fp_hi_, config_fp_lo_, horizon,
                             buffers.bucket_of(buffer), bandwidth_bytes_per_s,
                             /*include_prev_qo=*/!energy_mode, prev_qo);
    if (const PlanCache::Entry* hit = plan_cache_->find(plan_key)) {
      PS360_ASSERT(hit->root >= 0 &&
                   static_cast<std::size_t>(hit->root) <
                       horizon[0].options.size());
      MpcDecision decision;
      decision.choice = horizon[0].options[static_cast<std::size_t>(hit->root)];
      decision.objective = hit->objective;
      decision.feasible = hit->feasible;
      publish_decision(decision, hit->relaxed_fallback, h);
      return decision;
    }
  }

  std::size_t max_options = 0;
  for (const auto& seg : horizon)
    max_options = std::max(max_options, seg.options.size());

  const std::size_t buckets = buffers.bucket_count();
  // Frontier stride over the prev-option dimension: slot 0 is the virtual
  // "no previous option" state (prev_qo), slots 1.. are option indices of
  // the previous segment. Energy mode collapses the dimension entirely.
  const std::size_t prev_stride = energy_mode ? 1 : max_options + 1;

  MpcScratch& scratch = scratch_;
  grow(scratch.step_cost, h * max_options, scratch.grow_events);
  grow(scratch.download_s, h * max_options, scratch.grow_events);
  grow(scratch.eps_ok, h * max_options, scratch.grow_events);
  grow(scratch.q_ref, h, scratch.grow_events);
  grow(scratch.at_request_s, buckets, scratch.grow_events);
  if (!energy_mode) {
    grow(scratch.live_cost, prev_stride, scratch.grow_events);
    grow(scratch.live_qo, prev_stride, scratch.grow_events);
    grow(scratch.live_root, prev_stride, scratch.grow_events);
    grow(scratch.live_stall, prev_stride, scratch.grow_events);
  }

  // ε-constraint reference quality per segment (energy mode).
  if (energy_mode) reference_qualities(horizon, bandwidth, scratch.q_ref);

  // Per-(segment, option) invariants: download time, energy cost / raw Qo,
  // and constraint-(8c) feasibility — none of which depend on the DP state,
  // so the old per-(frontier-state × option) recomputation collapses to one
  // pass here.
  for (std::size_t i = 0; i < h; ++i) {
    const auto& options = horizon[i].options;
    for (std::size_t oi = 0; oi < options.size(); ++oi) {
      const auto& option = options[oi];
      const std::size_t flat = i * max_options + oi;
      scratch.download_s[flat] =
          checked_download_s(option.bytes, bandwidth_bytes_per_s);
      if (energy_mode) {
        scratch.step_cost[flat] =
            option_energy(option, bandwidth).total_mj();
        scratch.eps_ok[flat] =
            option.qo >= (1.0 - config_.epsilon) * scratch.q_ref[i] ? 1 : 0;
      } else {
        scratch.step_cost[flat] = option.qo;
        scratch.eps_ok[flat] = 1;
      }
    }
  }

  // Buffer available at request time per bucket: level - Δt, with the exact
  // arithmetic of BufferModel::advance so the DP transitions below stay
  // bit-identical to the reference implementations.
  const double cap = buffers.cap_s();
  const double quantum = buffers.quantum_s();
  for (std::size_t b = 0; b < buckets; ++b) {
    const double level = buffers.level_of(static_cast<int>(b));
    scratch.at_request_s[b] = level - std::max(level - config_.buffer_threshold_s, 0.0);
  }

  // Quantized Eq. 6 transition from a bucket with `at_request` seconds
  // buffered under download time d: the stall, and the next bucket. raw_next
  // lies in [L, cap], so the quantize() clamp reduces to the min(), and
  // dividing by the quantum directly reproduces bucket_of(quantize(raw_next))
  // without materialising the level. x = raw_next / quantum is in
  // [0, buckets), where lround is round-half-up: x − trunc(x) is exact, so
  // the comparison below is lround's result, including at .5. Both sweeps
  // go through these two, so their transitions cannot drift apart.
  auto stall_of = [](double at_request, double d) {
    return std::max(d - at_request, 0.0);
  };
  auto next_bucket_of = [&](double at_request, double d) {
    const double raw_next =
        std::max(at_request - d, 0.0) + config_.segment_seconds;
    const double x = std::min(raw_next, cap) / quantum;
    const auto whole = static_cast<std::size_t>(x);
    return whole + (x - static_cast<double>(whole) >= 0.5 ? 1 : 0);
  };

  const std::size_t table_size = buckets * prev_stride;
  const std::size_t start =
      static_cast<std::size_t>(buffers.bucket_of(buffer)) * prev_stride;
  const double w = config_.weights.variation;
  const double stall_penalty = config_.stall_penalty_per_s;

  // strict = enforce no-stall + ε-constraint (energy mode); relaxed = allow
  // everything, penalise stalls — used as fallback and as the kMaxQoE mode.
  // Returns false if no complete path exists under the given strictness;
  // on success also reports the chosen root index for the plan cache.
  auto run = [&](bool strict, MpcDecision& decision,
                 std::int32_t& root_out) -> bool {
    grow(scratch.frontier_cost, table_size, scratch.grow_events);
    grow(scratch.next_cost, table_size, scratch.grow_events);
    grow(scratch.frontier_root, table_size, scratch.grow_events);
    grow(scratch.next_root, table_size, scratch.grow_events);
    grow(scratch.frontier_stall, table_size, scratch.grow_events);
    grow(scratch.next_stall, table_size, scratch.grow_events);
    std::fill(scratch.frontier_cost.begin(), scratch.frontier_cost.end(), kInf);
    std::fill(scratch.frontier_root.begin(), scratch.frontier_root.end(),
              std::int32_t{-1});
    std::fill(scratch.frontier_stall.begin(), scratch.frontier_stall.end(),
              static_cast<unsigned char>(0));
    scratch.frontier_cost[start] = 0.0;
    bool any_alive = true;

    // Merge one candidate into next-frontier state s: the lexicographic
    // (cost, root) tie-break is two selects, never a taken branch.
    auto relax = [&](std::size_t s, double total, std::int32_t root,
                     unsigned char had) {
      const bool better =
          total < scratch.next_cost[s] ||
          (total == scratch.next_cost[s] && root < scratch.next_root[s]);
      scratch.next_cost[s] = better ? total : scratch.next_cost[s];
      scratch.next_root[s] = better ? root : scratch.next_root[s];
      scratch.next_stall[s] = better ? had : scratch.next_stall[s];
      return better;
    };

    for (std::size_t i = 0; i < h && any_alive; ++i) {
      std::fill(scratch.next_cost.begin(), scratch.next_cost.end(), kInf);
      std::fill(scratch.next_root.begin(), scratch.next_root.end(),
                std::int32_t{-1});
      std::fill(scratch.next_stall.begin(), scratch.next_stall.end(),
                static_cast<unsigned char>(0));
      any_alive = false;
      const std::size_t n_options = horizon[i].options.size();
      const double* step_cost = scratch.step_cost.data() + i * max_options;
      const double* download_s = scratch.download_s.data() + i * max_options;
      const unsigned char* eps_ok = scratch.eps_ok.data() + i * max_options;

      if (energy_mode) {
        for (std::size_t b = 0; b < buckets; ++b) {
          const double base = scratch.frontier_cost[b];
          if (base == kInf) continue;  // dead bucket: every candidate is +inf
          const double at_request = scratch.at_request_s[b];
          const std::int32_t node_root = scratch.frontier_root[b];
          const unsigned char node_stall = scratch.frontier_stall[b];
          for (std::size_t oi = 0; oi < n_options; ++oi) {
            if (strict && eps_ok[oi] == 0) continue;
            const double stall = stall_of(at_request, download_s[oi]);
            if (strict && stall != 0.0) continue;
            // Parenthesised as (step + penalty·stall) first: the exact FP
            // association of the reference implementation.
            const double total =
                strict ? base + step_cost[oi]
                       : base + (step_cost[oi] + kStallPenaltyMjPerS * stall);
            const std::int32_t root =
                i == 0 ? static_cast<std::int32_t>(oi) : node_root;
            const unsigned char had = (node_stall != 0 || stall > 0.0) ? 1 : 0;
            if (relax(next_bucket_of(at_request, download_s[oi]), total, root,
                      had))
              any_alive = true;
          }
        }
      } else {
        // kMaxQoE. The step's part of the pruning margin: every candidate of
        // this step rounds on magnitudes below |Qo_o| <= q_max and a stall
        // penalty <= stall_penalty · d_max (a stall never exceeds its
        // download time).
        double q_max = 0.0;
        double d_max = 0.0;
        for (std::size_t oi = 0; oi < n_options; ++oi) {
          q_max = std::max(q_max, std::fabs(step_cost[oi]));
          d_max = std::max(d_max, download_s[oi]);
        }
        const double step_scale = 1.0 + (1.0 + w) * q_max + stall_penalty * d_max;
        // Slot 0 is the virtual pre-horizon state, live at step 0 only.
        const std::size_t slots = i == 0 ? 1 : horizon[i - 1].options.size() + 1;
        double* live_cost = scratch.live_cost.data();
        double* live_qo = scratch.live_qo.data();
        std::int32_t* live_root = scratch.live_root.data();
        unsigned char* live_stall = scratch.live_stall.data();

        for (std::size_t b = 0; b < buckets; ++b) {
          // Compact this bucket row's live states, in slot order. Dead slots
          // must be skipped: their slot index can exceed the previous
          // segment's ladder, so the Qo read is only defined for live ones.
          const std::size_t row = b * prev_stride;
          std::size_t n_live = 0;
          double state_scale = 0.0;
          for (std::size_t slot = 0; slot < slots; ++slot) {
            const double cost = scratch.frontier_cost[row + slot];
            if (cost == kInf) continue;
            // A negative qo_prev (prev_qo on slot 0) means "no previous
            // segment": no variation penalty on the first decision.
            const double qo_prev =
                slot == 0 ? prev_qo : horizon[i - 1].options[slot - 1].qo;
            live_cost[n_live] = cost;
            live_qo[n_live] = qo_prev;
            live_root[n_live] = scratch.frontier_root[row + slot];
            live_stall[n_live] = scratch.frontier_stall[row + slot];
            state_scale = std::max(state_scale, std::fabs(cost) + w * std::fabs(qo_prev));
            ++n_live;
          }
          if (n_live == 0) continue;
          any_alive = true;  // alive state ⇒ finite candidates land below

          // Dominance pruning, compacting survivors to the front in slot
          // order. A state is tested against the survivors so far and the
          // states not yet examined, all of which are live.
          const double margin = 1e-9 * (step_scale + state_scale);
          std::size_t n_keep = 0;
          for (std::size_t j = 0; j < n_live; ++j) {
            const double qo_j = live_qo[j];
            bool dominated = false;
            if (qo_j >= 0.0) {
              const double bar = live_cost[j] - margin;
              const auto beats = [&](std::size_t k) {
                return live_cost[k] + w * std::fabs(live_qo[k] - qo_j) < bar;
              };
              for (std::size_t k = 0; k < n_keep && !dominated; ++k)
                dominated = beats(k);
              for (std::size_t k = j + 1; k < n_live && !dominated; ++k)
                dominated = beats(k);
            }
            if (dominated) continue;
            live_cost[n_keep] = live_cost[j];
            live_qo[n_keep] = qo_j;
            live_root[n_keep] = live_root[j];
            live_stall[n_keep] = live_stall[j];
            ++n_keep;
          }

          const double at_request = scratch.at_request_s[b];
          for (std::size_t oi = 0; oi < n_options; ++oi) {
            const double stall = stall_of(at_request, download_s[oi]);
            const double stall_cost = stall_penalty * stall;
            const double qo = step_cost[oi];
            double best = kInf;
            std::int32_t best_root = -1;
            unsigned char best_had = 0;
            for (std::size_t s = 0; s < n_keep; ++s) {
              const double variation =
                  live_qo[s] >= 0.0 ? std::fabs(qo - live_qo[s]) : 0.0;
              const double q = qo - w * variation - stall_cost;
              const double total = live_cost[s] - q;
              const std::int32_t root =
                  i == 0 ? static_cast<std::int32_t>(oi) : live_root[s];
              const unsigned char had = (live_stall[s] != 0 || stall > 0.0) ? 1 : 0;
              const bool better = total < best || (total == best && root < best_root);
              best = better ? total : best;
              best_root = better ? root : best_root;
              best_had = better ? had : best_had;
            }
            relax(next_bucket_of(at_request, download_s[oi]) * prev_stride + oi + 1,
                  best, best_root, best_had);
          }
        }
      }
      scratch.frontier_cost.swap(scratch.next_cost);
      scratch.frontier_root.swap(scratch.next_root);
      scratch.frontier_stall.swap(scratch.next_stall);
    }

    if (!any_alive) return false;  // no path at all
    double best_cost = kInf;
    std::int32_t best_root = -1;
    bool best_stall = false;
    bool found = false;
    for (std::size_t s = 0; s < table_size; ++s) {
      const double cost = scratch.frontier_cost[s];
      if (cost == kInf) continue;
      const std::int32_t root = scratch.frontier_root[s];
      if (!found || cost < best_cost ||
          (cost == best_cost && root < best_root)) {
        best_cost = cost;
        best_root = root;
        best_stall = scratch.frontier_stall[s] != 0;
        found = true;
      }
    }
    PS360_ASSERT(found && best_root >= 0);
    decision.choice = horizon[0].options[static_cast<std::size_t>(best_root)];
    decision.objective = best_cost;
    decision.feasible = !best_stall;
    root_out = best_root;
    return true;
  };

  MpcDecision decision;
  std::int32_t root_choice = -1;
  bool relaxed_fallback = false;
  if (!run(/*strict=*/energy_mode, decision, root_choice)) {
    // No plan satisfies the constraints (e.g. bandwidth collapse): fall back
    // to the relaxed problem — reusing the same precomputed invariants — and
    // report infeasibility.
    const bool found = run(/*strict=*/false, decision, root_choice);
    PS360_ASSERT_MSG(found, "relaxed MPC must always find a plan");
    decision.feasible = false;
    relaxed_fallback = true;
  }
  if (plan_cache_ != nullptr) {
    PlanCache::Entry entry;
    entry.root = root_choice;
    entry.objective = decision.objective;
    entry.feasible = decision.feasible;
    entry.relaxed_fallback = relaxed_fallback;
    plan_cache_->insert(plan_key, entry);
  }
  publish_decision(decision, relaxed_fallback, h);
  return decision;
}

MpcDecision MpcController::decide_exhaustive(const std::vector<SegmentChoices>& horizon,
                                             util::BytesPerSec bandwidth,
                                             util::Seconds buffer_level,
                                             double prev_qo) const {
  const double bandwidth_bytes_per_s = bandwidth.value();
  PS360_CHECK(!horizon.empty());
  PS360_CHECK(bandwidth_bytes_per_s > 0.0);
  check_qo_inputs(horizon, prev_qo);
  const bool energy_mode = objective_ == MpcObjective::kMinEnergyQoEConstrained;

  for (const SegmentChoices& seg : horizon)
    for (const QualityOption& option : seg.options)
      (void)checked_download_s(option.bytes, bandwidth_bytes_per_s);

  std::vector<double> q_ref(horizon.size(), 0.0);
  if (energy_mode) reference_qualities(horizon, bandwidth, q_ref);

  struct Best {
    double cost = kInf;
    int root = -1;
    bool stalled = false;
  };
  const BufferModel buffers = buffer_model_of(config_);

  auto search = [&](bool strict) {
    Best best;
    // Depth-first enumeration of complete option sequences.
    std::vector<std::size_t> picks(horizon.size(), 0);
    auto recurse = [&](auto&& self, std::size_t depth, double buffer, double qo_prev,
                       double cost, bool stalled) -> void {
      if (depth == horizon.size()) {
        // Roots are enumerated in ascending order, so the strict < keeps the
        // smallest root option among cost ties — the same canonical
        // tie-break the DP applies lexicographically.
        if (cost < best.cost) {
          best.cost = cost;
          best.root = static_cast<int>(picks[0]);
          best.stalled = stalled;
        }
        return;
      }
      for (std::size_t oi = 0; oi < horizon[depth].options.size(); ++oi) {
        const auto& option = horizon[depth].options[oi];
        const BufferStep step = buffers.advance_quantized(
            util::Seconds(buffer), util::Seconds(option.bytes / bandwidth_bytes_per_s));
        if (strict && energy_mode) {
          if (step.stall_s > 0.0) continue;
          if (option.qo < (1.0 - config_.epsilon) * q_ref[depth]) continue;
        }
        double step_cost;
        if (energy_mode) {
          step_cost = option_energy(option, bandwidth).total_mj();
          if (!strict) step_cost += kStallPenaltyMjPerS * step.stall_s;
        } else {
          const double variation =
              qo_prev >= 0.0 ? std::fabs(option.qo - qo_prev) : 0.0;
          const double q = option.qo - config_.weights.variation * variation -
                           config_.stall_penalty_per_s * step.stall_s;
          step_cost = -q;
        }
        picks[depth] = oi;
        self(self, depth + 1, step.next_buffer_s, option.qo, cost + step_cost,
             stalled || step.stall_s > 0.0);
      }
    };
    // Match decide(): the initial buffer is quantized before the first step.
    recurse(recurse, 0, buffers.quantize(buffer_level), prev_qo, 0.0, false);
    return best;
  };

  Best best = search(/*strict=*/energy_mode);
  bool feasible = best.root >= 0 && !best.stalled;
  if (energy_mode && best.root < 0) {
    best = search(/*strict=*/false);
    feasible = false;
  }
  MpcDecision decision;
  if (best.root >= 0) {
    decision.choice = horizon[0].options[static_cast<std::size_t>(best.root)];
    decision.objective = best.cost;
    decision.feasible = feasible;
  }
  return decision;
}

}  // namespace ps360::core
