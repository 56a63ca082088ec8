// Plan-cache tests (core/plan_cache.h, DESIGN.md §13):
//  * PlanKey hashing: deterministic, order- and value-sensitive, exact-bit
//    on doubles (+0.0 and -0.0 are different keys).
//  * PlanCache mechanics: capacity 0 disables storage, bounded capacity
//    evicts strictly in insertion (FIFO) order, resident re-insertion
//    overwrites in place, stats count hits/misses/evictions/insertions.
//  * The inertness contract: decide() with a cache attached is bit-identical
//    to decide() without one — per solve (randomized horizons, both
//    objectives, hits included), per observer emission (metrics + trace
//    replay on the hit path), per session, and per fleet run for capacity
//    0 / tiny (forced eviction) / unbounded and any worker thread count.
//  * MpcScratch::grow_events accounting: a first decide() counts each vector
//    that grows (pinned exactly per objective), steady state stays at zero,
//    and a deeper horizon grows exactly the h-scaled vectors.
//  * The transition-table memo: identical solves refill nothing, bandwidth
//    changes refill everything, the relaxed fallback pass hits.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/mpc.h"
#include "core/plan_cache.h"
#include "fleet/engine.h"
#include "fleet/runner.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/tracer.h"
#include "sim/session.h"
#include "sim/workload.h"
#include "trace/video_catalog.h"
#include "util/rng.h"

namespace ps360 {
namespace {

using core::MpcConfig;
using core::MpcController;
using core::MpcDecision;
using core::MpcObjective;
using core::PlanCache;
using core::PlanKey;
using core::PlanKeyHasher;
using core::QualityOption;
using core::SegmentChoices;
using power::DecodeProfile;
using power::Device;

// ---------------------------------------------------------------- PlanKey

TEST(PlanKeyHasherTest, SameSequenceSameKey) {
  PlanKeyHasher a, b;
  for (std::uint64_t w : {1ull, 42ull, 0ull, ~0ull}) {
    a.mix(w);
    b.mix(w);
  }
  a.mix_double(3.9e5);
  b.mix_double(3.9e5);
  EXPECT_TRUE(a.key() == b.key());
}

TEST(PlanKeyHasherTest, OrderAndValueSensitive) {
  PlanKeyHasher ab, ba, aa;
  ab.mix(1);
  ab.mix(2);
  ba.mix(2);
  ba.mix(1);
  aa.mix(1);
  aa.mix(1);
  EXPECT_FALSE(ab.key() == ba.key());
  EXPECT_FALSE(ab.key() == aa.key());
  EXPECT_FALSE(ba.key() == aa.key());
}

TEST(PlanKeyHasherTest, DoublesFoldByExactBits) {
  // +0.0 == -0.0 numerically but their bit patterns differ: the key path
  // must never quantise or normalise real inputs.
  PlanKeyHasher pos, neg;
  pos.mix_double(0.0);
  neg.mix_double(-0.0);
  EXPECT_FALSE(pos.key() == neg.key());
}

// --------------------------------------------------------------- PlanCache

PlanKey key_of(std::uint64_t word) {
  PlanKeyHasher hasher;
  hasher.mix(word);
  return hasher.key();
}

PlanCache::Entry entry_of(std::int32_t root) {
  PlanCache::Entry e;
  e.root = root;
  e.objective = static_cast<double>(root) * 1.5;
  e.feasible = true;
  return e;
}

TEST(PlanCacheTest, CapacityZeroDisablesStorage) {
  PlanCache cache(0);
  cache.insert(key_of(1), entry_of(0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(PlanCacheTest, EvictsInInsertionOrder) {
  PlanCache cache(2);
  cache.insert(key_of(1), entry_of(1));
  cache.insert(key_of(2), entry_of(2));
  EXPECT_EQ(cache.size(), 2u);
  // Third insertion evicts key 1 (the oldest), not key 2.
  cache.insert(key_of(3), entry_of(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  ASSERT_NE(cache.find(key_of(2)), nullptr);
  ASSERT_NE(cache.find(key_of(3)), nullptr);
  // Fourth evicts key 2: strict FIFO, the ring head always points oldest.
  cache.insert(key_of(4), entry_of(4));
  EXPECT_EQ(cache.find(key_of(2)), nullptr);
  ASSERT_NE(cache.find(key_of(3)), nullptr);
  ASSERT_NE(cache.find(key_of(4)), nullptr);
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.insertions, 4u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_GT(s.bytes.value(), 0.0);
}

TEST(PlanCacheTest, ResidentReinsertOverwritesWithoutEviction) {
  PlanCache cache(2);
  cache.insert(key_of(1), entry_of(1));
  cache.insert(key_of(2), entry_of(2));
  cache.insert(key_of(1), entry_of(7));  // overwrite, age unchanged
  EXPECT_EQ(cache.stats().evictions, 0u);
  ASSERT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_EQ(cache.find(key_of(1))->root, 7);
  // Key 1 is still the oldest insertion, so it is the one evicted next.
  cache.insert(key_of(3), entry_of(3));
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  ASSERT_NE(cache.find(key_of(2)), nullptr);
}

TEST(PlanCacheTest, UnboundedNeverEvicts) {
  PlanCache cache;  // kUnbounded
  for (std::uint64_t w = 0; w < 500; ++w) cache.insert(key_of(w), entry_of(0));
  EXPECT_EQ(cache.size(), 500u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (std::uint64_t w = 0; w < 500; ++w)
    EXPECT_NE(cache.find(key_of(w)), nullptr);
}

// ------------------------------------------------ decide() differential

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

void expect_same_decision(const MpcDecision& a, const MpcDecision& b) {
  EXPECT_EQ(a.objective, b.objective);  // exact bits, not NEAR
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.choice.quality, b.choice.quality);
  EXPECT_EQ(a.choice.frame_index, b.choice.frame_index);
  EXPECT_EQ(a.choice.fps, b.choice.fps);
  EXPECT_EQ(a.choice.bytes, b.choice.bytes);
  EXPECT_EQ(a.choice.qo, b.choice.qo);
}

class CachedDecideDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(CachedDecideDifferential, HitsReplaySolvesBitIdentically) {
  const bool energy_mode = GetParam();
  const MpcObjective objective = energy_mode
                                     ? MpcObjective::kMinEnergyQoEConstrained
                                     : MpcObjective::kMaxQoE;
  const MpcConfig config;
  const power::DeviceModel& device = power::device_model(Device::kPixel3);
  MpcController cached(config, device, objective);
  const MpcController plain(config, device, objective);
  PlanCache cache;
  cached.set_plan_cache(&cache);

  util::Rng rng(util::derive_seed(0xCAC4Eu, energy_mode ? 1 : 0, 0));
  std::vector<std::vector<SegmentChoices>> horizons;
  for (int i = 0; i < 40; ++i)
    horizons.push_back(random_horizon(rng, 1 + rng.uniform_index(4), 6));

  // Two passes over the same inputs: pass 1 populates (all misses), pass 2
  // hits on every solve. Both must match the uncached controller and the
  // exhaustive reference exactly.
  for (int pass = 0; pass < 2; ++pass) {
    util::Rng inputs(util::derive_seed(0x1Bu, energy_mode ? 1 : 0, 7));
    for (const auto& horizon : horizons) {
      const double bandwidth = inputs.uniform(5e4, 2e6);
      const double buffer = inputs.bernoulli(0.5) ? inputs.uniform(0.0, 0.3)
                                                  : inputs.uniform(0.0, 4.0);
      const double prev_qo =
          inputs.bernoulli(0.25) ? -1.0 : inputs.uniform(0.0, 100.0);
      const MpcDecision with_cache = cached.decide(
          horizon, util::BytesPerSec(bandwidth), util::Seconds(buffer), prev_qo);
      const MpcDecision without = plain.decide(
          horizon, util::BytesPerSec(bandwidth), util::Seconds(buffer), prev_qo);
      expect_same_decision(with_cache, without);
      if (horizon.size() <= 3) {
        const MpcDecision brute = plain.decide_exhaustive(
            horizon, util::BytesPerSec(bandwidth), util::Seconds(buffer), prev_qo);
        EXPECT_EQ(with_cache.choice.bytes, brute.choice.bytes);
        EXPECT_EQ(with_cache.feasible, brute.feasible);
      }
    }
  }
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 40u);  // pass 1
  EXPECT_EQ(s.hits, 40u);    // pass 2
}

INSTANTIATE_TEST_SUITE_P(BothObjectives, CachedDecideDifferential,
                         ::testing::Bool());

TEST(CachedDecideDifferential, HitPathReplaysObserverEmissions) {
  // Same decide() sequence against an uncached controller and a cached one
  // (second pass all hits): metrics snapshots and trace streams must be
  // indistinguishable — the hit path replays, never skips, the emissions.
  const MpcConfig config;
  const power::DeviceModel& device = power::device_model(Device::kPixel3);
  util::Rng rng(0x0B5u);
  std::vector<std::vector<SegmentChoices>> horizons;
  for (int i = 0; i < 10; ++i)
    horizons.push_back(random_horizon(rng, 1 + rng.uniform_index(4), 5));

  const auto run = [&](bool with_cache, obs::Observer& observer) {
    MpcController controller(config, device,
                             MpcObjective::kMinEnergyQoEConstrained);
    controller.set_observer(&observer, 3);
    PlanCache cache;
    if (with_cache) controller.set_plan_cache(&cache);
    for (int pass = 0; pass < 2; ++pass) {
      util::Rng inputs(0x17u);
      for (const auto& horizon : horizons) {
        const double bandwidth = inputs.uniform(5e4, 2e6);
        const double buffer = inputs.uniform(0.0, 4.0);
        (void)controller.decide(horizon, util::BytesPerSec(bandwidth),
                                util::Seconds(buffer), 50.0);
      }
    }
  };

  obs::MetricsRegistry metrics_off, metrics_on;
  obs::EventTracer tracer_off, tracer_on;
  obs::Observer off{&metrics_off, &tracer_off};
  obs::Observer on{&metrics_on, &tracer_on};
  run(false, off);
  run(true, on);
  EXPECT_EQ(metrics_on.to_json(), metrics_off.to_json());
  const auto records_off = tracer_off.snapshot();
  const auto records_on = tracer_on.snapshot();
  ASSERT_EQ(records_on.size(), records_off.size());
  for (std::size_t i = 0; i < records_on.size(); ++i) {
    EXPECT_EQ(records_on[i].kind, records_off[i].kind);
    EXPECT_EQ(records_on[i].a, records_off[i].a);
    EXPECT_EQ(records_on[i].v0, records_off[i].v0);
  }
  EXPECT_GT(metrics_on.value("mpc.decides"), 0.0);
}

// -------------------------------------------- grow_events accounting

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

TEST(ScratchGrowAccounting, FirstDecideCountsEveryVectorThatGrows) {
  // Each vector that grows within one decide() is its own growth event. The
  // arena has 11 vectors on the energy path (5 per-option/per-bucket
  // invariants + 6 frontier) and 15 on the kMaxQoE path (the same 11 plus
  // the four compacted live-state arrays of one bucket row — cost, Qo, root,
  // stall — which replaced the per-step transition tables and their memo
  // keys when both sweeps began computing transitions inline). All grow
  // from empty on the first call, so the first-call count is pinned
  // exactly, not just "positive". A lumped per-call counter would report 1
  // here.
  const MpcConfig config;
  const power::DeviceModel& device = power::device_model(Device::kPixel3);
  const auto horizon = fixed_horizon(5, 8, 3);

  const MpcController energy(config, device,
                             MpcObjective::kMinEnergyQoEConstrained);
  (void)energy.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  EXPECT_EQ(energy.scratch_grow_events(), 11u);

  const MpcController qoe(config, device, MpcObjective::kMaxQoE);
  (void)qoe.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  EXPECT_EQ(qoe.scratch_grow_events(), 15u);
}

TEST(ScratchGrowAccounting, SteadyStateIsZeroAndDeeperHorizonGrowsPerSegmentVectors) {
  const MpcConfig config;
  const power::DeviceModel& device = power::device_model(Device::kPixel3);
  const MpcController controller(config, device,
                                 MpcObjective::kMinEnergyQoEConstrained);
  const auto h5 = fixed_horizon(5, 8, 3);
  (void)controller.decide(h5, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  const std::uint64_t after_warm = controller.scratch_grow_events();

  // Steady state: repeated same-shape solves never grow anything.
  for (int rep = 0; rep < 10; ++rep)
    (void)controller.decide(h5, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  EXPECT_EQ(controller.scratch_grow_events(), after_warm);

  // Doubling the horizon (same option count) grows exactly the four
  // h-scaled vectors of the energy path: step_cost, download_s, eps_ok and
  // q_ref. Buckets and max_options are unchanged, so at_request_s and the
  // frontier stay put.
  const auto h10 = fixed_horizon(10, 8, 3);
  (void)controller.decide(h10, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  EXPECT_EQ(controller.scratch_grow_events(), after_warm + 4u);
}

// -------------------------------------------- session/fleet differential

const sim::VideoWorkload& test_workload() {
  static const trace::VideoInfo video = [] {
    trace::VideoInfo v = trace::test_videos()[1];
    v.duration_s = 20.0;
    return v;
  }();
  static const sim::VideoWorkload workload(video, sim::WorkloadConfig{});
  return workload;
}

void expect_bit_identical(const sim::SessionResult& a,
                          const sim::SessionResult& b) {
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t k = 0; k < a.segments.size(); ++k) {
    EXPECT_EQ(a.segments[k].quality, b.segments[k].quality);
    EXPECT_EQ(a.segments[k].frame_index, b.segments[k].frame_index);
    EXPECT_EQ(a.segments[k].bytes, b.segments[k].bytes);
    EXPECT_EQ(a.segments[k].download_s, b.segments[k].download_s);
    EXPECT_EQ(a.segments[k].stall_s, b.segments[k].stall_s);
    EXPECT_EQ(a.segments[k].buffer_before_s, b.segments[k].buffer_before_s);
  }
  EXPECT_EQ(a.energy.total_mj(), b.energy.total_mj());
  EXPECT_EQ(a.qoe.mean_q, b.qoe.mean_q);
  EXPECT_EQ(a.total_stall_s, b.total_stall_s);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.rebuffer_events, b.rebuffer_events);
}

void expect_bit_identical(const fleet::FleetResult& a,
                          const fleet::FleetResult& b) {
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].start_s, b.sessions[i].start_s);
    EXPECT_EQ(a.sessions[i].finish_s, b.sessions[i].finish_s);
    expect_bit_identical(a.sessions[i].result, b.sessions[i].result);
  }
  EXPECT_EQ(a.stats.events, b.stats.events);
  EXPECT_EQ(a.stats.makespan_s, b.stats.makespan_s);
  EXPECT_EQ(a.stats.delivered_bytes, b.stats.delivered_bytes);
}

TEST(PlanCacheDifferentialTest, SessionResultsAreBitIdenticalCacheOnVsOff) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));

  for (const sim::SchemeKind scheme :
       {sim::SchemeKind::kOurs, sim::SchemeKind::kCtile}) {
    sim::SessionConfig off;
    const sim::SessionResult baseline =
        sim::simulate_session(workload, 0, scheme, traces.second, off);
    for (const std::size_t capacity : {std::size_t{0}, std::size_t{4},
                                       PlanCache::kUnbounded}) {
      sim::SessionConfig on;
      on.plan_cache = true;
      on.plan_cache_capacity = capacity;
      const sim::SessionResult cached =
          sim::simulate_session(workload, 0, scheme, traces.second, on);
      expect_bit_identical(cached, baseline);
    }
  }
}

TEST(PlanCacheDifferentialTest, FleetResultsAreBitIdenticalCacheOnVsOff) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/5, util::Seconds(300.0));

  for (const sim::SchemeKind scheme :
       {sim::SchemeKind::kOurs, sim::SchemeKind::kCtile,
        sim::SchemeKind::kPtile}) {
    fleet::FleetConfig config;
    config.sessions = 6;
    config.scheme = scheme;
    config.access_cap_mbps = 2.0;  // binding cap: the warm, high-hit regime
    const fleet::FleetResult baseline =
        fleet::run_fleet(workload, traces.second, config);
    EXPECT_EQ(baseline.stats.plan_cache_hits, 0u);
    EXPECT_EQ(baseline.stats.plan_cache_misses, 0u);

    // Capacity 0 (storage disabled), tiny (constant eviction pressure), and
    // unbounded must all reproduce the cache-off run bit-for-bit.
    for (const std::size_t capacity : {std::size_t{0}, std::size_t{8},
                                       PlanCache::kUnbounded}) {
      fleet::FleetConfig cached = config;
      cached.plan_cache = true;
      cached.plan_cache_capacity = capacity;
      const fleet::FleetResult result =
          fleet::run_fleet(workload, traces.second, cached);
      expect_bit_identical(result, baseline);
      if (capacity == 8) {
        EXPECT_GT(result.stats.plan_cache_evictions, 0u);
      }
      if (capacity == PlanCache::kUnbounded) {
        EXPECT_GT(result.stats.plan_cache_hits, 0u);
        EXPECT_EQ(result.stats.plan_cache_evictions, 0u);
      }
    }
  }
}

TEST(PlanCacheDifferentialTest, ReplicatedFleetsAreThreadCountInvariantWithCache) {
  const sim::VideoWorkload& workload = test_workload();

  fleet::FleetConfig config;
  config.sessions = 4;
  config.scheme = sim::SchemeKind::kOurs;
  config.access_cap_mbps = 2.0;
  fleet::FleetRunOptions options;
  options.replications = 3;

  options.threads = 1;
  const std::vector<fleet::FleetResult> baseline =
      fleet::run_fleet_replications(workload, config, options);

  fleet::FleetConfig cached = config;
  cached.plan_cache = true;
  // Each replication owns a private cache (one per run_fleet call), so the
  // merged results must match the cache-off baseline for 1, 4, and
  // hardware-concurrency worker threads alike.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{0}}) {
    options.threads = threads;
    const std::vector<fleet::FleetResult> results =
        fleet::run_fleet_replications(workload, cached, options);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t r = 0; r < results.size(); ++r)
      expect_bit_identical(results[r], baseline[r]);
  }
}

}  // namespace
}  // namespace ps360
