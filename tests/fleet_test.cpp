// Tests for the fleet subsystem: EventLoop ordering, SharedLink max-min
// fairness (differential-tested against a brute-force fluid simulation),
// fleet-of-one parity with simulate_session, thread-count invariance of the
// replication runner, the zero-allocation steady state of the event queue,
// and loud rejection of hostile fleet configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "fleet/engine.h"
#include "fleet/event_loop.h"
#include "fleet/runner.h"
#include "fleet/shared_link.h"
#include "sim/session.h"
#include "sim/workload.h"
#include "trace/video_catalog.h"
#include "util/rng.h"

namespace ps360::fleet {
namespace {

// ------------------------------------------------------------- EventLoop

TEST(EventLoopTest, PopsInTimeOrder) {
  EventLoop loop(8);
  loop.schedule(3.0, 0, EventKind::kSessionStart);
  loop.schedule(1.0, 2, EventKind::kSessionStart);
  loop.schedule(2.0, 1, EventKind::kSessionStart);
  EXPECT_DOUBLE_EQ(loop.pop().t, 1.0);
  EXPECT_DOUBLE_EQ(loop.pop().t, 2.0);
  EXPECT_DOUBLE_EQ(loop.pop().t, 3.0);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, TiesBreakBySessionThenSequence) {
  EventLoop loop(8);
  // Same timestamp, sessions out of order, the link event last of all.
  loop.schedule(1.0, kLinkSession, EventKind::kCapacityChange);
  loop.schedule(1.0, 5, EventKind::kFlowStart);
  loop.schedule(1.0, 2, EventKind::kFlowStart);
  loop.schedule(1.0, 2, EventKind::kFlowCompletion);  // later seq, same session
  EXPECT_EQ(loop.pop().kind, EventKind::kFlowStart);  // session 2, first seq
  const Event second = loop.pop();
  EXPECT_EQ(second.session, 2u);
  EXPECT_EQ(second.kind, EventKind::kFlowCompletion);
  EXPECT_EQ(loop.pop().session, 5u);
  EXPECT_EQ(loop.pop().session, kLinkSession);
}

TEST(EventLoopTest, RejectsSchedulingInThePast) {
  EventLoop loop(4);
  loop.schedule(2.0, 0, EventKind::kSessionStart);
  EXPECT_DOUBLE_EQ(loop.pop().t, 2.0);
  EXPECT_THROW(loop.schedule(1.0, 0, EventKind::kSessionStart),
               std::invalid_argument);
  EXPECT_THROW(loop.pop(), std::invalid_argument);  // empty
}

TEST(EventLoopTest, CountsGrowthBeyondReserve) {
  EventLoop loop(2);
  loop.schedule(1.0, 0, EventKind::kSessionStart);
  loop.schedule(2.0, 1, EventKind::kSessionStart);
  EXPECT_EQ(loop.grow_events(), 0u);
  for (int i = 0; i < 64; ++i)
    loop.schedule(3.0 + i, 0, EventKind::kSessionStart);
  EXPECT_GT(loop.grow_events(), 0u);
  EXPECT_EQ(loop.peak_size(), 66u);
}

// Contract violations must throw (PS360_CHECK → std::invalid_argument)
// *and* leave the loop usable, so a driver that catches the error can keep
// draining the queue.
TEST(EventLoopTest, ContractViolationsThrowAndDoNotCorruptTheQueue) {
  EventLoop loop(4);
  EXPECT_THROW(loop.pop(), std::invalid_argument);  // nothing scheduled yet
  // NaN times fail the t >= now precondition (NaN compares false) — a NaN
  // timestamp must never enter the heap, where it would poison the ordering.
  EXPECT_THROW(
      loop.schedule(std::numeric_limits<double>::quiet_NaN(), 0,
                    EventKind::kSessionStart),
      std::invalid_argument);
  EXPECT_TRUE(loop.empty());

  loop.schedule(1.0, 0, EventKind::kSessionStart);
  loop.schedule(2.0, 1, EventKind::kFlowStart);
  EXPECT_DOUBLE_EQ(loop.pop().t, 1.0);
  EXPECT_THROW(loop.schedule(0.5, 0, EventKind::kFlowStart),
               std::invalid_argument);  // in the past
  // The rejected schedule left no residue: the queue drains normally.
  EXPECT_DOUBLE_EQ(loop.pop().t, 2.0);
  EXPECT_TRUE(loop.empty());
  EXPECT_THROW(loop.pop(), std::invalid_argument);  // drained again
}

// ------------------------------------------------------------ SharedLink

trace::NetworkTrace flat_trace(double mbps, double duration_s = 100.0) {
  std::vector<trace::ThroughputSample> samples;
  for (double t = 0.0; t < duration_s; t += 1.0)
    samples.push_back({t, mbps});
  return trace::NetworkTrace(std::move(samples));
}

TEST(SharedLinkTest, EqualShareWithoutCaps) {
  const trace::NetworkTrace trace = flat_trace(8.0);  // 1e6 bytes/s
  SharedLink link(trace, 4);
  link.start(0, util::Bytes(1e6), util::BytesPerSec(0.0));
  link.start(1, util::Bytes(1e6), util::BytesPerSec(0.0));
  link.start(2, util::Bytes(1e6), util::BytesPerSec(0.0));
  link.start(3, util::Bytes(1e6), util::BytesPerSec(0.0));
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(s), 0.25e6);
}

TEST(SharedLinkTest, WaterFillingRespectsCapsAndRedistributes) {
  const trace::NetworkTrace trace = flat_trace(8.0);  // 1e6 bytes/s
  SharedLink link(trace, 3);
  link.start(0, util::Bytes(1e6), util::BytesPerSec(0.1e6));  // capped well below the fair share
  link.start(1, util::Bytes(1e6), util::BytesPerSec(0.0));
  link.start(2, util::Bytes(1e6), util::BytesPerSec(0.0));
  EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(0), 0.1e6);
  // The freed 1/3 - 0.1 splits equally between the uncapped flows.
  EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(1), 0.45e6);
  EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(2), 0.45e6);
  // Nothing invented, nothing wasted while an uncapped flow exists.
  EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(0) + link.rate_bytes_per_s(1) +
                       link.rate_bytes_per_s(2),
                   1e6);
}

TEST(SharedLinkTest, CompletionAndRatePredictions) {
  const trace::NetworkTrace trace = flat_trace(8.0);  // 1e6 bytes/s
  SharedLink link(trace, 2);
  link.start(0, util::Bytes(0.5e6), util::BytesPerSec(0.0));  // alone: finishes in 0.5 s
  const auto first = link.next_completion();
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->t, 0.5);
  link.advance_to(0.25);
  link.start(1, util::Bytes(1.0e6), util::BytesPerSec(0.0));  // now both at 0.5e6 B/s
  const auto second = link.next_completion();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->session, 0u);
  EXPECT_DOUBLE_EQ(second->t, 0.25 + 0.25e6 / 0.5e6);
  link.advance_to(second->t);
  link.finish(0);
  // Flow 1 gets the whole link back.
  EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(1), 1e6);
}

TEST(SharedLinkTest, ContractViolationsThrowAndDoNotCorruptFlows) {
  const trace::NetworkTrace trace = flat_trace(8.0);  // 1e6 bytes/s
  EXPECT_THROW(SharedLink(trace, 0), std::invalid_argument);

  SharedLink link(trace, 2);
  EXPECT_THROW(link.start(2, util::Bytes(1e6), util::BytesPerSec(0.0)), std::invalid_argument);   // out of range
  EXPECT_THROW(link.start(0, util::Bytes(0.0), util::BytesPerSec(0.0)), std::invalid_argument);   // no bytes
  EXPECT_THROW(link.start(0, util::Bytes(-1.0), util::BytesPerSec(0.0)), std::invalid_argument);  // negative
  EXPECT_THROW(link.finish(0), std::invalid_argument);            // nothing in flight

  link.start(0, util::Bytes(1e6), util::BytesPerSec(0.0));
  EXPECT_THROW(link.start(0, util::Bytes(1e6), util::BytesPerSec(0.0)), std::invalid_argument);  // double start
  link.advance_to(0.5);
  EXPECT_THROW(link.advance_to(0.25), std::invalid_argument);  // backwards

  // Every rejected call left the fluid state untouched: the lone flow still
  // owns the whole link and completes exactly on schedule.
  EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(0), 1e6);
  const auto completion = link.next_completion();
  ASSERT_TRUE(completion.has_value());
  EXPECT_DOUBLE_EQ(completion->t, 1.0);
}

// ------------------------- Differential test vs brute-force fluid sim

// Independent max-min implementation (iterative, no sorted order) used only
// by the brute-force reference.
std::vector<double> brute_maxmin(const std::vector<double>& caps, double capacity) {
  std::vector<double> rate(caps.size(), -1.0);
  double remaining = capacity;
  std::size_t unsat = caps.size();
  while (unsat > 0) {
    const double share = remaining / static_cast<double>(unsat);
    bool capped_any = false;
    for (std::size_t i = 0; i < caps.size(); ++i) {
      if (rate[i] < 0.0 && caps[i] > 0.0 && caps[i] <= share) {
        rate[i] = caps[i];
        remaining -= caps[i];
        --unsat;
        capped_any = true;
      }
    }
    if (!capped_any) {
      const double final_share = remaining / static_cast<double>(unsat);
      for (std::size_t i = 0; i < caps.size(); ++i)
        if (rate[i] < 0.0) rate[i] = final_share;
      break;
    }
  }
  return rate;
}

struct Arrival {
  double t = 0.0;
  std::size_t session = 0;
  double bytes = 0.0;
  double cap = 0.0;  // <= 0: uncapped
};

// Brute-force fluid simulation: march time in tiny steps, recompute max-min
// shares from scratch each step, interpolate the completion instant.
std::vector<double> brute_force_completions(const trace::NetworkTrace& trace,
                                            const std::vector<Arrival>& arrivals,
                                            std::size_t n_sessions, double dt) {
  std::vector<double> completion(n_sessions, -1.0);
  std::vector<double> remaining(n_sessions, 0.0);
  std::vector<bool> active(n_sessions, false);
  std::vector<double> caps(n_sessions, 0.0);
  std::size_t next_arrival = 0;
  std::size_t done = 0;
  double t = 0.0;
  while (done < arrivals.size()) {
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].t <= t + 1e-12) {
      const Arrival& a = arrivals[next_arrival++];
      remaining[a.session] = a.bytes;
      caps[a.session] = a.cap;
      active[a.session] = true;
    }
    std::vector<double> act_caps;
    std::vector<std::size_t> act_ids;
    for (std::size_t s = 0; s < n_sessions; ++s) {
      if (active[s]) {
        act_caps.push_back(caps[s]);
        act_ids.push_back(s);
      }
    }
    if (!act_ids.empty()) {
      const double capacity = trace.throughput_at(t) * 1e6 / 8.0;
      const std::vector<double> rates = brute_maxmin(act_caps, capacity);
      for (std::size_t i = 0; i < act_ids.size(); ++i) {
        const std::size_t s = act_ids[i];
        const double drained = rates[i] * dt;
        if (drained >= remaining[s]) {
          completion[s] = t + remaining[s] / rates[i];
          remaining[s] = 0.0;
          active[s] = false;
          ++done;
        } else {
          remaining[s] -= drained;
        }
      }
    }
    t += dt;
  }
  return completion;
}

// Event-driven completions using SharedLink directly (the engine's loop in
// miniature, without clients).
std::vector<double> link_completions(const trace::NetworkTrace& trace,
                                     const std::vector<Arrival>& arrivals,
                                     std::size_t n_sessions) {
  std::vector<double> completion(n_sessions, -1.0);
  SharedLink link(trace, n_sessions);
  std::size_t next_arrival = 0;
  std::size_t done = 0;
  while (done < arrivals.size()) {
    const double t_arrival = next_arrival < arrivals.size()
                                 ? arrivals[next_arrival].t
                                 : std::numeric_limits<double>::infinity();
    const auto comp = link.next_completion();
    const double t_completion =
        comp ? comp->t : std::numeric_limits<double>::infinity();
    const double t_capacity = link.next_capacity_change();
    const double t_next = std::min({t_arrival, t_completion, t_capacity});
    link.advance_to(t_next);
    if (comp && t_completion <= t_next) {
      completion[comp->session] = t_next;
      link.finish(comp->session);
      ++done;
    } else if (t_arrival <= t_next) {
      const Arrival& a = arrivals[next_arrival++];
      link.start(a.session, util::Bytes(a.bytes), util::BytesPerSec(a.cap));
    }
    // Capacity changes need no explicit handling: advance_to re-waterfilled.
  }
  return completion;
}

TEST(SharedLinkDifferentialTest, MatchesBruteForceFluidSimulation) {
  // A deliberately bumpy capacity trace and staggered heterogeneous flows.
  std::vector<trace::ThroughputSample> samples;
  const double rates_mbps[] = {6.0, 2.5, 9.0, 4.0, 3.0, 8.0, 2.4, 5.0};
  for (std::size_t i = 0; i < 40; ++i)
    samples.push_back({static_cast<double>(i) * 0.5, rates_mbps[i % 8]});
  const trace::NetworkTrace trace(std::move(samples));

  const std::vector<Arrival> arrivals = {
      {0.00, 0, 8.0e5, 0.0},
      {0.20, 1, 3.0e5, 2e5},   // tightly capped
      {0.45, 2, 6.0e5, 0.0},
      {1.10, 3, 2.0e5, 4e5},
      {1.30, 4, 9.0e5, 0.0},
      {2.75, 5, 1.5e5, 1e5},
  };
  const std::size_t n = 6;

  const std::vector<double> expected =
      brute_force_completions(trace, arrivals, n, 2e-4);
  const std::vector<double> actual = link_completions(trace, arrivals, n);

  for (std::size_t s = 0; s < n; ++s) {
    ASSERT_GE(actual[s], 0.0) << "session " << s << " never completed";
    EXPECT_NEAR(actual[s], expected[s], 5e-3) << "session " << s;
  }
}

TEST(SharedLinkDifferentialTest, RandomizedSmallCases) {
  util::Rng rng(1234);
  for (int iteration = 0; iteration < 10; ++iteration) {
    std::vector<trace::ThroughputSample> samples;
    for (std::size_t i = 0; i < 30; ++i)
      samples.push_back({static_cast<double>(i), rng.uniform(2.0, 9.0)});
    const trace::NetworkTrace trace(std::move(samples));

    const std::size_t n = 2 + rng.uniform_index(4);
    std::vector<Arrival> arrivals;
    double t = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      Arrival a;
      a.t = t;
      a.session = s;
      a.bytes = rng.uniform(1e5, 8e5);
      a.cap = rng.bernoulli(0.4) ? rng.uniform(1e5, 6e5) : 0.0;
      arrivals.push_back(a);
      t += rng.uniform(0.0, 0.8);
    }

    const std::vector<double> expected =
        brute_force_completions(trace, arrivals, n, 2e-4);
    const std::vector<double> actual = link_completions(trace, arrivals, n);
    for (std::size_t s = 0; s < n; ++s)
      EXPECT_NEAR(actual[s], expected[s], 5e-3)
          << "iteration " << iteration << " session " << s;
  }
}

// ------------------------------------------------------------ FleetEngine

struct FleetFixture {
  FleetFixture() {
    static const trace::VideoInfo video = [] {
      trace::VideoInfo v = trace::test_videos()[1];  // focused video
      v.duration_s = 20.0;
      return v;
    }();
    static const sim::VideoWorkload shared_workload(video, sim::WorkloadConfig{});
    workload = &shared_workload;
  }
  const sim::VideoWorkload* workload;
};

TEST(FleetEngineTest, FleetOfOneReproducesSimulateSession) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));
  const trace::NetworkTrace& network = traces.second;

  const sim::SessionConfig session_config;
  const sim::SessionResult solo = sim::simulate_session(
      *fixture.workload, /*test_user=*/0, sim::SchemeKind::kOurs, network,
      session_config);

  FleetConfig config;
  config.sessions = 1;
  config.start_spread_s = 0.0;  // align the lone session with t = 0
  config.scheme = sim::SchemeKind::kOurs;
  config.session = session_config;
  const FleetResult fleet = run_fleet(*fixture.workload, network, config);

  ASSERT_EQ(fleet.sessions.size(), 1u);
  const sim::SessionResult& result = fleet.sessions[0].result;
  ASSERT_EQ(result.segments.size(), solo.segments.size());
  for (std::size_t k = 0; k < solo.segments.size(); ++k) {
    EXPECT_NEAR(result.segments[k].download_s, solo.segments[k].download_s, 1e-9)
        << "segment " << k;
    EXPECT_EQ(result.segments[k].quality, solo.segments[k].quality);
    EXPECT_EQ(result.segments[k].frame_index, solo.segments[k].frame_index);
    EXPECT_NEAR(result.segments[k].stall_s, solo.segments[k].stall_s, 1e-9);
  }
  EXPECT_NEAR(result.energy.total_mj(), solo.energy.total_mj(),
              1e-6 * solo.energy.total_mj());
  EXPECT_NEAR(result.qoe.mean_q, solo.qoe.mean_q, 1e-9 * std::abs(solo.qoe.mean_q));
  EXPECT_NEAR(result.total_stall_s, solo.total_stall_s, 1e-9);
  EXPECT_DOUBLE_EQ(result.total_bytes, solo.total_bytes);
}

TEST(FleetEngineTest, DeterministicAcrossRuns) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/11, util::Seconds(300.0));

  FleetConfig config;
  config.sessions = 6;
  config.seed = 99;
  const FleetResult a = run_fleet(*fixture.workload, traces.second, config);
  const FleetResult b = run_fleet(*fixture.workload, traces.second, config);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].result.energy.total_mj(),
              b.sessions[i].result.energy.total_mj());
    EXPECT_EQ(a.sessions[i].result.qoe.mean_q, b.sessions[i].result.qoe.mean_q);
    EXPECT_EQ(a.sessions[i].finish_s, b.sessions[i].finish_s);
  }
  EXPECT_EQ(a.stats.events, b.stats.events);
}

TEST(FleetEngineTest, EventQueueDoesNotGrowAtSteadyState) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/3, util::Seconds(300.0));

  FleetConfig config;
  config.sessions = 8;
  const FleetResult fleet = run_fleet(*fixture.workload, traces.second, config);
  // The event queue must live entirely inside its up-front reservation:
  // steady state performs zero allocations in the hot path.
  EXPECT_EQ(fleet.stats.queue_grow_events, 0u);
  EXPECT_GT(fleet.stats.events, 0u);
  EXPECT_LE(fleet.stats.queue_peak, 8u * config.sessions + 64u);
}

// The 1M-session scaling prerequisite: the heap reservation from
// recommended_reserve_events() must absorb the true event population, so
// the hot loop never reallocates — for every feature mix.
TEST(FleetEngineTest, ReserveFormulaCoversMeasuredPeaks) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/25, util::Seconds(300.0));
  for (const bool faults : {false, true}) {
    for (const bool server : {false, true}) {
      FleetConfig config;
      config.sessions = 64;
      config.seed = 31;
      config.session.faults.enabled = faults;
      if (faults) {
        config.session.faults.outage_spacing_s = 5.0;
        config.session.faults.loss_probability = 0.2;
        config.session.faults.spike_probability = 0.25;
      }
      config.server.enabled = server;
      const FleetResult result =
          run_fleet(*fixture.workload, traces.second, config);
      SCOPED_TRACE("faults " + std::to_string(faults) + " server " +
                   std::to_string(server));
      EXPECT_EQ(result.stats.queue_grow_events, 0u);
      EXPECT_LE(result.stats.queue_peak, recommended_reserve_events(config));
    }
  }
}

TEST(FleetEngineTest, ReserveFormulaScalesPerSession) {
  FleetConfig config;
  config.sessions = 1000;
  // Baseline: 8 resident events per session plus a constant tail.
  EXPECT_EQ(recommended_reserve_events(config), 8u * 1000u + 64u);
  config.session.faults.enabled = true;
  EXPECT_EQ(recommended_reserve_events(config), 32u * 1000u + 64u);
  config.server.enabled = true;
  EXPECT_EQ(recommended_reserve_events(config), 36u * 1000u + 64u);
  config.session.faults.enabled = false;
  EXPECT_EQ(recommended_reserve_events(config), 12u * 1000u + 64u);
  // Linear in fleet size: a 1M-session fleet reserves per-session state only.
  config.server.enabled = false;
  config.sessions = 1'000'000;
  EXPECT_EQ(recommended_reserve_events(config), 8u * 1'000'000u + 64u);
}

// Hostile configs fail loudly at the boundary instead of hanging or
// silently running a different experiment.
TEST(FleetEngineTest, RejectsNonFiniteStartSpread) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/5, util::Seconds(300.0));
  FleetConfig config;
  config.sessions = 2;
  for (const double spread : {std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    config.start_spread_s = spread;
    EXPECT_THROW(run_fleet(*fixture.workload, traces.second, config),
                 std::invalid_argument)
        << "start_spread_s " << spread;
  }
}

TEST(FleetEngineTest, RejectsNonFiniteAccessCap) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/5, util::Seconds(300.0));
  FleetConfig config;
  config.sessions = 2;
  for (const double cap : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    config.access_cap_mbps = cap;
    EXPECT_THROW(run_fleet(*fixture.workload, traces.second, config),
                 std::invalid_argument)
        << "access_cap_mbps " << cap;
  }
}

TEST(FleetEngineTest, RejectsDeprecatedShardCounts) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/5, util::Seconds(300.0));
  FleetConfig config;
  config.sessions = 2;
  for (const std::size_t shards : {std::size_t{0}, std::size_t{4}}) {
    config.shards = shards;
    try {
      (void)run_fleet(*fixture.workload, traces.second, config);
      ADD_FAILURE() << "shards " << shards << " was accepted";
    } catch (const std::invalid_argument& e) {
      // The message points at the parallelism axis that replaced sharding.
      EXPECT_NE(std::string(e.what()).find("FleetRunOptions::threads"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FleetEngineTest, ContentionStretchesDownloadsAndStalls) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/5, util::Seconds(300.0));
  const trace::NetworkTrace& network = traces.second;  // 3.9 Mbps mean

  FleetConfig config;
  config.start_spread_s = 0.5;
  config.sessions = 1;
  const FleetMetrics alone =
      run_fleet(*fixture.workload, network, config)
          .metrics(config.session.mpc.segment_seconds);
  config.sessions = 8;
  const FleetMetrics crowded =
      run_fleet(*fixture.workload, network, config)
          .metrics(config.session.mpc.segment_seconds);

  // Eight MPC clients on the same 3.9 Mbps bottleneck each see a fraction of
  // the link: downloads stretch and the stall ratio cannot improve.
  EXPECT_GT(crowded.mean_download_s, alone.mean_download_s);
  EXPECT_GE(crowded.stall_ratio, alone.stall_ratio);
}

// ------------------------------------------------------------ FleetRunner

TEST(FleetRunnerTest, ThreadCountInvariance) {
  const FleetFixture fixture;

  FleetConfig config;
  config.sessions = 4;
  config.seed = 2024;
  FleetRunOptions options;
  options.replications = 4;
  options.link.duration_s = 300.0;

  options.threads = 1;
  const std::vector<FleetResult> serial =
      run_fleet_replications(*fixture.workload, config, options);
  options.threads = 4;
  const std::vector<FleetResult> parallel =
      run_fleet_replications(*fixture.workload, config, options);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    ASSERT_EQ(serial[r].sessions.size(), parallel[r].sessions.size());
    for (std::size_t i = 0; i < serial[r].sessions.size(); ++i) {
      // Bit-identical, not merely close: determinism is a hard contract.
      EXPECT_EQ(serial[r].sessions[i].result.energy.total_mj(),
                parallel[r].sessions[i].result.energy.total_mj());
      EXPECT_EQ(serial[r].sessions[i].result.qoe.mean_q,
                parallel[r].sessions[i].result.qoe.mean_q);
      EXPECT_EQ(serial[r].sessions[i].finish_s, parallel[r].sessions[i].finish_s);
    }
  }

  const FleetAggregate agg_serial =
      aggregate_fleet(serial, config.session.mpc.segment_seconds);
  const FleetAggregate agg_parallel =
      aggregate_fleet(parallel, config.session.mpc.segment_seconds);
  EXPECT_EQ(agg_serial.metrics.energy_per_session_mj,
            agg_parallel.metrics.energy_per_session_mj);
  EXPECT_EQ(agg_serial.metrics.mean_qoe, agg_parallel.metrics.mean_qoe);
  EXPECT_EQ(agg_serial.metrics.stall_ratio, agg_parallel.metrics.stall_ratio);
  EXPECT_EQ(agg_serial.metrics.p95_energy_mj, agg_parallel.metrics.p95_energy_mj);
}

TEST(FleetRunnerTest, FtileOnAFreshWorkloadMatchesSerialUnderThreads) {
  // A fresh workload has not built its lazy Ftile layouts, so the four
  // workers' first Ftile plans race to build them; the build must happen
  // once, and every replication must match the serial run bit for bit.
  trace::VideoInfo video = trace::test_videos()[1];
  video.duration_s = 8.0;
  FleetConfig config;
  config.sessions = 2;
  config.seed = 77;
  config.scheme = sim::SchemeKind::kFtile;
  FleetRunOptions options;
  options.replications = 4;
  options.link.duration_s = 60.0;

  options.threads = 1;
  const sim::VideoWorkload serial_workload(video, sim::WorkloadConfig{});
  const std::vector<FleetResult> serial =
      run_fleet_replications(serial_workload, config, options);
  options.threads = 4;
  const sim::VideoWorkload fresh_workload(video, sim::WorkloadConfig{});
  const std::vector<FleetResult> parallel =
      run_fleet_replications(fresh_workload, config, options);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    ASSERT_EQ(serial[r].sessions.size(), parallel[r].sessions.size());
    for (std::size_t i = 0; i < serial[r].sessions.size(); ++i) {
      const sim::SessionResult& a = serial[r].sessions[i].result;
      const sim::SessionResult& b = parallel[r].sessions[i].result;
      ASSERT_EQ(a.segments.size(), b.segments.size());
      for (std::size_t k = 0; k < a.segments.size(); ++k) {
        EXPECT_EQ(a.segments[k].quality, b.segments[k].quality);
        EXPECT_EQ(a.segments[k].bytes, b.segments[k].bytes);
        EXPECT_EQ(a.segments[k].download_s, b.segments[k].download_s);
        EXPECT_EQ(a.segments[k].coverage, b.segments[k].coverage);
      }
      EXPECT_EQ(a.energy.total_mj(), b.energy.total_mj());
      EXPECT_EQ(a.qoe.mean_q, b.qoe.mean_q);
      EXPECT_EQ(serial[r].sessions[i].finish_s, parallel[r].sessions[i].finish_s);
    }
  }
}

TEST(FleetRunnerTest, SweepCoversRequestedSizes) {
  const FleetFixture fixture;

  FleetConfig config;
  config.seed = 5;
  FleetRunOptions options;
  options.replications = 1;
  options.link.duration_s = 300.0;

  const std::vector<std::size_t> sizes = {1, 2, 4};
  const auto points = sweep_fleet_sizes(*fixture.workload, config, sizes, options);
  ASSERT_EQ(points.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(points[i].sessions, sizes[i]);
    EXPECT_EQ(points[i].aggregate.sessions, sizes[i]);
    EXPECT_GT(points[i].aggregate.metrics.energy_per_session_mj, 0.0);
  }
}

}  // namespace
}  // namespace ps360::fleet
