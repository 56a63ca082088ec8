// google-benchmark microbenchmarks for the hot algorithmic pieces: the MPC
// dynamic program (O(H V F) per decision, Section IV-C), whole-plan horizon
// construction per controller, Ftile layouts and whole-workload set-up,
// Algorithm 1 clustering, the ridge-regression viewport predictor, the Eq. 5
// switching-speed scans, and the encoding model.
//
// The MPC, plan-horizon, switching-speed and set-up (Ftile layout, whole
// workload) rows are the repo's tracked perf trajectory: CI (and any local
// run) emits machine-readable results with
//   bench_micro_solver --benchmark_filter='BM_Mpc|BM_PlanHorizon|BM_SwitchingSpeed|BM_FtileLayout|BM_VideoWorkloadSetup'
//     --benchmark_min_time=0.05
//     --benchmark_out=BENCH_mpc.json --benchmark_out_format=json
// and tools/bench_report.py renders the summary/speedup table against the
// committed snapshots in bench/results/. Pin PS360_THREADS=1 when an eval
// grid shares the machine.
#include <benchmark/benchmark.h>

#include "core/mpc.h"
#include "core/plan_cache.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/tracer.h"
#include "predict/viewport_predictor.h"
#include "ptile/clusterer.h"
#include "sim/accounting.h"
#include "sim/workload.h"
#include "trace/head_synth.h"
#include "trace/video_catalog.h"
#include "util/rng.h"
#include "video/encoding.h"

namespace {

using namespace ps360;

std::vector<core::SegmentChoices> make_horizon(std::size_t h, std::size_t options_n,
                                               std::uint64_t seed = 7) {
  util::Rng rng(seed);
  std::vector<core::SegmentChoices> horizon(h);
  for (auto& seg : horizon) {
    for (std::size_t o = 0; o < options_n; ++o) {
      core::QualityOption option;
      option.quality = static_cast<int>(o % 5) + 1;
      option.frame_index = 1 + o % 4;
      option.fps = 21.0 + 3.0 * static_cast<double>(o % 4);
      option.bytes = rng.uniform(5e4, 2e6);
      option.qo = rng.uniform(10.0, 95.0);
      seg.options.push_back(option);
    }
  }
  return horizon;
}

void BM_MpcDecide(benchmark::State& state) {
  const auto horizon = make_horizon(static_cast<std::size_t>(state.range(0)), 20);
  core::MpcConfig config;
  const core::MpcController controller(config,
                                       power::device_model(power::Device::kPixel3),
                                       core::MpcObjective::kMinEnergyQoEConstrained);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                                         50.0));
  }
}
BENCHMARK(BM_MpcDecide)->Arg(3)->Arg(5)->Arg(10)->Arg(20);

// Same solve but with a freshly constructed controller (cold scratch arena)
// every iteration: the gap to BM_MpcDecide is what the steady-state
// zero-allocation reuse buys.
void BM_MpcDecideColdScratch(benchmark::State& state) {
  const auto horizon = make_horizon(static_cast<std::size_t>(state.range(0)), 20);
  core::MpcConfig config;
  const auto& device = power::device_model(power::Device::kPixel3);
  for (auto _ : state) {
    const core::MpcController controller(config, device,
                                         core::MpcObjective::kMinEnergyQoEConstrained);
    benchmark::DoNotOptimize(controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                                         50.0));
  }
}
BENCHMARK(BM_MpcDecideColdScratch)->Arg(10)->Arg(20);

// Observer-on variant of BM_MpcDecide: same solves with a metrics registry
// and tracer attached. The delta to BM_MpcDecide is the whole observability
// tax, which must stay within noise (the counters are index-adds and the
// trace append is a ring write). Picked up by the CI BM_Mpc filter.
void BM_MpcDecideObserved(benchmark::State& state) {
  const auto horizon = make_horizon(static_cast<std::size_t>(state.range(0)), 20);
  core::MpcConfig config;
  core::MpcController controller(config,
                                 power::device_model(power::Device::kPixel3),
                                 core::MpcObjective::kMinEnergyQoEConstrained);
  obs::MetricsRegistry metrics;
  obs::EventTracer tracer(4096);
  obs::Observer observer{&metrics, &tracer};
  controller.set_observer(&observer, /*session=*/0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                                         50.0));
  }
}
BENCHMARK(BM_MpcDecideObserved)->Arg(10)->Arg(20);

// Warm plan-cache hit path: the first decide() populates the cache, every
// timed iteration replays it. The gap to BM_MpcDecide at the same horizon is
// what one fleet-level hit saves — key hashing + a map probe + the decision
// rebuild, instead of the full DP. Picked up by the CI BM_Mpc filter.
void BM_MpcDecideCachedHit(benchmark::State& state) {
  const auto horizon = make_horizon(static_cast<std::size_t>(state.range(0)), 20);
  core::MpcConfig config;
  core::MpcController controller(config,
                                 power::device_model(power::Device::kPixel3),
                                 core::MpcObjective::kMinEnergyQoEConstrained);
  core::PlanCache cache;
  controller.set_plan_cache(&cache);
  (void)controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                          50.0);  // warm: the one and only miss
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                                         50.0));
  }
  state.counters["hit_rate"] = benchmark::Counter(
      static_cast<double>(cache.stats().hits) /
      static_cast<double>(cache.stats().hits + cache.stats().misses));
}
BENCHMARK(BM_MpcDecideCachedHit)->Arg(5)->Arg(10)->Arg(20);

// The kMaxQoE sweep (the Ctile/Ftile/Nontile/Pano DP). Each iteration
// decides the next of a pool of distinct horizons under the next of a pool
// of bandwidths, from the next start buffer, so the timed path is the sweep
// on ever-changing inputs rather than one repeated solve. Args: horizon
// length, options per segment (20 = Pano's quality × frame-rate ladder).
void BM_MpcDecideQoeMax(benchmark::State& state) {
  constexpr std::size_t kPool = 16;
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto options_n = static_cast<std::size_t>(state.range(1));
  std::vector<std::vector<core::SegmentChoices>> horizons;
  for (std::size_t p = 0; p < kPool; ++p)
    horizons.push_back(make_horizon(h, options_n, 100 + p));
  const double bandwidths[] = {2e5, 4e5, 6e5, 9e5, 1.4e6};
  const double buffers[] = {0.0, 1.0, 2.5, 3.5};
  const double prev_qos[] = {-1.0, 30.0, 60.0, 90.0};
  core::MpcConfig config;
  const core::MpcController controller(config,
                                       power::device_model(power::Device::kPixel3),
                                       core::MpcObjective::kMaxQoE);
  std::size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.decide(
        horizons[n % kPool], util::BytesPerSec(bandwidths[n % 5]),
        util::Seconds(buffers[n % 4]), prev_qos[(n / 4) % 4]));
    ++n;
  }
}
BENCHMARK(BM_MpcDecideQoeMax)->Args({5, 5})->Args({10, 5})->Args({5, 20});

// One Scheme::plan per iteration — horizon construction (segment sizes from
// the encoding manifest, predicted Qo) plus the MPC solve — on the 20 s clip
// of test video 2, cycling through its segments with the test user's true
// viewport as the prediction. Rows: BM_PlanHorizon/<scheme>.
void BM_PlanHorizon(benchmark::State& state, sim::SchemeKind kind) {
  static const sim::VideoWorkload workload = [] {
    trace::VideoInfo video = trace::test_videos()[1];
    video.duration_s = 20.0;
    return sim::VideoWorkload(video, sim::WorkloadConfig{});
  }();
  (void)workload.ftile(0);  // build the lazy layouts outside the timed loop
  const sim::SessionConfig config;
  const sim::SessionAccountant accountant(workload, 0, kind, config);
  const sim::Scheme& scheme = accountant.scheme();
  std::vector<geometry::Viewport> predicted;
  for (std::size_t k = 0; k < workload.segment_count(); ++k) {
    predicted.push_back(workload.test_trace(0).viewport_at(
        static_cast<double>(k) + 0.5, util::Degrees(120.0)));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.plan(k, predicted[k], 20.0, util::BytesPerSec(6e5),
                                         util::Seconds(2.0), 60.0));
    k = (k + 1) % predicted.size();
  }
}
BENCHMARK_CAPTURE(BM_PlanHorizon, Ctile, sim::SchemeKind::kCtile);
BENCHMARK_CAPTURE(BM_PlanHorizon, Ftile, sim::SchemeKind::kFtile);
BENCHMARK_CAPTURE(BM_PlanHorizon, Ours, sim::SchemeKind::kOurs);
BENCHMARK_CAPTURE(BM_PlanHorizon, Pano, sim::SchemeKind::kPano);
BENCHMARK_CAPTURE(BM_PlanHorizon, GhoshLP, sim::SchemeKind::kGhoshLp);
BENCHMARK_CAPTURE(BM_PlanHorizon, GhoshRobust, sim::SchemeKind::kGhoshRobust);

// One Ftile layout per iteration: view density over the 450 blocks from
// the 40 training centres of one segment of the 172 s test video 2, then
// k-means into ten tiles. Cycles through the segments.
void BM_FtileLayout(benchmark::State& state) {
  static const sim::VideoWorkload workload(trace::test_videos()[1], sim::WorkloadConfig{});
  ptile::FtileLayoutConfig config = workload.config().ftile;
  config.seed = workload.config().seed;
  config.fov_deg = workload.config().fov_deg;
  std::size_t k = 0;
  for (auto _ : state) {
    const ptile::FtileLayout layout(workload.training_centers(k), config);
    benchmark::DoNotOptimize(layout.tile_count());
    k = (k + 1) % workload.segment_count();
  }
}
BENCHMARK(BM_FtileLayout);

// One full set-up of the 172 s test video 2 per iteration: head synthesis,
// Ptile Algorithm 1 and every segment's Ftile layout (forced, as a run with
// the Ftile baseline does).
void BM_VideoWorkloadSetup(benchmark::State& state) {
  const trace::VideoInfo video = trace::test_videos()[1];
  for (auto _ : state) {
    const sim::VideoWorkload workload(video, sim::WorkloadConfig{});
    benchmark::DoNotOptimize(workload.ftile(0).tile_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(video::segment_count(video, 1.0)));
}
BENCHMARK(BM_VideoWorkloadSetup)->Unit(benchmark::kMillisecond);

void BM_Clustering(benchmark::State& state) {
  util::Rng rng(11);
  std::vector<geometry::EquirectPoint> centers;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    const double lon = rng.uniform(0.0, 360.0);
    centers.push_back(
        geometry::EquirectPoint::make(geometry::Degrees(lon), geometry::Degrees(rng.uniform(40.0, 140.0))));
  }
  const ptile::ViewClusterer clusterer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clusterer.cluster(centers));
  }
}
BENCHMARK(BM_Clustering)->Arg(40)->Arg(200)->Arg(1000);

void BM_ViewportPredict(benchmark::State& state) {
  const trace::HeadTraceSynthesizer synth;
  const trace::HeadTrace head = synth.synthesize(trace::test_videos()[7], 0);
  const predict::ViewportPredictor predictor;
  double t = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict(head, t, t + 1.5));
    t += 0.37;
    if (t > 150.0) t = 10.0;
  }
}
BENCHMARK(BM_ViewportPredict);

void BM_EncodingBytes(benchmark::State& state) {
  const video::EncodingModel model;
  const video::ContentFeatures content{55.0, 35.0};
  std::uint64_t key = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.region_bytes(0.3, 9, 3, content, 1.0, 0.9, ++key));
  }
}
BENCHMARK(BM_EncodingBytes);

// One Eq. 5 switching_speed per iteration over a 1 s window of the 172 s
// test video 2, cycling through its segments — the window the accountant
// scans per segment — on a trace with a step table, as VideoWorkload builds
// for the test users its sessions replay.
void BM_SwitchingSpeedWindow(benchmark::State& state) {
  const trace::VideoInfo video = trace::test_videos()[1];
  trace::HeadTrace head = trace::HeadTraceSynthesizer().synthesize(video, 40);
  head.build_step_table();
  const std::size_t windows = static_cast<std::size_t>(head.duration());
  std::size_t k = 0;
  for (auto _ : state) {
    const double t0 = static_cast<double>(k);
    benchmark::DoNotOptimize(head.switching_speed(t0, t0 + 1.0));
    k = (k + 1) % windows;
  }
}
BENCHMARK(BM_SwitchingSpeedWindow);

void BM_SwitchingSpeedSeries(benchmark::State& state) {
  const trace::HeadTraceSynthesizer synth;
  const trace::HeadTrace head = synth.synthesize(trace::test_videos()[5], 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(head.switching_speed_series());
  }
}
BENCHMARK(BM_SwitchingSpeedSeries);

}  // namespace
