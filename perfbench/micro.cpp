// Layer microbenchmarks through public functions. Each times a fixed amount
// of work in several batches and reports the median batch's cost per call,
// so one descheduled batch does not move the figure.
#include <chrono>
#include <vector>

#include "bench.h"
#include "core/mpc.h"
#include "fleet/shared_link.h"
#include "predict/viewport_predictor.h"
#include "qoe/qo_model.h"
#include "server/edge_cache.h"
#include "server/popularity.h"
#include "trace/head_synth.h"
#include "trace/video_catalog.h"
#include "util/rng.h"
#include "util/stats.h"
#include "video/content.h"
#include "video/encoding.h"
#include "video/quality.h"

namespace pbench {

namespace {

using namespace ps360;
using Clock = std::chrono::steady_clock;

constexpr int kBatches = 7;

// Median over kBatches of (batch wall / ops), in seconds per op. `batch`
// runs `ops` operations and returns a value that depends on all of them.
template <typename Batch>
double median_s_per_op(std::size_t ops, Batch&& batch) {
  std::vector<double> per_op;
  double sink = 0.0;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    sink += batch();
    per_op.push_back(std::chrono::duration<double>(Clock::now() - t0).count() /
                     static_cast<double>(ops));
  }
  // Keep the work observable so it cannot be optimised away.
  volatile double keep = sink;
  (void)keep;
  return util::median(per_op);
}

struct DecideInput {
  util::BytesPerSec bandwidth{0.0};
  util::Seconds buffer{0.0};
  double prev_qo = 0.0;
};

// H = 5 horizon of (quality x frame-rate) options for test video 2, with
// segment sizes from the encoding model and Qo from the Table II model.
// `frame_rates` = 4 is the Ours (Ptile) shape, 1 the Ctile shape.
std::vector<core::SegmentChoices> make_horizon(std::uint64_t seed,
                                               std::size_t frame_rates) {
  const trace::VideoInfo& info = trace::test_videos()[1];
  video::EncodingConfig enc_config;
  enc_config.seed = seed;
  const video::EncodingModel encoding(enc_config);
  const qoe::QoModel qo_model(qoe::QoParams{}, 4.0);
  const video::FrameRateLadder ladder(info.fps);
  const double tile = encoding.config().ref_tile_area_fraction;
  std::vector<core::SegmentChoices> horizon(5);
  for (std::size_t i = 0; i < horizon.size(); ++i) {
    const video::ContentFeatures feat = video::segment_features(info, 10 + i, seed);
    for (int v = video::QualityLadder::kMinLevel; v <= video::QualityLadder::kMaxLevel;
         ++v) {
      for (std::size_t fi = video::FrameRateLadder::kOptions - frame_rates + 1;
           fi <= video::FrameRateLadder::kOptions; ++fi) {
        const double ratio = ladder.ratio(fi);
        const std::uint64_t key =
            util::derive_seed(seed, i, static_cast<std::uint64_t>(v) * 10 + fi);
        core::QualityOption option;
        option.quality = v;
        option.frame_index = fi;
        option.fps = ladder.fps(fi);
        double qo = qo_model.qo(feat.si, feat.ti,
                                util::Mbps(encoding.fov_bitrate_mbps(v, feat)));
        if (frame_rates > 1) {
          // Ptile plus low-quality background, one decoder.
          option.bytes = encoding.region_bytes(0.3, 1, v, feat, 1.0, ratio, key) +
                         encoding.region_bytes(0.7, 1, 1, feat, 1.0, ratio, key + 1);
          option.profile = power::DecodeProfile::kPtile;
          if (ratio < 1.0)
            qo *= qoe::QoModel::frame_rate_factor(
                qoe::QoModel::alpha(util::DegPerSec(40.0), feat.ti), ratio);
        } else {
          // Nine FoV tiles at v, the other 23 at the lowest level.
          option.bytes =
              encoding.region_bytes(9 * tile, 9, v, feat, 1.0, 1.0, key) +
              encoding.region_bytes(23 * tile, 23, 1, feat, 1.0, 1.0, key + 1);
          option.profile = power::DecodeProfile::kCtile;
        }
        option.qo = qo;
        horizon[i].options.push_back(option);
      }
    }
  }
  return horizon;
}

double mpc_decide_us(std::uint64_t seed, std::size_t frame_rates,
                     core::MpcObjective objective) {
  const auto horizon = make_horizon(seed, frame_rates);
  const core::MpcController controller(
      core::MpcConfig{}, power::device_model(power::Device::kPixel3), objective);
  // Varied decision states, so the transition-table memo sees realistic
  // misses rather than one repeated key.
  util::Rng rng(util::derive_seed(seed, 0xDEC1DE, frame_rates));
  std::vector<DecideInput> inputs(32);
  for (DecideInput& in : inputs) {
    in.bandwidth = util::BytesPerSec(rng.uniform(2e5, 1.5e6));
    in.buffer = util::Seconds(rng.uniform(0.5, 3.0));
    in.prev_qo = rng.uniform(20.0, 80.0);
  }
  constexpr std::size_t kCalls = 640;
  return 1e6 * median_s_per_op(kCalls, [&] {
    double acc = 0.0;
    for (std::size_t c = 0; c < kCalls; ++c) {
      const DecideInput& in = inputs[c % inputs.size()];
      acc += controller.decide(horizon, in.bandwidth, in.buffer, in.prev_qo).objective;
    }
    return acc;
  });
}

double region_bytes_ns(std::uint64_t seed) {
  const trace::VideoInfo& info = trace::test_videos()[1];
  video::EncodingConfig enc_config;
  enc_config.seed = seed;
  const video::EncodingModel encoding(enc_config);
  std::vector<video::ContentFeatures> features;
  for (std::size_t s = 0; s < 20; ++s)
    features.push_back(video::segment_features(info, s, seed));
  constexpr std::size_t kCalls = 20000;
  return 1e9 * median_s_per_op(kCalls, [&] {
    double acc = 0.0;
    for (std::size_t c = 0; c < kCalls; ++c) {
      const int v = 1 + static_cast<int>(c % 5);
      const double ratio = 1.0 - 0.1 * static_cast<double>(c % 4);
      const std::size_t tiles = 1 + c % 9;
      acc += encoding.region_bytes(0.05 * static_cast<double>(tiles), tiles, v,
                                   features[c % features.size()], 1.0, ratio,
                                   util::derive_seed(seed, c, 0));
    }
    return acc;
  });
}

double viewport_predict_us(std::uint64_t seed, double duration_s) {
  trace::VideoInfo info = trace::test_videos()[1];
  info.duration_s = duration_s;
  trace::HeadSynthConfig head;
  head.seed = seed;
  const trace::HeadTrace trace =
      trace::HeadTraceSynthesizer(head).synthesize(info, /*user_id=*/40);
  const predict::ViewportPredictor predictor;
  // Prediction points spread evenly over the whole trace, as a session's
  // segments are.
  constexpr std::size_t kCalls = 400;
  return 1e6 * median_s_per_op(kCalls, [&] {
    double acc = 0.0;
    for (std::size_t c = 0; c < kCalls; ++c) {
      const double now = 1.0 + (duration_s - 3.0) * static_cast<double>(c) /
                                   static_cast<double>(kCalls);
      const geometry::EquirectPoint p = predictor.predict(trace, now, now + 1.5);
      acc += p.x + p.y;
    }
    return acc;
  });
}

double shared_link_ns_per_op() {
  constexpr std::size_t kFlows = 256;
  std::vector<trace::ThroughputSample> samples;
  for (double t = 0.0; t < 600.0; t += 1.0) samples.push_back({t, 80.0});
  const trace::NetworkTrace trace(std::move(samples));
  // Per round: kFlows starts, kFlows replacement starts, 2 kFlows finishes.
  constexpr std::size_t kRounds = 4;
  return 1e9 * median_s_per_op(kRounds * 4 * kFlows, [&] {
    double acc = 0.0;
    for (std::size_t round = 0; round < kRounds; ++round) {
      fleet::SharedLink link(trace, kFlows);
      for (std::size_t s = 0; s < kFlows; ++s)
        link.start(s, util::Bytes(1e5 + 1e3 * static_cast<double>(s)),
                   util::BytesPerSec(s % 3 == 0 ? 2e5 : 0.0));
      std::size_t restarts_left = kFlows;
      while (const auto completion = link.next_completion()) {
        link.advance_to(completion->t);
        link.finish(completion->session);
        if (restarts_left > 0) {
          --restarts_left;
          link.start(completion->session, util::Bytes(5e4), util::BytesPerSec(0.0));
        }
      }
      acc += static_cast<double>(link.reallocations());
    }
    return acc;
  });
}

double edge_cache_ns_per_op(std::uint64_t seed) {
  // Zipf(0.8) over 16 videos x 20 segments x 20 encodings, sized like
  // Ptile segments, against the fleet-1k cache (64 MiB, LRU).
  const server::ZipfPopularity popularity({16, 0.8});
  util::Rng rng(util::derive_seed(seed, 0xCAC4E, 0));
  struct Request {
    server::SegmentKey key;
    util::Bytes size{0.0};
  };
  std::vector<Request> stream(1 << 15);
  for (Request& r : stream) {
    r.key.video = static_cast<std::uint32_t>(popularity.sample(rng));
    r.key.segment = static_cast<std::uint32_t>(rng.uniform_index(20));
    r.key.plan_word = (1 + rng.uniform_index(5)) |
                      ((1 + rng.uniform_index(4)) << 24);
    r.size = util::Bytes(rng.uniform(1e5, 6e5));
  }
  server::EdgeCacheConfig config;
  config.capacity = util::mebibytes(64.0);
  config.policy = server::EvictionPolicy::kLru;
  server::EdgeCache cache(config);
  return 1e9 * median_s_per_op(stream.size(), [&] {
    double hits = 0.0;
    for (const Request& r : stream) {
      if (cache.lookup(r.key)) {
        hits += 1.0;
      } else {
        (void)cache.admit(r.key, r.size);
      }
    }
    return hits;
  });
}

}  // namespace

std::map<std::string, double> run_microbenchmarks(std::uint64_t seed) {
  std::map<std::string, double> m;
  m["core.mpc_decide_us.ours"] =
      mpc_decide_us(seed, 4, core::MpcObjective::kMinEnergyQoEConstrained);
  m["core.mpc_decide_us.ctile"] = mpc_decide_us(seed, 1, core::MpcObjective::kMaxQoE);
  m["video.region_bytes_ns"] = region_bytes_ns(seed);
  m["predict.viewport_predict_us.20s"] = viewport_predict_us(seed, 20.0);
  m["predict.viewport_predict_us.172s"] = viewport_predict_us(seed, 172.0);
  m["fleet.shared_link_ns_per_op"] = shared_link_ns_per_op();
  m["server.edge_cache_ns_per_op"] = edge_cache_ns_per_op(seed);
  return m;
}

}  // namespace pbench
