// Equivalence tests for the table-driven planning path. Each rewrite is
// checked bit for bit against a reference that recomputes the same value
// the direct way:
//   * the encoding manifest against EncodingModel::region_bytes/tiled_bytes,
//     for every tabulated (segment, quality, frame index, role);
//   * windowed HeadTrace::switching_speed / mean_center and
//     ViewportPredictor::predict against full-scan copies of their previous
//     implementations, on random windows that start before the first sample,
//     end past the last, or sit exactly on sample timestamps;
//   * switching_speed read from HeadTrace step tables against the same
//     full scan, on every test trace of the full-length workload;
//   * the per-segment Ftile split against the per-quality split it replaced;
//   * util::SmallRidge against util::ridge_solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "predict/viewport_predictor.h"
#include "sim/accounting.h"
#include "sim/manifest.h"
#include "trace/video_catalog.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace ps360::sim {
namespace {

using geometry::EquirectPoint;
using trace::HeadSample;
using trace::HeadTrace;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Test video 2 ("Showtime Boxing"), full length (172 s) or cut to `clip_s`.
VideoWorkload make_workload(double clip_s) {
  trace::VideoInfo video = trace::test_videos()[1];
  if (clip_s > 0.0) video.duration_s = clip_s;
  return VideoWorkload(video, WorkloadConfig{});
}

const VideoWorkload& full_video() {
  static const VideoWorkload workload = make_workload(0.0);
  return workload;
}

const VideoWorkload& clip() {
  static const VideoWorkload workload = make_workload(20.0);
  return workload;
}

// ------------------------------------------------------------ manifest

bool is_background(int role) {
  return role == kRoleCtileBackground || role == kRoleFtileBackground ||
         role == kRolePtileBackground;
}

// Every tabulated cell of an all-roles manifest against the model.
void expect_manifest_matches_model(const VideoWorkload& workload,
                                   std::uint64_t encoding_seed) {
  video::EncodingConfig config;
  config.seed = encoding_seed;
  const video::EncodingModel model(config);
  const EncodingManifest manifest(workload, model, ManifestNeeds::all());
  const video::FrameRateLadder ladder(workload.video().fps);

  struct Shape {
    double area;
    std::size_t tiles;
    double seconds;
  };
  const Shape shapes[] = {{0.3, 9, 1.0}, {1.0, 1, 0.7}, {0.07, 23, 2.0}};
  std::size_t cells = 0;
  for (std::size_t i = 0; i < workload.segment_count(); ++i) {
    const video::ContentFeatures& feat = workload.features(i);
    for (int v = video::QualityLadder::kMinLevel; v <= video::QualityLadder::kMaxLevel;
         ++v) {
      for (std::size_t fi = 1; fi <= video::FrameRateLadder::kOptions; ++fi) {
        const double ratio = ladder.ratio(fi);
        for (int role = 0; role < kManifestRoles; ++role) {
          if (is_background(role) && v != video::QualityLadder::kMinLevel) {
            EXPECT_THROW((void)manifest.noise(i, v, fi, role), std::logic_error);
            continue;
          }
          const std::uint64_t key = noise_key(workload, i, v, fi, role);
          ASSERT_EQ(bits(manifest.noise(i, v, fi, role)), bits(model.size_noise(key)));
          for (const Shape& s : shapes) {
            ASSERT_EQ(bits(manifest.bytes(i, v, fi, role, s.area, s.tiles, s.seconds)),
                      bits(model.region_bytes(s.area, s.tiles, v, feat, s.seconds, 1.0,
                                              key)))
                << "segment " << i << " quality " << v << " fi " << fi << " role "
                << role;
            ASSERT_EQ(bits(manifest.bytes(i, v, fi, role, s.area, s.tiles, s.seconds,
                                          manifest.frame_factor(fi))),
                      bits(model.region_bytes(s.area, s.tiles, v, feat, s.seconds, ratio,
                                              key)));
          }
          ++cells;
        }
      }
    }
  }
  // 3 foreground roles x 5 qualities + 4 at the lowest, x 4 frame indices.
  EXPECT_EQ(cells, workload.segment_count() * 4 * (4 * 5 + 3));
}

TEST(ManifestTest, MatchesRegionBytesOnTheFullVideo) {
  expect_manifest_matches_model(full_video(), full_video().config().seed);
}

TEST(ManifestTest, MatchesRegionBytesOnAClipWithItsOwnSessionSeed) {
  // The noise key folds in the workload seed, the draw the encoding seed:
  // a session seed that differs from the workload's must still match.
  ASSERT_NE(clip().config().seed, 7u);
  expect_manifest_matches_model(clip(), 7);
}

TEST(ManifestTest, MatchesTiledBytesForSummedAreas) {
  const VideoWorkload& workload = clip();
  const video::EncodingModel model{video::EncodingConfig{}};
  const EncodingManifest manifest(workload, model, ManifestNeeds::all());
  util::Rng rng(3);
  for (std::size_t trial = 0; trial < 200; ++trial) {
    std::vector<double> areas(1 + rng.uniform_index(12));
    for (double& a : areas) a = rng.uniform(0.001, 0.2);
    double area = 0.0;
    for (double a : areas) area += a;
    area = std::min(area, 1.0);
    const std::size_t i = rng.uniform_index(workload.segment_count());
    const int v = 1 + static_cast<int>(rng.uniform_index(5));
    const std::size_t fi = 1 + rng.uniform_index(4);
    EXPECT_EQ(bits(manifest.bytes(i, v, fi, kRoleFtileFov, area, areas.size(), 1.0)),
              bits(model.tiled_bytes(areas, v, workload.features(i), 1.0, 1.0,
                                     noise_key(workload, i, v, fi, kRoleFtileFov))));
  }
}

TEST(ManifestTest, TabulatesOnlyWhatTheNeedsName) {
  const VideoWorkload& workload = clip();
  const video::EncodingModel model{video::EncodingConfig{}};
  const EncodingManifest ctile(workload, model, manifest_needs(SchemeKind::kCtile));
  const std::size_t full_rate = video::FrameRateLadder::kOptions;
  EXPECT_NO_THROW((void)ctile.noise(0, 3, full_rate, kRoleCtileFov));
  EXPECT_THROW((void)ctile.noise(0, 3, 1, kRoleCtileFov), std::logic_error);
  EXPECT_THROW((void)ctile.noise(0, 3, full_rate, kRolePtile), std::logic_error);
  EXPECT_TRUE(ctile.matches(workload, model.config(), manifest_needs(SchemeKind::kCtile)));
  EXPECT_FALSE(ctile.matches(workload, model.config(), manifest_needs(SchemeKind::kOurs)));
  EXPECT_FALSE(ctile.matches(full_video(), model.config(),
                             manifest_needs(SchemeKind::kCtile)));
  video::EncodingConfig other = model.config();
  other.seed += 1;
  EXPECT_FALSE(ctile.matches(workload, other, manifest_needs(SchemeKind::kCtile)));
  // The Ghosh per-tile table is its own need: a Ctile manifest lacks it, and
  // a Ghosh manifest has it but no role table.
  EXPECT_THROW((void)ctile.ghosh_tile_bytes(0, 3, 0, 0.03, 1.0), std::logic_error);
  EXPECT_FALSE(ctile.matches(workload, model.config(), manifest_needs(SchemeKind::kGhoshLp)));
  const EncodingManifest ghosh(workload, model, manifest_needs(SchemeKind::kGhoshRobust));
  EXPECT_NO_THROW((void)ghosh.ghosh_tile_bytes(0, 3, kGhoshTileIds - 1, 0.03, 1.0));
  EXPECT_THROW((void)ghosh.noise(0, 3, full_rate, kRoleCtileFov), std::logic_error);
  EXPECT_TRUE(ghosh.matches(workload, model.config(), manifest_needs(SchemeKind::kGhoshLp)));
  EXPECT_FALSE(ghosh.matches(workload, model.config(), manifest_needs(SchemeKind::kCtile)));
  // Every registered scheme's needs are covered by the all-roles manifest.
  const EncodingManifest all(workload, model, ManifestNeeds::all());
  EXPECT_TRUE(ManifestNeeds::all().ghosh_tiles);
  for (SchemeKind kind : registered_schemes())
    EXPECT_TRUE(all.matches(workload, model.config(), manifest_needs(kind)));
}

TEST(ManifestTest, SessionRejectsAManifestBuiltForOtherEncodings) {
  const VideoWorkload& workload = clip();
  SessionConfig config;
  const EncodingManifest ours = session_manifest(workload, config, SchemeKind::kOurs);
  EXPECT_NO_THROW(SessionAccountant(workload, 0, SchemeKind::kOurs, config, ours));
  // Wrong scheme coverage: a Ctile manifest lacks the Ptile roles.
  const EncodingManifest ctile = session_manifest(workload, config, SchemeKind::kCtile);
  EXPECT_THROW(SessionAccountant(workload, 0, SchemeKind::kOurs, config, ctile),
               std::invalid_argument);
  // Wrong encoding seed.
  SessionConfig reseeded = config;
  reseeded.seed += 1;
  EXPECT_THROW(SessionAccountant(workload, 0, SchemeKind::kOurs, reseeded, ours),
               std::invalid_argument);
}

// ------------------------------------------------------ windowed scans

// The previous full-scan implementations, kept verbatim as references.
double switching_speed_full_scan(const HeadTrace& trace, double t0, double t1) {
  double path_deg = 0.0;
  geometry::Vec3 prev = trace.center_at(t0).orientation();
  for (const auto& s : trace.samples()) {
    if (s.t <= t0 || s.t >= t1) continue;
    const geometry::Vec3 cur = s.center.orientation();
    path_deg += geometry::angular_distance(prev, cur).value();
    prev = cur;
  }
  const geometry::Vec3 last = trace.center_at(t1).orientation();
  path_deg += geometry::angular_distance(prev, last).value();
  return path_deg / (t1 - t0);
}

EquirectPoint mean_center_full_scan(const HeadTrace& trace, double t0, double t1) {
  double sx = 0.0, sy = 0.0, y_sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : trace.samples()) {
    if (s.t < t0 || s.t > t1) continue;
    const double rad = geometry::to_radians(geometry::Degrees(s.center.x)).value();
    sx += std::cos(rad);
    sy += std::sin(rad);
    y_sum += s.center.y;
    ++n;
  }
  if (n == 0) return trace.center_at((t0 + t1) / 2.0);
  double x;
  if (sx == 0.0 && sy == 0.0) {
    x = trace.center_at((t0 + t1) / 2.0).x;
  } else {
    x = geometry::wrap360(geometry::to_degrees(geometry::Radians(std::atan2(sy, sx))))
            .value();
  }
  return EquirectPoint{x, y_sum / static_cast<double>(n)};
}

EquirectPoint predict_full_scan(const predict::ViewportPredictorConfig& config,
                                const HeadTrace& trace, double now_t, double target_t) {
  const double horizon = std::min(target_t - now_t, config.max_horizon_s);
  const double t0 = now_t - config.history_seconds;
  std::vector<double> times, xs_unwrapped, ys;
  double x_acc = 0.0;
  bool first = true;
  double prev_x = 0.0;
  for (const auto& s : trace.samples()) {
    if (s.t < t0 || s.t > now_t) continue;
    if (first) {
      x_acc = s.center.x;
      first = false;
    } else {
      x_acc += geometry::wrap_delta(geometry::Degrees(s.center.x),
                                    geometry::Degrees(prev_x))
                   .value();
    }
    prev_x = s.center.x;
    times.push_back(s.t - now_t);
    xs_unwrapped.push_back(x_acc);
    ys.push_back(s.center.y);
  }
  if (times.size() < config.poly_degree + 1) return trace.center_at(now_t);
  const std::size_t n = times.size();
  const std::size_t p = config.poly_degree + 1;
  double t_mid = 0.0;
  for (double t : times) t_mid += t;
  t_mid /= static_cast<double>(n);
  util::Matrix design(n, p);
  for (std::size_t i = 0; i < n; ++i) {
    double pow_t = 1.0;
    for (std::size_t j = 0; j < p; ++j) {
      design(i, j) = pow_t;
      pow_t *= times[i] - t_mid;
    }
  }
  const double eval_t = horizon - t_mid;
  std::vector<double> lambdas(p, config.lambda);
  lambdas[0] = 0.0;
  auto extrapolate = [&](const std::vector<double>& series) {
    double mean = 0.0;
    for (double v : series) mean += v;
    mean /= static_cast<double>(series.size());
    std::vector<double> centred(series.size());
    for (std::size_t i = 0; i < series.size(); ++i) centred[i] = series[i] - mean;
    const std::vector<double> w = util::ridge_solve(design, centred, lambdas);
    double value = mean;
    double pow_t = 1.0;
    for (std::size_t j = 0; j < p; ++j) {
      value += w[j] * pow_t;
      pow_t *= eval_t;
    }
    return value;
  };
  const double x_pred = extrapolate(xs_unwrapped);
  const double y_pred = std::clamp(extrapolate(ys), 0.0, 180.0);
  return EquirectPoint{geometry::wrap360(geometry::Degrees(x_pred)).value(), y_pred};
}

// A jittery random-walk trace with irregular sample spacing, crossing the
// 0/360 seam now and then.
HeadTrace random_trace(util::Rng& rng, double duration) {
  std::vector<HeadSample> samples;
  double t = rng.uniform(0.0, 0.5);
  double x = rng.uniform(0.0, 360.0);
  double y = rng.uniform(30.0, 150.0);
  while (t < duration) {
    samples.push_back(HeadSample{
        t, EquirectPoint::make(geometry::Degrees(x), geometry::Degrees(y))});
    t += rng.uniform(0.004, 0.05);
    x += rng.normal(0.0, 3.0);
    y = std::clamp(y + rng.normal(0.0, 1.5), 0.0, 180.0);
  }
  return HeadTrace(1, 0, std::move(samples));
}

// A window [t0, t1]: random, exactly on sample timestamps, before the first
// sample, or past the last one.
std::pair<double, double> random_window(util::Rng& rng, const HeadTrace& trace) {
  const auto& s = trace.samples();
  const double begin = s.front().t, end = s.back().t;
  const auto sample_t = [&] { return s[rng.uniform_index(s.size())].t; };
  double t0 = 0.0, t1 = 0.0;
  switch (rng.uniform_index(5)) {
    case 0:  // exactly on samples
      t0 = sample_t();
      t1 = std::max(t0, sample_t());
      break;
    case 1:  // starts before the first sample
      t0 = begin - rng.uniform(0.0, 2.0);
      t1 = begin + rng.uniform(0.0, 2.0);
      break;
    case 2:  // ends past the last sample
      t0 = end - rng.uniform(0.0, 2.0);
      t1 = end + rng.uniform(0.0, 2.0);
      break;
    case 3:  // one bound on a sample, the other not
      t0 = sample_t();
      t1 = t0 + rng.uniform(0.0, 1.5);
      break;
    default:
      t0 = rng.uniform(begin - 1.0, end + 1.0);
      t1 = t0 + rng.uniform(0.0, 3.0);
  }
  return {t0, t1};
}

TEST(WindowedScanTest, SwitchingSpeedAndMeanCenterMatchFullScans) {
  util::Rng rng(11);
  std::size_t windows = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const HeadTrace trace = random_trace(rng, rng.uniform(2.0, 40.0));
    for (int w = 0; w < 100; ++w) {
      const auto [t0, t1] = random_window(rng, trace);
      const EquirectPoint a = trace.mean_center(t0, t1);
      const EquirectPoint b = mean_center_full_scan(trace, t0, t1);
      ASSERT_EQ(bits(a.x), bits(b.x)) << "[" << t0 << ", " << t1 << "]";
      ASSERT_EQ(bits(a.y), bits(b.y)) << "[" << t0 << ", " << t1 << "]";
      if (t1 > t0) {
        ASSERT_EQ(bits(trace.switching_speed(t0, t1)),
                  bits(switching_speed_full_scan(trace, t0, t1)))
            << "[" << t0 << ", " << t1 << "]";
      }
      ++windows;
    }
  }
  EXPECT_EQ(windows, 2000u);
}

TEST(WindowedScanTest, PredictMatchesFullScanReference) {
  util::Rng rng(12);
  std::size_t predictions = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const HeadTrace trace = random_trace(rng, rng.uniform(2.0, 30.0));
    predict::ViewportPredictorConfig config;
    config.poly_degree = 1 + static_cast<std::size_t>(trial % 4);
    config.lambda = std::array<double, 3>{0.0, 0.1, 10.0}[trial % 3];
    config.history_seconds = rng.uniform(0.2, 2.0);
    const predict::ViewportPredictor predictor(config);
    for (int w = 0; w < 60; ++w) {
      // now_t itself ranges over the edges: before the first sample, on a
      // sample timestamp, past the last.
      const auto [now, later] = random_window(rng, trace);
      const double target = later + rng.uniform(0.0, 5.0);
      EquirectPoint expected{};
      bool reference_threw = false;
      try {
        expected = predict_full_scan(config, trace, now, target);
      } catch (const std::invalid_argument&) {
        reference_threw = true;
      }
      if (reference_threw) {
        EXPECT_THROW(predictor.predict(trace, now, target), std::invalid_argument);
        continue;
      }
      const EquirectPoint got = predictor.predict(trace, now, target);
      ASSERT_EQ(bits(got.x), bits(expected.x)) << "now " << now;
      ASSERT_EQ(bits(got.y), bits(expected.y)) << "now " << now;
      ++predictions;
    }
  }
  EXPECT_GT(predictions, 1000u);
}

TEST(WindowedScanTest, WorkloadTracesMatchFullScans) {
  // The synthesized 50 Hz traces the simulator replays, on the segment
  // windows it actually queries.
  const VideoWorkload& workload = full_video();
  const HeadTrace& trace = workload.test_trace(0);
  const predict::ViewportPredictor predictor;
  for (std::size_t k = 0; k < workload.segment_count(); ++k) {
    const double t0 = static_cast<double>(k);
    const double t1 = std::min(t0 + 1.0, trace.duration());
    const EquirectPoint a = trace.mean_center(t0, t1);
    const EquirectPoint b = mean_center_full_scan(trace, t0, t1);
    ASSERT_EQ(bits(a.x), bits(b.x));
    ASSERT_EQ(bits(a.y), bits(b.y));
    if (t1 > t0) {
      ASSERT_EQ(bits(trace.switching_speed(t0, t1)),
                bits(switching_speed_full_scan(trace, t0, t1)));
    }
    const EquirectPoint p = predictor.predict(trace, t0, t0 + 1.5);
    const EquirectPoint q = predict_full_scan(predictor.config(), trace, t0, t0 + 1.5);
    ASSERT_EQ(bits(p.x), bits(q.x));
    ASSERT_EQ(bits(p.y), bits(q.y));
  }
}

// The windows switching_speed must handle exactly, on one trace: no sample
// strictly inside, starting before the first sample, ending past the last,
// both endpoints on sample timestamps, and one of them on a sample.
std::vector<std::pair<double, double>> edge_windows(const HeadTrace& trace) {
  const auto& s = trace.samples();
  const std::size_t n = s.size();
  const std::size_t mid = n / 2;
  return {
      {s[mid].t, s[mid + 1].t},                          // on samples, none inside
      {s[mid].t + 1e-4, s[mid + 1].t - 1e-4},            // between two samples
      {s[mid].t, s[mid].t + 1e-6},                       // starts on a sample
      {s[mid + 1].t - 1e-6, s[mid + 1].t},               // ends on a sample
      {s.front().t - 2.0, s.front().t + 0.5},            // before the first sample
      {s.front().t - 2.0, s.front().t - 1.0},            // wholly before it
      {s.back().t - 0.5, s.back().t + 2.0},              // past the last sample
      {s.back().t + 1.0, s.back().t + 2.0},              // wholly past it
      {s.front().t, s.back().t},                         // every sample, on both ends
      {s[mid].t, s[std::min(mid + 50, n - 1)].t},        // 1 s at 50 Hz, on samples
  };
}

TEST(StepTableTest, TestTracesOfTheFullVideoMatchTheFullScan) {
  // Every trace the sessions replay, on the accountant's segment windows,
  // the client's trailing history windows, the edge windows above and
  // random windows — read from the step tables, bit for bit the full scan.
  const VideoWorkload& workload = full_video();
  ASSERT_EQ(workload.test_user_count(), 8u);
  const predict::ViewportPredictor predictor;
  util::Rng rng(13);
  for (std::size_t u = 0; u < workload.test_user_count(); ++u) {
    const HeadTrace& trace = workload.test_trace(u);
    ASSERT_TRUE(trace.has_step_table()) << "test user " << u;
    std::vector<std::pair<double, double>> windows = edge_windows(trace);
    for (std::size_t k = 0; k < workload.segment_count(); ++k) {
      const double t0 = static_cast<double>(k);
      windows.emplace_back(t0, std::min(t0 + 1.0, trace.duration()));
      const double now = t0 + 0.5;
      windows.emplace_back(std::max(now - predictor.config().history_seconds, 0.0),
                           now);
    }
    for (int w = 0; w < 200; ++w) windows.push_back(random_window(rng, trace));
    for (const auto& [t0, t1] : windows) {
      if (!(t1 > t0)) continue;
      ASSERT_EQ(bits(trace.switching_speed(t0, t1)),
                bits(switching_speed_full_scan(trace, t0, t1)))
          << "test user " << u << " [" << t0 << ", " << t1 << "]";
    }
  }
}

TEST(StepTableTest, TrainingTracesCarryNoTable) {
  const VideoWorkload& workload = full_video();
  for (std::size_t u = 0; u < workload.config().n_training_users; ++u)
    EXPECT_FALSE(workload.user_trace(u).has_step_table()) << "training user " << u;
  for (std::size_t u = workload.config().n_training_users;
       u < workload.config().n_users; ++u)
    EXPECT_TRUE(workload.user_trace(u).has_step_table()) << "test user " << u;
}

TEST(StepTableTest, TabledAndUntabledTracesAgreeOnRandomTraces) {
  util::Rng rng(14);
  for (int trial = 0; trial < 20; ++trial) {
    const HeadTrace plain = random_trace(rng, rng.uniform(2.0, 40.0));
    HeadTrace tabled = plain;
    tabled.build_step_table();
    ASSERT_FALSE(plain.has_step_table());
    ASSERT_TRUE(tabled.has_step_table());
    std::vector<std::pair<double, double>> windows = edge_windows(plain);
    for (int w = 0; w < 100; ++w) windows.push_back(random_window(rng, plain));
    for (const auto& [t0, t1] : windows) {
      if (!(t1 > t0)) continue;
      const double expected = switching_speed_full_scan(plain, t0, t1);
      ASSERT_EQ(bits(tabled.switching_speed(t0, t1)), bits(expected))
          << "[" << t0 << ", " << t1 << "]";
      ASSERT_EQ(bits(plain.switching_speed(t0, t1)), bits(expected))
          << "[" << t0 << ", " << t1 << "]";
    }
  }
}

// ---------------------------------------------------------- Ftile split

// The block-by-block reference: test every block centre against the
// viewport, as tiles_overlapping did before it precomputed the lattice.
std::vector<std::size_t> tiles_overlapping_reference(const ptile::FtileLayout& layout,
                                                     const geometry::Viewport& viewport,
                                                     const geometry::TileGrid& blocks) {
  const auto area = viewport.area();
  std::vector<std::size_t> out;
  for (std::size_t t = 0; t < layout.tile_count(); ++t) {
    std::size_t hits = 0;
    for (const geometry::TileIndex& idx : layout.tile_blocks()[t]) {
      const auto block_area = blocks.tile_area(idx);
      const EquirectPoint center{
          geometry::wrap360(
              geometry::Degrees(block_area.lon.lo + block_area.lon.width / 2.0))
              .value(),
          (block_area.y_lo + block_area.y_hi) / 2.0};
      if (area.contains(center)) ++hits;
    }
    if (hits == 0) continue;
    const double fraction =
        static_cast<double>(hits) / static_cast<double>(layout.tile_blocks()[t].size());
    if (fraction >= 0.2) out.push_back(t);
  }
  return out;
}

TEST(FtileSplitTest, MatchesThePerQualitySplit) {
  const VideoWorkload& workload = clip();
  const video::EncodingModel model{video::EncodingConfig{}};
  const EncodingManifest manifest(workload, model, manifest_needs(SchemeKind::kFtile));
  const geometry::TileGrid blocks(workload.config().ftile.block_rows,
                                  workload.config().ftile.block_cols);
  const std::size_t fi = video::FrameRateLadder::kOptions;
  const double L = 1.0;
  util::Rng rng(21);
  for (std::size_t i = 0; i < workload.segment_count(); ++i) {
    const ptile::FtileLayout& layout = workload.ftile(i);
    for (int trial = 0; trial < 40; ++trial) {
      const double fov = rng.uniform(60.0, 180.0);
      const geometry::Viewport viewport(
          EquirectPoint::make(geometry::Degrees(rng.uniform(0.0, 360.0)),
                              geometry::Degrees(rng.uniform(0.0, 180.0))),
          geometry::Degrees(fov), geometry::Degrees(fov));
      const std::vector<std::size_t> selected =
          tiles_overlapping_reference(layout, viewport, blocks);
      const ptile::FtileSplit split = layout.split(viewport);
      ASSERT_EQ(split.hq_tiles, selected);
      ASSERT_EQ(layout.tiles_overlapping(viewport), selected);
      for (int v = video::QualityLadder::kMinLevel; v <= video::QualityLadder::kMaxLevel;
           ++v) {
        // The split the Ftile controller used to redo for every quality.
        std::vector<double> hq_areas, bg_areas;
        for (std::size_t t = 0; t < layout.tile_count(); ++t) {
          const bool is_hq =
              std::find(selected.begin(), selected.end(), t) != selected.end();
          (is_hq ? hq_areas : bg_areas).push_back(layout.tile_areas()[t]);
        }
        double old_total = 0.0;
        if (!hq_areas.empty())
          old_total += model.tiled_bytes(hq_areas, v, workload.features(i), L, 1.0,
                                         noise_key(workload, i, v, fi, kRoleFtileFov));
        if (!bg_areas.empty())
          old_total +=
              model.tiled_bytes(bg_areas, 1, workload.features(i), L, 1.0,
                                noise_key(workload, i, 1, fi, kRoleFtileBackground));
        double new_total = 0.0;
        if (!split.hq_tiles.empty())
          new_total += manifest.bytes(i, v, fi, kRoleFtileFov, split.hq_area,
                                      split.hq_tiles.size(), L);
        if (split.bg_tiles > 0)
          new_total += manifest.bytes(i, 1, fi, kRoleFtileBackground, split.bg_area,
                                      split.bg_tiles, L);
        ASSERT_EQ(bits(new_total), bits(old_total)) << "segment " << i << " v " << v;
      }
    }
  }
}

TEST(FtileSplitTest, CoverageMatchesBlockByBlockReference) {
  const VideoWorkload& workload = clip();
  const geometry::TileGrid blocks(workload.config().ftile.block_rows,
                                  workload.config().ftile.block_cols);
  util::Rng rng(22);
  for (std::size_t i = 0; i < workload.segment_count(); ++i) {
    const ptile::FtileLayout& layout = workload.ftile(i);
    for (int trial = 0; trial < 20; ++trial) {
      const double fov = rng.uniform(60.0, 180.0);
      const geometry::Viewport viewport(
          EquirectPoint::make(geometry::Degrees(rng.uniform(0.0, 360.0)),
                              geometry::Degrees(rng.uniform(0.0, 180.0))),
          geometry::Degrees(fov), geometry::Degrees(fov));
      std::vector<std::size_t> tiles;
      for (std::size_t t = 0; t < layout.tile_count(); ++t)
        if (rng.bernoulli(0.4)) tiles.push_back(t);
      // Reference: count in-view blocks and the covered ones directly.
      const auto area = viewport.area();
      std::size_t in_view = 0, covered = 0;
      for (std::size_t t = 0; t < layout.tile_count(); ++t) {
        const bool selected = std::find(tiles.begin(), tiles.end(), t) != tiles.end();
        for (const geometry::TileIndex& idx : layout.tile_blocks()[t]) {
          const auto b = blocks.tile_area(idx);
          const EquirectPoint center{
              geometry::wrap360(geometry::Degrees(b.lon.lo + b.lon.width / 2.0)).value(),
              (b.y_lo + b.y_hi) / 2.0};
          if (!area.contains(center)) continue;
          ++in_view;
          if (selected) ++covered;
        }
      }
      const double expected =
          in_view == 0 ? 1.0
                       : static_cast<double>(covered) / static_cast<double>(in_view);
      ASSERT_EQ(bits(layout.coverage(viewport, tiles)), bits(expected));
    }
  }
}

// ---------------------------------------------------------- SmallRidge

TEST(SmallRidgeTest, BitIdenticalToRidgeSolve) {
  util::Rng rng(31);
  std::size_t windows = 0;
  for (std::size_t degree = 1; degree <= 4; ++degree) {
    for (const double lambda : {0.0, 0.1, 10.0}) {
      for (int penalise_intercept = 0; penalise_intercept < 2; ++penalise_intercept) {
        for (int trial = 0; trial < 25; ++trial) {
          const std::size_t p = degree + 1;
          const std::size_t n = p + rng.uniform_index(60);
          // A centred polynomial time basis like the viewport predictor's.
          std::vector<double> times(n);
          double t = -rng.uniform(0.5, 2.0);
          for (double& ti : times) {
            ti = t;
            t += rng.uniform(0.005, 0.05);
          }
          double t_mid = 0.0;
          for (double ti : times) t_mid += ti;
          t_mid /= static_cast<double>(n);
          util::Matrix design(n, p);
          std::vector<double> y(n), z(n);
          util::SmallRidge ridge(p);
          util::SmallRidge::Vec rhs_y{}, rhs_z{};
          for (std::size_t i = 0; i < n; ++i) {
            util::SmallRidge::Vec row{};
            double pow_t = 1.0;
            for (std::size_t j = 0; j < p; ++j) {
              design(i, j) = row[j] = pow_t;
              pow_t *= times[i] - t_mid;
            }
            y[i] = rng.normal(0.0, 40.0);
            z[i] = rng.uniform(-5.0, 5.0);
            ridge.add_row(row);
            ridge.add_target(row, y[i], rhs_y);
            ridge.add_target(row, z[i], rhs_z);
          }
          std::vector<double> lambdas(p, lambda);
          if (penalise_intercept == 0) lambdas[0] = 0.0;
          util::SmallRidge::Vec lambda_vec{};
          std::copy(lambdas.begin(), lambdas.end(), lambda_vec.begin());
          ridge.factor(lambda_vec);
          const std::vector<double> wy = util::ridge_solve(design, y, lambdas);
          const std::vector<double> wz = util::ridge_solve(design, z, lambdas);
          const util::SmallRidge::Vec gy = ridge.solve(rhs_y);
          const util::SmallRidge::Vec gz = ridge.solve(rhs_z);
          for (std::size_t j = 0; j < p; ++j) {
            ASSERT_EQ(bits(gy[j]), bits(wy[j])) << "degree " << degree << " j " << j;
            ASSERT_EQ(bits(gz[j]), bits(wz[j])) << "degree " << degree << " j " << j;
          }
          ++windows;
        }
      }
    }
  }
  EXPECT_EQ(windows, 600u);
}

TEST(SmallRidgeTest, RejectsWhatRidgeSolveRejects) {
  EXPECT_THROW(util::SmallRidge(0), std::invalid_argument);
  EXPECT_THROW(util::SmallRidge(util::SmallRidge::kMaxTerms + 1), std::invalid_argument);
  // A zero column with no penalty: singular, for both solvers.
  util::SmallRidge singular(2);
  const util::SmallRidge::Vec row{1.0, 0.0};
  singular.add_row(row);
  singular.add_row(row);
  EXPECT_THROW(singular.factor(util::SmallRidge::Vec{}), std::invalid_argument);
  EXPECT_THROW(util::ridge_solve(util::Matrix{{1.0, 0.0}, {1.0, 0.0}}, {1.0, 2.0}, 0.0),
               std::invalid_argument);
  util::SmallRidge negative(2);
  negative.add_row(row);
  EXPECT_THROW(negative.factor(util::SmallRidge::Vec{0.0, -1.0}), std::invalid_argument);
  util::SmallRidge unfactored(2);
  EXPECT_THROW((void)unfactored.solve(util::SmallRidge::Vec{}), std::invalid_argument);
}

}  // namespace
}  // namespace ps360::sim
