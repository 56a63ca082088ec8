// Head-orientation trace container: causal sampling/interpolation over
// recorded samples. Query results depend only on the stored samples and
// the query time, never on external state.
#include "trace/head_trace.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/csv.h"

namespace ps360::trace {

using geometry::EquirectPoint;

HeadTrace::HeadTrace(int video_id, int user_id, std::vector<HeadSample> samples)
    : video_id_(video_id), user_id_(user_id), samples_(std::move(samples)) {
  PS360_CHECK_MSG(!samples_.empty(), "head trace must have samples");
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    PS360_CHECK_MSG(samples_[i].t > samples_[i - 1].t,
                    "head trace timestamps must be strictly increasing");
  }
}

namespace {

// Interpolate between two equirect points, taking the short way around in
// longitude. frac in [0,1].
EquirectPoint lerp_center(const EquirectPoint& a, const EquirectPoint& b, double frac) {
  const double dx =
      geometry::wrap_delta(geometry::Degrees(b.x), geometry::Degrees(a.x)).value();
  const double x = geometry::wrap360(geometry::Degrees(a.x + dx * frac)).value();
  const double y = a.y + (b.y - a.y) * frac;
  return EquirectPoint{x, y};
}

}  // namespace

std::vector<HeadSample>::const_iterator HeadTrace::first_at_or_after(double t) const {
  return std::lower_bound(samples_.begin(), samples_.end(), t,
                          [](const HeadSample& s, double value) { return s.t < value; });
}

std::vector<HeadSample>::const_iterator HeadTrace::first_after(double t) const {
  return std::upper_bound(samples_.begin(), samples_.end(), t,
                          [](double value, const HeadSample& s) { return value < s.t; });
}

EquirectPoint HeadTrace::center_at(double t) const {
  if (t <= samples_.front().t) return samples_.front().center;
  if (t >= samples_.back().t) return samples_.back().center;
  const auto it = first_at_or_after(t);
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  const double frac = (t - lo.t) / (hi.t - lo.t);
  return lerp_center(lo.center, hi.center, frac);
}

geometry::Viewport HeadTrace::viewport_at(double t, util::Degrees fov) const {
  return geometry::Viewport(center_at(t), fov, fov);
}

EquirectPoint HeadTrace::mean_center(double t0, double t1) const {
  PS360_CHECK(t1 >= t0);
  // Circular mean on x via unit-vector averaging; plain mean on y.
  double sx = 0.0, sy = 0.0, y_sum = 0.0;
  std::size_t n = 0;
  for (auto it = first_at_or_after(t0); it != samples_.end() && it->t <= t1; ++it) {
    const HeadSample& s = *it;
    const double rad = geometry::to_radians(geometry::Degrees(s.center.x)).value();
    sx += std::cos(rad);
    sy += std::sin(rad);
    y_sum += s.center.y;
    ++n;
  }
  if (n == 0) return center_at((t0 + t1) / 2.0);
  double x;
  if (sx == 0.0 && sy == 0.0) {
    x = center_at((t0 + t1) / 2.0).x;  // degenerate: antipodal spread
  } else {
    x = geometry::wrap360(geometry::to_degrees(geometry::Radians(std::atan2(sy, sx))))
            .value();
  }
  return EquirectPoint{x, y_sum / static_cast<double>(n)};
}

void HeadTrace::build_step_table() {
  step_deg_.clear();
  if (samples_.size() < 2) return;
  step_deg_.reserve(samples_.size() - 1);
  geometry::Vec3 prev = samples_.front().center.orientation();
  for (std::size_t j = 1; j < samples_.size(); ++j) {
    const geometry::Vec3 cur = samples_[j].center.orientation();
    step_deg_.push_back(geometry::angular_distance(prev, cur).value());
    prev = cur;
  }
}

double HeadTrace::step_deg(std::size_t j) const {
  if (!step_deg_.empty()) return step_deg_[j];
  return geometry::angular_distance(samples_[j].center.orientation(),
                                    samples_[j + 1].center.orientation())
      .value();
}

double HeadTrace::switching_speed(double t0, double t1) const {
  PS360_CHECK(t1 > t0);
  // Great-circle path length over the window / elapsed time (Eq. 5 applied
  // per consecutive sample pair and aggregated). Samples strictly inside
  // (t0, t1) are [first, end); only the two end pieces are interpolated.
  const geometry::Vec3 from = center_at(t0).orientation();
  const geometry::Vec3 to = center_at(t1).orientation();
  const auto first = first_after(t0);
  const auto end = first_at_or_after(t1);
  double path_deg = 0.0;
  if (first == end) {
    path_deg += geometry::angular_distance(from, to).value();
    return path_deg / (t1 - t0);
  }
  const auto lo = static_cast<std::size_t>(first - samples_.begin());
  const auto hi = static_cast<std::size_t>(end - samples_.begin()) - 1;
  path_deg += geometry::angular_distance(from, samples_[lo].center.orientation()).value();
  for (std::size_t j = lo; j < hi; ++j) path_deg += step_deg(j);
  path_deg += geometry::angular_distance(samples_[hi].center.orientation(), to).value();
  return path_deg / (t1 - t0);
}

std::vector<double> HeadTrace::switching_speed_series() const {
  std::vector<double> speeds;
  if (samples_.size() < 2) return speeds;
  speeds.reserve(samples_.size() - 1);
  geometry::Vec3 prev = samples_.front().center.orientation();
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    const geometry::Vec3 cur = samples_[i].center.orientation();
    const double dt = samples_[i].t - samples_[i - 1].t;
    speeds.push_back(
        geometry::switching_speed_deg_per_s(prev, cur, geometry::Seconds(dt)));
    prev = cur;
  }
  return speeds;
}

void save_head_trace(const std::filesystem::path& path, const HeadTrace& trace) {
  util::CsvTable table;
  table.header = {"t", "x", "y"};
  table.rows.reserve(trace.samples().size());
  for (const auto& s : trace.samples())
    table.rows.push_back({s.t, s.center.x, s.center.y});
  util::write_csv_file(path, table);
}

HeadTrace load_head_trace(const std::filesystem::path& path, int video_id, int user_id) {
  const util::CsvTable table = util::read_csv_file(path, /*has_header=*/true);
  const std::size_t ct = table.column("t");
  const std::size_t cx = table.column("x");
  const std::size_t cy = table.column("y");
  std::vector<HeadSample> samples;
  samples.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    samples.push_back(
        HeadSample{row[ct], geometry::EquirectPoint::make(geometry::Degrees(row[cx]),
                                                          geometry::Degrees(row[cy]))});
  }
  return HeadTrace(video_id, user_id, std::move(samples));
}

}  // namespace ps360::trace
