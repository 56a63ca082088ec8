#include "predict/viewport_predictor.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/matrix.h"

namespace ps360::predict {

using geometry::EquirectPoint;

ViewportPredictor::ViewportPredictor(ViewportPredictorConfig config)
    : config_(config) {
  PS360_CHECK(config_.history_seconds > 0.0);
  PS360_CHECK(config_.poly_degree >= 1 && config_.poly_degree <= 4);
  PS360_CHECK(config_.lambda >= 0.0);
  PS360_CHECK(config_.max_horizon_s > 0.0);
}

EquirectPoint ViewportPredictor::predict(const trace::HeadTrace& trace, double now_t,
                                         double target_t) const {
  PS360_CHECK(target_t >= now_t);
  const double horizon = std::min(target_t - now_t, config_.max_horizon_s);
  const double t0 = now_t - config_.history_seconds;

  // Longitude is unwrapped as the window is walked, so a gaze crossing 360°
  // stays continuous. Both passes below replay the same walk.
  const auto unwrap = [](double x_acc, double x, double prev_x) {
    return x_acc + geometry::wrap_delta(geometry::Degrees(x), geometry::Degrees(prev_x))
                       .value();
  };

  // Pass 1 walks the window — the samples with t0 <= t <= now_t, from a
  // binary search for the first — and takes its means. Centre the time
  // basis at the window midpoint: over a symmetric window t and t^2 are
  // uncorrelated, so the ridge penalty shrinks real curvature instead of
  // tearing collinear coefficients apart (which would wreck the
  // extrapolation). The targets are centred for numerical conditioning.
  const std::vector<trace::HeadSample>& samples = trace.samples();
  const auto first = std::lower_bound(
      samples.begin(), samples.end(), t0,
      [](const trace::HeadSample& s, double value) { return s.t < value; });
  double t_mid = 0.0, x_mean = 0.0, y_mean = 0.0;
  double x_acc = first != samples.end() ? first->center.x : 0.0;
  auto last = first;
  for (; last != samples.end() && last->t <= now_t; ++last) {
    if (last != first) x_acc = unwrap(x_acc, last->center.x, (last - 1)->center.x);
    t_mid += last->t - now_t;  // in [-W, 0]
    x_mean += x_acc;
    y_mean += last->center.y;
  }
  const std::size_t n = static_cast<std::size_t>(last - first);
  if (n < config_.poly_degree + 1) {
    // Not enough history: hold the last known center.
    return trace.center_at(now_t);
  }
  const double count = static_cast<double>(n);
  t_mid /= count;
  x_mean /= count;
  y_mean /= count;

  // Pass 2: one design matrix (basis 1, t, t^2, ...) shared by both series,
  // accumulated straight into the normal equations.
  const std::size_t p = config_.poly_degree + 1;
  util::SmallRidge ridge(p);
  util::SmallRidge::Vec rhs_x{}, rhs_y{};
  x_acc = first->center.x;
  for (auto it = first; it != last; ++it) {
    if (it != first) x_acc = unwrap(x_acc, it->center.x, (it - 1)->center.x);
    util::SmallRidge::Vec row{};
    double pow_t = 1.0;
    for (std::size_t j = 0; j < p; ++j) {
      row[j] = pow_t;
      pow_t *= (it->t - now_t) - t_mid;
    }
    ridge.add_row(row);
    ridge.add_target(row, x_acc - x_mean, rhs_x);
    ridge.add_target(row, it->center.y - y_mean, rhs_y);
  }
  // The intercept column is unpenalised (shrinking it toward zero would drag
  // the whole prediction toward the origin); only the trend coefficients get
  // the ridge penalty.
  util::SmallRidge::Vec lambdas{};
  for (std::size_t j = 1; j < p; ++j) lambdas[j] = config_.lambda;
  ridge.factor(lambdas);

  const double eval_t = horizon - t_mid;
  const auto extrapolate = [&](double mean, const util::SmallRidge::Vec& rhs) {
    const util::SmallRidge::Vec w = ridge.solve(rhs);
    double value = mean;
    double pow_t = 1.0;
    for (std::size_t j = 0; j < p; ++j) {
      value += w[j] * pow_t;
      pow_t *= eval_t;
    }
    return value;
  };

  const double x_pred = extrapolate(x_mean, rhs_x);
  const double y_pred = std::clamp(extrapolate(y_mean, rhs_y), 0.0, 180.0);
  return EquirectPoint{geometry::wrap360(geometry::Degrees(x_pred)).value(), y_pred};
}

double ViewportPredictor::recent_switching_speed(const trace::HeadTrace& trace,
                                                 double now_t) const {
  const double t0 = std::max(now_t - config_.history_seconds, 0.0);
  if (now_t <= t0 + 1e-9) return 0.0;
  return trace.switching_speed(t0, now_t);
}

}  // namespace ps360::predict
