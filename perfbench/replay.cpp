// The traced pass: re-run each clean session's client loop outside the
// entry points, feeding back the download times the untraced pass recorded,
// and time every call into a public function on the way. Because the client and
// accountant are deterministic given those download times, the replay must
// reproduce the session's outputs bit for bit; that is the trace's own
// correctness check.
#include <chrono>
#include <cmath>

#include "bench.h"
#include "sim/accounting.h"
#include "sim/client.h"

namespace pbench {

namespace {

using namespace ps360;
using Clock = std::chrono::steady_clock;

double span_s(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Timing decorator around the accountant's scheme: the client plans through
// it, so Scheme::plan time is separable from the rest of finish_plan.
class TimedScheme final : public sim::Scheme {
 public:
  TimedScheme(const sim::Scheme& inner, LayerClock& clock)
      : sim::Scheme(inner.kind()), inner_(inner), clock_(&clock) {}

  // The replay attaches neither an observer nor a plan cache.
  void attach_observer(obs::Observer*, std::uint32_t) override {}
  void attach_plan_cache(core::PlanCache*) override {}

  sim::DownloadPlan plan(std::size_t k, const geometry::Viewport& predicted,
                         double predicted_sfov, util::BytesPerSec bandwidth,
                         util::Seconds buffer, double prev_qo) const override {
    const auto t0 = Clock::now();
    sim::DownloadPlan plan =
        inner_.plan(k, predicted, predicted_sfov, bandwidth, buffer, prev_qo);
    const double dt = span_s(t0, Clock::now());
    clock_->plan_s += dt;
    clock_->plan_s_by_scheme[kind()] += dt;
    ++clock_->plans_by_scheme[kind()];
    return plan;
  }

  double coverage(const sim::DownloadPlan& plan,
                  const geometry::Viewport& actual) const override {
    return inner_.coverage(plan, actual);
  }

 private:
  const sim::Scheme& inner_;
  LayerClock* clock_;
};

// Replay one session; returns its SessionResult.
sim::SessionResult replay_session(const sim::VideoWorkload& video,
                                  std::size_t test_user, SchemeKind scheme,
                                  const sim::SessionConfig& config,
                                  const sim::SessionResult& recorded,
                                  bool perturb_download, LayerClock& clock) {
  auto t0 = Clock::now();
  sim::SessionAccountant accountant(video, test_user, scheme, config);
  TimedScheme timed(accountant.scheme(), clock);
  sim::StreamingClient client(accountant.client_config(), video, timed,
                              video.test_trace(test_user));
  auto t1 = Clock::now();
  clock.session_setup_s += span_s(t0, t1);

  for (const sim::SegmentRecord& rec : recorded.segments) {
    if (client.finished()) break;  // the output check reports the shortfall
    double download_s = rec.download_s;
    if (perturb_download && rec.index == recorded.segments.size() / 2)
      download_s = std::nextafter(download_s, 2.0 * download_s);
    const auto a = Clock::now();
    (void)client.begin_plan();
    const auto b = Clock::now();
    const sim::ClientRequest request = client.finish_plan();
    const auto c = Clock::now();
    const double stall = client.complete_download(util::Seconds(download_s));
    const auto d = Clock::now();
    accountant.record(request, util::Seconds(download_s), util::Seconds(stall));
    const auto e = Clock::now();
    clock.begin_plan_s += span_s(a, b);
    clock.finish_plan_s += span_s(b, c);
    clock.decision_s.push_back(span_s(b, c));
    clock.complete_s += span_s(c, d);
    clock.record_s += span_s(d, e);
    ++clock.segments;
  }
  t0 = Clock::now();
  sim::SessionResult result = accountant.finish();
  clock.session_setup_s += span_s(t0, Clock::now());
  ++clock.sessions;
  return result;
}

}  // namespace

void replay_cell(const Inputs& inputs, std::size_t c, const CellResult& cell,
                 bool perturb_download, ReplayResult& out) {
  const CellSpec& spec = inputs.cells[c];
  if (!spec.clean || cell.threw) {
    out.errors.resize(out.errors.size() +
                      (cell.threw ? spec.sessions() : cell.sessions.size()));
    return;
  }
  out.call_wall_s += cell.wall_s;
  for (std::size_t j = 0; j < cell.sessions.size(); ++j) {
    const SessionOut& s = cell.sessions[j];
    const auto t0 = Clock::now();
    sim::SessionResult replayed;
    std::string error;
    try {
      // The fleet engine gives every clean session the template config
      // unchanged, as simulate_session does with its own.
      replayed = replay_session(*inputs.video, s.test_user, spec.config.scheme,
                                spec.config.session, s.result,
                                perturb_download && j == 0, out.clock);
    } catch (const std::exception& e) {
      error = std::string("traced replay threw: ") + e.what();
    }
    out.replay_wall_s += span_s(t0, Clock::now());
    if (error.empty() && output_words(replayed) != output_words(s.result))
      error = "traced replay did not reproduce the outputs";
    out.errors.push_back(std::move(error));
  }
}

}  // namespace pbench
