// simulate_session: drives a StreamingClient against a NetworkTrace (plus
// optional fault schedule). Deterministic: downloads integrate the trace,
// faults come from a seeded schedule, and no step reads a real clock.
#include "sim/session.h"

#include <algorithm>
#include <optional>

#include "sim/accounting.h"
#include "sim/client.h"

#include "util/check.h"
#include "util/rng.h"

namespace ps360::sim {

namespace {

// Drive one segment to completion against a faulty network: bounded retries
// with outage/loss/timeout verdicts from the schedule, degradation when the
// client says so, and a guaranteed-delivery final attempt (waits out any
// outage, immune to loss and the deadline) so the loop always terminates.
struct FaultedDownload {
  double download_s = 0.0;  // the successful transfer's duration
  double radio_s = 0.0;     // radio-on seconds incl. failed attempts
};

FaultedDownload download_with_faults(StreamingClient& client,
                                     const trace::NetworkTrace& network,
                                     trace::FaultSchedule& schedule,
                                     ClientRequest& request) {
  const RecoveryConfig& rc = client.recovery();
  FaultedDownload out;
  for (;;) {
    const double t = client.wall_time_s();
    const std::size_t attempt = client.attempts() + 1;
    if (attempt >= rc.max_attempts) {
      // Final attempt: wait out any outage at issue time, then download with
      // outage pauses folded into the transfer — never lost, no deadline.
      double wait_s = 0.0;
      if (const auto w = schedule.outage_at(t)) wait_s = w->end - t;
      const double start = t + wait_s;
      const double busy =
          network.time_to_download(request.plan.option.bytes, start);
      out.download_s =
          wait_s + busy +
          schedule.outage_overlap(start, util::Seconds(busy));
      out.radio_s += out.download_s;
      return out;
    }

    // Non-final attempts can fail three ways, checked in causal order:
    // blacked out at issue, lost in flight, or too slow for the deadline.
    double elapsed = 0.0;
    FailureReason reason = FailureReason::kTimeout;
    if (const auto w = schedule.outage_at(t)) {
      elapsed = std::min(w->end - t, rc.timeout_s);
      reason = FailureReason::kOutage;
    } else {
      const trace::AttemptFault fault =
          schedule.attempt_fault(request.segment, attempt);
      if (fault.lost) {
        elapsed = rc.timeout_s;
        reason = FailureReason::kLost;
      } else {
        const double busy =
            network.time_to_download(request.plan.option.bytes, t) +
            fault.spike_s;
        const double download_s =
            busy + schedule.outage_overlap(t, util::Seconds(busy));
        if (download_s <= rc.timeout_s) {
          out.download_s = download_s;
          out.radio_s += download_s;
          return out;
        }
        elapsed = rc.timeout_s;
        reason = FailureReason::kTimeout;
      }
    }
    out.radio_s += elapsed;
    const FailureAction action =
        client.report_download_failure(util::Seconds(elapsed), reason);
    if (action.degrade) request = client.replan_degraded();
  }
}

// One session against `network`, reading segment sizes from `manifest`.
SessionResult run_session(const VideoWorkload& workload, std::size_t test_user,
                          SchemeKind scheme_kind, const trace::NetworkTrace& network,
                          const SessionConfig& config, obs::Observer* observer,
                          const EncodingManifest& manifest) {
  PS360_CHECK(test_user < workload.test_user_count());

  // The accountant owns the per-session models and the delivered-QoE/energy
  // bookkeeping (shared with the fleet engine); this function supplies the
  // network: each planned download takes whatever the throughput trace says.
  SessionAccountant accountant(workload, test_user, scheme_kind, config, manifest);
  const trace::HeadTrace& head = workload.test_trace(test_user);
  StreamingClient client(accountant.client_config(), workload,
                         accountant.scheme(), head);
  if (observer != nullptr) {
    accountant.attach_observer(observer, /*session=*/0);
    client.attach_observer(observer, /*session=*/0);
  }
  // Session-private MPC plan cache: memoizes repeated horizons within this
  // session. Must outlive the client loop below.
  std::optional<core::PlanCache> plan_cache;
  if (config.plan_cache) {
    plan_cache.emplace(config.plan_cache_capacity);
    accountant.attach_plan_cache(&*plan_cache);
  }

  if (!config.faults.enabled) {
    while (auto request = client.plan_next()) {
      const double download_s =
          network.time_to_download(request->plan.option.bytes, client.wall_time_s());
      PS360_ASSERT(download_s > 0.0);
      const double stall =
          client.complete_download(util::Seconds(download_s));
      accountant.record(*request, util::Seconds(download_s),
                        util::Seconds(stall));
    }
    return accountant.finish();
  }

  // Faulted path: same loop, but each segment runs the bounded retry /
  // backoff / degradation state machine. Energy accounting sees radio-on
  // seconds (failed attempts included, backoff excluded — the radio idles
  // while the client waits to retry).
  trace::FaultSchedule schedule(
      config.faults,
      util::derive_seed(config.seed, trace::kFaultSeedStream, 0));
  while (auto request = client.plan_next()) {
    const FaultedDownload d =
        download_with_faults(client, network, schedule, *request);
    PS360_ASSERT(d.download_s > 0.0);
    const double stall = client.complete_download(util::Seconds(d.download_s));
    accountant.record(*request, util::Seconds(d.radio_s),
                      util::Seconds(stall));
  }
  return accountant.finish();
}

}  // namespace

SessionResult simulate_session(const VideoWorkload& workload, std::size_t test_user,
                               SchemeKind scheme_kind,
                               const trace::NetworkTrace& network,
                               const SessionConfig& config) {
  return simulate_session(workload, test_user, scheme_kind, network, config,
                          /*observer=*/nullptr);
}

SessionResult simulate_session(const VideoWorkload& workload, std::size_t test_user,
                               SchemeKind scheme_kind,
                               const trace::NetworkTrace& network,
                               const SessionConfig& config, obs::Observer* observer) {
  return run_session(workload, test_user, scheme_kind, network, config, observer,
                     session_manifest(workload, config, scheme_kind));
}

SessionResult simulate_all_test_users(const VideoWorkload& workload,
                                      SchemeKind scheme,
                                      const trace::NetworkTrace& network,
                                      const SessionConfig& config) {
  const std::size_t users = workload.test_user_count();
  PS360_CHECK(users > 0);
  SessionResult mean;
  mean.scheme = scheme;
  // One manifest for every user: same workload, encoding and scheme.
  const EncodingManifest manifest = session_manifest(workload, config, scheme);
  for (std::size_t u = 0; u < users; ++u) {
    const SessionResult r =
        run_session(workload, u, scheme, network, config, nullptr, manifest);
    mean.energy += r.energy;
    mean.total_stall_s += r.total_stall_s;
    mean.rebuffer_events += r.rebuffer_events;
    mean.mean_quality += r.mean_quality;
    mean.mean_fps += r.mean_fps;
    mean.mean_coverage += r.mean_coverage;
    mean.ptile_usage += r.ptile_usage;
    mean.total_bytes += r.total_bytes;
    mean.qoe.mean_qo += r.qoe.mean_qo;
    mean.qoe.mean_variation += r.qoe.mean_variation;
    mean.qoe.mean_rebuffer += r.qoe.mean_rebuffer;
    mean.qoe.mean_q += r.qoe.mean_q;
    mean.qoe.segments += r.qoe.segments;
  }
  const double n = static_cast<double>(users);
  mean.energy.transmit_mj /= n;
  mean.energy.decode_mj /= n;
  mean.energy.render_mj /= n;
  mean.total_stall_s /= n;
  mean.mean_quality /= n;
  mean.mean_fps /= n;
  mean.mean_coverage /= n;
  mean.ptile_usage /= n;
  mean.total_bytes /= n;
  mean.qoe.mean_qo /= n;
  mean.qoe.mean_variation /= n;
  mean.qoe.mean_rebuffer /= n;
  mean.qoe.mean_q /= n;
  return mean;
}

}  // namespace ps360::sim
