// The three benchmark workloads, the untraced pass, and the output digest.
// README.md records why each workload exists and which layers it loads.
#include <bit>
#include <chrono>
#include <cmath>
#include <exception>

#include "bench.h"
#include "sim/tournament.h"
#include "trace/video_catalog.h"
#include "util/rng.h"

namespace pbench {

namespace {

using namespace ps360;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Seed stream tags: each input derives from (--seed, stream), so one seed
// fixes every input and distinct inputs stay decorrelated.
constexpr std::uint64_t kFleetLinkStream = 0xBE5C11;
constexpr std::uint64_t kZooFleetStream = 0xBE5C200;

// Test video 2 ("Showtime Boxing", 172 s); trimmed when `clip_s` > 0.
std::unique_ptr<sim::VideoWorkload> build_video(std::uint64_t seed, double clip_s,
                                                SetupTiming& timing) {
  trace::VideoInfo info = trace::test_videos()[1];
  if (clip_s > 0.0) info.duration_s = clip_s;
  sim::WorkloadConfig config;
  config.seed = seed;
  auto t0 = Clock::now();
  auto video = std::make_unique<sim::VideoWorkload>(info, config);
  timing.workload_s += seconds_since(t0);
  // Ftile layouts are built lazily on first use; force them here so their
  // k-means cost is set-up, not the first Ftile plan of the measured phase.
  t0 = Clock::now();
  (void)video->ftile(0);
  timing.ftile_s += seconds_since(t0);
  return video;
}

// fleet-1k: 1000 Ours sessions on a 20 s clip over one link provisioned
// x1000, with the server tier (Zipf catalog, LRU edge cache, origin) on.
Inputs build_fleet_1k(std::uint64_t seed, SetupTiming& timing) {
  constexpr std::size_t kSessions = 1000;
  Inputs in;
  in.video = build_video(seed, 20.0, timing);
  const auto t0 = Clock::now();
  trace::NetworkSynthConfig link;
  link.seed = util::derive_seed(seed, kFleetLinkStream, 0);
  link.duration_s = 300.0;
  in.networks.push_back(trace::synthesize_network_trace(link).scaled(
      static_cast<double>(kSessions)));
  timing.network_s += seconds_since(t0);

  CellSpec cell;
  cell.entry = CellSpec::Entry::kFleet;
  cell.network = &in.networks.front();
  cell.config.sessions = kSessions;
  cell.config.seed = seed;
  cell.config.scheme = SchemeKind::kOurs;
  cell.config.start_spread_s = 2.0;
  cell.config.shards = 1;
  cell.config.session.seed = seed;
  cell.config.server.enabled = true;
  cell.config.server.catalog = {/*videos=*/16, /*alpha=*/0.8};
  cell.config.server.cache_capacity = util::mebibytes(64.0);
  cell.config.server.policy = server::EvictionPolicy::kLru;
  cell.config.server.origin_mbps = 4.0 * static_cast<double>(kSessions);
  in.cells.push_back(cell);
  return in;
}

// paper-full: the Section V grid (5 paper schemes x paper traces 1, 2 x the
// 8 held-out users) through simulate_session on the full 172 s video 2.
Inputs build_paper_full(std::uint64_t seed, SetupTiming& timing) {
  Inputs in;
  in.video = build_video(seed, 0.0, timing);
  const auto t0 = Clock::now();
  auto paper = trace::make_paper_traces(seed, util::Seconds(700.0));
  in.networks.push_back(std::move(paper.first));
  in.networks.push_back(std::move(paper.second));
  timing.network_s += seconds_since(t0);

  for (const SchemeKind scheme : sim::all_schemes()) {
    for (const trace::NetworkTrace& network : in.networks) {
      for (std::size_t user = 0; user < in.video->test_user_count(); ++user) {
        CellSpec cell;
        cell.entry = CellSpec::Entry::kSession;
        cell.network = &network;
        cell.config.scheme = scheme;
        cell.config.session.seed = seed;
        cell.test_user = user;
        in.cells.push_back(cell);
      }
    }
  }
  return in;
}

// zoo: every registered scheme x paper traces 1, 2 x {clean, hostile} on
// 16-session fleets, one run_fleet per cell. Within a (trace, profile)
// group every scheme runs the same fleet seed, as in the tournament.
Inputs build_zoo(std::uint64_t seed, SetupTiming& timing) {
  constexpr std::size_t kSessions = 16;
  Inputs in;
  in.video = build_video(seed, 20.0, timing);
  const auto t0 = Clock::now();
  const auto paper = trace::make_paper_traces(seed, util::Seconds(300.0));
  in.networks.push_back(paper.first.scaled(static_cast<double>(kSessions)));
  in.networks.push_back(paper.second.scaled(static_cast<double>(kSessions)));
  timing.network_s += seconds_since(t0);

  const auto profiles = sim::default_fault_profiles();
  for (std::size_t ti = 0; ti < in.networks.size(); ++ti) {
    for (std::size_t fi = 0; fi < profiles.size(); ++fi) {
      const std::uint64_t fleet_seed =
          util::derive_seed(seed, kZooFleetStream, ti * 16 + fi);
      for (const SchemeKind scheme : sim::registered_schemes()) {
        CellSpec cell;
        cell.entry = CellSpec::Entry::kFleet;
        cell.network = &in.networks[ti];
        cell.clean = !profiles[fi].faults.enabled;
        cell.config.sessions = kSessions;
        cell.config.seed = fleet_seed;
        cell.config.scheme = scheme;
        cell.config.start_spread_s = 2.0;
        cell.config.shards = 1;
        cell.config.session.seed = seed;
        cell.config.session.faults = profiles[fi].faults;
        in.cells.push_back(cell);
      }
    }
  }
  return in;
}

void push_double(std::vector<std::uint64_t>& words, double v) {
  words.push_back(std::bit_cast<std::uint64_t>(v));
}

void push_energy(std::vector<std::uint64_t>& words, const power::SegmentEnergy& e) {
  push_double(words, e.transmit_mj);
  push_double(words, e.decode_mj);
  push_double(words, e.render_mj);
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"fleet-1k", &build_fleet_1k},
      {"paper-full", &build_paper_full},
      {"zoo", &build_zoo},
  };
  return defs;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& def : workloads())
    if (def.name == name) return &def;
  return nullptr;
}

CellResult run_cell(const Inputs& inputs, std::size_t c) {
  const CellSpec& spec = inputs.cells[c];
  CellResult cell;
  const auto t0 = Clock::now();
  try {
    if (spec.entry == CellSpec::Entry::kFleet) {
      fleet::FleetResult result =
          fleet::run_fleet(*inputs.video, *spec.network, spec.config);
      cell.wall_s = seconds_since(t0);
      cell.stats = result.stats;
      cell.sessions.reserve(result.sessions.size());
      for (fleet::FleetSessionResult& s : result.sessions)
        cell.sessions.push_back({s.test_user, std::move(s.result)});
    } else {
      sim::SessionResult result = sim::simulate_session(
          *inputs.video, spec.test_user, spec.config.scheme, *spec.network,
          spec.config.session);
      cell.wall_s = seconds_since(t0);
      cell.sessions.push_back({spec.test_user, std::move(result)});
    }
  } catch (const std::exception& e) {
    cell.wall_s = seconds_since(t0);
    cell.threw = true;
    cell.error = e.what();
    cell.sessions.clear();
  }
  return cell;
}

void add_cell(PassResult& pass, CellResult cell) {
  pass.wall_s += cell.wall_s;
  for (const SessionOut& s : cell.sessions) pass.segments += s.result.segments.size();
  pass.cells.push_back(std::move(cell));
}

PassResult run_pass(const Inputs& inputs) {
  PassResult pass;
  pass.cells.reserve(inputs.cells.size());
  for (std::size_t c = 0; c < inputs.cells.size(); ++c)
    add_cell(pass, run_cell(inputs, c));
  return pass;
}

std::vector<std::uint64_t> output_words(const sim::SessionResult& r) {
  std::vector<std::uint64_t> words;
  words.reserve(4 + r.segments.size() * 20 + 16);
  words.push_back(static_cast<std::uint64_t>(r.scheme));
  words.push_back(r.segments.size());
  for (const sim::SegmentRecord& s : r.segments) {
    words.push_back(s.index);
    words.push_back(static_cast<std::uint64_t>(s.quality));
    words.push_back(s.frame_index);
    push_double(words, s.fps);
    push_double(words, s.bytes);
    push_double(words, s.download_s);
    push_double(words, s.stall_s);
    push_double(words, s.buffer_before_s);
    push_double(words, s.coverage);
    words.push_back((s.used_ptile ? 1u : 0u) | (s.mpc_feasible ? 2u : 0u));
    push_double(words, s.qoe.qo);
    push_double(words, s.qoe.variation);
    push_double(words, s.qoe.rebuffer);
    push_double(words, s.qoe.q);
    push_energy(words, s.energy);
  }
  push_double(words, r.qoe.mean_qo);
  push_double(words, r.qoe.mean_variation);
  push_double(words, r.qoe.mean_rebuffer);
  push_double(words, r.qoe.mean_q);
  words.push_back(r.qoe.segments);
  push_energy(words, r.energy);
  push_double(words, r.total_stall_s);
  words.push_back(r.rebuffer_events);
  push_double(words, r.mean_quality);
  push_double(words, r.mean_fps);
  push_double(words, r.mean_coverage);
  push_double(words, r.ptile_usage);
  push_double(words, r.total_bytes);
  return words;
}

std::uint64_t digest(const sim::SessionResult& result) {
  // FNV-1a over the little-endian bytes of every output word.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t w : output_words(result)) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string sanity_error(const sim::SessionResult& r, std::size_t expected_segments) {
  if (r.segments.size() != expected_segments)
    return "segment count " + std::to_string(r.segments.size()) + " != " +
           std::to_string(expected_segments);
  for (std::size_t k = 0; k < r.segments.size(); ++k) {
    const sim::SegmentRecord& s = r.segments[k];
    if (s.index != k) return "segment " + std::to_string(k) + " out of order";
    if (!finite_positive(s.download_s) || !finite_positive(s.bytes) ||
        !finite_positive(s.energy.total_mj()) || !std::isfinite(s.qoe.q) ||
        !(s.stall_s >= 0.0))
      return "segment " + std::to_string(k) + " has a non-finite or negative output";
  }
  if (!finite_positive(r.energy.total_mj()) || !std::isfinite(r.qoe.mean_q))
    return "session energy or QoE is not finite";
  return {};
}

}  // namespace pbench
