// pbench360: the pstream360 benchmark program.
//
//   pbench360 --workload <fleet-1k|paper-full|zoo> --seed <n> --seconds <s>
//             --trace <0|1> --reference <file> [--perturb <download|digest>]
//   pbench360 --record-reference <file>
//
// --trace 0 is the untraced pass: after one checked warm-up pass, it sets
// the inputs up again and runs a whole pass until --seconds of passes have
// been measured. It reports simulated segments per wall second of a pass
// whose every entry-point call takes its slow-decile time, and the
// slow-decile set-up time (kTimingPercentile). --trace 1 is the traced
// pass: each repetition sets up, runs a pass and replays its clean sessions
// with per-layer timers (replay.cpp); then the layer microbenchmarks run
// (micro.cpp).
//
// Every session is one operation. It fails if its entry-point call throws, its
// outputs are malformed, they differ from the same session in the first
// pass, they differ from reference.txt (at the reference seed), or its
// traced replay does not reproduce them bit for bit. Any failure makes the
// exit code nonzero. The last line of stdout is the JSON result.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "util/stats.h"

namespace pbench {
namespace {

using namespace ps360;
using Clock = std::chrono::steady_clock;

// The layer-sum check: the replayed layers plus fleet self time must equal
// the call wall to within this share of it.
constexpr double kLayerSumTolerance = 0.10;

// The end-to-end timings are this percentile of their samples in a run. On
// a shared host a call runs at a steady baseline speed or, while co-tenants
// leave the core's shared resources idle, faster by an amount that varies
// from moment to moment. The slow decile is the baseline, which repeats from
// run to run; the median and the fastest samples move with the co-tenants.
constexpr double kTimingPercentile = 90.0;

struct Options {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string record_reference;
  std::string perturb;  // "", "download" or "digest"
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "pbench360: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") o.workload = value;
      else if (arg == "--seed") o.seed = std::stoull(value);
      else if (arg == "--seconds") o.seconds = std::stod(value);
      else if (arg == "--trace") o.trace = std::stoi(value) != 0;
      else if (arg == "--reference") o.reference = value;
      else if (arg == "--record-reference") o.record_reference = value;
      else if (arg == "--perturb") o.perturb = value;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!o.record_reference.empty()) return o;
  if (find_workload(o.workload) == nullptr)
    usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.reference.empty()) usage("--reference is required");
  if (!o.perturb.empty() && o.perturb != "download" && o.perturb != "digest")
    usage("--perturb takes download or digest");
  if (o.perturb == "digest" && o.seed != kReferenceSeed)
    usage("--perturb digest needs the reference seed");
  if (o.perturb == "download" && !o.trace)
    usage("--perturb download perturbs the traced replay; add --trace 1");
  return o;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// reference.txt: "<workload> <session> <digest hex>" per line, sessions in
// pass order (cells in order, each cell's sessions in order).
std::map<std::string, std::vector<std::uint64_t>> load_reference(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::map<std::string, std::vector<std::uint64_t>> ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, hex;
    std::size_t index = 0;
    if (!(fields >> workload >> index >> hex))
      throw std::runtime_error("malformed reference line: " + line);
    auto& digests = ref[workload];
    if (index != digests.size())
      throw std::runtime_error("reference sessions out of order: " + line);
    digests.push_back(std::stoull(hex, nullptr, 16));
  }
  return ref;
}

// Output checks shared by every pass.
struct Checker {
  std::size_t expected_segments = 0;
  const std::vector<std::uint64_t>* reference = nullptr;  // at the reference seed
  std::vector<std::uint64_t> first;  // digests of the first pass
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }

  // Checks one pass; `replay_errors` are the traced replay's verdicts, so
  // no session counts twice.
  void check(const Inputs& inputs, const PassResult& pass,
             const std::vector<std::string>& replay_errors = {}) {
    std::size_t flat = 0;
    const bool first_pass = first.empty();
    for (std::size_t c = 0; c < pass.cells.size(); ++c) {
      const CellResult& cell = pass.cells[c];
      if (cell.threw) {
        const std::size_t n = inputs.cells[c].sessions();
        attempted += n;
        for (std::size_t j = 0; j < n; ++j)
          fail("cell " + std::to_string(c) + " threw: " + cell.error);
        if (first_pass) first.insert(first.end(), n, 0);
        flat += n;
        continue;
      }
      for (const SessionOut& s : cell.sessions) {
        ++attempted;
        std::string error = sanity_error(s.result, expected_segments);
        const std::uint64_t d = digest(s.result);
        if (first_pass) first.push_back(d);
        if (error.empty() && flat < first.size() && d != first[flat])
          error = "outputs differ from the first pass";
        if (error.empty() && reference != nullptr &&
            (flat >= reference->size() || (*reference)[flat] != d))
          error = "digest differs from the reference";
        if (error.empty() && flat < replay_errors.size()) error = replay_errors[flat];
        if (!error.empty())
          fail("cell " + std::to_string(c) + " session " + std::to_string(flat) + ": " +
               error);
        ++flat;
      }
    }
  }
};

struct FleetCounts {
  double events = 0, stale = 0, reallocations = 0, flow_aborts = 0;
  double cache_hits = 0, cache_misses = 0, origin_bytes = 0;
};

FleetCounts fleet_counts(const PassResult& pass) {
  FleetCounts f;
  for (const CellResult& cell : pass.cells) {
    f.events += static_cast<double>(cell.stats.events);
    f.stale += static_cast<double>(cell.stats.stale_completions);
    f.reallocations += static_cast<double>(cell.stats.reallocations);
    f.flow_aborts += static_cast<double>(cell.stats.flow_aborts);
    f.cache_hits += static_cast<double>(cell.stats.cache_hits);
    f.cache_misses += static_cast<double>(cell.stats.cache_misses);
    f.origin_bytes += cell.stats.origin_bytes.value();
  }
  return f;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The simulated outputs behind the digests, printed as evidence.
void print_outputs(const PassResult& pass) {
  double energy = 0, qoe = 0, stall = 0, playback = 0;
  std::size_t sessions = 0;
  for (const CellResult& cell : pass.cells) {
    for (const SessionOut& s : cell.sessions) {
      energy += s.result.energy.total_mj();
      qoe += s.result.qoe.mean_q;
      stall += s.result.total_stall_s;
      playback += static_cast<double>(s.result.segments.size());
      ++sessions;
    }
  }
  const FleetCounts f = fleet_counts(pass);
  const double n = static_cast<double>(std::max<std::size_t>(sessions, 1));
  std::printf("outputs: sessions=%zu energy_per_session_mj=%.6f mean_qoe=%.6f "
              "stall_ratio=%.6f cache_hit_rate=%.6f\n",
              sessions, energy / n, qoe / n, ratio(stall, stall + playback),
              ratio(f.cache_hits, f.cache_hits + f.cache_misses));
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// The timings of every set-up in a run. Set-up is repeated before every
// measured pass or traced repetition, so its samples span the whole run
// like the passes do. setup_s is their slow decile, the traced setup.*
// parts the median repetition.
struct SetupSamples {
  std::vector<double> total, workload, ftile, network;

  // Frees `inputs`, then builds them again from the seed and times it.
  void rebuild(const WorkloadDef& def, std::uint64_t seed, Inputs& inputs) {
    inputs = Inputs{};
    SetupTiming t;
    inputs = def.build(seed, t);
    total.push_back(t.total_s());
    workload.push_back(t.workload_s);
    ftile.push_back(t.ftile_s);
    network.push_back(t.network_s);
  }
};

// Per-layer figures of one traced repetition.
std::map<std::string, double> layer_metrics(const PassResult& pass,
                                            const ReplayResult& replay,
                                            bool& layer_sum_ok) {
  const LayerClock& c = replay.clock;
  const double seg = static_cast<double>(std::max<std::size_t>(c.segments, 1));
  const double us = 1e6 / seg;
  std::map<std::string, double> m;
  const double layers = c.begin_plan_s + c.finish_plan_s + c.complete_s + c.record_s +
                        c.session_setup_s;
  m["predict.us_per_segment"] = (c.finish_plan_s - c.plan_s) * us;
  m["sim.plan_us_per_segment"] = c.plan_s * us;
  for (const SchemeKind kind : sim::registered_schemes()) {
    const auto calls = c.plans_by_scheme.find(kind);
    const double n =
        calls == c.plans_by_scheme.end() ? 0.0 : static_cast<double>(calls->second);
    m["sim.plan_us." + sim::scheme_name(kind)] =
        n > 0.0 ? 1e6 * c.plan_s_by_scheme.at(kind) / n : 0.0;
  }
  m["sim.record_us_per_segment"] = c.record_s * us;
  m["sim.client_us_per_segment"] = (c.begin_plan_s + c.complete_s) * us;
  m["sim.session_setup_us_per_segment"] = c.session_setup_s * us;
  const bool decided = !c.decision_s.empty();
  m["sim.decision_p50_us"] = decided ? 1e6 * util::percentile(c.decision_s, 50.0) : 0.0;
  m["sim.decision_p99_us"] = decided ? 1e6 * util::percentile(c.decision_s, 99.0) : 0.0;
  // Everything the entry-point calls did beyond the replayed session-side work: the
  // event loop, SharedLink, server and engine bookkeeping (fleet cells) or
  // the network-trace integration (simulate_session cells).
  m["fleet.self_us_per_segment"] = (replay.call_wall_s - replay.replay_wall_s) * us;
  m["trace.call_us_per_segment"] = replay.call_wall_s * us;
  m["trace.unattributed_frac"] =
      ratio(replay.replay_wall_s - layers, replay.replay_wall_s);
  // Layer sum: layers + self == call wall exactly when the timed calls
  // cover the whole replay wall, so the check bounds what they miss.
  layer_sum_ok = c.segments > 0 && std::abs(replay.replay_wall_s - layers) <=
                                       kLayerSumTolerance * replay.call_wall_s;

  const FleetCounts f = fleet_counts(pass);
  const double all_segments = static_cast<double>(pass.segments);
  m["fleet.events_per_segment"] = ratio(f.events, all_segments);
  m["fleet.stale_completion_frac"] = ratio(f.stale, f.events);
  m["fleet.reallocations_per_segment"] = ratio(f.reallocations, all_segments);
  m["fleet.flow_aborts"] = f.flow_aborts;
  m["server.cache_hit_rate"] = ratio(f.cache_hits, f.cache_hits + f.cache_misses);
  m["server.origin_mib"] = f.origin_bytes / (1024.0 * 1024.0);
  return m;
}

// Unit of a per-layer metric, from its name's suffix.
std::string layer_unit(const std::string& name) {
  if (name == "fleet.flow_aborts" ||
      (name.rfind("fleet.", 0) == 0 && name.ends_with("_per_segment") &&
       name.find("_us_") == std::string::npos))
    return "count";
  if (name.ends_with("_ns") || name.ends_with("_ns_per_op")) return "ns";
  if (name.ends_with("_s")) return "s";
  if (name.ends_with("_mib")) return "MiB";
  if (name.ends_with("_frac") || name.ends_with("_rate")) return "ratio";
  return "us";
}

void print_layer_table(const std::map<std::string, double>& m) {
  const double call = m.at("trace.call_us_per_segment");
  const std::pair<const char*, double> rows[] = {
      {"predict (finish_plan - plan)", m.at("predict.us_per_segment")},
      {"sim.plan (Scheme::plan)", m.at("sim.plan_us_per_segment")},
      {"sim.record (accountant)", m.at("sim.record_us_per_segment")},
      {"sim.client (begin_plan, complete)", m.at("sim.client_us_per_segment")},
      {"sim.session_setup", m.at("sim.session_setup_us_per_segment")},
      {"fleet.self (call - replay)", m.at("fleet.self_us_per_segment")},
  };
  std::printf("layer table (median repetition, us per segment, share of call wall):\n");
  double sum = 0.0;
  for (const auto& [name, value] : rows) {
    std::printf("  %-36s %10.3f us %6.1f%%\n", name, value, 100.0 * ratio(value, call));
    sum += value;
  }
  std::printf("  %-36s %10.3f us %6.1f%%\n", "sum of layers", sum,
              100.0 * ratio(sum, call));
  std::printf("  %-36s %10.3f us\n", "call wall", call);
}

int run(const Options& opt) {
  const WorkloadDef& def = *find_workload(opt.workload);
  std::printf("machine: nproc=%u cpu=\"%s\"\n", std::thread::hardware_concurrency(),
              cpu_model().c_str());
  std::printf("workload: %s seed=%" PRIu64 " seconds=%g trace=%d\n", def.name.c_str(),
              opt.seed, opt.seconds, opt.trace ? 1 : 0);

  Checker checker;
  std::vector<std::uint64_t> reference;
  if (opt.seed == kReferenceSeed) {
    auto all = load_reference(opt.reference);
    if (all.count(def.name) == 0)
      throw std::runtime_error("reference has no digests for " + def.name);
    reference = std::move(all[def.name]);
    if (opt.perturb == "digest" && !reference.empty()) reference.front() ^= 1;
    checker.reference = &reference;
  }

  SetupSamples setup;
  Inputs inputs;
  setup.rebuild(def, opt.seed, inputs);
  checker.expected_segments = inputs.video->segment_count();

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const PassResult warm = run_pass(inputs);
    checker.check(inputs, warm);
    print_outputs(warm);
    // cell_walls[c]: the call wall of cell c on every measured pass.
    std::vector<std::vector<double>> cell_walls(inputs.cells.size());
    std::vector<double> rates;
    double measured = 0.0;
    std::size_t segments = 0;
    do {
      setup.rebuild(def, opt.seed, inputs);
      const PassResult pass = run_pass(inputs);
      checker.check(inputs, pass);
      for (std::size_t c = 0; c < pass.cells.size(); ++c)
        cell_walls[c].push_back(pass.cells[c].wall_s);
      rates.push_back(static_cast<double>(pass.segments) / pass.wall_s);
      measured += pass.wall_s;
      segments += pass.segments;
    } while (measured < opt.seconds);
    double baseline_pass_s = 0.0;
    for (const std::vector<double>& walls : cell_walls)
      baseline_pass_s += util::percentile(walls, kTimingPercentile);
    const double segments_per_pass =
        static_cast<double>(segments) / static_cast<double>(rates.size());
    std::printf("measured: passes=%zu segments=%zu wall_s=%.3f segments_per_pass=%zu "
                "pass_rate_min=%.1f pass_rate_median=%.1f pass_rate_max=%.1f "
                "setup_median_s=%.6f\n",
                rates.size(), segments, measured, warm.segments,
                *std::min_element(rates.begin(), rates.end()), util::median(rates),
                *std::max_element(rates.begin(), rates.end()), util::median(setup.total));
    metrics = {
        {"segments_per_s", segments_per_pass / baseline_pass_s, "1/s"},
        {"setup_s", util::percentile(setup.total, kTimingPercentile), "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
  } else {
    std::vector<std::map<std::string, double>> reps;
    std::size_t replayed = 0;
    bool layer_sum_ok = true;
    const auto t0 = Clock::now();
    do {
      setup.rebuild(def, opt.seed, inputs);
      // Each cell is replayed right after its entry-point call, so both see the
      // same machine conditions.
      PassResult pass;
      ReplayResult replay;
      for (std::size_t c = 0; c < inputs.cells.size(); ++c) {
        CellResult cell = run_cell(inputs, c);
        replay_cell(inputs, c, cell, opt.perturb == "download" && pass.cells.empty(),
                    replay);
        add_cell(pass, std::move(cell));
      }
      checker.check(inputs, pass, replay.errors);
      if (replayed == 0) print_outputs(pass);
      replayed += replay.clock.sessions;
      bool ok = false;
      reps.push_back(layer_metrics(pass, replay, ok));
      layer_sum_ok = layer_sum_ok && ok;
    } while (seconds_since(t0) < opt.seconds);
    // Report the repetition with the median call wall whole, so its layer
    // figures add up to its call wall.
    std::sort(reps.begin(), reps.end(), [](const auto& a, const auto& b) {
      return a.at("trace.call_us_per_segment") < b.at("trace.call_us_per_segment");
    });
    std::map<std::string, double> m = reps[(reps.size() - 1) / 2];
    m["setup.workload_s"] = util::median(setup.workload);
    m["setup.ftile_s"] = util::median(setup.ftile);
    m["setup.network_s"] = util::median(setup.network);
    for (const auto& [name, value] : run_microbenchmarks(opt.seed)) m[name] = value;
    std::printf("traced: repetitions=%zu replayed_sessions=%zu\n", reps.size(),
                replayed);
    print_layer_table(m);
    std::printf("layer-sum check (tolerance %.0f%% of call wall): %s\n",
                100.0 * kLayerSumTolerance, layer_sum_ok ? "PASS" : "FAIL");
    if (!layer_sum_ok) checker.fail("layer-sum check failed");
    for (const auto& [name, value] : m)
      metrics.push_back({name, value, layer_unit(name)});
  }

  for (const std::string& e : checker.errors) std::printf("FAILED: %s\n", e.c_str());
  std::printf("failed_ops=%zu ops=%zu\n", checker.failed, checker.attempted);
  const std::size_t failed = std::min(checker.failed, checker.attempted);
  print_result(failed == 0, checker.attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

// Runs one pass of every workload at the reference seed and writes the
// per-session digests.
int record_reference(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# Per-session output digests at seed " << kReferenceSeed
      << ": <workload> <session> <FNV-1a of output_words>.\n";
  for (const WorkloadDef& def : workloads()) {
    SetupTiming timing;
    const Inputs inputs = def.build(kReferenceSeed, timing);
    const PassResult pass = run_pass(inputs);
    std::size_t flat = 0;
    for (const CellResult& cell : pass.cells) {
      if (cell.threw) throw std::runtime_error(def.name + ": " + cell.error);
      for (const SessionOut& s : cell.sessions) {
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016" PRIx64, digest(s.result));
        out << def.name << ' ' << flat++ << ' ' << hex << '\n';
      }
    }
    std::printf("%s: %zu sessions\n", def.name.c_str(), flat);
  }
  return 0;
}

}  // namespace
}  // namespace pbench

int main(int argc, char** argv) {
  try {
    const pbench::Options opt = pbench::parse(argc, argv);
    if (!opt.record_reference.empty())
      return pbench::record_reference(opt.record_reference);
    return pbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbench360: %s\n", e.what());
    return 2;
  }
}
