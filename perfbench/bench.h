// Shared types of the pstream360 benchmark program (pbench360).
//
// A workload is a fixed list of entry-point calls ("cells"): one
// fleet::run_fleet or one sim::simulate_session each. Set-up builds the
// cells' inputs from the seed; a pass runs every cell once through the
// library's public entry points; the traced pass re-runs each clean
// session's client loop with the download times the pass recorded, timing
// each layer from outside.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/engine.h"
#include "sim/session.h"
#include "sim/workload.h"
#include "trace/network_trace.h"

namespace pbench {

using ps360::sim::SchemeKind;

// The seed whose per-session output digests are pinned in reference.txt.
inline constexpr std::uint64_t kReferenceSeed = 42;

// One entry-point call. `config` carries the scheme and the session
// template for both entry points; a kSession cell uses only those two and
// `test_user`.
struct CellSpec {
  enum class Entry { kFleet, kSession };
  Entry entry = Entry::kFleet;
  const ps360::trace::NetworkTrace* network = nullptr;
  ps360::fleet::FleetConfig config;
  std::size_t test_user = 0;  // kSession
  bool clean = true;          // no fault injection: replayable
  std::size_t sessions() const {
    return entry == Entry::kFleet ? config.sessions : 1;
  }
};

// Everything set-up builds from the seed. `networks` is the stable storage
// the cells point into.
struct Inputs {
  std::unique_ptr<ps360::sim::VideoWorkload> video;
  std::vector<ps360::trace::NetworkTrace> networks;
  std::vector<CellSpec> cells;
};

struct SetupTiming {
  double workload_s = 0.0;  // VideoWorkload: head synthesis + Ptiles
  double ftile_s = 0.0;     // forcing the lazy Ftile layouts
  double network_s = 0.0;   // network-trace synthesis
  double total_s() const { return workload_s + ftile_s + network_s; }
};

// One workload: its name, and how to build its inputs from a seed.
struct WorkloadDef {
  std::string name;
  Inputs (*build)(std::uint64_t seed, SetupTiming& timing);
};

const WorkloadDef* find_workload(const std::string& name);
const std::vector<WorkloadDef>& workloads();

struct SessionOut {
  std::size_t test_user = 0;
  ps360::sim::SessionResult result;
};

struct CellResult {
  double wall_s = 0.0;
  bool threw = false;
  std::string error;
  std::vector<SessionOut> sessions;
  ps360::fleet::FleetStats stats;  // zero for kSession cells
};

// One pass over every cell of a workload (untraced).
struct PassResult {
  std::vector<CellResult> cells;
  double wall_s = 0.0;          // Σ cell walls (the entry-point calls only)
  std::size_t segments = 0;     // simulated segments completed
};

// Runs cell `c` through its entry-point call, timing only that call.
CellResult run_cell(const Inputs& inputs, std::size_t c);
PassResult run_pass(const Inputs& inputs);
void add_cell(PassResult& pass, CellResult cell);

// The deterministic outputs of one session flattened to 64-bit words: every
// SegmentRecord field and the session's energy and QoE aggregates. Equality
// of these vectors is bit-identity of the outputs.
std::vector<std::uint64_t> output_words(const ps360::sim::SessionResult& result);
std::uint64_t digest(const ps360::sim::SessionResult& result);

// Sanity check of one session's outputs (sizes, finiteness, positivity).
// Returns an empty string when the outputs are well formed.
std::string sanity_error(const ps360::sim::SessionResult& result,
                         std::size_t expected_segments);

// Host time per layer, accumulated by the traced replay.
struct LayerClock {
  double begin_plan_s = 0.0;       // StreamingClient::begin_plan
  double finish_plan_s = 0.0;      // StreamingClient::finish_plan (incl. plan)
  double plan_s = 0.0;             // Scheme::plan (inside finish_plan)
  double complete_s = 0.0;         // StreamingClient::complete_download
  double record_s = 0.0;           // SessionAccountant::record
  double session_setup_s = 0.0;    // accountant + client construction, finish
  std::map<SchemeKind, double> plan_s_by_scheme;
  std::map<SchemeKind, std::uint64_t> plans_by_scheme;
  std::vector<double> decision_s;  // per finish_plan call
  std::size_t segments = 0;
  std::size_t sessions = 0;
};

struct ReplayResult {
  LayerClock clock;
  double replay_wall_s = 0.0;  // wall of the replayed loops (checks excluded)
  double call_wall_s = 0.0;    // Σ wall of the replayed cells' entry-point calls
  // Per session of the pass (cells in order, sessions in order): why the
  // replay failed it (it threw, or did not reproduce the call's outputs),
  // or empty.
  std::vector<std::string> errors;
};

// Replays every session of cell `c` (just run as `cell`) into `out`; cells
// with fault injection or a throw only extend `errors`. With
// `perturb_download`, one replayed download time of the cell's first session
// is nudged by one ulp, which the check must report.
void replay_cell(const Inputs& inputs, std::size_t c, const CellResult& cell,
                 bool perturb_download, ReplayResult& out);

// Layer microbenchmarks through public functions: name -> value.
std::map<std::string, double> run_microbenchmarks(std::uint64_t seed);

}  // namespace pbench
