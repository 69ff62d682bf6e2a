// The three workloads and the per-layer probes, each writing raw samples,
// counters and checks into a Report.  The fixed parameters (rates, cluster
// size, scenario list, solver sizes) are constants in the workload's source
// file and echoed into the report so every result carries them.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"
#include "tolerance/pomdp/node_model.hpp"

namespace perfbench {

/// The node parameters of Table 8 (p_A = 0.1).
inline tolerance::pomdp::NodeParams node_params() {
  tolerance::pomdp::NodeParams p;
  p.p_attack = 0.1;
  p.p_crash_healthy = 1e-5;
  p.p_crash_compromised = 1e-3;
  p.p_update = 2e-2;
  p.eta = 2.0;
  return p;
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// min(nproc, 4): the service cluster's pool, and the concurrent copies
  /// of single-threaded work.
  int threads = 4;
};

/// service-lan / service-wan: MinBFT on the wall-clock lane, an open-loop
/// phase at a fixed offered rate, then a closed-loop phase for capacity.
void run_service(const RunArgs& args, Report& report);

/// Traced service runs only, closed loop, as reference rows (not
/// workloads): the n=7 cell of the workload's profile with the fast path
/// on, and on service-lan the single-replica cluster.
void run_service_reference_rows(const RunArgs& args, Report& report);

/// control-loop: serial ScenarioRunner episodes over a fixed list.
void run_control_loop(const RunArgs& args, Report& report);

// --- per-layer probes (traced runs) ----------------------------------------
// Each times the layer's public function on inputs shaped like the
// workload's, under a span charged to that layer.

void probe_crypto(Report& report, std::uint64_t parent);
/// `batch` requests per Prepare: the batch size the workload produced.
void probe_codec(Report& report, std::uint64_t parent, int batch);
void probe_belief(Report& report, std::uint64_t parent);
/// Node and system controller steps, and one testbed step.
void probe_control_layers(Report& report, std::uint64_t parent);
void probe_sim_consensus(Report& report, std::uint64_t parent);
/// Algorithm 2 at a Fig. 9 size, cold and then warm after a kernel drift,
/// and Algorithm 1 (CEM), each timed over repeated serial solves.
void probe_solvers(Report& report, std::uint64_t parent);

}  // namespace perfbench
