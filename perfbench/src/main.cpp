// perfbench: runs one workload and writes its raw measurements as JSON.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out PATH
//
// --trace 0 runs the workload once, untraced.  --trace 1 runs it untraced,
// then again with spans and counters recorded, then the per-layer probes
// (and, on the service workloads, the reference rows); the two passes give
// the tracing overhead.  run.py is the front end that turns this into metrics.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

bool is_service(const std::string& w) {
  return w == "service-lan" || w == "service-wan";
}

void run_workload(const RunArgs& args, Report& report) {
  if (is_service(args.workload)) {
    run_service(args, report);
  } else {
    run_control_loop(args, report);
  }
}

void run_probes(const RunArgs& args, Report& report) {
  const std::uint64_t root = report.tracer.begin("layer probes", "bench");
  if (is_service(args.workload)) {
    const double batches = report.scalars["batches"];
    const int batch = batches > 0
        ? static_cast<int>(report.scalars["requests_proposed"] / batches + 0.5)
        : 1;
    probe_crypto(report, root);
    probe_codec(report, root, batch);
  } else {
    probe_belief(report, root);
    probe_control_layers(report, root);
    probe_sim_consensus(report, root);
    probe_solvers(report, root);
  }
  report.tracer.end(root);
  if (is_service(args.workload)) run_service_reference_rows(args, report);
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload service-lan|service-wan|"
               "control-loop --seed N --seconds S --trace 0|1 --out PATH\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string out_path;
  int trace = -1;
  args.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (key == "--out") {
      out_path = value;
    } else {
      return usage("unknown flag " + key);
    }
  }
  if (!is_service(args.workload) && args.workload != "control-loop") {
    return usage("unknown workload '" + args.workload + "'");
  }
  if (args.seconds <= 0.0 || (trace != 0 && trace != 1) || out_path.empty()) {
    return usage("bad --seconds, --trace or --out");
  }
#ifndef NDEBUG
  const bool asserts_on = true;
#else
  const bool asserts_on = false;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || asserts_on) {
    std::cerr << "perfbench: refusing to measure a non-Release build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }

  Report untraced(false);
  run_workload(args, untraced);
  Report traced(true);
  if (trace == 1) {
    run_workload(args, traced);
    run_probes(args, traced);
  }

  std::ofstream out(out_path);
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << args.seconds << ", \"threads\": " << args.threads
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"untraced\": ";
  untraced.write_json(out);
  out << ", \"traced\": ";
  if (trace == 1) {
    traced.write_json(out);
  } else {
    out << "null";
  }
  out << "}\n";
  out.close();
  if (!out) {
    std::cerr << "perfbench: could not write " << out_path << '\n';
    return 1;
  }
  return 0;
}
