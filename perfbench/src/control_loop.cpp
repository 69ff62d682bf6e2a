// control-loop: the paper's closed loop on the deterministic lane.
// ScenarioRunner::run episodes over a fixed list of (scenario, seed) pairs,
// repeated in whole passes while the run lasts.  Episodes are heavy-tailed
// across seeds, so the list is fixed; --seed only shuffles the order of each
// pass.  One serial loop runs on each of the --threads workers: on a shared
// host the speed of a single vCPU drifts by a third over seconds, and the
// median over loops on every vCPU does not.
#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "tolerance/crypto/sha256.hpp"
#include "tolerance/emulation/scenario_runner.hpp"
#include "tolerance/emulation/scenarios.hpp"
#include "tolerance/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tolerance;

struct Episode {
  const char* scenario;
  std::uint64_t seed;
};

/// Intrusion recovery, crash eviction and addition, the asynchronous
/// controller, and one flood through the admission path.
constexpr Episode kEpisodes[] = {
    {"aggressive-attacker", 6},
    {"silent-saboteurs", 4},
    {"crash-wave", 4},
    {"controller-slow-solve-churn", 1},
    {"retry-storm", 1},
};
constexpr std::uint64_t kTrainingSeed = 42;
constexpr int kSetupRepeats = 15;

emulation::ScenarioRunner make_runner(const Episode& e) {
  return emulation::make_scenario_runner(emulation::find_scenario(e.scenario),
                                         kTrainingSeed);
}

/// The control-quality outcomes of one episode (deterministic).
void record_outcomes(Report& report, const std::string& name, int horizon,
                     const emulation::ScenarioResult& r) {
  auto& sc = report.scalars;
  sc["horizon." + name] = horizon;
  sc["availability." + name] = r.availability;
  sc["service_availability." + name] = r.service_availability;
  sc["time_to_recovery." + name] = r.time_to_recovery;
  sc["avg_nodes." + name] = r.avg_nodes;
  sc["quorum_stalls." + name] = r.quorum_stalls;
  sc["hold_cycles." + name] = static_cast<double>(r.controller_hold_cycles);
  sc["fallback_cycles." + name] =
      static_cast<double>(r.controller_fallback_cycles);
  sc["final_view." + name] = static_cast<double>(r.final_view);
}

}  // namespace

void run_control_loop(const RunArgs& args, Report& report) {
  Tracer& tracer = report.tracer;
  const std::uint64_t root = tracer.begin(args.workload, "bench");
  const std::size_t count = std::size(kEpisodes);
  report.scalars["config.loops"] = args.threads;

  // Set-up: detector fit and replication LP for every listed scenario,
  // built on every worker at once; worker 0's runners carry the episodes.
  std::vector<std::vector<emulation::ScenarioRunner>> built(
      static_cast<std::size_t>(args.threads));
  report.samples["setup_s"] =
      time_concurrently(args.threads, kSetupRepeats, [&](int w) {
        Scope phase(tracer, "setup", "bench", root);
        auto& runners = built[static_cast<std::size_t>(w)];
        runners.clear();
        for (const Episode& e : kEpisodes) {
          Scope s(tracer, std::string("make_scenario_runner ") + e.scenario,
                  "emulation", phase.id());
          runners.push_back(make_runner(e));
        }
      });
  const std::vector<emulation::ScenarioRunner> runners = std::move(built[0]);

  struct Loop {
    std::vector<std::vector<emulation::ScenarioResult>> results;
    std::vector<std::vector<double>> wall;
    std::vector<std::size_t> order;
    Rng rng;
    int passes = 0;
  };
  std::vector<Loop> loops(static_cast<std::size_t>(args.threads));
  for (std::size_t w = 0; w < loops.size(); ++w) {
    loops[w].results.resize(count);
    loops[w].wall.resize(count);
    loops[w].order.resize(count);
    std::iota(loops[w].order.begin(), loops[w].order.end(), 0);
    loops[w].rng = Rng::stream(args.seed, w);
  }
  const double sha0 = static_cast<double>(crypto::Sha256::invocations());
  {
    Scope phase(tracer, "episodes", "bench", root);
    // A round is one pass over the list, so every pass runs the same work.
    run_rounds(args.threads, args.seconds, [&](int w, int) {
      Loop& loop = loops[static_cast<std::size_t>(w)];
      for (std::size_t i = count; i > 1; --i) {
        std::swap(loop.order[i - 1],
                  loop.order[static_cast<std::size_t>(
                      loop.rng.uniform_int(static_cast<int>(i)))]);
      }
      for (const std::size_t idx : loop.order) {
        const Episode& e = kEpisodes[idx];
        Scope s(tracer, std::string("episode ") + e.scenario, "emulation",
                phase.id());
        const auto t0 = Clock::now();
        loop.results[idx].push_back(runners[idx].run(e.seed));
        loop.wall[idx].push_back(seconds_between(t0, Clock::now()));
      }
      ++loop.passes;
    });
  }

  double cycles = 0.0, passes = 0.0;
  std::uint64_t runs = 0, diverged = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string name = kEpisodes[i].scenario;
    const int horizon = runners[i].scenario().horizon;
    const auto& first = loops.front().results[i].front();
    auto& wall = report.samples["episode_s." + name];
    for (const Loop& loop : loops) {
      for (const auto& r : loop.results[i]) {
        // Every re-run, in any loop, must reproduce the first.
        if (!emulation::identical(first, r)) ++diverged;
        ++runs;
        cycles += horizon;
      }
      wall.insert(wall.end(), loop.wall[i].begin(), loop.wall[i].end());
    }
    record_outcomes(report, name, horizon, first);
  }
  for (const Loop& loop : loops) passes += loop.passes;
  report.scalars["passes"] = passes;
  report.scalars["episodes.cycles"] = cycles;
  report.scalars["episodes.sha256"] =
      static_cast<double>(crypto::Sha256::invocations()) - sha0;
  report.attempted = runs;
  report.failed = diverged;
  report.check("re-run episodes are identical to the first run",
               runs > count && diverged == 0,
               std::to_string(diverged) + " of " + std::to_string(runs) +
                   " diverged");
  tracer.end(root);
}

}  // namespace perfbench
