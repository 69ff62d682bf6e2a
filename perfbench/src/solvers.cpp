// Strategy-computation probes for the control-loop's traced run: the two
// strategy computations of the paper at sizes the episodes never reach
// (their LPs are tiny).
//  * Algorithm 2: the replication LP at a Fig. 9 size, solved cold, then
//    re-solved warm from the cold basis after the kernel drifts (the control
//    loop's periodic re-estimate).
//  * Algorithm 1: CEM over the Monte-Carlo recovery objective at
//    DeltaR = 25 with a fixed evaluation budget.
#include <algorithm>
#include <cmath>
#include <string>

#include "tolerance/pomdp/node_model.hpp"
#include "tolerance/pomdp/observation_model.hpp"
#include "tolerance/solvers/cem.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"
#include "tolerance/solvers/objective.hpp"
#include "tolerance/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tolerance;

constexpr int kSmax = 512;
constexpr int kF = 3;
constexpr double kEpsilonA = 0.9;
constexpr double kQHealthy = 0.95;
constexpr double kQRecover = 0.3;
constexpr int kDeltaR = 25;
constexpr long kCemBudget = 300;
/// Cold + warm LP pairs, each after its own drift.
constexpr int kLpRounds = 3;

pomdp::SystemCmdp replication_cmdp(double q_healthy, double q_recover) {
  return pomdp::SystemCmdp::parametric(kSmax, kF, kEpsilonA, q_healthy,
                                       q_recover);
}

bool agree(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max(1.0, std::fabs(b));
}

}  // namespace

void probe_solvers(Report& report, std::uint64_t parent) {
  Tracer& tracer = report.tracer;
  auto& sc = report.scalars;
  sc["config.smax"] = kSmax;
  sc["config.delta_r"] = kDeltaR;
  sc["config.cem_budget"] = kCemBudget;
  const auto cmdp = replication_cmdp(kQHealthy, kQRecover);
  Rng drift_rng(7);
  bool valid = true, optima_agree = true;
  std::string detail;
  for (int round = 0; round < kLpRounds; ++round) {
    solvers::CmdpSolution cold, warm;
    {
      Scope s(tracer, "solve cold", "lp", parent);
      const auto t0 = Clock::now();
      cold = solvers::solve_replication_lp(cmdp);
      report.samples["solve_cold_s"].push_back(
          seconds_between(t0, Clock::now()));
    }
    const auto drifted =
        replication_cmdp(kQHealthy - 0.01 * drift_rng.uniform(),
                         kQRecover + 0.02 * drift_rng.uniform());
    {
      Scope s(tracer, "resolve warm", "lp", parent);
      const auto t0 = Clock::now();
      warm = solvers::solve_replication_lp(drifted, {}, &cold.basis);
      report.samples["resolve_warm_s"].push_back(
          seconds_between(t0, Clock::now()));
    }
    // Untimed: the warm optimum must be the drifted model's cold optimum.
    const auto check = solvers::solve_replication_lp(drifted);
    if (check.status != lp::LpStatus::Optimal ||
        !agree(warm.average_cost, check.average_cost)) {
      optima_agree = false;
      detail = std::to_string(warm.average_cost) + " vs " +
               std::to_string(check.average_cost);
    }
    for (const auto* sol : {&cold, &warm}) {
      valid = valid && sol->valid_policy() && sol->beta1 <= sol->beta2;
    }
    sc["lp.iterations_cold"] += static_cast<double>(cold.lp_iterations) /
                                kLpRounds;
    sc["lp.iterations_warm"] += static_cast<double>(warm.lp_iterations) /
                                kLpRounds;
    sc["lp.eta_nnz"] += static_cast<double>(cold.lp_eta_nnz) / kLpRounds;
  }
  report.check("warm and cold optima agree within 1e-6 relative",
               optima_agree, detail);
  report.check("valid policies with beta1 <= beta2", valid);

  const pomdp::NodeModel model(node_params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default(10);
  solvers::RecoveryObjective::Options options;
  options.episodes = 50;  // M, Table 8
  options.horizon = std::max(100, 4 * kDeltaR);
  options.seed = 1;
  options.threads = 1;
  const solvers::RecoveryObjective objective(model, obs, kDeltaR, options);
  Scope s(tracer, "cem", "solvers", parent);
  Rng rng(1);
  const auto t0 = Clock::now();
  const auto result = solvers::CrossEntropyMethod().optimize(
      objective, objective.dimension(), kCemBudget, rng);
  report.samples["node_solve_s"].push_back(seconds_between(t0, Clock::now()));
  sc["solvers.evaluations"] = static_cast<double>(result.evaluations);
  report.check("CEM returns a finite objective",
               std::isfinite(result.best_value));
}

}  // namespace perfbench
