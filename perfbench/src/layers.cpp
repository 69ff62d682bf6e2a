// Per-layer probes for the traced run: each calls one layer's public
// function on inputs shaped like the workload's, under a span charged to
// that layer, and records microseconds (or nanoseconds) per call.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "tolerance/consensus/minbft_cluster.hpp"
#include "tolerance/core/node_controller.hpp"
#include "tolerance/core/system_controller.hpp"
#include "tolerance/crypto/hmac.hpp"
#include "tolerance/crypto/sha256.hpp"
#include "tolerance/crypto/usig.hpp"
#include "tolerance/emulation/estimation.hpp"
#include "tolerance/emulation/testbed.hpp"
#include "tolerance/net/wire.hpp"
#include "tolerance/pomdp/belief.hpp"
#include "tolerance/solvers/cmdp_lp.hpp"
#include "tolerance/solvers/threshold_policy.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tolerance;

/// The client request the service workloads send, signed as a client would.
consensus::Request make_request(std::uint64_t serial) {
  consensus::Request r;
  r.client = 20000;
  r.request_id = serial;
  r.operation = "w:20000:" + std::to_string(serial);
  const crypto::Signer signer(r.client, std::string(32, 'k'));
  r.signature = signer.sign(r.payload());
  return r;
}

}  // namespace

void probe_crypto(Report& report, std::uint64_t parent) {
  Tracer& tracer = report.tracer;
  const std::string block64(64, 'a');
  const std::string block1k(1024, 'b');
  {
    Scope s(tracer, "sha256 64B", "crypto", parent);
    report.scalars["crypto.sha256_us_64B"] =
        us_per_call([&] { (void)crypto::Sha256::hash(block64); });
  }
  {
    Scope s(tracer, "sha256 1KiB", "crypto", parent);
    report.scalars["crypto.sha256_us_1KiB"] =
        us_per_call([&] { (void)crypto::Sha256::hash(block1k); });
  }
  {
    // A request-sized message under a 32-byte key: what a client signature
    // or a bundle authenticator costs.
    Scope s(tracer, "hmac", "crypto", parent);
    const std::string key(32, 'k');
    const std::string msg = make_request(1).payload();
    report.scalars["crypto.hmac_us"] =
        us_per_call([&] { (void)crypto::hmac_sha256(key, msg); });
  }
  {
    Scope s(tracer, "usig create", "crypto", parent);
    crypto::Usig usig(1, std::string(32, 'u'));
    const crypto::Digest d = crypto::Sha256::hash(block64);
    report.scalars["crypto.usig_us"] = us_per_call([&] { (void)usig.create(d); });
  }
}

void probe_codec(Report& report, std::uint64_t parent, int batch) {
  consensus::Prepare prepare;
  prepare.view = 0;
  prepare.seq = 42;
  for (int i = 0; i < std::max(batch, 1); ++i) {
    prepare.requests.push_back(make_request(static_cast<std::uint64_t>(i)));
  }
  crypto::Usig usig(0, std::string(32, 'u'));
  prepare.ui = usig.create(prepare.body_digest());
  consensus::Commit commit;
  commit.seq = 42;
  commit.replica = 1;
  commit.batch_digest = prepare.batch_digest();
  commit.leader_ui = prepare.ui;
  commit.ui = usig.create(commit.body_digest());
  consensus::Reply reply;
  reply.replica = 1;
  reply.client = 20000;
  reply.request_id = 7;
  reply.result = "ok:42";
  reply.signature = crypto::Signer(1, std::string(32, 'r')).sign(reply.payload());
  const std::vector<consensus::MinBftMsg> msgs{prepare, commit, reply};

  std::vector<net::wire::Bytes> frames;
  {
    Scope s(report.tracer, "encode", "net", parent);
    report.scalars["net.encode_us"] = us_per_call([&] {
      frames.clear();
      for (const auto& m : msgs) frames.push_back(net::MinBftCodec::encode(m));
    });
  }
  std::vector<std::optional<consensus::MinBftMsg>> decoded(frames.size());
  {
    Scope s(report.tracer, "decode", "net", parent);
    report.scalars["net.decode_us"] = us_per_call([&] {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        decoded[i] = net::MinBftCodec::decode(frames[i]);
      }
    });
  }
  // Re-encoding what was decoded must give back the same bytes: a codec
  // that drops or garbles a field fails here.
  bool round_trip = true;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    round_trip = round_trip && decoded[i].has_value() &&
                 net::MinBftCodec::encode(*decoded[i]) == frames[i];
  }
  report.scalars["net.codec_batch"] = std::max(batch, 1);
  report.check("codec round-trips Prepare, Commit and Reply byte for byte",
               round_trip);
}

void probe_belief(Report& report, std::uint64_t parent) {
  Scope s(report.tracer, "belief update", "pomdp", parent);
  const pomdp::NodeModel model(node_params());
  const auto obs = pomdp::BetaBinObservationModel::paper_default(10);
  const pomdp::BeliefUpdater updater(model, obs);
  double b = 0.1;
  int o = 0;
  report.scalars["pomdp.belief_update_ns"] = 1e3 * us_per_call([&] {
    b = updater.update(b, pomdp::NodeAction::Wait, o);
    o = (o + 3) % 10;
  });
}

void probe_control_layers(Report& report, std::uint64_t parent) {
  Tracer& tracer = report.tracer;
  const pomdp::NodeModel model(node_params());
  Rng rng(7);
  const emulation::FittedDetector detector =
      emulation::fit_pooled_detector(60, 11, 80.0, rng);
  {
    Scope s(tracer, "node controller step", "core", parent);
    core::NodeController node(model, detector,
                              solvers::ThresholdPolicy::constant(0.76));
    double alerts = 0.0;
    report.scalars["core.node_step_ns"] = 1e3 * us_per_call([&] {
      (void)node.step(alerts);
      alerts = alerts > 200.0 ? 0.0 : alerts + 17.0;
    });
  }
  {
    Scope s(tracer, "system controller step", "core", parent);
    const auto cmdp = pomdp::SystemCmdp::parametric(7, 1, 0.9, 0.9, 0.35);
    core::SystemLimits limits;
    limits.f = 1;
    limits.min_nodes = 3;
    core::SystemController system(solvers::solve_replication_lp(cmdp), 7, 11,
                                  limits);
    const std::vector<double> beliefs{0.05, 0.2, 0.9, 0.1, 0.4};
    const std::vector<bool> reported(beliefs.size(), true);
    report.scalars["core.system_step_us"] =
        us_per_call([&] { (void)system.step(beliefs, reported); });
  }
  {
    Scope s(tracer, "testbed step", "emulation", parent);
    emulation::TestbedConfig cfg;
    cfg.initial_nodes = 5;
    cfg.max_nodes = 7;
    emulation::Testbed testbed(cfg, 13);
    long steps = 0;
    report.scalars["emulation.testbed_step_us"] = us_per_call([&] {
      // A fresh testbed every episode-length, so the node set stays the
      // scenarios' size instead of drifting.
      if (++steps % 100 == 0) testbed = emulation::Testbed(cfg, 13 + steps);
      testbed.step();
    });
  }
}

void probe_sim_consensus(Report& report, std::uint64_t parent) {
  Scope s(report.tracer, "sim round", "consensus", parent);
  // The scenario harness's cluster: f=1, n=3, lossless links.
  consensus::MinBftConfig cfg;
  cfg.f = 1;
  cfg.checkpoint_period = 10;
  cfg.view_change_timeout = 8.0;
  cfg.request_retry_timeout = 4.0;
  net::LinkConfig link;
  link.loss = 0.0;
  consensus::MinBftCluster cluster(3, cfg, 17, link);
  consensus::MinBftClient& client = cluster.add_client();
  long serial = 0;
  bool ok = true;
  report.scalars["consensus.sim_round_us"] = us_per_call([&] {
    ok = cluster.submit_and_run(client, "probe:" + std::to_string(serial++))
             .has_value() && ok;
  });
  report.check("simulated rounds complete", ok);
}

}  // namespace perfbench
