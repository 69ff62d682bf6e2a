// service-lan / service-wan: MinBFT on the wall-clock lane
// (MinBftRuntimeCluster over net::AsyncRuntime), loaded in-process.
//
//  * open loop: kSessions sessions, each a pool of kOutstanding
//    MinBftClients on the runtime.  A MinBFT client keeps at most one
//    request outstanding (replicas cache only a client's latest reply, so an
//    older request whose replies were lost could never be answered), so a
//    session keeps many requests in flight through many clients.  Poisson
//    arrivals at a fixed offered rate (about half of capacity on the
//    reference box) queue at their session, which hands each to an idle
//    client; every submission runs on an event loop of the runtime, driven
//    by its timers, so the generator adds no threads.  A request is timed
//    from when it was due, so queueing behind a stall counts; one that never
//    completes is recorded as an infinite latency.
//  * closed loop: the library's own load loop,
//    MinBftRuntimeCluster::run_closed_loop, with kSessions * kOutstanding
//    clients of one request each.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tolerance/consensus/minbft_runtime.hpp"
#include "tolerance/crypto/sha256.hpp"
#include "tolerance/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tolerance;
using consensus::ClientId;
using consensus::MinBftClient;
using consensus::MinBftConfig;
using consensus::MinBftRuntimeCluster;

constexpr int kReplicas = 7;
constexpr int kSessions = 4;
constexpr int kOutstanding = 16;  ///< clients per session
/// Clusters built only to time set-up (every measured cluster is timed too).
constexpr int kExtraSetups = 2;
/// Share of --seconds given to the open loop; the closed loop gets the rest.
/// Each phase is split over kTrials fresh clusters: now and then an n=7 LAN
/// cluster loses a third of its capacity, and its tail latency doubles, for
/// the rest of its life.  The gated figures are medians over clusters (and
/// over windows of requests), which one such cluster does not move; the
/// plain and worst-cluster figures are per-layer metrics, so it stays seen.
constexpr double kOpenShare = 0.6;
constexpr int kTrials = 3;
constexpr ClientId kClientBase = 20000;  ///< + 100 * session + index
constexpr net::NodeId kSessionBase = 30000;
constexpr net::NodeId kProbeHost = 39999;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct ServiceSpec {
  net::NetworkProfile profile;
  bool fast_path = false;  ///< speculative execution + MAC flush window
  double rate = 0.0;       ///< open-loop offered load, req/s
  double limit = 0.0;      ///< latency limit, seconds
};

/// Fixed per workload; recorded in BENCHMARK.json and echoed in the report.
/// The latency limit leaves room for two client retransmissions (1 s
/// apart): a request the lossy links delay that way is late, not lost.
/// Both run the library-default protocol.  The WAN fast path is a
/// reference row instead: its p99 sits where the 100 ms speculative
/// fallback starts, and jumps between about 130 and 190 ms from run to run.
ServiceSpec spec_for(const std::string& workload) {
  if (workload == "service-wan") {
    return {net::NetworkProfile::wan(), false, 250.0, 2.5};
  }
  return {net::NetworkProfile::lan(), false, 3000.0, 2.5};
}

/// Protocol timeouts in wall seconds, as the wall-clock lane of
/// bench_fig10_minbft_throughput sets them; the fast path adds speculation
/// with a 100 ms fallback and a 0.5 ms MAC flush window.
MinBftConfig service_config(int n, bool fast_path) {
  MinBftConfig cfg;
  cfg.f = (n - 1) / 2;
  cfg.checkpoint_period = 100;
  cfg.log_watermark = 1000;
  cfg.view_change_timeout = 2.0;
  cfg.request_retry_timeout = 1.0;
  cfg.batch_timeout = 0.005;
  if (fast_path) {
    cfg.speculative = true;
    cfg.spec_fallback_timeout = 0.1;
    cfg.mac_flush_window = 0.0005;
  }
  return cfg;
}

struct RequestSpan {
  double start = 0.0;  ///< runtime clock: when the request was due
  double end = 0.0;
  std::uint64_t request = 0;
};

struct Session;

/// One MinBftClient with at most one request outstanding.  Everything but
/// the atomic is touched only on the client's own event loop until the
/// runtime is stopped.
struct Client {
  ClientId id = 0;
  Session* session = nullptr;
  std::unique_ptr<MinBftClient> client;
  std::size_t submitted = 0;  ///< ops submitted; the next op's serial
  /// Completed open-loop requests: (due, seconds from due).
  std::vector<std::pair<double, double>> open_latency;
  std::vector<RequestSpan> spans;
  std::atomic<std::uint64_t> completed{0};
};

/// A session: the open-loop arrival process and the queue of due requests
/// waiting for an idle client.  Its fields are touched only on the
/// session's own event loop (a host that receives no messages).
struct Session {
  net::NodeId id = 0;
  Rng arrivals;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Client*> idle;
  std::deque<double> backlog;   ///< due times not yet handed to a client
  std::vector<double> gen_late;  ///< timer fire minus due, seconds
  std::atomic<std::uint64_t> open_arrivals{0};
  std::atomic<std::uint64_t> open_completed{0};
};

/// Counters read at phase boundaries.
struct Snapshot {
  double sha256 = 0, frames = 0, macs = 0, bundled = 0, dropped = 0;
  double completed = 0;
};

class ServiceRun {
 public:
  ServiceRun(const ServiceSpec& spec, int replicas, std::uint64_t seed,
             int threads, bool record_spans)
      : spec_(spec), record_spans_(record_spans) {
    const MinBftConfig cfg = service_config(replicas, spec.fast_path);
    cluster_ = std::make_unique<MinBftRuntimeCluster>(replicas, cfg, seed,
                                                      spec.profile, threads);
    std::vector<consensus::ReplicaId> members;
    for (int i = 0; i < replicas; ++i) {
      members.push_back(static_cast<consensus::ReplicaId>(i));
    }
    for (int s = 0; s < kSessions; ++s) {
      auto session = std::make_unique<Session>();
      session->id = kSessionBase + static_cast<net::NodeId>(s);
      session->arrivals = Rng::stream(seed, session->id);
      runtime().register_host(session->id,
                              [](net::NodeId, const consensus::MinBftMsg&) {});
      for (int k = 0; k < kOutstanding; ++k) {
        auto c = std::make_unique<Client>();
        c->id = kClientBase + static_cast<ClientId>(100 * s + k);
        c->session = session.get();
        c->client = std::make_unique<MinBftClient>(
            c->id, cfg.f, members, runtime(), cluster_->registry(),
            seed ^ c->id, cfg.request_retry_timeout, cfg.spec_fallback_timeout);
        MinBftClient* raw = c->client.get();
        runtime().register_host(c->id, [raw](net::NodeId from,
                                             const consensus::MinBftMsg& m) {
          raw->on_message(from, m);
        });
        session->idle.push_back(c.get());
        session->clients.push_back(std::move(c));
      }
      sessions_.push_back(std::move(session));
    }
  }

  // The runtime must be quiescent before the clients it dispatches into
  // are destroyed.
  ~ServiceRun() { cluster_->stop(); }
  ServiceRun(const ServiceRun&) = delete;
  ServiceRun& operator=(const ServiceRun&) = delete;

  consensus::MinBftRuntime& runtime() { return cluster_->runtime(); }
  MinBftRuntimeCluster& cluster() { return *cluster_; }
  const std::vector<std::unique_ptr<Session>>& sessions() const {
    return sessions_;
  }

  /// One request through the idle cluster; blocks until it completes.
  void first_request() {
    Client* c = sessions_.front()->clients.front().get();
    std::atomic<bool> done{false};
    runtime().post(c->id, [c, &done]() {
      c->client->submit(next_op(c),
                        [&done](std::uint64_t, const std::string&, double) {
                          done.store(true);
                        });
    });
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Poisson arrivals at `rate` for `duration` seconds, then wait until
  /// every open-loop request completed or missed the latency limit.
  void open_loop(double rate, double duration) {
    open_.store(true);
    const double start = runtime().now();
    open_end_ = start + duration;
    per_session_rate_ = rate / static_cast<double>(sessions_.size());
    for (auto& s : sessions_) {
      Session* raw = s.get();
      runtime().post(raw->id, [this, raw, start]() {
        arm(raw, start + draw_gap(raw));
      });
    }
    sample_until(open_end_);
    const double drain_deadline = open_end_ + spec_.limit;
    while (runtime().now() < drain_deadline && !open_drained()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// The library's closed loop: kSessions * kOutstanding clients of its
  /// own, one request in flight each, for `duration` seconds.  Stops the
  /// runtime when it returns.
  consensus::RuntimeLoadStats closed_loop(double duration) {
    return cluster_->run_closed_loop(kSessions * kOutstanding, duration, 1);
  }

  /// Timer probes on an idle host: how late the runtime's timer thread runs
  /// under the load (traced runs only).
  void start_timer_probes() {
    runtime().register_host(kProbeHost,
                            [](net::NodeId, const consensus::MinBftMsg&) {});
    probe_timer(runtime().now() + kProbePeriod);
  }

  void stop() {
    open_.store(false);
    probes_on_.store(false);
    cluster_->stop();
  }

  Snapshot snapshot() {
    Snapshot s;
    s.sha256 = static_cast<double>(crypto::Sha256::invocations());
    s.frames = static_cast<double>(runtime().delivered_frames());
    s.macs = static_cast<double>(runtime().macs_computed());
    s.bundled = static_cast<double>(runtime().bundled_frames());
    s.dropped = static_cast<double>(runtime().dropped_messages());
    for (const auto& session : sessions_) {
      for (const auto& c : session->clients) {
        s.completed += static_cast<double>(c->completed.load());
      }
    }
    return s;
  }

  void sample_queues(bool on) { sample_queues_ = on; }
  const std::vector<double>& queue_depths() const { return queue_depths_; }
  const std::vector<double>& timer_late() const { return timer_late_; }

 private:
  static constexpr double kProbePeriod = 0.001;

  static std::string next_op(Client* c) {
    return "w:" + std::to_string(c->id) + ":" + std::to_string(c->submitted++);
  }

  double draw_gap(Session* s) {
    return -std::log(1.0 - s->arrivals.uniform()) / per_session_rate_;
  }

  // --- session loop ----------------------------------------------------------

  void arm(Session* s, double due) {
    if (due >= open_end_) return;
    const double delay = std::max(0.0, due - runtime().now());
    runtime().schedule(s->id, delay, [this, s, due]() { fire(s, due); });
  }

  void fire(Session* s, double due) {
    if (!open_.load()) return;
    s->gen_late.push_back(runtime().now() - due);
    s->open_arrivals.fetch_add(1);
    s->backlog.push_back(due);
    dispatch(s);
    arm(s, due + draw_gap(s));
  }

  void dispatch(Session* s) {
    while (!s->idle.empty() && !s->backlog.empty()) {
      Client* c = s->idle.back();
      s->idle.pop_back();
      const double due = s->backlog.front();
      s->backlog.pop_front();
      runtime().post(c->id, [this, c, due]() { submit(c, due); });
    }
  }

  // --- client loop -----------------------------------------------------------

  void submit(Client* c, double due) {
    c->client->submit(next_op(c), [this, c, due](std::uint64_t rid,
                                                 const std::string&, double) {
      const double now = runtime().now();
      c->completed.fetch_add(1);
      c->open_latency.emplace_back(due, now - due);
      if (record_spans_) {
        c->spans.push_back({due, now, c->id * 1000000ull + rid});
      }
      Session* s = c->session;
      s->open_completed.fetch_add(1);
      runtime().post(s->id, [this, s, c]() {
        s->idle.push_back(c);
        dispatch(s);
      });
    });
  }

  // --- main thread -----------------------------------------------------------

  bool open_drained() const {
    for (const auto& s : sessions_) {
      if (s->open_completed.load() < s->open_arrivals.load()) return false;
    }
    return true;
  }

  /// Sleep until `deadline` (runtime clock), sampling replica inbox depths
  /// every 2 ms when asked to.
  void sample_until(double deadline) {
    while (runtime().now() < deadline) {
      if (sample_queues_) {
        for (int id = 0; id < cluster_->replica_count(); ++id) {
          queue_depths_.push_back(static_cast<double>(
              runtime().queue_depth(static_cast<net::NodeId>(id))));
        }
      }
      const double left = deadline - runtime().now();
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::clamp(left, 0.0, 0.002)));
    }
  }

  void probe_timer(double due) {
    if (!probes_on_.load()) return;
    runtime().schedule(kProbeHost, std::max(0.0, due - runtime().now()),
                       [this, due]() {
                         timer_late_.push_back(runtime().now() - due);
                         probe_timer(due + kProbePeriod);
                       });
  }

  ServiceSpec spec_;
  bool record_spans_;
  std::unique_ptr<MinBftRuntimeCluster> cluster_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::atomic<bool> open_{false};  ///< arrivals still due
  double open_end_ = 0.0;
  double per_session_rate_ = 1.0;
  bool sample_queues_ = false;
  std::vector<double> queue_depths_;  ///< main thread only
  std::atomic<bool> probes_on_{true};
  std::vector<double> timer_late_;  ///< probe host's loop only
};

/// Committed-prefix agreement across replicas, and each client's operations
/// executed once and, when every client has one request outstanding, in
/// order: serials strictly increase per client (the invariant of
/// bench_fig10's validate_committed_logs).  A client with several requests
/// in flight may see them reordered on the way to the leader, so then only
/// "once" holds.  Ops of the clients in `submitted` (client -> ops
/// submitted) must also have been submitted.
std::string validate_logs(MinBftRuntimeCluster& cluster,
                          const std::map<std::uint64_t, std::size_t>& submitted,
                          bool one_outstanding = true) {
  std::vector<std::vector<std::string>> logs;
  for (int i = 0; i < cluster.replica_count(); ++i) {
    auto& r = cluster.replica(static_cast<consensus::ReplicaId>(i));
    const auto& full = r.service().log();
    const std::size_t committed = std::min(r.committed_log_size(), full.size());
    logs.emplace_back(full.begin(),
                      full.begin() + static_cast<std::ptrdiff_t>(committed));
  }
  for (std::size_t a = 0; a < logs.size(); ++a) {
    for (std::size_t b = a + 1; b < logs.size(); ++b) {
      const auto& shorter = logs[a].size() <= logs[b].size() ? logs[a] : logs[b];
      const auto& longer = logs[a].size() <= logs[b].size() ? logs[b] : logs[a];
      if (!std::equal(shorter.begin(), shorter.end(), longer.begin())) {
        return "committed logs of replicas " + std::to_string(a) + " and " +
               std::to_string(b) + " diverge";
      }
    }
  }
  for (std::size_t i = 0; i < logs.size(); ++i) {
    std::map<std::uint64_t, std::uint64_t> next_serial;
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (const std::string& op : logs[i]) {
      const std::string where = "replica " + std::to_string(i) + ": op " + op;
      std::uint64_t client = 0, serial = 0;
      if (std::sscanf(op.c_str(), "w:%lu:%lu", &client, &serial) != 2) {
        return where + " is malformed";
      }
      const auto sent = submitted.find(client);
      if (sent != submitted.end() && serial >= sent->second) {
        return where + " was never submitted";
      }
      if (!seen.emplace(client, serial).second) {
        return where + " executed twice";
      }
      const auto it = next_serial.find(client);
      if (one_outstanding && it != next_serial.end() && serial < it->second) {
        return where + " executed out of order";
      }
      next_serial[client] = serial + 1;
    }
  }
  return {};
}

/// Ops submitted by each of the run's own clients.
std::map<std::uint64_t, std::size_t> submitted_ops(const ServiceRun& run) {
  std::map<std::uint64_t, std::size_t> out;
  for (const auto& s : run.sessions()) {
    for (const auto& c : s->clients) out[c->id] = c->submitted;
  }
  return out;
}

/// One closed-loop run of the library's load loop on a fresh cluster shape:
/// kSessions clients with kOutstanding requests in flight each, the load
/// shape the workloads' clients cannot use (see the top of this file).
void reference_row(const std::string& prefix, const ServiceSpec& spec,
                   int replicas, std::uint64_t seed, int threads,
                   double seconds, Report& report, std::uint64_t parent) {
  Scope span(report.tracer, "reference " + prefix, "bench", parent);
  MinBftRuntimeCluster cluster(replicas,
                               service_config(replicas, spec.fast_path), seed,
                               spec.profile, threads);
  const consensus::RuntimeLoadStats st =
      cluster.run_closed_loop(kSessions, seconds, kOutstanding);
  auto& sc = report.scalars;
  sc[prefix + ".capacity_rps"] = st.throughput;
  sc[prefix + ".p50_ms"] = st.p50_latency * 1e3;
  sc[prefix + ".p99_ms"] = st.p99_latency * 1e3;
  sc[prefix + ".outstanding"] = kSessions * kOutstanding;
  sc[prefix + ".completed"] = static_cast<double>(st.completed);
  sc[prefix + ".spec_completed"] = static_cast<double>(st.completed_speculative);
  sc[prefix + ".spec_rollbacks"] = static_cast<double>(st.spec_rollbacks);
  sc[prefix + ".macs"] = static_cast<double>(st.macs_computed);
  sc[prefix + ".bundled_frames"] = static_cast<double>(st.bundled_frames);
  const std::string err = validate_logs(cluster, {}, false);
  report.check(prefix + " committed logs", err.empty(), err);
  report.check(prefix + " zero decode, handler and auth errors",
               st.decode_errors + st.handler_errors + st.auth_failures == 0);
}

}  // namespace

void run_service(const RunArgs& args, Report& report) {
  const ServiceSpec spec = spec_for(args.workload);
  Tracer& tracer = report.tracer;
  const std::uint64_t root = tracer.begin(args.workload, "bench");
  report.scalars["config.replicas"] = kReplicas;
  report.scalars["config.sessions"] = kSessions;
  report.scalars["config.outstanding"] = kOutstanding;
  report.scalars["config.rate_rps"] = spec.rate;
  report.scalars["config.limit_s"] = spec.limit;
  report.scalars["config.threads"] = args.threads;
  report.scalars["config.trials"] = kTrials;

  // Every cluster of the run is timed from construction, through key
  // registration, to its first completed request: that is set-up.
  unsigned built = 0;
  const auto build = [&]() {
    Scope span(tracer, "setup", "bench", root);
    const auto t0 = Clock::now();
    auto run = std::make_unique<ServiceRun>(spec, kReplicas, args.seed + built++,
                                            args.threads, tracer.enabled());
    run->first_request();
    report.samples["setup_s"].push_back(seconds_between(t0, Clock::now()));
    if (tracer.enabled()) {
      run->sample_queues(true);
      run->start_timer_probes();
    }
    return run;
  };
  for (int i = 0; i < kExtraSetups; ++i) build();

  // Stops a measured cluster, checks its outputs and adds its counters,
  // samples and request spans to the report.  `completed` counts the
  // requests of the phase.
  const auto finish = [&](ServiceRun& run, const Snapshot& before,
                          double completed, std::uint64_t span_id) {
    run.stop();
    const Snapshot after = run.snapshot();
    auto& sc = report.scalars;
    sc["ops"] += completed;
    sc["sha256"] += after.sha256 - before.sha256;
    sc["frames"] += after.frames - before.frames;
    sc["macs"] += after.macs - before.macs;
    sc["bundled_frames"] += after.bundled - before.bundled;
    sc["dropped"] += after.dropped - before.dropped;
    tracer.count(span_id, "sha256", after.sha256 - before.sha256);
    tracer.count(span_id, "frames", after.frames - before.frames);
    tracer.count(span_id, "macs", after.macs - before.macs);
    tracer.count(span_id, "completed", completed);
    auto& rt = run.runtime();
    sc["overflow_dropped"] += static_cast<double>(rt.overflow_dropped());
    sc["decode_errors"] += static_cast<double>(rt.decode_errors());
    sc["auth_failures"] += static_cast<double>(rt.auth_failures());
    sc["handler_errors"] += static_cast<double>(rt.handler_errors());
    for (int i = 0; i < run.cluster().replica_count(); ++i) {
      auto& r = run.cluster().replica(static_cast<consensus::ReplicaId>(i));
      sc["batches"] += static_cast<double>(r.batches_proposed());
      sc["requests_proposed"] += static_cast<double>(r.requests_proposed());
      sc["view_changes"] =
          std::max(sc["view_changes"], static_cast<double>(r.view()));
    }
    // Request spans were stamped on this runtime's clock.
    const double offset = tracer.now() - rt.now();
    for (const auto& session : run.sessions()) {
      for (const auto& c : session->clients) {
        for (const RequestSpan& r : c->spans) {
          tracer.add("request", "consensus", r.start + offset, r.end + offset,
                     span_id, r.request);
        }
      }
    }
    if (tracer.enabled()) {
      auto& depth = report.samples["queue_depth"];
      depth.insert(depth.end(), run.queue_depths().begin(),
                   run.queue_depths().end());
      for (double v : run.timer_late()) {
        report.samples["timer_late_us"].push_back(v * 1e6);
      }
    }
    const std::string err = validate_logs(run.cluster(), submitted_ops(run));
    report.check("committed logs agree; client ops once and in order",
                 err.empty(), err);
  };

  // Failures are counted over the open loop's requests: its offered load is
  // fixed, so every request it attempts is either served in time or not.
  std::uint64_t failed = 0, attempted = 0;
  const auto over_limit = [&](double seconds) {
    ++attempted;
    failed += seconds > spec.limit ? 1 : 0;
  };

  // --- open loop: fresh clusters, one short window each ----------------------
  const double open_seconds = args.seconds * kOpenShare;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto run = build();
    Scope span(tracer, "open", "bench", root);
    const Snapshot before = run->snapshot();
    run->open_loop(spec.rate, open_seconds / kTrials);
    finish(*run, before, run->snapshot().completed - before.completed,
           span.id());
    std::vector<std::pair<double, double>> open;  // (due, latency s)
    std::uint64_t never = 0;
    for (const auto& session : run->sessions()) {
      std::uint64_t completed = 0;
      for (const auto& c : session->clients) {
        completed += c->open_latency.size();
        open.insert(open.end(), c->open_latency.begin(), c->open_latency.end());
      }
      never += session->open_arrivals.load() - completed;
      for (double v : session->gen_late) {
        report.samples["gen_late_ms"].push_back(v * 1e3);
      }
    }
    // In the order the requests were due (windowed statistics need it);
    // requests that never completed go last.
    std::sort(open.begin(), open.end());
    auto& open_ms = report.samples["open_latency_ms." + std::to_string(trial)];
    for (const auto& [due, v] : open) {
      open_ms.push_back(v * 1e3);
      over_limit(v);
    }
    open_ms.insert(open_ms.end(), never, kInf);
    for (std::uint64_t i = 0; i < never; ++i) over_limit(kInf);
  }

  // --- closed loop: fresh clusters, the library's load loop on each ----------
  const double trial_seconds = (args.seconds - open_seconds) / kTrials;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto run = build();
    Scope span(tracer, "closed", "bench", root);
    const Snapshot before = run->snapshot();
    const consensus::RuntimeLoadStats st = run->closed_loop(trial_seconds);
    finish(*run, before, static_cast<double>(st.completed), span.id());
    report.samples["closed_rps"].push_back(st.throughput);
    report.scalars["closed.completed"] += static_cast<double>(st.completed);
    report.scalars["closed.window_s"] += st.elapsed_seconds;
  }
  report.attempted = attempted;
  report.failed = failed;
  const bool transport_clean = report.scalars["decode_errors"] == 0 &&
                               report.scalars["handler_errors"] == 0 &&
                               report.scalars["auth_failures"] == 0;
  report.check("zero decode, handler and auth errors", transport_clean);
  tracer.end(root);
}

void run_service_reference_rows(const RunArgs& args, Report& report) {
  const std::uint64_t root = report.tracer.begin("reference rows", "bench");
  constexpr double kSeconds = 3.0;
  const ServiceSpec own = spec_for(args.workload);
  if (args.workload == "service-lan") {
    // The single-node baseline: n=1, f=0, 64 requests outstanding.
    reference_row("ref.n1", own, 1, args.seed, args.threads, kSeconds, report,
                  root);
  }
  // The n=7 cell of this profile with the fast path on, so its cost (or
  // gain) stays visible.
  ServiceSpec fast = own;
  fast.fast_path = true;
  reference_row(args.workload == "service-lan" ? "ref.lan_fast" : "ref.wan_fast",
                fast, kReplicas, args.seed, args.threads, kSeconds, report,
                root);
  report.tracer.end(root);
}

}  // namespace perfbench
