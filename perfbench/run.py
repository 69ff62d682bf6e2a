#!/usr/bin/env python3
"""Repository benchmark front end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench binary (Release) from the enclosing source tree into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, checks its
outputs and prints every metric by name with its unit.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer metrics, from a separate traced pass whose spans are written to
<build>/traces/<workload>-seed<N>.json with each layer's self time.

The end-to-end metrics are shared by all workloads, each measuring that
workload's unit of work (see README.md).  The exit code is non-zero,
and no result line is printed, when the build fails, the build is not
Release, or the binary fails; a failed output check prints the result with
"correct": false and exits 1.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

# The workloads and their fixed inputs, as BENCHMARK.json records them.
WORKLOADS = {
    "service-lan": "MinBFT n=7 on the wall-clock lane, LAN profile, batching "
                   "on, no fast path; open loop at 3000 req/s from 4 sessions "
                   "x 16 clients, then the library's closed loop with 64 "
                   "clients, each phase on 3 fresh clusters",
    "service-wan": "the same cluster and protocol on the WAN profile; open "
                   "loop at 250 req/s",
    "control-loop": "ScenarioRunner episodes, one serial loop per thread: "
                    "aggressive-attacker/6, silent-saboteurs/4, crash-wave/4, "
                    "controller-slow-solve-churn/1, retry-storm/1; the traced "
                    "run adds the LP at smax=512 (cold, warm after drift) and "
                    "CEM at DeltaR=25 with 300 evaluations",
}
SCENARIOS = ["aggressive-attacker", "silent-saboteurs", "crash-wave",
             "controller-slow-solve-churn", "retry-storm"]

# --- arithmetic (unit-tested in test_run.py) ---------------------------------

MIN_BEYOND = 10
PERCENTILE_LADDER = (0.5, 0.9, 0.99, 0.999, 0.9999)
# Open-loop latencies are cut into windows of at least this many requests
# (in due order), so each window's p99 has MIN_BEYOND samples beyond it.
TAIL_WINDOW = 1000


def _rank(n, q):
    """1-based nearest rank of quantile q in n samples."""
    return max(1, math.ceil(q * n - 1e-9))


def beyond(n, q):
    """Samples strictly beyond the nearest-rank q-quantile of n samples."""
    return n - _rank(n, q)


def percentile(values, q):
    """Nearest-rank q-quantile; a missing value (None) sorts as +inf."""
    xs = sorted(math.inf if v is None else v for v in values)
    if not xs:
        raise ValueError("percentile of no samples")
    return xs[_rank(len(xs), q) - 1]


def tail_percentile(n, ladder=PERCENTILE_LADDER):
    """Highest quantile of the ladder with at least MIN_BEYOND samples
    beyond it, or None when even the median lacks them."""
    supported = [q for q in ladder if beyond(n, q) >= MIN_BEYOND]
    return max(supported) if supported else None


def windows(values, min_size):
    """Consecutive chunks of at least min_size values (one chunk when there
    are fewer); the last chunk takes the remainder."""
    k = max(1, len(values) // min_size)
    size = len(values) // k
    return [values[i * size:(i + 1) * size] for i in range(k - 1)] + [
        values[(k - 1) * size:]]


def windowed_percentile(values, q, min_size):
    """Median over consecutive windows of each window's q-quantile: one
    stall moves one window, not the figure."""
    return statistics.median(percentile(w, q) for w in windows(values, min_size))


def ratio(numerator, base):
    """numerator / base, 0 when the base is 0 (the layer did no work)."""
    return numerator / base if base else 0.0


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per-layer self time: each span's duration minus the part of it its
    child spans cover (overlapping children are counted once)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        own = (s["end"] - s["start"]) - covered(
            children.get(s["id"], []), s["start"], s["end"])
        out[s["layer"]] = out.get(s["layer"], 0.0) + own
    return out


# --- metrics -------------------------------------------------------------------


def median(xs):
    return statistics.median(xs)


def open_trials(raw):
    """Open-loop latencies (ms, in due order) of each measured cluster."""
    sm = raw["samples"]
    return [sm[f"open_latency_ms.{k}"]
            for k in range(int(raw["scalars"]["config.trials"]))]


def service_plain(raw):
    """The service figures no window or median over clusters smooths: a
    cluster that degrades for its life moves these."""
    sc, sm = raw["scalars"], raw["samples"]
    trials = open_trials(raw)
    lat = sum(trials, [])
    tail = tail_percentile(len(lat))
    return {
        "p99_ms": percentile(lat, 0.99),
        "tail_q": tail,
        "tail_ms": percentile(lat, tail) if tail else math.nan,
        "p99_worst_cluster_ms": max(percentile(t, 0.99) for t in trials),
        "capacity_rps": ratio(sc["closed.completed"], sc["closed.window_s"]),
        "capacity_worst_cluster_rps": min(sm["closed_rps"]),
    }


def end_to_end(workload, raw):
    """The shared end-to-end metrics of one untraced pass, and the problems
    that make the pass incorrect."""
    sc, sm = raw["scalars"], raw["samples"]
    problems = []
    m = {"setup_s": median(sm["setup_s"])}
    if workload.startswith("service-"):
        # In due order, clusters one after the other.
        lat = sum(open_trials(raw), [])
        if len(lat) < TAIL_WINDOW:
            problems.append(f"open loop p99 has fewer than {MIN_BEYOND} "
                            f"samples beyond it ({len(lat)} samples)")
        m["latency_ms"] = percentile(lat, 0.5)
        m["tail_latency_ms"] = windowed_percentile(lat, 0.99, TAIL_WINDOW)
        # The median cluster's capacity (see README.md).
        m["throughput_per_s"] = median(sm["closed_rps"])
        m["availability"] = 1.0 - ratio(raw["failed"], raw["attempted"])
        m["avg_nodes"] = sc["config.replicas"]
    else:
        episode_s = {s: median(sm["episode_s." + s]) for s in SCENARIOS}
        per_cycle_ms = [1e3 * episode_s[s] / sc["horizon." + s]
                        for s in SCENARIOS]
        m["latency_ms"] = median(per_cycle_ms)
        m["tail_latency_ms"] = max(per_cycle_ms)
        # One loop's cycles per second over a pass of median episodes.
        m["throughput_per_s"] = (sum(sc["horizon." + s] for s in SCENARIOS)
                                 / sum(episode_s.values()))
        m["availability"] = statistics.fmean(
            sc["availability." + s] for s in SCENARIOS)
        m["avg_nodes"] = statistics.fmean(sc["avg_nodes." + s] for s in SCENARIOS)
    if set(m) != set(E2E_UNITS):
        raise KeyError(f"end-to-end metrics differ from BENCHMARK.json: "
                       f"{sorted(set(m) ^ set(E2E_UNITS))}")
    for name, value in m.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite (requests never completed)")
    return m, problems


def workload_rows(workload, raw, e2e):
    """The workload's own named metrics, for the human-readable report."""
    sc, sm = raw["scalars"], raw["samples"]
    rows = [("setup_s", e2e["setup_s"], "s")]
    if workload.startswith("service-"):
        n = sum(len(t) for t in open_trials(raw))
        plain = service_plain(raw)
        tail = plain["tail_q"]
        rows += [
            ("req_p50_ms", e2e["latency_ms"], f"ms (n={n})"),
            ("req_p99_ms", plain["p99_ms"],
             f"ms ({beyond(n, 0.99)} samples beyond)"),
            ("req_p99_windowed_ms", e2e["tail_latency_ms"],
             f"ms (median p99 of {len(windows([0] * n, TAIL_WINDOW))} "
             f"windows)"),
            ("req_p99_worst_ms", plain["p99_worst_cluster_ms"],
             "ms (worst cluster)"),
            ("req_tail_ms", plain["tail_ms"],
             f"ms (p{100 * tail:g}, highest with >= {MIN_BEYOND} beyond)"
             if tail else "ms"),
            ("capacity_rps", plain["capacity_rps"], "req/s (all clusters)"),
            ("capacity_median_rps", e2e["throughput_per_s"],
             f"req/s (median of {len(sm['closed_rps'])} clusters)"),
            ("capacity_worst_rps", plain["capacity_worst_cluster_rps"],
             "req/s (worst cluster)"),
            ("failed_share", ratio(raw["failed"], raw["attempted"]),
             f"share of {raw['attempted']} attempted"),
            ("gen_late_p50_ms", percentile(sm["gen_late_ms"], 0.5), "ms"),
            ("gen_late_p99_ms", percentile(sm["gen_late_ms"], 0.99), "ms"),
        ]
    elif workload == "control-loop":
        rows += [
            ("cycles_per_s", e2e["throughput_per_s"], "cycles/s"),
            ("availability", e2e["availability"], "mean T(A)"),
            ("service_availability", statistics.fmean(
                sc["service_availability." + s] for s in SCENARIOS), "share"),
            ("time_to_recovery", statistics.fmean(
                sc["time_to_recovery." + s] for s in SCENARIOS), "mean T(R)"),
            ("avg_nodes", e2e["avg_nodes"], "nodes"),
            ("passes", sc["passes"],
             f"passes over the episode list by {sc['config.loops']:g} loops"),
        ]
    return rows


# Metric names and units come from BENCHMARK.json; the code below must
# produce exactly those names.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def per_layer(workload, untraced, traced):
    """Per-layer metrics of the traced pass.  A layer the workload does not
    exercise reports 0."""
    sc, sm = traced["scalars"], traced["samples"]
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    e2e_plain, _ = end_to_end(workload, untraced)
    e2e_traced, _ = end_to_end(workload, traced)
    m["bench.trace_overhead"] = ratio(e2e_plain["throughput_per_s"],
                                      e2e_traced["throughput_per_s"]) - 1.0
    for key in ("crypto.hmac_us", "crypto.usig_us", "crypto.sha256_us_64B",
                "crypto.sha256_us_1KiB", "net.encode_us", "net.decode_us",
                "consensus.sim_round_us", "pomdp.belief_update_ns",
                "core.node_step_ns", "core.system_step_us",
                "emulation.testbed_step_us", "lp.iterations_cold",
                "lp.iterations_warm", "lp.eta_nnz", "solvers.evaluations"):
        m[key] = sc.get(key, 0.0)
    if workload.startswith("service-"):
        ops = sc["ops"]
        capacity = e2e_traced["throughput_per_s"]
        m["bench.ops"] = ops
        m["bench.gen_late_p99_ms"] = percentile(sm["gen_late_ms"], 0.99)
        m["crypto.sha256_per_op"] = ratio(sc["sha256"], ops)
        # SHA-256 compressions' share of the pool's CPU time per request at
        # capacity, estimated from the 64-byte digest cost.
        cpu_us_per_op = ratio(sc["config.threads"] * 1e6, capacity)
        m["crypto.est_cpu_share"] = ratio(
            m["crypto.sha256_per_op"] * m["crypto.sha256_us_64B"], cpu_us_per_op)
        m["net.frames_per_op"] = ratio(sc["frames"], ops)
        m["net.macs_per_op"] = ratio(sc["macs"], ops)
        m["net.mac_amortisation"] = ratio(sc["bundled_frames"], sc["macs"])
        m["net.macs_computed"] = sc["macs"]
        m["net.dropped_per_kop"] = 1e3 * ratio(sc["dropped"], ops)
        m["net.queue_depth_p99"] = percentile(sm["queue_depth"], 0.99)
        m["net.timer_late_us_p50"] = percentile(sm["timer_late_us"], 0.5)
        m["net.timer_late_us_p99"] = percentile(sm["timer_late_us"], 0.99)
        for key in ("overflow_dropped", "decode_errors", "auth_failures",
                    "handler_errors"):
            m["net." + key] = sc[key]
        m["consensus.avg_batch"] = ratio(sc["requests_proposed"], sc["batches"])
        m["consensus.batches"] = sc["batches"]
        m["consensus.view_changes"] = sc["view_changes"]
        plain = service_plain(traced)
        for key in ("p99_ms", "tail_ms", "p99_worst_cluster_ms",
                    "capacity_rps", "capacity_worst_cluster_rps"):
            m["service." + key] = plain[key]
        for ref in ("n1", "lan_fast", "wan_fast"):
            if f"ref.{ref}.capacity_rps" not in sc:
                continue
            m[f"ref.{ref}_capacity_rps"] = sc[f"ref.{ref}.capacity_rps"]
            m[f"ref.{ref}_p50_ms"] = sc[f"ref.{ref}.p50_ms"]
            if ref != "n1":
                m[f"ref.{ref}_p99_ms"] = sc[f"ref.{ref}.p99_ms"]
                m[f"ref.{ref}_spec_share"] = ratio(
                    sc[f"ref.{ref}.spec_completed"], sc[f"ref.{ref}.completed"])
                m[f"ref.{ref}_spec_rollbacks"] = sc[f"ref.{ref}.spec_rollbacks"]
                m[f"ref.{ref}_mac_amortisation"] = ratio(
                    sc[f"ref.{ref}.bundled_frames"], sc[f"ref.{ref}.macs"])
        if "ref.n1.outstanding" in sc:
            m["ref.n1_littles_law_rps"] = ratio(sc["ref.n1.outstanding"] * 1e3,
                                                m["ref.n1_p50_ms"])
    else:
        m["crypto.sha256_per_cycle"] = ratio(sc["episodes.sha256"],
                                             sc["episodes.cycles"])
        for key, field in (("consensus.quorum_stalls", "quorum_stalls"),
                           ("consensus.view_changes", "final_view"),
                           ("core.fallback_cycles", "fallback_cycles"),
                           ("core.hold_cycles", "hold_cycles")):
            m[key] = sum(sc[f"{field}.{s}"] for s in SCENARIOS)
        m["emulation.time_to_recovery"] = statistics.fmean(
            sc["time_to_recovery." + s] for s in SCENARIOS)
        m["emulation.service_availability"] = statistics.fmean(
            sc["service_availability." + s] for s in SCENARIOS)
        for s in SCENARIOS:
            m[f"emulation.episode_s_p50.{s}"] = median(sm["episode_s." + s])
            m[f"emulation.episode_s_max.{s}"] = max(sm["episode_s." + s])
        # The strategy computations, from the solver probes.
        m["lp.solve_cold_s"] = median(sm["solve_cold_s"])
        m["lp.resolve_warm_s"] = median(sm["resolve_warm_s"])
        m["solvers.node_solve_s"] = median(sm["node_solve_s"])
        m["lp.us_per_iteration"] = 1e6 * ratio(m["lp.solve_cold_s"],
                                               sc["lp.iterations_cold"])
        m["solvers.objective_eval_ms"] = 1e3 * ratio(
            m["solvers.node_solve_s"], sc["solvers.evaluations"])
    for layer, seconds in self_times(traced["spans"]).items():
        m[f"{layer}.self_s"] = seconds
    if set(m) != set(PER_LAYER_UNITS):
        raise KeyError(f"per-layer metrics differ from BENCHMARK.json: "
                       f"{sorted(set(m) ^ set(PER_LAYER_UNITS))}")
    return m


# --- build, stamp, run ---------------------------------------------------------


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    """Configure (once) and build the Release binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def cpu_info():
    model, flags = platform.processor() or "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                model = value.strip()
            elif key.strip() == "flags":
                flags = set(value.split())
    except OSError:
        pass
    return model, flags


def source_digest():
    """SHA-256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def stamp(args, raw):
    model, flags = cpu_info()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": model,
        "sha_ni": "sha_ni" in flags,
        "avx512": sorted(f for f in flags if f.startswith("avx512")),
        "compiler": raw["compiler"], "build_type": raw["build_type"],
        "threads": raw["threads"], "commit": commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    raw_path = out / "raw" / f"{args.workload}-trace{args.trace}.json"
    raw_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"perfbench: run failed with exit code {proc.returncode}",
              file=sys.stderr)
        return 3
    raw = json.loads(raw_path.read_text())
    untraced = raw["untraced"]

    st = stamp(args, raw)
    print("stamp " + json.dumps(st, sort_keys=True))
    print(f"workload {args.workload}: {WORKLOADS[args.workload]}")
    e2e, problems = end_to_end(args.workload, untraced)
    for name, value, unit in workload_rows(args.workload, untraced, e2e):
        print(f"  {name:<22} {value:>14.6g} {unit}")
    checks = list(untraced["checks"])
    if raw["traced"]:
        checks += raw["traced"]["checks"]
    checks += [{"name": pr, "ok": False, "detail": ""} for pr in problems]
    for c in checks:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
              + (f" ({c['detail']})" if c["detail"] and not c["ok"] else ""))
    correct = all(c["ok"] for c in checks)

    if args.trace:
        layer = per_layer(args.workload, untraced, raw["traced"])
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in layer.items()}
        trace_path = out / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({
            "stamp": st, "self_s": self_times(raw["traced"]["spans"]),
            "per_layer": layer, "spans": raw["traced"]["spans"]}))
        print(f"  trace written to {trace_path}")
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    for k, v in metrics.items():
        if not math.isfinite(v["value"]):
            v["value"] = 0.0  # flagged above; JSON has no infinity
    for k, v in sorted(metrics.items()):
        print(f"  metric {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": untraced["attempted"],
                      "failed": untraced["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
