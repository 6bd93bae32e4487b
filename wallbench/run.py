#!/usr/bin/env python3
"""Wall-clock benchmark of IronSafe: build, run one workload, report metrics.

    python3 wallbench/run.py --workload tpch-scs --seed 1 --seconds 10 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
Builds wallbench/ together with the IronSafe libraries under src/ into
.bench_build/wallbench (a no-op once built), runs the workload in a child
process, measures that process's peak resident set from outside, checks
its outputs, and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
(see README.md for every definition). Each run also leaves a record in
.bench_build/wallbench/results/ for compare.py. The exit code is 0 only
when every op's output was correct.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wallbench")
BINARY = os.path.join(BUILD, "wallbench")
RESULTS = os.path.join(BUILD, "results")
EXPECTED = os.path.join(HERE, "expected_digests.json")

WORKLOADS = ("tpch-scs", "fleet-4shard", "serve-mixed")
DEFAULT_SEED = 1
# The child must end well inside the 180 s a run is allowed.
CHILD_TIMEOUT_S = 170
# Tail percentile: the highest one with at least this many samples beyond.
TAIL_SAMPLES = 10
# Per-layer metric -> (the end-to-end metric a faster layer should move,
# the workload where that shows). README.md has the full map, including
# where each is predicted NOT to move; names and units come from
# BENCHMARK.json.
MOVES = {
    "crypto.aes256_cbc_decrypt_us": ("latency_p50_ms, throughput_ops_s", "tpch-scs, fleet-4shard"),
    "crypto.aes256_cbc_encrypt_us": ("setup_s", "tpch-scs"),
    "crypto.hmac_sha512_us": ("latency_p50_ms", "tpch-scs"),
    "crypto.ed25519_sign_us": ("latency_p50_ms, throughput_ops_s", "serve-mixed"),
    "crypto.ed25519_verify_us": ("latency_p50_ms, throughput_ops_s", "serve-mixed"),
    "crypto.x25519_us": ("throughput_ops_s", "serve-mixed"),
    "securestore.read_page_us": ("latency_p50_ms", "tpch-scs, fleet-4shard"),
    "securestore.write_page_us": ("setup_s; latency_tail_ms", "serve-mixed"),
    "securestore.pages_read_per_op": ("- (work count)", "all"),
    "securestore.reverifies": ("- (retries)", "all"),
    "sql.plain_exec_ms": ("latency_p50_ms", "tpch-scs"),
    "sql.rows_scanned_per_row_out": ("- (useful work)", "tpch-scs"),
    "engine.partition_us": ("latency_p50_ms", "tpch-scs"),
    "engine.shipped_bytes_per_op": ("latency_p50_ms", "tpch-scs"),
    "engine.execute_authorized_ms": ("latency_p50_ms", "serve-mixed"),
    "net.serialize_us_per_mib": ("latency_p50_ms", "tpch-scs, fleet-4shard"),
    "net.deserialize_us_per_mib": ("latency_p50_ms", "tpch-scs, fleet-4shard"),
    "net.channel_seal_open_us_per_mib": ("latency_p50_ms", "tpch-scs"),
    "net.channel.send_bytes_per_op": ("- (count)", "all"),
    "net.channel.rejects": ("- (failures)", "all"),
    "tee.sgx.transitions_per_op": ("- (count)", "all"),
    "tee.sgx.epc_faults_per_op": ("- (count)", "all"),
    "tee.rpmb.writes": ("- (count)", "all"),
    "monitor.authorize_ms": ("latency_p50_ms", "serve-mixed"),
    "monitor.authorize_cached_ms": ("latency_p50_ms", "serve-mixed"),
    "server.open_session_ms": ("throughput_ops_s, latency_tail_ms", "serve-mixed"),
    "server.submit_us": ("throughput_ops_s, latency_tail_ms", "serve-mixed"),
    "server.run_until_idle_ms": ("throughput_ops_s, latency_tail_ms", "serve-mixed"),
    "server.plan_cache_hit_ratio": ("latency_p50_ms", "serve-mixed"),
    "server.admission_reject_ratio": ("latency_p50_ms", "serve-mixed"),
    "dist.shard_fragment_ms_max": ("latency_p50_ms", "fleet-4shard"),
    "dist.shard_fragment_ms_sum": ("latency_p50_ms", "fleet-4shard"),
    "dist.fragments_per_op": ("- (count)", "fleet-4shard"),
    "dist.failovers": ("- (must stay 0)", "fleet-4shard"),
    "sim.elapsed_cycles": ("none: must repeat exactly", "all"),
    "obs.trace_overhead_frac": ("-", "all"),
}


def metric_specs():
    """(end-to-end, per-layer) metric lists from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("IronSafe sources (src/) not found next to wallbench/")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "wallbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def run_child(argv):
    """Runs the benchmark binary; returns (stdout lines, exit code, peak RSS
    in KiB). The child is killed if it outlives CHILD_TIMEOUT_S."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        lines = []
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return lines, proc.returncode, usage.ru_maxrss


def throughput(phase):
    """Median over the phase's units (TPC-H passes, serving churn cycles)
    of ops per wall second: one slow unit does not move it."""
    rates = [ops / secs for ops, secs in zip(phase["unit_ops"],
                                             phase["unit_s"]) if secs > 0]
    return statistics.median(rates) if rates else 0.0


def median_latency(samples, labels):
    """Median over op kinds (query or statement template) of each kind's
    median latency. Every kind weighs the same; a plain median of the
    TPC-H mix sits in the gap between the 8th and 9th fastest of 16
    queries and jumps across it with noise."""
    by_kind = {}
    for value, label in zip(samples, labels):
        by_kind.setdefault(label, []).append(value)
    return statistics.median(statistics.median(v) for v in by_kind.values())


def tail_latency(samples):
    """The highest percentile with at least TAIL_SAMPLES samples beyond it:
    returns (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(0, n - TAIL_SAMPLES - 1)
    return ordered[rank], 100.0 * (rank + 1) / n, n


def load_expected(workload, seed):
    """Committed digests: the TPC-H data is the same for every seed, the
    serving tables only for the default one."""
    with open(EXPECTED) as f:
        expected = json.load(f)
    if workload != "serve-mixed":
        return expected["tpch"]
    return expected["serve-mixed"] if seed == DEFAULT_SEED else None


def check_digests(workload, seed, digests, smoke):
    """Compares the reference digests with the committed ones: the oracle
    the per-op reference checks hang off. Fleet rows must match the
    single-node rows, so both TPC-H workloads share one table."""
    expected = load_expected(workload, seed)
    if expected is None:
        return []
    problems = []
    for label, digest in digests.items():
        if expected.get(label) != digest:
            problems.append("%s digest %s, committed %s"
                            % (label, digest, expected.get(label)))
    if not smoke and len(digests) == 0:
        problems.append("no digests reported")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops on a query subset (the test's mode)")
    args = parser.parse_args()

    build()
    os.makedirs(RESULTS, exist_ok=True)
    argv = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_path = os.path.join(
        BUILD, "trace-%s-s%d.json" % (args.workload, args.seed))
    if args.trace:
        argv += ["--trace-json", trace_path]
    if args.smoke:
        argv.append("--smoke")
    lines, code, rss_kib = run_child(argv)
    if code != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        fail("benchmark process exited with code %d" % code)
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    phase = raw["phase"]
    attempted = phase["attempted"]
    failed = phase["failed"] + raw["extra_failures"]
    problems = check_digests(args.workload, args.seed, raw["digests"],
                             args.smoke)
    if phase["elapsed_s"] <= 0 or not phase["latency_ms"]:
        problems.append("no completed ops")

    ops_per_s = throughput(phase)
    end_to_end, per_layer = metric_specs()
    metrics = {}
    if args.trace == 0:
        tail, pct, n = tail_latency(phase["latency_ms"] or [0])
        values = {
            "throughput_ops_s": ops_per_s,
            "latency_p50_ms": median_latency(phase["latency_ms"] or [0],
                                             phase["labels"] or [""]),
            "latency_tail_ms": tail,
            "setup_s": statistics.median(raw["setup_s"]),
            "peak_rss_mib": rss_kib / 1024.0,
        }
        for m in end_to_end:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("\n%s seed %d: %d op(s) attempted, %d failed "
              "(ops_failed_frac %.4f), %d closed-loop client(s)"
              % (args.workload, args.seed, attempted, failed,
                 failed / max(attempted, 1), raw["clients"]))
        print("  %d unit(s) in %.3f s (%.4f ops/s overall); latency_tail_ms "
              "is p%.2f of %d samples" % (len(phase["unit_s"]),
                                          phase["elapsed_s"],
                                          attempted / phase["elapsed_s"],
                                          pct, n))
        for m in end_to_end:
            print("  %-18s %14.4f %s" % (m["name"], values[m["name"]],
                                         m["unit"]))
    else:
        traced = raw["traced_phase"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        traced_tp = throughput(traced)
        layer = dict(raw["per_layer"])
        layer["sim.elapsed_cycles"] = raw["sim_cycles"]
        layer["obs.trace_overhead_frac"] = (
            1.0 - traced_tp / ops_per_s if ops_per_s else 0.0)
        print("\n%s seed %d, traced: per-layer metrics "
              "(0 = layer not run on this workload)" % (args.workload, args.seed))
        print("  %-34s %16s %-7s %-36s %s"
              % ("metric", "value", "unit", "should move", "on"))
        for m in per_layer:
            name, unit = m["name"], m["unit"]
            if name not in layer:
                problems.append("per-layer metric %s missing" % name)
                continue
            metrics[name] = {"value": layer[name], "unit": unit}
            moves, where = MOVES.get(name, ("?", "?"))
            print("  %-34s %16.4f %-7s %-36s %s"
                  % (name, layer[name], unit, moves, where))
        print("  trace: %s" % trace_path)

    for p in problems:
        print("run.py: " + p, file=sys.stderr)
    correct = failed == 0 and not problems
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "time": time.time(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "sim_cycles": raw["sim_cycles"], "metrics": metrics,
    }
    record_name = "%s-s%d-t%d-%d.json" % (args.workload, args.seed,
                                          args.trace, time.time_ns())
    with open(os.path.join(RESULTS, record_name), "w") as f:
        json.dump(record, f)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
