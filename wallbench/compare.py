#!/usr/bin/env python3
"""Summarizes wallbench run records, or compares a parent's against a change's.

    python3 wallbench/compare.py RECORDS_DIR
    python3 wallbench/compare.py PARENT_RECORDS_DIR CHANGE_RECORDS_DIR

A records directory is what run.py fills (.bench_build/wallbench/results by
default); copy it aside between the parent's and the change's runs.

With one directory: for every workload and metric, the median, the
quartiles and the spread (quartile distance as a share of the median)
next to the metric's bound from BENCHMARK.json, and whether
sim.elapsed_cycles repeated exactly for each seed.

With two: the same for both sides, then two separate verdicts.
  * Wall clock: for each end-to-end metric and workload, the change's
    median against the parent's, flagged REGRESSION when worse by more
    than the bound and UNRESOLVED when either side's own spread exceeds
    the bound (unless every change run beats every parent run).
  * Model drift: any (workload, seed) whose summed simulated cycles differ
    between parent and change. Performance work must show none.
The exit code is 1 when either verdict finds something, else 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(directory):
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                record = json.load(f)
            if not record.get("smoke"):
                records.append(record)
    return records


def load_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update({m["name"]: m for m in bench["per_layer"]})
    return specs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def series(records):
    """{(workload, trace): {metric: [values]}}"""
    out = {}
    for r in records:
        bucket = out.setdefault((r["workload"], r["trace"]), {})
        for name, m in r["metrics"].items():
            bucket.setdefault(name, []).append(m["value"])
    return out


def sim_cycles(records):
    """{(workload, seed): set of sim_cycles seen}"""
    out = {}
    for r in records:
        out.setdefault((r["workload"], r["seed"]), set()).add(r["sim_cycles"])
    return out


def summarize(label, records, specs):
    print("== %s: %d run(s)" % (label, len(records)))
    for (workload, trace), metrics in sorted(series(records).items()):
        print("  %s (trace %d)" % (workload, trace))
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = specs.get(name, {}).get("bound")
            note = ""
            if bound is not None:
                note = "bound %.2f%s" % (
                    bound, "" if spread < bound / 3 else "  (spread >= bound/3)")
            print("    %-34s n=%-3d median %14.4f  q1 %14.4f  q3 %14.4f  "
                  "spread %6.3f  %s" % (name, len(values), med, q1, q3,
                                        spread, note))
    for (workload, seed), seen in sorted(sim_cycles(records).items()):
        if len(seen) > 1:
            print("  %s seed %d: sim.elapsed_cycles did NOT repeat: %s"
                  % (workload, seed, sorted(seen)))


def compare(parent, change, specs):
    problems = 0
    print("== wall clock (end-to-end metrics, untraced runs)")
    ps, cs = series(parent), series(change)
    for (workload, trace), metrics in sorted(ps.items()):
        if trace != 0 or (workload, trace) not in cs:
            continue
        for name, pvals in metrics.items():
            spec = specs.get(name)
            cvals = cs[(workload, trace)].get(name)
            if spec is None or "bound" not in spec or not cvals:
                continue
            bound = spec["bound"]
            higher = spec["better"] == "higher"
            pq1, pmed, pq3 = quartiles(pvals)
            cq1, cmed, cq3 = quartiles(cvals)
            change_frac = (cmed - pmed) / pmed if pmed else 0.0
            worse = -change_frac if higher else change_frac
            spread = max((pq3 - pq1) / pmed if pmed else 0,
                         (cq3 - cq1) / cmed if cmed else 0)
            all_better = (min(cvals) > max(pvals) if higher
                          else max(cvals) < min(pvals))
            if all_better:
                verdict = "better (every run)"
            elif spread > bound:
                verdict = "UNRESOLVED (spread %.3f > bound %.2f)" % (spread,
                                                                    bound)
            elif worse > bound:
                verdict = "REGRESSION (%.1f%% worse, bound %.0f%%)" % (
                    100 * worse, 100 * bound)
                problems += 1
            else:
                verdict = "within bound (%+.1f%%)" % (100 * change_frac)
            print("  %-13s %-18s parent %12.4f  change %12.4f  %s"
                  % (workload, name, pmed, cmed, verdict))
    print("== model drift (sim.elapsed_cycles per workload and seed)")
    pc, cc = sim_cycles(parent), sim_cycles(change)
    drift = 0
    for key in sorted(set(pc) & set(cc)):
        if pc[key] != cc[key]:
            drift += 1
            print("  MODEL DRIFT %s seed %d: parent %s, change %s"
                  % (key[0], key[1], sorted(pc[key]), sorted(cc[key])))
    if drift == 0:
        print("  none: simulated cycles identical on %d (workload, seed) pair(s)"
              % len(set(pc) & set(cc)))
    return problems + drift


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    specs = load_specs()
    parent = load_records(argv[1])
    summarize("parent" if len(argv) == 3 else argv[1], parent, specs)
    if len(argv) == 2:
        return 0
    change = load_records(argv[2])
    summarize("change", change, specs)
    return 1 if compare(parent, change, specs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
