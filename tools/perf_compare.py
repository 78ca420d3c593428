#!/usr/bin/env python3
"""Tabulate parent/change perfbench runs against the BENCHMARK.json bounds.

Usage (from the repository root):

    python3 tools/perf_compare.py \
        --pair ams_eval parent_ams_eval.jsonl change_ams_eval.jsonl \
        --pair serve parent_serve.jsonl change_serve.jsonl ...

Each file holds the result lines `python3 perfbench/run.py` prints, one
run per line: {"correct", "attempted", "failed", "metrics"}. Line i of the
parent file and line i of the change file form pair i, so take them with
the same seed and alternate which side runs first.

Per workload and metric it prints each side's median and IQR/median (the
distance between the quartiles over the median) and how far the change's
median moved in the metric's worse direction. Each end-to-end metric gets
a verdict against its BENCHMARK.json bound:

    ok          not worse than the parent by more than the bound
    WORSE       worse than the parent by more than the bound
    unresolved  the parent's own spread exceeds the bound, so the runs
                cannot tell, unless every change run beats every parent run

Per-layer metrics (from --trace 1 runs) are printed without a verdict.
Exits 1 when a run is incorrect, the change fails a larger share of
operations, or an end-to-end metric is WORSE; 0 otherwise.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_model():
    """The host's CPU model and logical CPU count, from /proc/cpuinfo."""
    model, cpus = "unknown", 0
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "processor":
                    cpus += 1
                elif key == "model name" and model == "unknown":
                    model = value.strip()
    except OSError:
        pass
    return "%s (%d logical CPUs)" % (model, cpus)


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                runs.append(json.loads(line))
    if not runs:
        sys.exit("perf_compare: no result lines in %s" % path)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(values):
    """IQR over median, or 0 for a zero median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(parent, change, better):
    """Fractional move of `change` from `parent` in the worse direction."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def compare_workload(name, parent_runs, change_runs, bounds):
    """Prints one workload's table; returns the number of failing findings."""
    bad = 0
    print("\n== %s: %d parent / %d change runs" % (name, len(parent_runs), len(change_runs)))
    share = []
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        correct = sum(1 for r in runs if r.get("correct"))
        attempted = sum(r.get("attempted", 0) for r in runs)
        failed = sum(r.get("failed", 0) for r in runs)
        print("   %s: %d/%d runs correct, %d/%d operations failed"
              % (side, correct, len(runs), failed, attempted))
        if correct != len(runs):
            bad += 1
        share.append(failed / max(1, attempted))
    if share[1] > share[0]:
        print("   change fails a larger share of operations: %.4g > %.4g" % (share[1], share[0]))
        bad += 1

    names = []
    for runs in (parent_runs, change_runs):
        for r in runs:
            names.extend(m for m in r.get("metrics", {}) if m not in names)
    print("   %-34s %12s %7s %12s %7s %8s %6s %6s  %s"
          % ("metric", "parent med", "IQR/m", "change med", "IQR/m", "worse", "bound", "wins",
             "verdict"))
    for metric in names:
        p = [r["metrics"][metric]["value"] for r in parent_runs if metric in r.get("metrics", {})]
        c = [r["metrics"][metric]["value"] for r in change_runs if metric in r.get("metrics", {})]
        if not p or not c:
            continue
        pm, cm = statistics.median(p), statistics.median(c)
        line = "   %-34s %12.5g %6.1f%% %12.5g %6.1f%%" % (
            metric, pm, 100 * spread(p), cm, 100 * spread(c))
        if metric in bounds:
            limit, better = bounds[metric]
            moved = worse_by(pm, cm, better)
            wins = sum(1 for pv, cv in zip(p, c) if worse_by(pv, cv, better) < 0)
            all_better = all(worse_by(pv, cv, better) < 0 for pv in p for cv in c)
            if spread(p) > limit and not all_better:
                verdict = "unresolved"
            elif moved > limit:
                verdict = "WORSE"
                bad += 1
            else:
                verdict = "ok"
            line += " %+7.1f%% %5.0f%% %6s  %s" % (
                100 * moved, 100 * limit, "%d/%d" % (wins, min(len(p), len(c))), verdict)
        print(line)
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pair", nargs=3, action="append", required=True,
                    metavar=("WORKLOAD", "PARENT", "CHANGE"),
                    help="workload name, parent result lines, change result lines")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}

    print("host: " + cpu_model())
    print("worse: change median vs parent median in the metric's worse direction; "
          "wins: pairs the change reads better")
    bad = 0
    for workload, parent_path, change_path in args.pair:
        bad += compare_workload(workload, load_runs(parent_path), load_runs(change_path), bounds)
    print("\n%s" % ("no end-to-end regression beyond its bound" if bad == 0
                    else "%d finding(s) above" % bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
