#!/usr/bin/env python3
"""Compares fresh perfbench results with the committed perf history, BENCH_perfbench.json.

    python3 scripts/compare_bench.py BENCH_perfbench.json RESULT...
    python3 scripts/compare_bench.py --check BENCH_perfbench.json

A RESULT file is the saved stdout of `python3 perfbench/run.py --workload W ...`: its
{"run": ...} line names the workload and its last line is the result object. With
`--workload all` the metric names carry a "<workload>/" prefix instead.

Per workload, the fresh figure of each end-to-end metric is its median over the RESULT files.
It is judged against the history's "change" median (the figure of the commit that wrote the
history) with BENCHMARK.json's `better` and `bound`: worse by more than `bound` of the recorded
median is a regression. One row is printed per workload and metric; the exit status is 1 on any
regression or on a result whose own correctness checks failed.

--check exits 1 unless the history holds parent and change figures (median, quartiles, run
count) for every workload x end-to-end metric that BENCHMARK.json declares.

History layout: {"stamp": {...host and run settings...}, "workloads": {W: {"metrics": {M:
{"unit", "better", "bound", "parent": STATS, "change": STATS}}}}}, STATS = {"median", "q1",
"q3", "n"} over the alternating parent/change runs of the commit that wrote it.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATS_KEYS = ("median", "q1", "q3", "n")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def load_result(path):
    """Returns ({workload: {metric: value}}, correct) for one saved run.py stdout."""
    with open(path, encoding="utf-8") as f:
        lines = [line.strip() for line in f if line.strip().startswith("{")]
    workloads = []
    result = None
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "run" in obj:
            workloads.append(obj["run"]["workload"])
        elif isinstance(obj, dict) and sorted(obj) == ["attempted", "correct", "failed",
                                                       "metrics"]:
            result = obj
    if result is None:
        raise ValueError("no result line")
    values = {}
    for name, metric in result["metrics"].items():
        if "/" in name:
            workload, name = name.split("/", 1)
        elif len(workloads) == 1:
            workload = workloads[0]
        else:
            raise ValueError("cannot tell which workload metric %s belongs to" % name)
        values.setdefault(workload, {})[name] = metric["value"]
    return values, result["correct"] is True and result["failed"] == 0


def check(history, spec):
    missing = []
    for workload in spec["workloads"]:
        metrics = history.get("workloads", {}).get(workload["name"], {}).get("metrics", {})
        for metric in spec["end_to_end"]:
            entry = metrics.get(metric["name"], {})
            for side in ("parent", "change"):
                stats = entry.get(side)
                if not isinstance(stats, dict) or any(
                        not isinstance(stats.get(k), (int, float)) for k in STATS_KEYS):
                    missing.append("%s %s %s" % (workload["name"], metric["name"], side))
    for item in missing:
        print("missing: %s" % item)
    total = 2 * len(spec["workloads"]) * len(spec["end_to_end"])
    print("%d of %d parent/change figures present" % (total - len(missing), total))
    return 1 if missing else 0


def compare(history, spec, paths):
    fresh = {}
    broken = []
    for path in paths:
        try:
            values, correct = load_result(path)
        except (OSError, ValueError) as err:
            print("compare_bench: cannot read %s: %s" % (path, err), file=sys.stderr)
            return 1
        if not correct:
            broken.append(path)
        for workload, metrics in values.items():
            for name, value in metrics.items():
                fresh.setdefault(workload, {}).setdefault(name, []).append(value)

    regressions = 0
    print("%-12s %-20s %14s %14s %8s %6s  %s" % ("workload", "metric", "recorded", "fresh",
                                                "delta", "bound", "verdict"))
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in fresh:
            continue
        recorded = history.get("workloads", {}).get(name, {}).get("metrics", {})
        for metric in spec["end_to_end"]:
            values = fresh[name].get(metric["name"])
            base = recorded.get(metric["name"], {}).get("change", {}).get("median")
            if not values or base is None:
                print("%-12s %-20s %s" % (name, metric["name"],
                                          "no fresh value" if not values else "not recorded"))
                regressions += 1
                continue
            value = statistics.median(values)
            # The move in the metric's bad direction, as a share of the recorded median.
            bad = (value - base) if metric["better"] == "lower" else (base - value)
            worse = bad / abs(base) if base else (0.0 if bad == 0 else float("inf") * bad)
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = "REGRESSED"
                regressions += 1
            elif worse < 0:
                verdict = "better"
            change = "%+7.1f%%" % (100.0 * (value - base) / abs(base)) if base else "     -"
            print("%-12s %-20s %14.6g %14.6g %8s %6.2f  %s (n=%d)" % (
                name, metric["name"], base, value, change, metric["bound"], verdict,
                len(values)))
    for path in broken:
        print("correctness checks failed in %s" % path)
    print("%d regression(s) past a bound%s" % (regressions,
                                               ", %d failed run(s)" % len(broken) if broken
                                               else ""))
    return 1 if regressions or broken else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="only check that BASE covers every workload x end-to-end metric")
    parser.add_argument("base", help="the perf history, BENCH_perfbench.json")
    parser.add_argument("results", nargs="*", help="saved stdout of perfbench/run.py runs")
    args = parser.parse_args()

    spec = load_spec()
    try:
        with open(args.base, encoding="utf-8") as f:
            history = json.load(f)
    except (OSError, ValueError) as err:
        print("compare_bench: cannot read %s: %s" % (args.base, err), file=sys.stderr)
        return 1
    if args.check:
        return check(history, spec)
    if not args.results:
        parser.error("give at least one RESULT file, or --check")
    return compare(history, spec, args.results)


if __name__ == "__main__":
    sys.exit(main())
