#!/usr/bin/env python3
"""Fast self-test of the benchmark at fat-tree k=4.

Runs every workload of BENCHMARK.json twice at k=4 (end-to-end and traced) and checks that each
run passes its correctness checks and emits exactly the end_to_end / per_layer metric names,
with their units, that BENCHMARK.json declares. Takes well under a minute after the build.

    python3 perfbench/selftest.py
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = bench.build()
    if binary is None:
        return 2
    failures = 0
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, stdout, result = bench.run(binary, workload["name"], seed=1, seconds=1,
                                             trace=trace, extra=["--k=4"])
            problems = []
            if result is None:
                problems.append("no result line (exit %d)" % code)
            else:
                expected = {m["name"]: m["unit"] for m in spec[section]}
                got = {name: m.get("unit") for name, m in result["metrics"].items()}
                problems += ["missing %s" % n for n in expected if n not in got]
                problems += ["unexpected %s" % n for n in got if n not in expected]
                problems += ["%s unit %s != %s" % (n, got[n], u)
                             for n, u in expected.items() if n in got and got[n] != u]
                if result["correct"] is not True or code != 0:
                    problems.append("correctness checks failed (exit %d)" % code)
                    problems += [line.strip() for line in stdout.splitlines()
                                 if "CHECK FAILED" in line]
            status = "PASS" if not problems else "FAIL"
            print("%s %-12s trace=%d %s" % (status, workload["name"], trace, "; ".join(problems)))
            failures += 1 if problems else 0
    print("self-test %s" % ("passed" if failures == 0 else "FAILED (%d runs)" % failures))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
