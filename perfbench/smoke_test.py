#!/usr/bin/env python3
"""Tiny-size smoke of every perfbench workload.

    python3 perfbench/smoke_test.py <path to perfbench binary>

For each workload in BENCHMARK.json, runs the binary at --size tiny with
--trace 0 and --trace 1 and checks that the last stdout line is the result
object, that the correctness check passed, and that every end-to-end (or
per-layer) metric is printed with the unit BENCHMARK.json gives it.
Exit code 0 when every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def check_run(binary, workload, trace, out_dir, expected):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny", "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    label = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d: %s" % (label, proc.returncode, proc.stderr[-500:])]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: correctness check failed" % label)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted must be a positive integer" % label)
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        errors.append("%s: metric names %s, expected %s"
                      % (label, sorted(metrics), sorted(expected)))
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                     (int, float)):
            errors.append("%s: %s printed as %s, expected unit %s"
                          % (label, name, got, unit))
    if trace == 0 and "failed_share" not in proc.stdout:
        errors.append("%s: failed_share line missing" % label)
    return errors


def main():
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    binary = sys.argv[1]
    with open(SPEC) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    # Spans land next to the build (ctest runs in the build directory).
    out_dir = os.path.join(os.getcwd(), "smoke_spans")
    os.makedirs(out_dir, exist_ok=True)
    for w in spec["workloads"]:
        errors += check_run(binary, w["name"], 0, out_dir, e2e)
        errors += check_run(binary, w["name"], 1, out_dir, layers)
        if not os.path.exists(os.path.join(out_dir,
                                           "spans-%s.csv" % w["name"])):
            errors.append("%s: no spans file written" % w["name"])
    for e in errors:
        print("FAIL " + e)
    print("smoke: %d workloads, %d failures" % (len(spec["workloads"]),
                                                len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
