#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload of BENCHMARK.json, and encode_cif, at tiny size and
checks that:
  * the last stdout line is the result object, with every end-to-end metric
    (--trace 0) or every per-layer metric (--trace 1) named there, each with
    its unit, and no other;
  * two runs on one seed agree exactly on the simulated counts;
  * a corrupted golden reference makes operations fail and the run exit
    non-zero, and a bad flag exits non-zero;
  * the traced run writes a Chrome trace file.

Usage (from the repository root): python3 perfbench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
EXACT = ("sim_cycles", "sim.events", "mem.putspace_msgs", "mem.pibus_writes")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(args):
    p = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result


def check_result(tag, result, spec):
    check(result is not None and set(result) == {"correct", "attempted", "failed", "metrics"},
          tag + ": result line has exactly correct/attempted/failed/metrics")
    if result is None:
        return
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          tag + ": every operation verified")
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in spec}, tag + ": metric names match BENCHMARK.json")
    for m in spec:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float))
              and math.isfinite(got["value"]), "%s: %s in %s" % (tag, m["name"], m["unit"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [x["name"] for x in bench["workloads"]]
    if "encode_cif" not in workloads:
        workloads.append("encode_cif")  # not in BENCHMARK.json (see README.md), still runnable
    for w in workloads:
        base = ["--workload", w, "--seconds", "1", "--tiny", "--seed", "5"]
        code, r0 = run(base + ["--trace", "0"])
        check(code == 0, w + ": untraced run exits 0")
        check_result(w + " trace 0", r0, bench["end_to_end"])
        if r0 is not None:
            check(all(r0["metrics"][m["name"]]["value"] != 0 for m in bench["end_to_end"]),
                  w + ": no end-to-end metric is 0")

        trace_file = os.path.join(ROOT, ".bench_build", "traces", "%s-seed5.json" % w)
        if os.path.exists(trace_file):
            os.remove(trace_file)
        code, r1 = run(base + ["--trace", "1"])
        check(code == 0, w + ": traced run exits 0")
        check_result(w + " trace 1", r1, bench["per_layer"])
        try:
            with open(trace_file) as f:
                events = json.load(f)["traceEvents"]
            check(any(e["name"] == "sim.run" for e in events), w + ": trace file has spans")
        except (OSError, ValueError, KeyError):
            check(False, w + ": trace file is Chrome trace JSON")

        # Same seed, same simulated counts.
        _, again0 = run(base + ["--trace", "0"])
        _, again1 = run(base + ["--trace", "1"])
        for name in EXACT:
            first = (r0 or {}).get("metrics", {}).get(name) or (r1 or {}).get("metrics", {}).get(name)
            second = ((again0 or {}).get("metrics", {}).get(name)
                      or (again1 or {}).get("metrics", {}).get(name))
            check(first is not None and first == second, "%s: %s repeats exactly" % (w, name))

        code, bad = run(base + ["--trace", "0", "--corrupt-golden"])
        check(code != 0 and bad is not None and bad["failed"] > 0 and bad["correct"] is False,
              w + ": corrupted golden reference counts as failure and exits non-zero")

    code, _ = run(["--workload", "no_such_workload"])
    check(code != 0, "unknown workload exits non-zero")
    code, _ = run(["--workload", "decode_cif", "--bogus-flag"])
    check(code != 0, "unknown flag exits non-zero")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
