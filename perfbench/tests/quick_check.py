#!/usr/bin/env python3
"""Run every BENCHMARK.json workload in quick mode, untraced and traced.

    quick_check.py PERFBENCH_BINARY BENCHMARK_JSON WORKDIR

Each run must print, as its last stdout line, a result object whose
metrics are exactly BENCHMARK.json's end_to_end (untraced) or per_layer
(traced) metrics with their units, with correct = true and no failed
operation. The binary itself fails a run whose traced replay is not
byte-identical to its untraced output, so this also checks replays.
Traced runs also write their spans with --trace-out.
"""

import json
import math
import os
import subprocess
import sys


def check_run(binary, workload, trace, expected, workdir):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--quick", "--workdir", workdir]
    spans_file = os.path.join(workdir, f"{workload}.trace.json")
    if trace:
        cmd += ["--trace-out", spans_file]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if trace:
        with open(spans_file) as f:
            if not json.load(f).get("traceEvents"):
                problems.append(f"{where}: --trace-out wrote no spans")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}: " +
                        " | ".join(l for l in lines if "FAILED" in l))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in expected]:
        problems.append(f"{where}: metrics {list(metrics)} != "
                        f"{[m['name'] for m in expected]}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')} "
                            f"!= {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} = {value}")
        elif trace == 0 and value == 0:
            problems.append(f"{where}: end-to-end {m['name']} is 0")
    return problems


def main():
    binary, spec_path, workdir = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            found = check_run(binary, w["name"], trace, expected, workdir)
            print(f"{w['name']} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
