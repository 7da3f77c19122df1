#!/usr/bin/env python3
"""Tiny-scale smoke run of the benchmark.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json, and deep-ood, which the harness
defines but BENCHMARK.json leaves out, at a tiny scale, untraced and traced,
and checks that each run exits 0, that its last line is the result object,
that every answer was exact, and that every metric BENCHMARK.json names is
emitted, with its unit, as a finite number (and no other metric is).
Exits 1 if any check failed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.02"
SECONDS = "1"
EXTRA_WORKLOADS = ["deep-ood"]


def check(workload, trace, expected):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", SECONDS, "--trace", trace, "--scale", SCALE]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-3000:])
        return f"{where}: exit {out.returncode}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"{where}: result keys {sorted(result)}"
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        return f"{where}: {result['failed']} of {result['attempted']} answers wrong"
    got = result["metrics"]
    problems = [f"missing {m['name']}" for m in expected if m["name"] not in got]
    problems += [f"unexpected {name}" for name in got if name not in {m["name"] for m in expected}]
    for m in expected:
        v = got.get(m["name"])
        if v is None:
            continue
        if v.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {v.get('unit')} != {m['unit']}")
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{m['name']} value {v.get('value')} is not finite")
    return f"{where}: " + "; ".join(problems) if problems else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            err = check(name, trace, spec[key])
            print(f"{'FAIL' if err else 'ok  '} {name} --trace {trace}" + (f": {err}" if err else ""), flush=True)
            failures += err is not None
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
