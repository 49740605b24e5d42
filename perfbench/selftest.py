#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json on scale-10 graphs for a handful of
requests, untraced and traced, through perfbench/run.py. Passes when every
run exits 0 with all answer checks passed, and prints exactly the metric
names and units that BENCHMARK.json lists for its mode (end_to_end
untraced, per_layer traced). Exit status 0 on success, 1 on any failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = 10
# run.py ends a window at four times --seconds even with fewer than 50
# requests: 0.05 s gives a handful of scale-10 requests.
SECONDS = 0.05


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", str(SECONDS),
           "--trace", str(trace), "--scale", str(SCALE)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, f"exit {p.returncode}: {p.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), None


def check(result, expected):
    errors = []
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{result['failed']} of {result['attempted']} checks failed")
    if result["attempted"] < 1:
        errors.append("no request attempted")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if set(got) != set(expected):
        errors.append(f"metrics {sorted(set(got) ^ set(expected))} "
                      "missing or unexpected")
    for name, unit in expected.items():
        if name in got and got[name] != unit:
            errors.append(f"{name}: unit {got[name]!r}, expected {unit!r}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            errors.append(f"{name}: value {m['value']!r} is not a number")
    return errors


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in modes.items():
            result, error = run(workload, trace)
            errors = [error] if error else check(result, expected)
            status = "ok" if not errors else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
