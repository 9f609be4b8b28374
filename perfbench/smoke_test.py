#!/usr/bin/env python3
"""The benchmark's own test: every workload at smoke size, untraced and traced.

    python3 perfbench/smoke_test.py

Smoke sizes are 126 homes x 1 week for `paper` and `fleet`; each run takes
a few seconds once the runner is built. For each run the test checks that
the last stdout line is the result object with exactly the keys
correct/attempted/failed/metrics, that every check passed, and that the
metrics are exactly the end-to-end (--trace 0) or per-layer (--trace 1)
metrics of BENCHMARK.json, each with its unit.
Exits non-zero if any run mismatches.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(workload, trace, spec):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"checks failed: {result}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted < 1")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name, unit in expected.items():
        if name not in got:
            errors.append(f"missing metric {name}")
        elif got[name].get("unit") != unit:
            errors.append(f"{name}: unit {got[name].get('unit')!r}, expected {unit!r}")
        elif not isinstance(got[name].get("value"), (int, float)):
            errors.append(f"{name}: value {got[name].get('value')!r} is not a number")
    errors += [f"unexpected metric {name}" for name in got if name not in expected]
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check(workload, trace, spec)
            print(f"{'FAIL' if errors else 'ok  '} {workload} --trace {trace}")
            for e in errors:
                print(f"     {e}")
            failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
