"""Smoke test: every workload at its smallest size reports every metric.

    python3 perfbench/smoke.py

Run it from the root of a clinlm checkout. For each workload in
BENCHMARK.json it runs `perfbench/run.py --smoke` untraced and traced, and
checks that the run exits 0 and that its last line is a result object whose
metrics are exactly the end-to-end (untraced) or per-layer (traced) metrics
that BENCHMARK.json names, each with its declared unit and a finite value.
At this size training is too short for the correctness gates, so "correct"
is not checked. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def check(workload: str, trace: int, declared: list[dict]) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    expected = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    for name in sorted(set(expected) ^ set(got)):
        problems.append(f"metric {name} is {'missing' if name in expected else 'undeclared'}")
    for name in sorted(set(expected) & set(got)):
        value, unit = got[name]["value"], got[name]["unit"]
        if unit != expected[name]:
            problems.append(f"{name} unit {unit!r}, declared {expected[name]!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name} value {value!r}")
    return problems


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            problems = check(workload, trace, declared)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}", flush=True)
            for p in problems:
                print(f"  {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
