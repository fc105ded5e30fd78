"""Steadiness mode: run workloads many times and summarize each metric.

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--trace 0] [--out FILE]

Run it from the root of a clinlm checkout. It runs every workload of
BENCHMARK.json for run_seconds, as the benchmark's acceptance check does.
Run i of every workload uses seed first-seed + i, so the spread includes
what the inputs change as well as machine noise; workloads take turns so
that slow drift in the machine spreads over all of them. Each run is a
separate `perfbench/run.py` process, one at a time. For every workload and
metric the summary gives the median, the quartiles (statistics.quantiles,
n=4) and the relative spread (q3 - q1) / median, and flags every
end-to-end metric whose spread is not below a third of its bound in
BENCHMARK.json. The file written to --out (default
.perfbench/steady-<trace>-<time>.json) is the input of compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 600  # far above any run's length; a hung run fails the mode


def load_benchmark(path="BENCHMARK.json") -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return {"seed": seed, "process_s": elapsed, "detail": detail, **result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.runs):
        for name in names:
            run = run_once(name, args.first_seed + i, seconds, args.trace)
            runs[name].append(run)
            print(f"{name} seed {run['seed']}: correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']} ({run['process_s']:.1f}s)",
                  flush=True)

    report = {"benchmark": bench, "seconds": seconds, "trace": args.trace, "workloads": {}}
    unsteady = []
    print(f"\n{'workload':<15} {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8}  unit")
    for name in names:
        metric_names = list(runs[name][0]["metrics"])
        summary = {}
        for metric in metric_names:
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            s = summarize(values)
            s["unit"] = runs[name][0]["metrics"][metric]["unit"]
            s["values"] = values
            summary[metric] = s
            bound = declared.get(metric, {}).get("bound")
            flag = ""
            if bound is not None and s["spread"] >= bound / 3:
                flag = (f"  spread > bound ({bound})" if s["spread"] > bound
                        else f"  spread >= bound/3 ({bound / 3:.4f})")
                unsteady.append((name, metric))
            print(f"{name:<15} {metric:<28} {s['median']:>14.6g} {s['q1']:>14.6g} "
                  f"{s['q3']:>14.6g} {s['spread']:>8.4f}  {s['unit']}{flag}")
        report["workloads"][name] = {
            "summary": summary,
            "runs": runs[name],
            "all_correct": all(r["correct"] for r in runs[name]),
        }
    out = args.out or os.path.join(
        ".perfbench", f"steady-trace{args.trace}-{time.strftime('%Y%m%d-%H%M%S')}.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"\nwrote {out}")
    if unsteady:
        print(f"{len(unsteady)} metric(s) spread at or above a third of their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
