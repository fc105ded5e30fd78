"""Compare two steadiness-mode result files, metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Prints, for every workload and metric present in both files, each side's
median and quartiles and a verdict. It reports only: it exits 0 whatever
the verdicts are, and gates nothing. It refuses (exit 2) two files whose
runs differ in length or in tracing, or share no seed.

Runs are paired by seed, so that a pair differs only in the program and
the machine's noise, not in its inputs. For each pair the relative change
is (NEW - BASE) / |BASE|, signed so that positive is better.

Verdicts, for a metric with direction `better` and bound b (BENCHMARK.json):
  better        NEW wins at least 9 in 10 pairs (ties count for neither
                side) and the medians differ by more than BASE's own
                interquartile range
  worse         NEW's median is worse than BASE's by more than b
  within bound  neither of the above
  unresolved    the paired changes spread (q3 - q1) wider than b, so "within
                bound" cannot be told apart from a regression; unless every
                NEW run is better than every BASE run (within bound), or
                every NEW run is worse than every BASE run by more than b
                (worse)
Per-layer metrics have no bound: they read better or worse by the same
pairing rule, "same" when every run is identical, and "-" otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from steady import summarize


def verdict(base: list[float], new: list[float], better: str, bound: float | None,
            pairs: list[tuple[int, int]]) -> str:
    """pairs holds (index in base, index in new) of the paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    changes = [sign * (new[j] - base[i]) / (abs(base[i]) or 1.0) for i, j in pairs]
    wins = sum(1 for c in changes if c > 0)
    b_sum, n_sum = summarize(base), summarize(new)
    gain = sign * (n_sum["median"] - b_sum["median"])
    iqr = b_sum["q3"] - b_sum["q1"]
    if changes and wins >= 0.9 * len(changes) and gain > 0 and gain > iqr:
        return "better"
    if bound is None:
        if base == new:
            return "same"
        losses = sum(1 for c in changes if c < 0)
        if changes and losses >= 0.9 * len(changes) and -gain > iqr:
            return "worse"
        return "-"
    if len(changes) >= 2:
        q1, _, q3 = statistics.quantiles(changes, n=4)
        if q3 - q1 > bound:
            if all(sign * (n - b) > 0 for b in base for n in new):
                return "within bound"
            if all(sign * (n - b) < -bound * abs(b) for b in base for n in new):
                return "worse"
            return "unresolved"
    if -gain > bound * abs(b_sum["median"]):
        return "worse"
    return "within bound"


def pair_runs(base_runs: list[dict], new_runs: list[dict]) -> list[tuple[int, int]]:
    """(index in base, index in new) of the runs with a common seed."""
    new_by_seed = {r["seed"]: j for j, r in enumerate(new_runs)}
    return [(i, new_by_seed[r["seed"]]) for i, r in enumerate(base_runs)
            if r["seed"] in new_by_seed]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    for key in ("seconds", "trace"):
        if base[key] != new[key]:
            print(f"error: {key} is {base[key]} in {args.base} but {new[key]} in {args.new}",
                  file=sys.stderr)
            return 2
    declared = {m["name"]: m for m in new["benchmark"]["end_to_end"]
                + new["benchmark"]["per_layer"]}

    def fmt(s):
        return f"{s['median']:>12.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"

    print(f"{'workload':<15} {'metric':<28} {'base median [q1, q3]':>40} "
          f"{'new median [q1, q3]':>40}  verdict")
    for name, b_w in base["workloads"].items():
        n_w = new["workloads"].get(name)
        if n_w is None:
            print(f"{name:<15} missing from {args.new}")
            continue
        pairs = pair_runs(b_w["runs"], n_w["runs"])
        if not pairs:
            print(f"error: {name} has no seed in common between the two files",
                  file=sys.stderr)
            return 2
        for metric, b_s in b_w["summary"].items():
            n_s = n_w["summary"].get(metric)
            if n_s is None:
                print(f"{name:<15} {metric:<28} missing from {args.new}")
                continue
            spec = declared.get(metric, {})
            v = verdict(b_s["values"], n_s["values"], spec.get("better", "higher"),
                        spec.get("bound"), pairs)
            print(f"{name:<15} {metric:<28} {fmt(b_s):>40} {fmt(n_s):>40}  {v}"
                  f"  ({b_s['unit']}, {spec.get('better', '?')} is better)")
        for label, w in (("base", b_w), ("new", n_w)):
            if not w["all_correct"]:
                print(f"{name:<15} warning: a {label} run failed a correctness gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
