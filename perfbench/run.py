"""Run one clinlm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Run it from the root of a clinlm checkout; it imports the package from
./src and nothing else. The workload's inputs are generated from --seed.
Set-up runs several times (its median is setup_s); the timed stages repeat
as whole iterations for --seconds, at least twice. Every stage is timed
as units (pipeline.py), each scaled to a reference machine speed by the
probes of calib.py around it, and a stage's time is assembled from the
median repeat of each of its units. With --trace 0
the last line of output is a JSON object with every end-to-end metric;
with --trace 1 untraced and traced iterations alternate, and the last line
carries every per-layer metric plus trace.overhead_frac. Every stage's
correctness gates, and the sha256 of every phase's outputs across repeats
(traced and untraced alike), count into "attempted" and "failed".
"""

from __future__ import annotations

import os
import sys

# Pinned on purpose, before numpy loads: on a 2-core machine two OpenBLAS
# threads ran a 64-position hidden-64 step slower (126 ms) than one (88 ms).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import calib  # noqa: E402

OUT_DIR = ".perfbench"  # results, traces and scratch checkpoints, inside the checkout


@dataclass
class Phase:
    """One set-up or one timed iteration."""

    recorder: object
    units: dict  # stage -> [pipeline.Unit], ending with the stage's untimed rest
    wall: float  # seconds, less the speed probes
    digest: str
    gates: list
    traced: bool
    speed: list  # (time, first-part seconds, whole seconds) of each calib.probe()

    def seconds(self, stage: str) -> float:
        return sum(s.end - s.start for s in self.recorder.spans if s.name == stage)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at its smallest size (smoke test only)")
    return parser.parse_args(argv)


def provenance(root: str, args, w) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    source = hashlib.sha256()
    package = os.path.join(root, "src", "clinlm")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".txt", ".tsv")):
                path = os.path.join(dirpath, name)
                source.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_version = None
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def run_phase(make_pipeline, stages, traced: bool):
    """Run the stages once, under a fresh recorder; make_pipeline() returns
    the pipeline to use. A full garbage collection and a machine-speed
    probe before each stage keep one stage's garbage from being collected
    on another stage's clock, and give the stage's first unit a probe."""
    from pipeline import Unit
    from spans import Recorder

    rec = Recorder()
    units = {}
    gc.collect()
    start = time.perf_counter()
    pipe = make_pipeline()
    pipe.begin_phase(traced)
    with rec.tracing(traced), pipe.sampling():
        for stage in stages:
            gc.collect()
            pipe.speed_probe()
            first = len(pipe.units)
            with rec.span(stage) as span:
                getattr(pipe, stage)()
            units[stage] = pipe.units[first:]
            rest = (pipe.net_seconds(span.start, span.end)
                    - sum(u.seconds for u in units[stage]))
            units[stage].append(Unit(f"{stage}.rest", rest, {}, span.start, span.end))
        pipe.speed_probe()
    wall = pipe.net_seconds(start, time.perf_counter())
    return pipe, Phase(rec, units, wall, pipe.digest.hexdigest(), list(pipe.gates), traced,
                       list(pipe.speed))


def median(values):
    return statistics.median(values) if values else 0.0


class Speed:
    """The machine's speed around each unit, from the probes of a run.

    A unit's seconds are scaled by calib.REFERENCE_S over the mean time of
    the probe part of its stage's kind (pipeline.STAGE_KIND), from the probe
    just before the unit to the first probe after it, with the sampler's
    probes inside it (one every pipeline.SAMPLE_S seconds). On a shared host whose speed changes
    over seconds and minutes, this takes out most of what the host's speed
    does to the unit and keeps what the program does."""

    def __init__(self, phases):
        probes = sorted(p for phase in phases for p in phase.speed)
        self.times = [p[0] for p in probes]
        self.probe_s = {"python": [p[1] for p in probes], "mixed": [p[2] for p in probes]}

    def seconds(self, unit, stage: str) -> float:
        from pipeline import STAGE_KIND

        kind = STAGE_KIND[stage]
        first = max(bisect.bisect_left(self.times, unit.start) - 1, 0)
        last = bisect.bisect_left(self.times, unit.end)
        near = self.probe_s[kind][first:last + 1]
        return unit.seconds * calib.REFERENCE_S[kind] / statistics.fmean(near)


def assemble(speed, phases, stage, work=None):
    """(amount, seconds, samples) of one run of the stage, or of its units
    that do `work`: the amount is per phase, and the seconds add up, for
    each unit key, the median of its repeats at the reference speed times
    how often the key occurs in a phase."""
    units = [[u for u in p.units[stage] if work is None or work in u.work] for p in phases]
    repeats: dict[str, list[float]] = {}
    for u in (u for phase in units for u in phase):
        repeats.setdefault(u.key, []).append(speed.seconds(u, stage))
    per_phase = Counter(u.key for u in units[0])
    seconds = sum(n * statistics.median(repeats[key]) for key, n in per_phase.items())
    amount = sum(u.work[work] for u in units[0]) if work else 0
    return amount, seconds, sum(len(phase) for phase in units)


def end_to_end(pipe, speed, setups, iters, setup_stages, iter_stages):
    """name -> (value, unit, samples) from untraced phases only, every
    timing at the reference speed. setup_s is the median over set-ups of
    each set-up's units; every other timing comes from assemble()."""
    timed = [p for p in iters if not p.traced]
    untraced_setups = [p for p in setups if not p.traced]

    def rate(stage, work):
        amount, seconds, n = assemble(
            speed, untraced_setups if stage in setup_stages else timed, stage, work)
        return amount / seconds, n

    per_stage = [assemble(speed, timed, stage) for stage in iter_stages]
    setup_times = [sum(speed.seconds(u, stage) for stage, units in p.units.items()
                       for u in units)
                   for p in untraced_setups]
    out = {
        "setup_s": (median(setup_times), "s", len(untraced_setups)),
        "wall_s": (sum(s for _, s, _ in per_stage), "s", sum(n for _, _, n in per_stage)),
    }
    for name, stage, work, unit in (
        ("vocab_merges_per_s", "vocab", "merges", "merges/s"),
        ("encode_tokens_per_s", "encode", "pieces", "pieces/s"),
        ("pretrain_steps_per_s", "pretrain", "steps", "steps/s"),
        ("pretrain_tokens_per_s", "pretrain", "tokens", "tokens/s"),
        ("finetune_steps_per_s", "finetune", "steps", "steps/s"),
        ("infer_rows_per_s", "infer", "rows", "rows/s"),
    ):
        value, n = rate(stage, work)
        out[name] = (value, unit, n)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                          "MiB", 1)
    out["final_mlm_loss"] = (pipe.final_loss, "nats", 1)
    out["dev_metric"] = (median(pipe.dev_scores), "score", len(pipe.dev_scores))
    return out


def per_layer(setups, iters):
    """name -> (value, unit, samples): the median over traced iterations of
    each iteration's metrics, set-up stages taken from the traced set-up."""
    from spans import Profile, layer_metrics

    traced_setup = [p for p in setups if p.traced][-1]
    traced = [p for p in iters if p.traced]
    per_iter = [layer_metrics(Profile([traced_setup.recorder, p.recorder])) for p in traced]
    out = {}
    for name, (_, unit) in per_iter[0].items():
        out[name] = (median([m[name][0] for m in per_iter]), unit, len(per_iter))
    untraced_wall = median([p.wall for p in iters if not p.traced])
    out["trace.overhead_frac"] = (median([p.wall for p in traced]) / untraced_wall - 1.0,
                                  "ratio", len(traced))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the whole run: a shared host slows each CPU at its own
        # times, so a unit and the probes beside it must run on the same one.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "clinlm", "__init__.py")):
        print("error: src/clinlm not found; run from the root of a clinlm checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import clinlm
    from pipeline import STAGES, Pipeline
    from spans import Profile, uncalled
    from workloads import WORKLOADS

    if not os.path.abspath(clinlm.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: imported clinlm from {clinlm.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    os.makedirs(OUT_DIR, exist_ok=True)
    setup_stages = [s for s in STAGES if s in w.setup_stages]
    iter_stages = [s for s in STAGES if s not in w.setup_stages]

    def make():
        return Pipeline(w, args.seed, OUT_DIR)

    # Set-up runs several untraced times, or in the traced run once untraced
    # and once traced, whose outputs must match. Iterations reuse the first
    # set-up's state. Further set-ups alternate with iterations, so that the
    # samples of set-up stages spread over the whole run: a shared machine's
    # speed can change over seconds, and a burst of samples can fall entirely
    # in a slow stretch.
    reps = [False] * w.setup_reps if not args.trace else [False, True]
    setups, iters, failures = [], [], []
    try:
        pipe, phase = run_phase(make, setup_stages, reps[0])
        setups.append(phase)
        start = time.perf_counter()
        iterating = True
        while iterating or len(setups) < len(reps):
            if iterating:
                traced = bool(args.trace) and len(iters) % 2 == 1
                _, phase = run_phase(lambda: pipe, iter_stages, traced)
                iters.append(phase)
            if len(setups) < len(reps):
                _, phase = run_phase(make, setup_stages, reps[len(setups)])
                setups.append(phase)
            elapsed = time.perf_counter() - start
            iterating = (len(iters) < 2
                         or elapsed + median([p.wall for p in iters]) <= args.seconds)
    except Exception:  # noqa: BLE001 - a failing library call is a benchmark result
        traceback.print_exc()
        failures.append("stage raised")
    if not setups or len(iters) < 2:
        print("error: the pipeline failed before it could be measured", file=sys.stderr)
        return 1

    gates = [g for p in setups + iters for g in p.gates]
    gates.append(("outputs.identical_across_setups", len({p.digest for p in setups}) == 1))
    gates.append(("outputs.identical_across_iterations", len({p.digest for p in iters}) == 1))
    if args.trace:
        missing = uncalled(Profile([p.recorder for p in setups + iters if p.traced]),
                           {t.kind for t in w.tasks})
        gates.append(("trace.every_target_called", not missing))
        for name in missing:
            print(f"{w.name:<15} traced function never called: {name}")
    attempted = sum(len(p.units) for p in setups + iters) + len(gates) + len(failures)
    failed = sum(1 for _, ok in gates if not ok) + len(failures)

    speed = Speed([p for p in setups + iters if not p.traced])
    metrics = per_layer(setups, iters) if args.trace else end_to_end(
        pipe, speed, setups, iters, set(setup_stages), iter_stages)
    for name, (value, unit, _) in metrics.items():
        print(f"{w.name:<15} {name:<28} {value:>16.6f} {unit}")
    for name, ok in gates:
        if not ok:
            print(f"{w.name:<15} gate failed: {name}")
    detail = {
        "provenance": provenance(root, args, w),
        "samples": {name: n for name, (_, _, n) in metrics.items()},
        "setups": len(setups),
        "iterations": len(iters),
        "gates": [[name, ok] for name, ok in gates],
        "failed_frac": failed / attempted,
        "speed_probe_ms": {kind: 1000 * median(times) for kind, times in speed.probe_s.items()},
        "stage_s": {stage: median([p.seconds(stage) for p in setups + iters
                                   if stage in p.units and not p.traced])
                    for stage in setup_stages + iter_stages},
        "digests": sorted({p.digest for p in setups + iters}),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    record = dict(detail, result=result, phases=[
        {"setup": is_setup, "traced": p.traced, "wall_s": p.wall,
         "stage_s": {stage: p.seconds(stage) for stage in p.units},
         "units": {stage: [[u.key, u.seconds, u.start, u.end] for u in units]
                   for stage, units in p.units.items()},
         "speed": p.speed}
        for is_setup, phases in ((True, setups), (False, iters)) for p in phases])
    if args.trace:
        record["trace"] = [p.recorder.to_json() for p in setups + iters if p.traced]
    out_path = os.path.join(OUT_DIR, f"run-{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
