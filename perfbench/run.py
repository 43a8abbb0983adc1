"""Run one respox benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload desk-gated --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the engine is imported from ./src, inputs
are generated from --seed under ./.perfbench_work and removed afterwards.
The run sets up at least SETUP_REPEATS times and for at least SETUP_MIN_S
seconds, reports the median set-up time, then repeats rounds of the workload
(at least MIN_ROUNDS) while one more still fits in --seconds.  With --trace 0
the last line carries the end-to-end metrics; with --trace 1 untraced and
traced rounds alternate, and the last line carries the per-layer metrics
plus the tracing overhead.  Earlier lines stamp the machine and summarise
the run.  Exit code 2 means respox could not be imported.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3   # at least this many set-ups ...
SETUP_MIN_S = 1.0   # ... and together at least this long, so a cheap set-up gets a steady median
MIN_ROUNDS = 2
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def machine_stamp() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines,
    }


def run_rounds(next_round, seconds: float) -> list:
    """Call next_round(i) at least MIN_ROUNDS times, then while one more round,
    as long as the last, still ends within `seconds`."""
    rounds = []
    start = time.perf_counter()
    last = 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        rounds.append(next_round(len(rounds)))
        last = time.perf_counter() - t0
    return rounds


def traced_round(workload, tracer):
    with tracer:
        return workload.run_round()


def median_of(rounds, field: str) -> float:
    values = [getattr(r, field) for r in rounds if getattr(r, field) is not None]
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else 0.0


def cross_round_problems(rounds) -> list:
    """Every round repeats identical work, so its loss and MAE must repeat bit for bit."""
    good = [r for r in rounds if not r.problems]
    problems = []
    for field in ("loss", "mae_pct"):
        values = {float(getattr(r, field)).hex() for r in good if getattr(r, field) is not None}
        if len(values) > 1:
            problems.append(f"{field} differs between identical rounds: {sorted(values)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import respox
    except ImportError as exc:
        print(f"error: cannot import respox from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(respox.__file__).startswith(src + os.sep):
        print(f"error: respox was imported from {respox.__file__}, not from {src}", file=sys.stderr)
        return 2
    from tracer import PER_LAYER_UNITS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    print("machine: " + json.dumps(machine_stamp(), sort_keys=True))
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        workload.prepare()
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)

        if args.trace:
            # Untraced and traced rounds alternate, so that drifts in machine
            # speed reach both sides and the overhead compares like with like.
            tracer = Tracer()
            rounds = run_rounds(
                lambda i: traced_round(workload, tracer) if i % 2 else workload.run_round(), args.seconds
            )
            untraced, traced = rounds[0::2], rounds[1::2]
            metrics = tracer.metrics(len(traced))
            metrics["trace.rounds"] = len(traced)
            metrics["trace.ops_per_round"] = statistics.median(r.ops for r in traced)
            metrics["train.final_loss"] = median_of(traced, "loss")
            metrics["evaluate.mae_pct"] = median_of(traced, "mae_pct")
            metrics["trace.round_s"] = median_of(traced, "wall_s")
            metrics["trace.untraced_round_s"] = median_of(untraced, "wall_s")
            metrics["trace.overhead_s"] = statistics.median(t.wall_s - u.wall_s for u, t in zip(untraced, traced))
            units = PER_LAYER_UNITS
        else:
            rounds = run_rounds(lambda i: workload.run_round(), args.seconds)
            rates = [r.ops / r.wall_s for r in rounds if r.wall_s > 0]
            metrics = {
                "ops_per_s": statistics.median(rates) if rates else 0.0,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cross = cross_round_problems(rounds)
    problems = [p for r in rounds for p in r.problems] + cross
    attempted = sum(r.attempted for r in rounds)
    failed = attempted if cross else sum(r.failed for r in rounds)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {len(setup_times)} set-ups "
        f"(median {statistics.median(setup_times):.4f} s), "
        f"round walls {[round(r.wall_s, 4) for r in rounds]} s, ops {[r.ops for r in rounds]}, "
        f"loss {[r.loss for r in rounds]}, mae_pct {[r.mae_pct for r in rounds]}"
    )
    if args.trace:
        for name in sorted(metrics):
            print(f"  {name:44s} {metrics[name]:14.6g} {units[name]}")
    metrics = {name: value if math.isfinite(value) else 0.0 for name, value in metrics.items()}
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
