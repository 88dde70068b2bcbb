#!/usr/bin/env python3
"""openobj benchmark: one command per workload, run from the root of a
source checkout (openobj is imported from ./src).

    python3 bench/run.py --workload desk_cv --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

--trace 0 measures the end-to-end metrics with openobj unmodified: the
set-up runs several times (median reported), then passes of the timed
phase repeat over the same inputs until --seconds have elapsed (median pass
reported). --trace 1 runs set-up plus one pass three times, the middle one
with spans recorded around openobj's public entry points, and reports the
per-layer metrics and the time the tracing added. ``all`` runs every
workload in its own process.

Earlier lines of standard output give each metric with its unit, the
output checks, the output digest beside the recorded one, workload-specific
figures and the environment; the last line is the JSON result.
"""

import os

# One process and no extra threads: BLAS thread pools are pinned before
# numpy loads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from measure import END_TO_END, OpCounter, digest, peak_rss_mb  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-up repeats at least SETUP_REPS times and until SETUP_MIN_S seconds, so a
# short set-up is still a steady median.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
# The keys of workloads.WORKLOADS, which can only be imported once src/ is found.
WORKLOAD_NAMES = ("desk_cv", "open_ended", "table_scene")


def import_library():
    """Import openobj from this checkout's src/ and nowhere else."""
    if not (SRC / "openobj" / "__init__.py").is_file():
        raise SystemExit(f"error: no openobj sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import openobj

    if Path(openobj.__file__).resolve().parent != SRC / "openobj":
        raise SystemExit(f"error: openobj imported from {openobj.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def emit(line: dict) -> None:
    print(json.dumps(line, sort_keys=True), flush=True)


def report_digest(name, seed, outputs) -> None:
    """Print the outputs' digest beside the one recorded for this seed."""
    value = digest(outputs)
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.exists() else {}
    runs = baseline.get("workloads", {}).get(name, {}).get("runs", {})
    recorded = runs.get(str(seed), {}).get("digest")
    emit({"digest": value, "recorded": recorded,
          "match": None if recorded is None else value == recorded})


def timed_run(workload, seed, seconds):
    from workloads import summarize

    setup_s = []
    while len(setup_s) < SETUP_REPS or (sum(setup_s) < SETUP_MIN_S and len(setup_s) < 30):
        state = None  # drop the previous set-up's state before timing the next
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_s.append(time.perf_counter() - start)

    ops = OpCounter()
    results, run_s, problems = [], [], []
    began = time.perf_counter()
    while not results or time.perf_counter() - began < seconds:
        start = time.perf_counter()
        try:
            result = workload.run(state, ops)
        except Exception:
            if not results:
                raise
            traceback.print_exc()
            problems.append(f"pass {len(results)} raised")
            break
        run_s.append(time.perf_counter() - start)
        results.append(result)
        if len(results) == 1:
            # Memory one pass of the workload needs. Later passes over the
            # same inputs raise the high-water mark by varying amounts
            # (allocator fragmentation, caches that grow with each pass).
            peak_mb = peak_rss_mb()

    first = results[0]
    problems += first.problems
    if any(digest(r.outputs) != digest(first.outputs) for r in results[1:]):
        problems.append("passes over the same inputs gave different outputs")
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(run_s),
        "accuracy": first.accuracy,
        "peak_rss_mb": peak_mb,
    }
    for key, value in metrics.items():
        print(f"{workload.name:12s} {key:12s} {value:12.4f} {END_TO_END[key]}")
    emit({"checks": problems or "ok"})
    report_digest(workload.name, seed, first.outputs)
    emit({
        "workload": workload.name, "seed": seed, "passes": len(results),
        "setup_s_each": setup_s, "run_s_each": run_s,
        "failed_ratio": ops.failed_ratio, "detail": summarize(results),
    })
    return {
        "correct": not problems and ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def traced_run(workload, seed):
    ops = OpCounter()

    def setup_and_pass():
        start = time.perf_counter()
        result = workload.run(workload.setup(seed), ops)
        return result, time.perf_counter() - start

    # Untraced runs on both sides of the traced one, so warm-up and drift
    # do not land in the overhead.
    plain, before = setup_and_pass()
    tracer = tracing.Tracer()
    tracer.install(tracing.openobj_targets())
    try:
        traced, elapsed = setup_and_pass()
    finally:
        tracer.uninstall()
    _, after = setup_and_pass()

    values = tracing.layer_metrics(tracer)
    tracing.check_coverage(values, workload.name)
    values[tracing.OVERHEAD_METRIC] = elapsed - (before + after) / 2
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    with gzip.open(out_dir / f"{workload.name}-seed{seed}.json.gz", "wt") as fh:
        json.dump({"spans": tracer.dump(), "counts": dict(tracer.counts)}, fh)

    problems = plain.problems + traced.problems
    if digest(plain.outputs) != digest(traced.outputs):
        problems.append("tracing changed the outputs")
    units = tracing.metric_units()
    for key, unit in units.items():
        print(f"{workload.name:12s} {key:52s} {values[key]:14.4f} {unit}")
    emit({"checks": problems or "ok"})
    report_digest(workload.name, seed, plain.outputs)
    return {
        "correct": not problems and ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so each reports its own peak
    memory; the result merges theirs under workload-prefixed names."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    if args.workload == "all":
        result = run_all(args)
    else:
        from workloads import WORKLOADS

        emit({"env": environment()})
        workload = WORKLOADS[args.workload]
        if args.trace:
            result = traced_run(workload, args.seed)
        else:
            result = timed_run(workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
