#!/usr/bin/env python3
"""Record the baseline: run every workload once per seed, one run at a
time, and add to bench/baseline.json each run's end-to-end metrics, output
digest and workload figures, plus the environment. With four or more seeds
it also stores each metric's median and quartile spread over them, and the
per-layer metrics of one traced run. run.py prints a run's digest beside
the one recorded here.

    python3 bench/record.py --seeds 0-9
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"


def last_lines(cmd):
    out = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    return {next(iter(line)): line for line in lines[:-1]}, lines[-1]


def spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    run_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", default=str(run_seconds))
    parser.add_argument("--workloads", default="desk_cv,open_ended,table_scene")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    for name in args.workloads.split(","):
        runs = {}
        for seed in range(first, last + 1):
            cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", "0"]
            lines, result = last_lines(cmd)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: output checks failed: {lines['checks']}")
            baseline["environment"] = lines["env"]["env"]
            runs[str(seed)] = {
                "digest": lines["digest"]["digest"],
                **{k: v["value"] for k, v in result["metrics"].items()},
                "detail": lines["detail"]["detail"],
            }
            print(name, seed, json.dumps(runs[str(seed)]["detail"]), flush=True)
        entry = baseline.setdefault("workloads", {}).setdefault(name, {"runs": {}})
        entry["runs"].update(runs)
        if len(runs) >= 4:  # quartiles need a few seeds; single extra seeds only add runs
            metrics = [k for k in runs[str(first)] if k not in ("digest", "detail")]
            entry["stats"] = {
                "seeds": args.seeds,
                "seconds": float(args.seconds),
                "median": {k: statistics.median(r[k] for r in runs.values()) for k in metrics},
                "spread": {k: spread([r[k] for r in runs.values()]) for k in metrics},
            }
            lines, traced = last_lines(cmd[:-1] + ["1"])  # per-layer numbers, last seed
            if not traced["correct"]:
                raise SystemExit(f"{name} traced run: output checks failed: {lines['checks']}")
            entry["layers"] = {"seed": seed, **{k: v["value"] for k, v in traced["metrics"].items()}}
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
