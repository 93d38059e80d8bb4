"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads mc_pp,mc_pe_w2,artifacts --seeds 1-10 \
        --trace-seed 1 --out perfbench/results/BENCH_seed.json

Run from the repository root.  For every seed, each workload runs once with
tracing off (workloads interleaved, so drift of the machine hits all of
them alike); with ``--trace-seed`` each workload also runs once traced.
For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to a third of the metric's
bound from BENCHMARK.json, the level below which the benchmark counts as
steady.  ``--out`` writes the summary as one point of the BENCH trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """(result JSON, environment stamp) of one benchmark run."""
    argv = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} failed ({done.returncode}):\n{done.stderr}")
    for line in lines:
        if line.startswith("  ERROR"):
            print(f"{workload} seed={seed}:{line}", file=sys.stderr)
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return json.loads(lines[-1]), env


def summarize(values, bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {
        "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
        "steady": spread < bound / 3, "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",")
    seeds = _seeds(args.seeds)
    results = {w: [] for w in workloads}
    env = None
    for seed in seeds:
        for workload in workloads:
            result, env = run_once(workload, seed, spec["run_seconds"], 0)
            results[workload].append(result)
            print(f"{workload} seed={seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
            ), flush=True)

    summary = {
        "label": args.label, "env": env, "run_seconds": spec["run_seconds"],
        "seeds": seeds, "workloads": {},
    }
    steady = True
    for workload in workloads:
        runs = results[workload]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        print(f"\n{workload}: {len(runs)} runs, correct={entry['correct']}, "
              f"failed {entry['failed']}/{entry['attempted']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in runs], metric["bound"])
            stats["unit"] = metric["unit"]
            entry["end_to_end"][name] = stats
            steady &= stats["steady"] or name == "setup_s"
            print(f"  {name:18s} median {stats['median']:.6g} {metric['unit']:5s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                  f"(bound/3 {metric['bound'] / 3:.4f}){'' if stats['steady'] else '  NOT STEADY'}")
        if args.trace_seed is not None:
            traced, _ = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer_correct"] = traced["correct"]
            entry["per_layer"] = traced["metrics"]
        summary["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
