"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 10
    python3 bench/spread.py --seeds 10 --out bench/baseline.json
    python3 bench/spread.py --trace 1 --seeds 3 --out bench/baseline.json

Runs run.py once per (workload, seed), for every workload in
BENCHMARK.json, seeds 1, 2, ... and its run_seconds, one after another,
from the root of the checkout, and prints for every metric the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread: the
interquartile distance as a share of the median.  End-to-end spreads
are marked when they reach a third of the metric's bound in
BENCHMARK.json.  --out adds the table to a JSON file, creating it if
needed, so untraced and traced figures can share one baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed {result['failed']} ops:\n{proc.stderr}")
    return result


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="add the table to this JSON file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict[str, dict[str, dict[str, float]]] = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace) for seed in range(1, args.seeds + 1)]
        table[workload] = {}
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            table[workload][name] = stats
            bound = bounds.get(name)
            flag = " <-- spread over a third of the bound" if bound and stats["spread"] > bound / 3 else ""
            print(
                f"{workload:14} {name:42} median {stats['median']:<12.6g} "
                f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f}{flag}",
                flush=True,
            )
    if args.out:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        for workload, metrics in table.items():
            merged.setdefault(workload, {}).update(metrics)
        args.out.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
