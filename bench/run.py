"""npolylog benchmark: drives the public CLI entry point in-process.

    python3 bench/run.py --workload kernel-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
./src.  One closed-loop client calls npolylog.cli.main(argv) with
captured stdin and stdout, one op after another, and checks every
exit code and every byte of output against oracle.py.  Ops come in
passes, and passes in cycles (see workloads.py).  Each pass starts from
a fresh import of the package, as a new CLI process would, so caches
never carry over from one pass to the next.  Whole cycles repeat until
--seconds have passed, so every run measures the same mix of inputs
however fast it goes.  Op times are scaled to a reference machine speed
(calibration.py).

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the same untraced passes are followed by a traced replay of
the first cycle, and the last line holds the per-layer metrics.  A
short summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from calibration import IMPORT_REFERENCE_S, REFERENCE_IMPORT, calibrate, scale
from workloads import WORKLOADS, Op, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
# p90 needs ten samples beyond it.
MIN_OPS = 100

# (name, unit, better) of the --trace 0 metrics, in order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import npolylog.cli
npolylog.cli.build_parser()
print(time.perf_counter() - start)
"""


def child_seconds(code: str, *args: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True, timeout=60, cwd=ROOT
    )
    return float(proc.stdout)


def measure_setup(repeats: int) -> list[float]:
    """Import npolylog.cli and build its parser in fresh interpreters.

    Each child's time is scaled by the reference import, run in a fresh
    interpreter right after it (see calibration.py).  The first, untimed
    import writes the bytecode cache, as an installed package would
    already have it.
    """
    times = []
    for i in range(repeats + 1):
        elapsed = child_seconds(SETUP_CODE, str(SRC))
        reference = child_seconds(REFERENCE_IMPORT)
        if i:
            times.append(elapsed * IMPORT_REFERENCE_S / reference)
    return times


def fresh_package() -> dict:
    """Import npolylog.cli from ./src anew, dropping every cached module."""
    for name in [n for n in sys.modules if n == "npolylog" or n.startswith("npolylog.")]:
        del sys.modules[name]
    cli = importlib.import_module("npolylog.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"npolylog was imported from {cli.__file__}, not from {SRC}")
    return {n: m for n, m in sys.modules.items() if n == "npolylog" or n.startswith("npolylog.")}


def run_op(cli, op: Op) -> tuple[float, object, str]:
    """(seconds, exit code or None if it raised, stdout) of one CLI call."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                sys.__stderr__.write(f"op {op.argv} raised:\n{traceback.format_exc()}")
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = stdin
    return elapsed, code, out.getvalue()


class Pass:
    """Latencies of one pass over a list of ops, and its outputs if asked.

    The calibration loop runs before every op and after the last; each
    op's time, and each traced self time within it, is scaled by the
    median loop time of the five runs of the loop nearest to it.
    Outputs are kept only when keep_outputs is set, so that passes
    whose outputs are never compared add nothing to peak_rss_mb.
    """

    def __init__(self, ops: list[Op], tracer: tracing.Tracer | None = None, keep_outputs: bool = False) -> None:
        gc.collect()
        modules = fresh_package()
        if tracer is not None:
            tracer.install(modules)
        cli = modules["npolylog.cli"]
        measured: list[float] = []
        loops: list[float] = []
        self_times: list[dict[str, float]] = []
        self.outputs: list[str] = []
        self.failed = 0
        for op in ops:
            loops.append(calibrate())
            elapsed, code, stdout = run_op(cli, op)
            measured.append(elapsed)
            if tracer is not None:
                self_times.append(tracer.take_self_times())
            if keep_outputs:
                self.outputs.append(stdout)
            if code != op.code or stdout != op.stdout:
                self.failed += 1
                if code is not None:
                    sys.stderr.write(f"op {op.argv} gave exit {code}, expected {op.code}; stdout:\n{stdout}")
        loops.append(calibrate())
        windows = [loops[max(0, j - 2) : j + 3] for j in range(len(measured))]
        self.latencies = [scale(t, w) for t, w in zip(measured, windows)]
        self.measured_busy = sum(measured)
        for taken, w in zip(self_times, windows):
            tracer.add_scaled(taken, scale(1.0, w))

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q of values at or below it.

    Unlike interpolation, it never mixes the costs of two different
    ops, so the result does not jump when the number of passes moves a
    rank across the gap between two ops of very different cost.
    """
    return sorted(values)[math.ceil(q * len(values)) - 1]


def run(workload: Workload, seconds: float, trace: bool) -> tuple[dict, int, int, str]:
    """Run the passes; returns (metrics, attempted, failed, summary)."""
    cycle = workload.cycle
    passes: list[Pass] = []
    start = time.perf_counter()
    while (
        len(passes) % cycle
        or sum(len(p.latencies) for p in passes) < MIN_OPS
        or time.perf_counter() - start < seconds
    ):
        i = len(passes)
        passes.append(Pass(workload.ops(i), keep_outputs=trace and i < cycle))
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    latencies_ms = [t * 1000 for p in passes for t in p.latencies]
    summary = (
        f"{workload.name} seed={workload.seed}: {len(passes) // cycle} cycles of {cycle} passes, {attempted} ops, "
        f"{failed} failed, p50/p90 over {len(latencies_ms)} samples; "
        f"busy {sum(p.busy for p in passes):.3f} s scaled, {sum(p.measured_busy for p in passes):.3f} s measured"
    )
    if not trace:
        metrics = {
            "setup_s": statistics.median(measure_setup(SETUP_REPEATS)),
            "ops_per_s": (attempted - failed) / sum(p.busy for p in passes),
            "op_ms_p50": percentile(latencies_ms, 0.5),
            "op_ms_p90": percentile(latencies_ms, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return metrics, attempted, failed, summary
    tracer = tracing.Tracer()
    traced = [Pass(workload.ops(i), tracer, keep_outputs=True) for i in range(cycle)]
    for i, p in enumerate(traced):
        if p.outputs != passes[i].outputs:
            failed += 1
            sys.stderr.write(f"traced pass {i} printed other output than the untraced one\n")
    attempted += sum(len(p.latencies) for p in traced)
    failed += sum(p.failed for p in traced)
    overhead = sum(p.busy for p in traced) / sum(p.busy for p in passes[:cycle])
    if tracer.missing:
        sys.stderr.write(f"not found, reported as 0: {', '.join(sorted(tracer.missing))}\n")
    return tracer.metrics(overhead), attempted, failed, summary + f"; {cycle} traced passes"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "npolylog" / "cli.py").is_file():
        print(f"error: no npolylog sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    metrics, attempted, failed, summary = run(Workload(args.workload, args.seed, ROOT), args.seconds, bool(args.trace))
    print(summary, file=sys.stderr)
    units = {name: unit for name, unit, _ in (tracing.METRICS if args.trace else END_TO_END)}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
