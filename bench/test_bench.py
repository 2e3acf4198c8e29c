"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run
import tracing
import workloads
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(run.SRC))


def smallest(ops, n: int = 3):
    """The n ops with the shortest input and expected output."""
    return sorted(ops, key=lambda op: len(op.stdout) + len(op.stdin))[:n]


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracing.METRICS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    a, b = Workload(name, 7, ROOT), Workload(name, 7, ROOT)
    assert a.ops(0) == b.ops(0)
    assert a.ops(1) == b.ops(1)
    assert a.ops(0) != a.ops(1)
    assert a.ops(0) != Workload(name, 8, ROOT).ops(0)


def kernel_shapes(ops):
    """The multiset of entries and the tail of each op's magnus index."""
    shapes = []
    for op in ops:
        head, tail = op.argv[1].strip("()").split(";")
        shapes.append((sorted(int(e) for e in head.split(",")), int(tail)))
    return sorted(shapes)


def test_cost_deciding_draws_repeat_every_cycle():
    w = Workload("kernel-sweep", 7, ROOT)
    assert kernel_shapes(w.ops(1)) == kernel_shapes(w.ops(1 + w.cycle))
    assert kernel_shapes(w.ops(0)) != kernel_shapes(w.ops(1))
    assert w.ops(1) != w.ops(1 + w.cycle)


def test_verify_pass_has_both_verdicts():
    ops = Workload("verify-mixed", 3, ROOT).ops(0)
    assert sum(op.code == 1 for op in ops) == len(ops) // 4
    assert all(op.code in (0, 1) for op in ops)


def test_oracle_closed_forms():
    assert oracle.ratfun_text(*oracle.value({(1, 1): Fraction(1)})) == "(2z^2+z^3)/(1-z)^4"
    assert oracle.ratfun_text(*oracle.value({(0,): Fraction(-1, 2)})) == "(-1/2)z/(1-z)"
    assert oracle.value(oracle.perm_relation((1, 2, 0), (3, 1, 2))) == ((), 0)
    assert oracle.duality_output(1, 1).splitlines() == [
        "depth=0 weight=0 size=1 ok",
        "depth=0 weight=1 size=1 ok",
        "depth=1 weight=0 size=1 ok",
        "depth=1 weight=1 size=2 ok",
        "all graded pieces ok",
    ]


def test_oracle_matches_kernel_element_on_small_indices():
    modules = run.fresh_package()
    polylog, magnus = modules["npolylog.polylog"], modules["npolylog.magnus"]
    for depth in (1, 2):
        for weight in range(5):
            for k in magnus.magnus_indices(depth, weight):
                for sigma in itertools.permutations(range(1, depth + 2)):
                    got = {idx.entries: c for idx, c in polylog.kernel_element(k, sigma).items()}
                    assert got == oracle.perm_relation(k.entries, sigma)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_runs_print_the_same_bytes(name):
    ops = smallest(Workload(name, 1, ROOT).ops(0))
    plain = run.Pass(ops, keep_outputs=True)
    tracer = tracing.Tracer()
    traced = run.Pass(ops, tracer, keep_outputs=True)
    assert plain.failed == traced.failed == 0
    assert plain.outputs == traced.outputs == [op.stdout for op in ops]
    assert not tracer.missing
    m = tracer.metrics(1.0)
    assert m["cli.main.calls"] == len(ops)
    if name == "duality-sweep":
        assert m["magnus.grade_report.calls"] == len(ops)
        assert m["ratpoly.ratfun_new.calls"] == 0
    else:
        assert m["ratpoly.euler_deriv.calls"] > 0
        assert m["polylog.verify_relation.calls"] > 0


def test_outputs_are_kept_only_when_asked():
    ops = smallest(Workload("verify-mixed", 1, ROOT).ops(0), 1)
    p = run.Pass(ops)
    assert p.failed == 0 and p.outputs == []


def test_ratfun_without_fields_is_reported_missing():
    tracer = tracing.Tracer()
    tracer._ratfun((), {}, object())
    assert {"ratpoly.max_dpow", "ratpoly.max_num_bits"} <= tracer.missing


def test_trace_wraps_every_namespace_that_binds_a_function():
    modules = run.fresh_package()
    original = modules["npolylog.ratpoly"].euler_deriv
    tracing.Tracer().install(modules)
    wrapped = modules["npolylog.ratpoly"].euler_deriv
    assert wrapped is not original
    assert modules["npolylog.polylog"].euler_deriv is wrapped
    assert modules["npolylog"].euler_deriv is wrapped


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(monkeypatch, trace):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_OPS", 4)
    monkeypatch.setitem(workloads.CYCLES, "verify-mixed", 2)
    full_pass = Workload.ops
    monkeypatch.setattr(Workload, "ops", lambda self, i: smallest(full_pass(self, i)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "verify-mixed", "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # Whole cycles of two passes of three ops, and a traced replay of one cycle.
    assert result["attempted"] == (12 if trace else 6)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel-sweep", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
