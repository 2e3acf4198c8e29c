"""Command line surface: text goldens, JSON shapes, and exit codes."""

import contextlib
import io
import itertools
import json
import math
import os
import select
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import npolylog.polylog as pl
from npolylog import cli, magnus
from npolylog.polylog import _parse_coef, kernel_element, nfold_product, relation_from_record, relation_record
from npolylog.words import parse_index
import output_manifest
from oracles import RowLog, raise_row

GOOD_LINE = (
    '{"terms": [{"coef": "-1", "index": [2, 1]}, {"coef": "3", "index": [1, 2]},'
    ' {"coef": "-2", "index": [0, 3]}], "verified": true, "weight": 3, "depth": 2}'
)
BAD_LINE = '{"terms": [{"coef": "1", "index": [0]}], "verified": false, "weight": 0, "depth": 1}'

# The command line and environment of a CLI child process that imports
# the npolylog under test.
CLI = [sys.executable, "-m", "npolylog.cli"]
CLI_ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_lines(got, want):
    """Assert got == want as strictly, reporting the first differing (index, line) pair and the line counts.

    A failure shows two lines, not pytest's diff of two whole outputs,
    which takes minutes on a sweep of megabytes.
    """
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    pairs = zip(enumerate(got_lines), enumerate(want_lines))
    assert next((pair for pair in pairs if pair[0] != pair[1]), None) is None
    assert len(got_lines) == len(want_lines)


def test_eval_text(capsys):
    code, out, err = run(capsys, "eval", "(1,1)")
    assert code == 0 and err == ""
    assert out == "(2z^2+z^3)/(1-z)^4\n"
    code, out, err = run(capsys, "eval", "()")
    assert code == 0 and out == "1\n"


def test_eval_series(capsys):
    code, out, err = run(capsys, "eval", "(0)", "--series", "4")
    assert code == 0
    assert out == "z/(1-z)\nseries: 0, 1, 1, 1, 1\n"


def test_eval_json(capsys):
    code, out, err = run(capsys, "eval", "(1,1)", "--json")
    assert code == 0
    assert json.loads(out) == {
        "index": [1, 1],
        "value": {"num": ["0", "0", "2", "1"], "dpow": 4},
    }
    code, out, err = run(capsys, "eval", "(0)", "--series", "3", "--json")
    assert json.loads(out)["series"] == ["0", "1", "1", "1"]


def test_magnus_text(capsys):
    code, out, err = run(capsys, "magnus", "(1;2)")
    assert code == 0
    assert out == (
        "magnus: x0x1x0^2 - x1x0^3\n"
        "image: y1y2 - y0y3\n"
        "product: Li(1)*Li(2) = Li(1,2) - Li(0,3)\n"
    )
    code, out, err = run(capsys, "magnus", "(;0)")
    assert out == "magnus: 1\nimage: y0\nproduct: Li(0) = Li(0)\n"


def test_magnus_json(capsys):
    code, out, err = run(capsys, "magnus", "(1;2)", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["index"] == "(1;2)"
    assert obj["magnus"] == [
        {"coef": "1", "word": "x0x1x0x0"},
        {"coef": "-1", "word": "x1x0x0x0"},
    ]
    assert obj["image"] == [
        {"coef": "1", "word": "y1 y2"},
        {"coef": "-1", "word": "y0 y3"},
    ]
    assert obj["product"] == {
        "factors": [1, 2],
        "terms": [
            {"coef": "1", "index": [1, 2]},
            {"coef": "-1", "index": [0, 3]},
        ],
    }


def test_magnus_expands_the_magnus_polynomial_once(capsys, monkeypatch):
    calls = []

    def counted(name, good):
        def wrapper(arg):
            calls.append(name)
            return good(arg)

        return wrapper

    for module in (cli, pl):
        for name in ("magnus_poly", "poly_x_to_y"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, out, err = run(capsys, "magnus", "(1,2,3;4)")
    assert code == 0 and err == ""
    assert calls == ["magnus_poly"]
    assert out.startswith("magnus: ") and "\nproduct: Li(1)*Li(2)*Li(3)*Li(4) = " in out


@pytest.mark.parametrize("index", ["(1;2)", "(;0)", "(3,1;2)", "(1,2,3;4)"])
def test_magnus_prints_the_product_as_product_does(capsys, index):
    factors = [str(e) for e in parse_index(index).entries]
    _, text, _ = run(capsys, "magnus", index)
    _, product_text, _ = run(capsys, "product", *factors)
    assert text.splitlines()[-1] == "product: " + product_text.rstrip("\n")
    _, obj, _ = run(capsys, "magnus", index, "--json")
    _, product_obj, _ = run(capsys, "product", *factors, "--json")
    assert json.loads(obj)["product"] == json.loads(product_obj)


def test_expand(capsys):
    code, out, err = run(capsys, "expand", "(2,1)")
    assert code == 0
    assert out == "Li(2,1) = Li(0)*Li(3) + 2*Li(1)*Li(2) + Li(2)*Li(1)\n"
    code, out, err = run(capsys, "expand", "(1,1)")
    assert out == "Li(1,1) = Li(0)*Li(2) + Li(1)*Li(1)\n"
    code, out, err = run(capsys, "expand", "(2,1)", "--json")
    assert json.loads(out) == {
        "index": [2, 1],
        "products": {"(0;3)": 1, "(1;2)": 2, "(2;1)": 1},
    }


def test_product(capsys):
    code, out, err = run(capsys, "product", "2", "1")
    assert code == 0
    assert out == "Li(2)*Li(1) = Li(2,1) - 2*Li(1,2) + Li(0,3)\n"
    code, out, err = run(capsys, "product", "2", "1", "--json")
    assert json.loads(out) == {
        "factors": [2, 1],
        "terms": [
            {"coef": "1", "index": [2, 1]},
            {"coef": "-2", "index": [1, 2]},
            {"coef": "1", "index": [0, 3]},
        ],
    }


def test_kernel_sigma(capsys):
    code, out, err = run(capsys, "kernel", "(1;2)", "--sigma", "2 1")
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["verified"] is True
    assert rec["weight"] == 3 and rec["depth"] == 2
    assert rec["terms"] == [
        {"coef": "-1", "index": [2, 1]},
        {"coef": "3", "index": [1, 2]},
        {"coef": "-2", "index": [0, 3]},
    ]


def test_kernel_all_sigma(capsys):
    code, out, err = run(capsys, "kernel", "(1;2)", "--all-sigma")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert all(rec["verified"] for rec in records)
    assert records[0]["terms"] == []
    assert len(records[1]["terms"]) == 3


def test_kernel_all_sigma_records_are_nfold_differences(capsys):
    code, out, err = run(capsys, "kernel", "(1,2,3;4)", "--all-sigma")
    assert code == 0 and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    sigmas = list(itertools.permutations(range(1, 5)))
    assert len(records) == len(sigmas) == 24
    for sigma, rec in zip(sigmas, records):
        permuted = [(1, 2, 3, 4)[i - 1] for i in sigma]
        assert rec["verified"] is True
        assert relation_from_record(rec) == nfold_product([1, 2, 3, 4]) - nfold_product(permuted)


def test_kernel_prints_each_record_before_the_next_is_verified(capsys, monkeypatch):
    # Li(2,2,2) first occurs in the fourth relation of (1,2;3): the three
    # records before it are out when its corrupted row stops the sweep.
    raise_row(monkeypatch, (2, 2, 2), -1)
    code, out, err = run(capsys, "kernel", "(1,2;3)", "--all-sigma")
    assert code == 3
    assert err == "error: rational and series pipelines disagree; refusing to answer\n"
    assert [json.loads(line)["verified"] for line in out.splitlines()] == [True, True, True]


def count_evaluations(monkeypatch):
    """Log the terms of every evaluation polylog._evaluate makes, in order."""
    calls = []
    good = pl._evaluate

    def logged(terms, bound):
        calls.append(dict(terms))
        return good(terms, bound)

    monkeypatch.setattr(pl, "_evaluate", logged)
    return calls


@pytest.mark.parametrize(
    "argv, records, evaluations",
    [
        (("(1,2,1,2,1;1)", "--all-sigma"), 720, 15),
        (("(1,1;2)", "--all-sigma"), 6, 3),
        (("(1,2,3;4)", "--sigma", "2 1 4 3"), 1, 2),
        (("(1,2;3)", "--sigma", "1 2 3"), 1, 0),
        (("(1,1;1)", "--all-sigma"), 6, 0),
    ],
    ids=["720-records", "6-records", "one-sigma", "identity", "every-sigma-arranges-k"],
)
def test_kernel_verifies_each_distinct_relation_once(capsys, monkeypatch, argv, records, evaluations):
    # The relation of sigma depends only on the arrangement sigma(k): the
    # 15 arrangements of {1,1,1,1,2,2}, or the 3 of {1,1,2}, identity
    # included.  The zero relation of sigma(k) = k is verify_relation's,
    # one evaluation of no word, once per sweep, whether or not a sigma
    # arranges k as k; k's closed form is evaluated when another
    # arrangement is met, then each other arrangement's once, in order.
    calls = count_evaluations(monkeypatch)
    code, out, err = run(capsys, "kernel", *argv)
    assert (code, err) == (0, "")
    k = parse_index(argv[0])
    sigmas = list(itertools.permutations(range(1, k.depth + 2))) if argv[1] == "--all-sigma" else [tuple(map(int, argv[2].split()))]
    arrangements = list(dict.fromkeys(tuple(k.entries[i - 1] for i in sigma) for sigma in sigmas))
    others = [entries for entries in arrangements if entries != k.entries]
    closed_forms = [k.entries, *others] if others else []
    assert len(out.splitlines()) == records and len(closed_forms) == evaluations
    assert calls == [{}, *map(magnus._product_terms, closed_forms)]
    one_by_one = []
    for sigma in sigmas:
        c = kernel_element(k, sigma)
        ok, _ = pl.verify_relation(c)
        one_by_one.append(json.dumps(relation_record(c, ok)) + "\n")
    assert_same_lines(out, "".join(one_by_one))


def count_taylor_coeffs(monkeypatch):
    """Log the bound of every taylor_coeffs call polylog makes."""
    calls = []
    good = pl.taylor_coeffs
    monkeypatch.setattr(pl, "taylor_coeffs", lambda f, n_max: calls.append(n_max) or good(f, n_max))
    return calls


@pytest.mark.parametrize("index, distinct", [("(1,2,1,2,1;1)", 15), ("(3,1,2;2)", 12)])
def test_a_correct_sweep_expands_one_truncated_series(capsys, monkeypatch, index, distinct):
    # Once, for the product of k's depth-one values at D = w + r, however
    # many arrangements: each closed form's direct row is compared with
    # that series, and one with the product's value needs no series of
    # its own.  The zero relation's value is its own reference, so its
    # series is not expanded.
    calls = count_taylor_coeffs(monkeypatch)
    evaluations = count_evaluations(monkeypatch)
    code, out, err = run(capsys, "kernel", index, "--all-sigma")
    assert (code, err) == (0, "")
    k = parse_index(index)
    assert len(out.splitlines()) == math.factorial(k.depth + 1)
    assert len(evaluations) == distinct + 1 and evaluations[0] == {}
    assert calls == [k.weight + k.depth + 1]


def test_kernel_checks_the_closed_form_of_k_against_its_product(capsys, monkeypatch):
    # With every closed form emptied, every relation is zero and every
    # arrangement has one value; only the product of the depth-one
    # values of k tells that the closed forms are wrong.
    monkeypatch.setattr(pl, "_product_terms", lambda entries: {})
    code, out, err = run(capsys, "kernel", "(1,2;3)", "--all-sigma")
    assert (code, out) == (3, pl.relation_line(pl.LinComb(), True) + "\n")
    assert err == "error: the closed form of (1,2;3) is not the product of its depth-one values; refusing to answer\n"


def test_kernel_refuses_a_perturbed_closed_form_of_k(capsys, monkeypatch):
    # One coefficient of the closed form of k is 1 too large.  Before
    # the product check, the sweep printed every other relation as false.
    good = pl._product_terms

    def perturbed(entries):
        terms = good(entries)
        if entries == (1, 2, 3):
            terms[next(iter(terms))] += 1
        return terms

    monkeypatch.setattr(pl, "_product_terms", perturbed)
    code, out, err = run(capsys, "kernel", "(1,2;3)", "--all-sigma")
    assert code == 3 and len(out.splitlines()) == 1
    assert err.startswith("error: the closed form of (1,2;3) is not the product")


def test_a_sweep_of_k_alone_checks_no_product(capsys, monkeypatch):
    # Every sigma arranges (1,1;1) as k: nothing is evaluated but the
    # zero relation, so k's product is not formed either.
    products = []
    good = pl._depth_one_product
    monkeypatch.setattr(pl, "_depth_one_product", lambda entries: products.append(entries) or good(entries))
    calls = count_evaluations(monkeypatch)
    code, out, err = run(capsys, "kernel", "(1,1;1)", "--all-sigma")
    assert (code, err) == (0, "") and len(out.splitlines()) == 6
    assert calls == [{}] and products == []
    code, out, err = run(capsys, "kernel", "(1,2;1)", "--sigma", "2 1 3")
    assert (code, err) == (0, "") and products == [(1, 2, 1)]


def test_kernel_exits_1_when_a_relation_is_refused(capsys, monkeypatch):
    # With the closed form of (2,1) emptied, the relation of sigma = (2,1)
    # is the closed form of k alone, whose value is not zero.
    good = pl._product_terms
    monkeypatch.setattr(pl, "_product_terms", lambda entries: {} if entries == (2, 1) else good(entries))
    code, out, err = run(capsys, "kernel", "(1;2)", "--sigma", "2 1")
    assert (code, err) == (1, "")
    assert json.loads(out)["verified"] is False


def test_kernel_refuses_only_the_relations_of_a_broken_arrangement(capsys, monkeypatch):
    # One block word dropped from the closed form of (2,1,1): its value is
    # no longer that of k = (1,1,2), and the relations of sigma = (3,1,2)
    # and (3,2,1), which arrange k as (2,1,1), are false.
    good = pl._product_terms

    def dropped(entries):
        terms = good(entries)
        if entries == (2, 1, 1):
            terms.pop(next(iter(terms)))
        return terms

    monkeypatch.setattr(pl, "_product_terms", dropped)
    code, out, err = run(capsys, "kernel", "(1,1;2)", "--all-sigma")
    assert (code, err) == (1, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["verified"] for rec in records] == [True, True, True, True, False, False]
    for rec in records:
        assert rec["verified"] == pl.verify_relation(relation_from_record(rec))[0]


def test_kernel_refuses_a_lying_row_on_a_word_that_cancels(capsys, monkeypatch):
    # Li(0,2,2) has coefficient -1 in the closed forms of both (1,1,2) and
    # (2,1,1), so it cancels in their relation, but each closed form is
    # evaluated through both pipelines on its own.
    k, sigma = parse_index("(1,1;2)"), (3, 1, 2)
    assert (0, 2, 2) not in kernel_element(k, sigma)._terms
    raise_row(monkeypatch, (0, 2, 2), -1)
    code, out, err = run(capsys, "kernel", str(k), "--sigma", "3 1 2")
    assert (code, out) == (3, "")
    assert err == "error: rational and series pipelines disagree; refusing to answer\n"


def test_kernel_records_are_the_verified_relations_of_every_small_index(capsys):
    seen = 0
    for depth in range(4):
        for weight in range(7):
            for k in magnus.magnus_indices(depth, weight):
                code, out, err = run(capsys, "kernel", str(k), "--all-sigma")
                assert (code, err) == (0, "")
                lines, want = {}, []
                for sigma in itertools.permutations(range(1, depth + 2)):
                    arranged = tuple(k.entries[i - 1] for i in sigma)
                    if arranged not in lines:
                        c = kernel_element(k, sigma)
                        lines[arranged] = pl.relation_line(c, pl.verify_relation(c)[0]) + "\n"
                    want.append(lines[arranged])
                assert out == "".join(want)
                seen += len(want)
    assert seen > 1000


def test_kernel_expands_each_arrangement_once_per_sweep(capsys, monkeypatch):
    # One closed-form expansion per distinct arrangement sigma(k), k
    # included, however many sigma arrange k alike.
    good, calls = pl._product_terms, []
    monkeypatch.setattr(pl, "_product_terms", lambda entries: calls.append(entries) or good(entries))
    for index, distinct in [("(1,2,3;4)", 24), ("(1,2,1,2,1;1)", 15), ("(1,1;2)", 3), ("(1,1;1)", 1)]:
        calls.clear()
        code, out, err = run(capsys, "kernel", index, "--all-sigma")
        assert (code, err) == (0, "")
        entries = parse_index(index).entries
        assert len(out.splitlines()) == math.factorial(len(entries))
        assert len(calls) == distinct and set(calls) == set(itertools.permutations(entries))


@pytest.mark.parametrize("index, read", [("(1,2,1,2,1;1)", 1), ("(1;2)", 0)], ids=["after-one-line", "before-any-line"])
def test_kernel_into_a_closed_pipe_exits_141_quietly(index, read):
    # 141 = 128 + SIGPIPE, as the shell reports for `yes | head -1`.
    command = [*CLI, "kernel", index, "--all-sigma"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV) as proc:
        for _ in range(read):
            assert proc.stdout.readline().startswith(b'{"terms": ')
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (141, b"")


def test_verify_into_a_closed_pipe_exits_141_quietly(tmp_path):
    # The verdicts of 10,000 lines overfill a pipe's buffer, so verify
    # meets the closed pipe while it still prints them, one flush each.
    path = tmp_path / "relations.jsonl"
    path.write_text((GOOD_LINE + "\n") * 10_000)
    with path.open("rb") as fh:
        with subprocess.Popen([*CLI, "verify", "-"], stdin=fh, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV) as proc:
            assert proc.stdout.readline() == b"line 1: ok\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=120), err) == (141, b"")


@pytest.mark.parametrize(
    "fd, argv, message",
    [(0, ["verify", "-"], "stdin"), (1, ["verify", "--bundled"], "stdout"), (1, ["eval", "(1)"], "stdout")],
    ids=["verify-stdin", "verify-stdout", "eval-stdout"],
)
def test_a_closed_stdin_or_stdout_exits_2(fd, argv, message):
    # As `npolylog verify - <&-` or `npolylog eval "(1)" >&-` in a shell.
    done = subprocess.run([*CLI, *argv], capture_output=True, env=CLI_ENV, preexec_fn=lambda: os.close(fd))
    assert (done.returncode, done.stderr) == (2, f"error: {message} is closed\n".encode())


# A child whose two pipelines disagree: every row of Li(1,2) is 1 too
# large at its end, and the relation of (1;2) and sigma = (2,1) holds it.
DISAGREEING = """
import sys
import npolylog.polylog as pl
from npolylog import cli

good = pl._row_level


def lying(entries, tail, row, n):
    row = good(entries, tail, row, n)
    row[-1] += entries == (1, 2)
    return row


pl._row_level = lying
sys.exit(cli.main(["kernel", "(1;2)", "--sigma", "2 1"]))
"""


def _close_stderr():
    os.close(2)


def _unwritable_stderr():
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)


@pytest.mark.parametrize("stderr", [_close_stderr, _unwritable_stderr], ids=["closed", "read-only"])
@pytest.mark.parametrize(
    "command, stdin, code",
    [
        ([*CLI, "eval", "(a)"], b"", 2),
        ([*CLI, "verify", "-"], b"not json\n", 2),
        ([sys.executable, "-c", DISAGREEING], b"", 3),
    ],
    ids=["usage", "parse", "disagreement"],
)
def test_a_closed_stderr_keeps_the_exit_code(command, stdin, code, stderr):
    # As `npolylog eval "(a)" 2>&-`: the error line cannot be written,
    # and the command's own code stands, not 1, the code of a false
    # relation.  Python starts with no sys.stderr when fd 2 is closed,
    # and with one whose writes fail when fd 2 is open read-only.
    done = subprocess.run(command, input=stdin, capture_output=True, env=CLI_ENV, preexec_fn=stderr)
    assert (done.returncode, done.stdout, done.stderr) == (code, b"", b"")
    with_stderr = subprocess.run(command, input=stdin, capture_output=True, env=CLI_ENV)
    assert (with_stderr.returncode, with_stderr.stdout) == (code, b"")
    assert with_stderr.stderr.startswith((b"error: ", b"line 1: parse error: "))


@pytest.mark.parametrize("argv", [["bogus"], ["kernel"]], ids=["command", "arguments"])
def test_a_usage_error_with_stderr_closed_prints_nothing(argv):
    # argparse writes its usage line to stdout when sys.stderr is None;
    # the CLI sends it through the one error writer, so with fd 2 closed
    # it is dropped with the error line and the code stays 2.
    done = subprocess.run([*CLI, *argv], capture_output=True, env=CLI_ENV, preexec_fn=_close_stderr)
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", b"")
    with_stderr = subprocess.run([*CLI, *argv], capture_output=True, env=CLI_ENV)
    assert (with_stderr.returncode, with_stderr.stdout) == (2, b"")
    assert with_stderr.stderr.startswith(b"usage: npolylog ") and b": error: " in with_stderr.stderr


@pytest.mark.parametrize("sigma", ["\u0662 \u0661", "+2 1", "2_0 1"], ids=["arabic-indic", "plus", "underscore"])
def test_kernel_reads_sigma_in_ascii_digits_only(capsys, sigma):
    code, out, err = run(capsys, "kernel", "(1;2)", "--sigma", sigma)
    assert (code, out, err) == (2, "", f"error: bad permutation {sigma!r}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "(1;2)"], "expected a plain index like (1,2), got (1;2)"),
        (["magnus", "(1,2)"], "expected a magnus index like (1;2), got (1,2)"),
        (["expand", "( 1 ; 2 )"], "expected a plain index like (1,2), got (1;2)"),
        (["kernel", "(1,2)", "--sigma", "2 1"], "expected a magnus index like (1;2), got (1,2)"),
    ],
    ids=["eval", "magnus", "expand", "kernel"],
)
def test_commands_refuse_the_other_index_kind(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_kernel_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "kernel", "(0,1;2)", "--all-sigma")
    _, second, _ = run(capsys, "kernel", "(0,1;2)", "--all-sigma")
    assert first == second


def test_kernel_verify_round_trip(tmp_path, capsys):
    _, out1, _ = run(capsys, "kernel", "(1;2)", "--sigma", "2 1")
    _, out2, _ = run(capsys, "kernel", "(0,1;2)", "--sigma", "2 3 1")
    path = tmp_path / "relations.jsonl"
    path.write_text(out1 + out2)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0
    assert out == "line 1: ok\nline 2: ok\nchecked 2 relations: 2 ok, 0 failed\n"


def series_rows(sweep):
    """The (tail, bound) series rows the relations of a sweep build: every tail of every term, the empty one included."""
    wanted = set()
    for line in sweep.splitlines():
        entries = relation_from_record(json.loads(line))._terms
        bound = max((sum(e) + len(e) for e in entries), default=0)
        wanted |= {(e[i:], bound) for e in entries for i in range(len(e) + 1)}
    return wanted


def test_verify_reads_each_series_row_once_per_file(capsys, monkeypatch):
    _, sweep, _ = run(capsys, "kernel", "(1,2;1)", "--all-sigma")
    # The sweep's own rows are dropped, so verify builds every row it reads.
    log = RowLog()
    monkeypatch.setattr(pl, "_ROWS", log)
    for _ in range(2):
        monkeypatch.setattr(sys, "stdin", io.StringIO(sweep))
        code, out, err = run(capsys, "verify", "-")
        assert code == 0 and out.endswith("checked 6 relations: 6 ok, 0 failed\n")
        # One row per index, stored once at the sweep's one bound D = 7,
        # the row of Li(()) = 1 grown to it.  The rows outlive the call:
        # the second verify of the file builds and grows none.
        assert sorted(log.stored) == sorted(series_rows(sweep))


def test_kernel_reads_each_series_row_once(capsys, monkeypatch):
    log = RowLog()
    monkeypatch.setattr(pl, "_ROWS", log)
    code, sweep, err = run(capsys, "kernel", "(0,2;2)", "--all-sigma")
    assert code == 0 and err == "" and len(sweep.splitlines()) == 6
    # Every word of each distinct arrangement's closed form and every
    # proper tail of it, the empty tail included, at D = weight + depth
    # = 7, the one bound of the sweep.
    words = [w for arranged in set(itertools.permutations((0, 2, 2))) for w in magnus._product_terms(arranged)]
    wanted = {(w[i:], 7) for w in words for i in range(len(w) + 1)}
    # The arrangements share words and tails, so a build per word and
    # proper tail would build some twice.
    assert sum(map(len, words)) > len(wanted)
    assert sorted(log.stored) == sorted(wanted)


def test_kernel_formats_each_index_once_per_sweep(capsys, monkeypatch):
    built = []
    key = pl._term_key
    monkeypatch.setattr(pl, "_term_key", lambda alphabet, letters: built.append(letters) or key(alphabet, letters))
    sweeps = []
    for _ in range(2):
        built.clear()
        code, sweep, err = run(capsys, "kernel", "(1,2,1,2,1;1)", "--all-sigma")
        assert (code, err) == (0, "")
        # One distinct record line per distinct relation: the zero one and 14 others.
        assert len(set(sweep.splitlines())) == 15
        sweeps.append((sweep, list(built)))
    (sweep, first), (again, second) = sweeps
    terms = [tuple(t["index"]) for record in sweep.splitlines() for t in json.loads(record)["terms"]]
    # Indices recur across the 15 distinct relations, and each printed
    # index is formatted once.  Every term of k's closed form is printed
    # in some relation, so those are formatted too.
    formatted = set(terms)
    assert set(magnus._product_terms((1, 2, 1, 2, 1, 1))) <= formatted and len(formatted) == 256
    assert len(terms) > len(formatted) and sorted(first) == sorted(formatted)
    # The texts last one sweep: the same sweep again formats each index
    # once again and prints the same bytes.
    assert sorted(second) == sorted(first)
    assert_same_lines(again, sweep)


@pytest.mark.parametrize(
    "ends",
    [("\r", "\r", "\r"), ("\r\n", "\r\n", "\r\n"), ("\n", "\n", "\n"), ("\n", "\r\n", "\r")],
    ids=["CR", "CRLF", "LF", "mixed"],
)
def test_verify_reads_the_same_bytes_alike_piped_and_by_path(tmp_path, ends):
    data = "".join(line + end for line, end in zip([GOOD_LINE, BAD_LINE, GOOD_LINE], ends)).encode()
    path = tmp_path / "relations.jsonl"
    path.write_bytes(data)
    piped = subprocess.run([*CLI, "verify", "-"], input=data, capture_output=True, env=CLI_ENV)
    by_path = subprocess.run([*CLI, "verify", str(path)], capture_output=True, env=CLI_ENV)
    assert (piped.returncode, piped.stdout, piped.stderr) == (by_path.returncode, by_path.stdout, by_path.stderr)
    assert piped.returncode == 1 and piped.stderr == b""
    assert piped.stdout == b"line 1: ok\nline 2: FAIL witness=z/(1-z)\nline 3: ok\nchecked 3 relations: 2 ok, 1 failed\n"


def test_verify_reads_a_byte_that_is_not_utf8_alike_piped_and_by_path(tmp_path):
    # Line 2 ends in 0xff.  Python decodes stdin with surrogateescape in
    # the C and C.UTF-8 locales, as verify opens a path, so the byte is a
    # parse error of its line, after line 1's verdict.
    data = (GOOD_LINE + "\n" + BAD_LINE).encode() + b"\xff\n" + (GOOD_LINE + "\n").encode()
    path = tmp_path / "relations.jsonl"
    path.write_bytes(data)
    escaping = {**CLI_ENV, "PYTHONIOENCODING": "utf-8:surrogateescape"}
    piped = subprocess.run([*CLI, "verify", "-"], input=data, capture_output=True, env=escaping)
    by_path = subprocess.run([*CLI, "verify", str(path)], capture_output=True, env=CLI_ENV)
    assert (piped.returncode, piped.stdout, piped.stderr) == (by_path.returncode, by_path.stdout, by_path.stderr)
    assert (piped.returncode, piped.stdout) == (2, b"line 1: ok\n")
    assert piped.stderr == b"line 2: parse error: Extra data: line 1 column 85 (char 84)\n"
    # A locale that decodes stdin strictly refuses the byte itself, with exit 2 all the same.
    strict_env = {**CLI_ENV, "PYTHONIOENCODING": "utf-8:strict"}
    strict = subprocess.run([*CLI, "verify", "-"], input=data, capture_output=True, env=strict_env)
    assert strict.returncode == 2
    assert strict.stderr.startswith(b"error: 'utf-8' codec can't decode byte 0xff") and strict.stderr.count(b"\n") == 1


class PacedStdin(io.TextIOBase):
    """A stdin double that notes what stdout holds each time it is asked for a line."""

    def __init__(self, lines, stdout):
        self._lines = iter(lines)
        self._stdout = stdout
        self.seen = []

    def readline(self, size=-1):
        self.seen.append(self._stdout.getvalue())
        return next(self._lines, "")

    def read(self, size=-1):
        return "".join(iter(self.readline, ""))


def test_verify_prints_each_verdict_before_it_reads_the_next_line(monkeypatch):
    out = io.StringIO()
    stdin = PacedStdin([GOOD_LINE + "\n", BAD_LINE + "\n"], out)
    monkeypatch.setattr(sys, "stdin", stdin)
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "-"]) == 1
    # Line 2 is asked for only once line 1's verdict is out, and the end
    # of the input once line 2's is.
    assert stdin.seen == ["", "line 1: ok\n", "line 1: ok\nline 2: FAIL witness=z/(1-z)\n"]
    assert out.getvalue().endswith("\nchecked 2 relations: 1 ok, 1 failed\n")


@pytest.mark.parametrize(
    "argv, first, rest",
    [
        ([], b"line 1: ok\n", b"checked 1 relations: 1 ok, 0 failed\n"),
        (["--json"], b'{"line": 1, "ok": true, "witness": null}\n', b""),
    ],
    ids=["text", "json"],
)
def test_verify_prints_the_first_verdict_before_its_input_ends(argv, first, rest):
    # Stdout to a pipe is block-buffered unless PYTHONUNBUFFERED is set,
    # so without it only verify's flush brings the verdict out early.
    env = {name: value for name, value in CLI_ENV.items() if name != "PYTHONUNBUFFERED"}
    command = [*CLI, "verify", "-", *argv]
    with subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        try:
            proc.stdin.write(GOOD_LINE.encode() + b"\n")
            proc.stdin.flush()
            # The producer holds its end open until the verdict comes, or 30 s pass.
            seen = proc.stdout.readline() if select.select([proc.stdout], [], [], 30)[0] else b""
        finally:
            proc.stdin.close()
        assert seen == first
        assert proc.stdout.read() == rest
        assert (proc.wait(timeout=120), proc.stderr.read()) == (0, b"")


# Runs `verify -` on the file argv[1] as its stdin and prints the
# child's peak RSS in bytes.  A fresh process reads RUSAGE_CHILDREN, so
# no other child's peak is counted; ru_maxrss is in KiB on Linux.
PEAK_RSS_OF_VERIFY = """
import resource, subprocess, sys
with open(sys.argv[1], "rb") as fh:
    subprocess.run([sys.executable, "-m", "npolylog.cli", "verify", "-"], stdin=fh, stdout=subprocess.DEVNULL, check=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(peak if sys.platform == "darwin" else peak * 1024)
"""


def test_verify_holds_one_line_of_its_input_at_a_time(tmp_path):
    alone, padded = tmp_path / "alone.jsonl", tmp_path / "padded.jsonl"
    alone.write_text(GOOD_LINE + "\n")
    with padded.open("w") as fh:
        for _ in range(32):
            fh.write(" " * 2**20 + "\n")
        fh.write(GOOD_LINE + "\n")
    peaks = []
    for path in (alone, padded):
        done = subprocess.run([sys.executable, "-c", PEAK_RSS_OF_VERIFY, str(path)], capture_output=True, text=True, env=CLI_ENV)
        assert done.returncode == 0, done.stderr
        peaks.append(int(done.stdout))
    # 32 MiB of blank lines cost about one of them, not the whole input.
    assert peaks[1] - peaks[0] < 8 * 2**20, peaks


def test_verify_holds_one_line_of_a_stream_of_bare_cr_lines(capsys, tmp_path):
    # The 720-line sweep of (1,2,1,2,1;1), 3 MB, once with every line
    # ending in "\n" and once in a bare "\r".  Stdin split only at "\n",
    # as POSIX reads it, hands out the "\r" stream as one chunk: about
    # 9 MB more at the peak.
    code, sweep, err = run(capsys, "kernel", "(1,2,1,2,1;1)", "--all-sigma")
    assert (code, err) == (0, "") and sweep.count("\n") == 720
    peaks = []
    for name, end in (("lf.jsonl", "\n"), ("cr.jsonl", "\r")):
        path = tmp_path / name
        path.write_bytes(sweep.replace("\n", end).encode())
        done = subprocess.run([sys.executable, "-c", PEAK_RSS_OF_VERIFY, str(path)], capture_output=True, text=True, env=CLI_ENV)
        assert done.returncode == 0, done.stderr
        peaks.append(int(done.stdout))
    assert peaks[1] - peaks[0] < 4 * 2**20, peaks


def test_verify_stdin_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOOD_LINE + "\n" + BAD_LINE + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert code == 1
    assert out == (
        "line 1: ok\n"
        "line 2: FAIL witness=z/(1-z)\n"
        "checked 2 relations: 1 ok, 1 failed\n"
    )


def test_verify_json_verdicts(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOOD_LINE + "\n" + BAD_LINE + "\n"))
    code, out, err = run(capsys, "verify", "-", "--json")
    assert code == 1
    verdicts = [json.loads(line) for line in out.splitlines()]
    assert verdicts == [
        {"line": 1, "ok": True, "witness": None},
        {"line": 2, "ok": False, "witness": "z/(1-z)"},
    ]


def test_verify_reports_a_repeated_failing_line_each_time(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(BAD_LINE + "\n" + BAD_LINE + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert (code, err) == (1, "")
    assert out == (
        "line 1: FAIL witness=z/(1-z)\n"
        "line 2: FAIL witness=z/(1-z)\n"
        "checked 2 relations: 0 ok, 2 failed\n"
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(BAD_LINE + "\n" + BAD_LINE + "\n"))
    code, out, err = run(capsys, "verify", "-", "--json")
    assert (code, err) == (1, "")
    assert [json.loads(line) for line in out.splitlines()] == [
        {"line": 1, "ok": False, "witness": "z/(1-z)"},
        {"line": 2, "ok": False, "witness": "z/(1-z)"},
    ]


def test_verify_reports_a_malformed_line_after_repeated_good_lines(capsys, monkeypatch):
    text = "\n".join([GOOD_LINE, GOOD_LINE, GOOD_LINE, "not json", GOOD_LINE]) + "\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "verify", "-")
    assert code == 2
    assert out == "line 1: ok\nline 2: ok\nline 3: ok\n"
    assert err.startswith("line 4: parse error:") and err.count("\n") == 1


def test_verify_skips_blank_lines_and_keeps_line_numbers(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n" + GOOD_LINE + "\n  \n\t\n" + BAD_LINE + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert (code, err) == (1, "")
    assert out == "line 2: ok\nline 5: FAIL witness=z/(1-z)\nchecked 2 relations: 1 ok, 1 failed\n"


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"], ids=["U+2028", "U+2029", "U+0085"])
def test_verify_splits_lines_at_newlines_only(capsys, monkeypatch, sep):
    # JSON allows these raw inside a string, and str.splitlines breaks at them.
    noted = json.dumps({"terms": json.loads(GOOD_LINE)["terms"], "note": f"a{sep}b"}, ensure_ascii=False)
    assert sep in noted and json.loads(noted)["note"] == f"a{sep}b"
    monkeypatch.setattr(sys, "stdin", io.StringIO(noted + "\n\n" + BAD_LINE + "\r\n" + GOOD_LINE + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert (code, err) == (1, "")
    assert out == "line 1: ok\nline 3: FAIL witness=z/(1-z)\nline 4: ok\nchecked 3 relations: 2 ok, 1 failed\n"


def test_verify_of_a_deep_index_exits_1_without_traceback(capsys, monkeypatch):
    line = json.dumps({"terms": [{"coef": "1", "index": [0] * 1200}]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert code == 1 and err == ""
    assert out == "line 1: FAIL witness=z^1200/(1-z)^1200\nchecked 1 relations: 0 ok, 1 failed\n"


@pytest.mark.parametrize(
    "argv, stdin, printed",
    [
        (["verify", "-"], GOOD_LINE + "\n" + json.dumps({"terms": [{"coef": "1", "index": [sys.maxsize + 1]}]}) + "\n", "line 1: ok\n"),
        (["eval", "(1,2)", "--series", str(10 * sys.maxsize)], "", ""),
    ],
    ids=["verify-index-entry", "eval-series"],
)
def test_a_count_past_maxsize_exits_2_with_one_error_line(capsys, monkeypatch, argv, stdin, printed):
    # No list can be sized by such a count (OverflowError): a usage error,
    # not a traceback and exit 1, the code of a false relation.  verify
    # keeps the verdicts it printed before the line.
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, printed)
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_parse_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("not json\n"))
    code, out, err = run(capsys, "verify", "-")
    assert code == 2
    assert err.startswith("line 1: parse error:")


@pytest.mark.parametrize(
    "line",
    [
        "[" * 200000,
        '{"terms": [{"coef": "1", "index": [1]}], "note": ' + "[" * 200000 + "]" * 200000 + "}",
    ],
    ids=["unclosed-arrays", "nested-extra-field"],
)
def test_verify_reports_deep_nesting_as_a_parse_error(capsys, monkeypatch, line):
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOOD_LINE + "\n" + line + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert code == 2 and out == "line 1: ok\n"
    assert err.startswith("line 2: parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("line", ["[1]", "{}", '{"term": []}'])
def test_verify_refuses_a_line_that_is_not_a_relation_object(capsys, monkeypatch, line):
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOOD_LINE + "\n" + line + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert (code, out) == (2, "line 1: ok\n")
    assert err == "line 2: parse error: relation record must be an object with a 'terms' array\n"


def test_verify_rejects_bool_index_entries(capsys, monkeypatch):
    line = '{"terms":[{"coef":"1","index":[true]},{"coef":"-1","index":[1]}]}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert code == 2 and out == ""
    assert err == "line 1: parse error: term 0 has a bad index [True]\n"


# verify reads a coefficient from a JSON string, in the string syntax of
# Python 3.10's Fraction on every supported Python (no underscores, no
# spaces around the slash), or from a JSON integer.  A JSON number with a
# fraction or an exponent arrives already rounded to a float: it is refused.
ACCEPTED_COEFFICIENTS = [
    ('" 2 "', 2, "2z/(1-z)^2"),
    ('"1.5"', Fraction(3, 2), "(3/2)z/(1-z)^2"),
    ('"1e-7"', Fraction(1, 10**7), "(1/10000000)z/(1-z)^2"),
    ('"-3/9"', Fraction(-1, 3), "(-1/3)z/(1-z)^2"),
    ('"4/2"', 2, "2z/(1-z)^2"),
    ("-7", -7, "-7z/(1-z)^2"),
    ('"1e4299"', 10**4299, "1" + "0" * 4299 + "z/(1-z)^2"),
]
REJECTED_TERMS = [
    ('"0x10"', "[1]", "term 0 has a bad coefficient '0x10'"),
    ("true", "[1]", "term 0 has a bad coefficient True"),
    ("1e400", "[1]", "term 0 has a bad coefficient inf"),
    ('"1"', "[1.0]", "term 0 has a bad index [1.0]"),
    ('"1"', "[true]", "term 0 has a bad index [True]"),
    ('"1"', "[1, -2]", "term 0 has a bad index [1, -2]"),
    ('"1_0"', "[1]", "term 0 has a bad coefficient '1_0'"),
    ('"1 / 3"', "[1]", "term 0 has a bad coefficient '1 / 3'"),
    ('"\u0663"', "[1]", "term 0 has a bad coefficient '\u0663'"),
    ('"\uff11/2"', "[1]", "term 0 has a bad coefficient '\uff11/2'"),
    ('"7\\u2028"', "[1]", "term 0 has a bad coefficient '7\\u2028'"),
    ("1.00000000000000000001", "[1]", "term 0 has a bad coefficient 1.0"),
    ("1.5", "[1]", "term 0 has a bad coefficient 1.5"),
    ("2.0", "[1]", "term 0 has a bad coefficient 2.0"),
    ("-0.0", "[1]", "term 0 has a bad coefficient -0.0"),
    # The int-to-str digit limit bounds the exponent of a coefficient too:
    # its mantissa digits plus the size of its exponent count as its digits.
    ('"1e5000"', "[1]", "term 0 has a bad coefficient '1e5000'"),
    ('"1e-5000"', "[1]", "term 0 has a bad coefficient '1e-5000'"),
    ('"1e4300"', "[1]", "term 0 has a bad coefficient '1e4300'"),
    ('"1e-4300"', "[1]", "term 0 has a bad coefficient '1e-4300'"),
]


@pytest.mark.parametrize("coef, value, witness", ACCEPTED_COEFFICIENTS, ids=[c for c, _, _ in ACCEPTED_COEFFICIENTS])
def test_verify_accepts_fraction_syntax_coefficients(capsys, monkeypatch, coef, value, witness):
    line = '{"terms": [{"coef": %s, "index": [1]}]}' % coef
    terms = relation_from_record(json.loads(line))._terms
    assert terms == {(1,): value} and type(terms[1,]) is type(value)
    monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert code == 1 and err == ""
    assert out == f"line 1: FAIL witness={witness}\nchecked 1 relations: 0 ok, 1 failed\n"


@pytest.mark.parametrize(
    "text",
    [str(json.loads(c)) for c, _, _ in ACCEPTED_COEFFICIENTS]
    + ["-3/7", "+.5", "1.5e-3", " 7 ", "2E+2", "-0", "1.", "1.0", ".5e1", "2.50e1", "-0.250", "0012/0036", "+6/3", "\t-2.5E-1\n"],
)
def test_coefficients_are_read_as_fraction_reads_them(text):
    value = _parse_coef(text)
    assert value == Fraction(text)
    assert type(value) is (int if Fraction(text).denominator == 1 else Fraction)


def test_verify_sums_duplicate_indices(capsys, monkeypatch):
    line = '{"terms": [{"coef": "1/2", "index": [2, 1]}, {"coef": "-1/2", "index": [2, 1]}]}'
    assert relation_from_record(json.loads(line)).is_zero()
    monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert (code, out, err) == (0, "line 1: ok\nchecked 1 relations: 1 ok, 0 failed\n", "")


@pytest.mark.parametrize("coef, index, message", REJECTED_TERMS, ids=[f"{c}-{i}" for c, i, _ in REJECTED_TERMS])
def test_verify_rejects_malformed_terms(capsys, monkeypatch, coef, index, message):
    line = '{"terms": [{"coef": %s, "index": %s}]}' % (coef, index)
    with pytest.raises(ValueError) as exc:
        relation_from_record(json.loads(line))
    assert str(exc.value) == message
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOOD_LINE + "\n" + line + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert (code, out, err) == (2, "line 1: ok\n", f"line 2: parse error: {message}\n")


def test_pipeline_disagreement_exits_3(capsys, monkeypatch):
    raise_row(monkeypatch, (1, 2), -1)
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOOD_LINE + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert code == 3 and out == ""
    assert err == "error: rational and series pipelines disagree; refusing to answer\n"
    code, out, err = run(capsys, "kernel", "(1;2)", "--sigma", "2 1")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.fixture
def digit_limit_640():
    """Python's int-to-str digit limit at its minimum, 640, for one test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


LI_400 = json.dumps({"terms": [{"coef": "1", "index": [400]}]})


def test_values_past_the_digit_limit_are_printed(capsys, monkeypatch, digit_limit_640):
    code, out, err = run(capsys, "eval", "(400)")
    assert code == 0 and err == ""
    value = out.rstrip("\n")
    code, out, err = run(capsys, "eval", "(400)", "--json")
    assert code == 0 and err == ""
    assert max(len(c) for c in json.loads(out)["value"]["num"]) > 640
    monkeypatch.setattr(sys, "stdin", io.StringIO(LI_400 + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert code == 1 and err == ""
    assert out == f"line 1: FAIL witness={value}\nchecked 1 relations: 0 ok, 1 failed\n"
    assert sys.get_int_max_str_digits() == 640


@pytest.mark.parametrize(
    "argv",
    [("product", "2200", "1"), ("product", "2200", "1", "--json"), ("magnus", "(2200;1)"), ("expand", "(2200,0)")],
    ids=["product", "product-json", "magnus", "expand"],
)
def test_every_command_prints_values_past_the_digit_limit(capsys, digit_limit_640, argv):
    # C(2200, 1100), a coefficient of each of these, has 661 digits.
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == 640
    with cli._unlimited_digits():
        assert str(math.comb(2200, 1100)) in out


def test_kernel_prints_values_past_the_digit_limit(capsys, monkeypatch, digit_limit_640):
    # Both closed forms scaled by 7*10^699: the relation is still true,
    # and each coefficient is written past the limit by the real record.
    # The product of depth-one values that k's closed form is checked
    # against is scaled with them.
    good, scale = pl._product_terms, 7 * 10**699
    c = scale * kernel_element(parse_index("(1;2)"), (2, 1))
    monkeypatch.setattr(pl, "_product_terms", lambda entries: {w: scale * a for w, a in good(entries).items()})
    product = pl._depth_one_product
    monkeypatch.setattr(pl, "_depth_one_product", lambda entries: scale * product(entries))
    code, out, err = run(capsys, "kernel", "(1;2)", "--sigma", "2 1")
    assert (code, err) == (0, "")
    with cli._unlimited_digits():
        assert out == pl.relation_line(c, True) + "\n"
        assert str(scale) in out
    assert sys.get_int_max_str_digits() == 640


def test_verify_parses_under_the_digit_limit_after_a_long_witness(capsys, monkeypatch, digit_limit_640):
    huge = json.dumps({"terms": [{"coef": "7" * 700, "index": [1]}]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(LI_400 + "\n" + huge + "\n"))
    code, out, err = run(capsys, "verify", "-")
    assert code == 2
    assert out.startswith("line 1: FAIL witness=") and out.count("\n") == 1
    assert err.startswith("line 2: parse error: term 0 has a bad coefficient")


def test_verify_bundled(capsys):
    code, out, err = run(capsys, "verify", "--bundled")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "checked 5 relations: 5 ok, 0 failed"
    assert all(line.endswith("ok") for line in lines[:-1])


def test_verify_refuses_a_file_together_with_bundled(capsys):
    for argv in (["/nonexistent/path.jsonl", "--bundled"], ["-", "--bundled"], ["--bundled", "-"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with argument" in err


def test_duality_check(capsys):
    code, out, err = run(capsys, "duality-check", "--max-depth", "1", "--max-weight", "1")
    assert code == 0
    assert out == (
        "depth=0 weight=0 size=1 ok\n"
        "depth=0 weight=1 size=1 ok\n"
        "depth=1 weight=0 size=1 ok\n"
        "depth=1 weight=1 size=2 ok\n"
        "all graded pieces ok\n"
    )


def test_duality_check_json(capsys):
    code, out, err = run(capsys, "duality-check", "--max-depth", "1", "--max-weight", "1", "--json")
    assert (code, err) == (0, "")
    cell = '{"depth": %d, "weight": %d, "size": %d, "duality_ok": true, "inversion_ok": true, "ok": true}'
    cells = ", ".join(cell % c for c in [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 2)])
    assert out == '{"max_depth": 1, "max_weight": 1, "cells": [%s], "ok": true}\n' % cells


# The boxes (5, 8) and (2, 30) take about half the manifest's time.  CI's
# installed-package step regenerates the whole manifest and compares it
# with the file, and here the records of (5, 8) are checked against the
# per-index path by test_grade_report_equals_the_per_index_path.
LEFT_TO_CI = {
    "duality-check --max-depth 5 --max-weight 8",
    "duality-check --max-depth 5 --max-weight 8 --json",
    "duality-check --max-depth 2 --max-weight 30",
}


def committed_manifest(names):
    """The committed records of the subcommands in names, in corpus order, with their argv lists.

    A pipeline counts as the subcommand of its last stage.
    """
    committed = json.loads(output_manifest.PATH.read_text(encoding="utf-8"))
    commands = output_manifest.corpus()
    assert list(committed) == [" ".join(argv) for argv in commands]
    commands = [argv for argv in commands if output_manifest.recorded_command(argv) in names]
    return commands, {" ".join(argv): committed[" ".join(argv)] for argv in commands}


def test_duality_check_bytes_match_the_manifest():
    commands, committed = committed_manifest({"duality-check"})
    assert len(commands) == 109 and all(rec["exit"] == 0 for rec in committed.values())
    checked = [argv for argv in commands if " ".join(argv) not in LEFT_TO_CI]
    assert output_manifest.manifest(checked) == {cmd: rec for cmd, rec in committed.items() if cmd not in LEFT_TO_CI}


def test_kernel_bytes_match_the_manifest():
    # The 329 sweeps of depth <= 3 and weight <= 6, two single sigmas and
    # one refused sigma, which exits 2 with a message and no record.
    commands, committed = committed_manifest({"kernel"})
    assert len(commands) == 332
    assert [rec["exit"] for rec in committed.values()] == [0] * 331 + [2]
    assert output_manifest.manifest(commands) == committed


def test_verify_eval_expand_magnus_and_product_bytes_match_the_manifest():
    # verify --bundled plain and --json, three sweeps piped to verify -
    # and the mixed-D stream; the grids of eval, expand, magnus and
    # product with three more eval and magnus commands, and the refused
    # expand "()" and magnus "(1,2)", which exit 2.
    commands, committed = committed_manifest({"verify", "eval", "expand", "magnus", "product"})
    assert len(commands) == 6 + 46 + 69 + 71 + 78
    assert sorted(cmd for cmd, rec in committed.items() if rec["exit"] != 0) == ["expand ()", "magnus (1,2)"]
    assert output_manifest.manifest(commands) == committed


def test_warm_caches_print_the_manifest_bytes():
    # The manifest runs each command with fresh caches, as a new process
    # starts with.  Run in one pass that shares the caches of every earlier
    # command, each command prints the same bytes.  The verify commands
    # then run once more, so the bundled relations and the sweeps read
    # series rows that an earlier verify grew to D = 5, 6, 11, 15 and 20.
    committed = json.loads(output_manifest.PATH.read_text(encoding="utf-8"))
    commands = [argv for argv in output_manifest.corpus() if " ".join(argv) not in LEFT_TO_CI]
    assert output_manifest.manifest(commands, fresh=False) == {
        cmd: rec for cmd, rec in committed.items() if cmd not in LEFT_TO_CI
    }
    verify = [argv for argv in commands if output_manifest.recorded_command(argv) == "verify"]
    again = output_manifest.manifest(verify, fresh=False)
    assert len(again) == 6 and again == {cmd: committed[cmd] for cmd in again}
    assert len(pl._LI) > 1 and len(pl._ROWS) > 1


def test_new_caches_are_those_a_new_interpreter_starts_with():
    # The manifest's fresh caches and the tests' are new_caches(): in a
    # new interpreter, polylog's upper-case module dicts, its caches, are
    # exactly those, so a new seed or a new cache cannot leave them behind.
    child = (
        "import sys, npolylog.polylog as pl, output_manifest; "
        "caches = {name: v for name, v in vars(pl).items() if name.isupper() and isinstance(v, dict)}; "
        "sys.exit(0 if caches == output_manifest.new_caches() else repr(caches))"
    )
    env = {**CLI_ENV, "PYTHONPATH": os.pathsep.join([CLI_ENV["PYTHONPATH"], str(Path(output_manifest.__file__).parent)])}
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")


def test_duality_check_rejects_negative_bounds(capsys):
    for flag, value in (("--max-depth", "-1"), ("--max-weight", "-2")):
        code, out, err = run(capsys, "duality-check", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "must be >= 0" in err


COUNT_ARGUMENTS = [
    pytest.param(lambda v: ("product", v, "2"), id="product-factor"),
    pytest.param(lambda v: ("eval", "(1)", "--series", v), id="eval-series"),
    pytest.param(lambda v: ("duality-check", "--max-depth", v, "--max-weight", "1"), id="max-depth"),
    pytest.param(lambda v: ("duality-check", "--max-depth", "1", "--max-weight", v), id="max-weight"),
]


@pytest.mark.parametrize("argv", COUNT_ARGUMENTS)
@pytest.mark.parametrize("value", ["1_0", "\u0663", "+2", "-1", "-0", " -0 ", "x"])
def test_count_arguments_take_ascii_digits_only(capsys, argv, value):
    # A count is read as an index entry is, so int()'s underscores,
    # non-ASCII digits and any sign, "-0" too, are refused with exit 2
    # and one error line, the same message for each.
    code, out, err = run(capsys, *argv(value))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be >= 0" in err


def test_parser_is_built_once_and_reused(capsys):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    # Options of one call must not leak into the next through the shared parser.
    code, _, _ = run(capsys, "eval", "(1)", "--series", "x")
    assert code == 2
    code, out, _ = run(capsys, "eval", "(1)", "--series", "2")
    assert code == 0 and out == "z/(1-z)^2\nseries: 0, 1, 2\n"
    code, out, _ = run(capsys, "eval", "(1)")
    assert code == 0 and out == "z/(1-z)^2\n"
    code, out, _ = run(capsys, "duality-check", "--max-depth", "0", "--max-weight", "0")
    assert code == 0 and out == "depth=0 weight=0 size=1 ok\nall graded pieces ok\n"


def main_outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSER_ARGVS = [[], ["-h"], ["bogus"], ["kernel", "(1;2)", "--all-sigma", "extra"]] + [
    argv for name in cli._COMMANDS for argv in ([name, "--help"], [name], [name, "--bogus"])
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_a_command_parses_as_the_full_parser_does(capsys, monkeypatch, argv):
    built, parser = [], cli._parser
    monkeypatch.setattr(cli, "_parser", lambda command=None: built.append(command) or parser(command))
    per_command = main_outcome(capsys, argv)
    # A named command builds only its own subparser; anything else builds all.
    assert built == [argv[0] if argv and argv[0] in cli._COMMANDS else None]
    monkeypatch.setattr(cli, "_parser", lambda command=None: cli.build_parser())
    assert per_command == main_outcome(capsys, argv)
    code, out, err = per_command
    assert code in (0, 2)
    # The top-level usage names the metavar, never the list of choices.
    assert "{eval," not in out + err


def test_a_one_command_parser_holds_that_command_only():
    assert cli.build_parser("verify").format_usage() == cli.build_parser().format_usage()
    assert "duality-check" in cli.build_parser().format_help()
    assert "duality-check" not in cli.build_parser("verify").format_help()
    with pytest.raises(KeyError):
        cli.build_parser("bogus")


def test_usage_errors_exit_2(capsys):
    code, out, err = run(capsys, "eval", "(a)")
    assert code == 2
    assert err == "error: bad token 'a' in index '(a)'\n"
    code, out, err = run(capsys, "kernel", "(1;2)", "--sigma", "1 1")
    assert code == 2
    assert err.startswith("error: sigma must be a permutation")
    code, out, err = run(capsys, "verify", "/nonexistent/path.jsonl")
    assert code == 2
    assert err.startswith("error:")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 2
    assert "one of the arguments file --bundled is required" in capsys.readouterr().err


def test_argparse_rejects_missing_or_conflicting_sigma(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel", "(1;2)"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel", "(1;2)", "--sigma", "2 1", "--all-sigma"])
    assert exc.value.code == 2
