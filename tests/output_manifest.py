"""The byte-identity manifest of CLI output, and its generator.

For each command of the corpus, the manifest holds the sha256 of its
stdout, the sha256 of its stderr and its exit code, each command run
through the in-process cli.main with fresh Li, series-row and
index-text caches, as a new process starts with.  The corpus is:

  * the 54 duality-check boxes of depth <= 5 and weight <= 8, each
    plain and with --json, and the box of depth <= 2 and weight <= 30,
    whose leaves reach 31 tails;
  * the kernel --all-sigma sweep of each of the 329 magnus indices of
    depth <= 3 and weight <= 6; two kernel --sigma commands, one of
    them the identity; and one refused sigma, which exits 2;
  * verify --bundled, plain and with --json; the sweeps of
    (1,2,1,2,1;1), of (3,1,2;2), the heaviest kernel-sweep cell, and of
    (0,1;2), each piped to verify -; and the mixed stream of the sweep
    of (1,2,3;4) followed by the bundled relations, piped to verify -,
    whose relations read series rows at several bounds;
  * eval of each plain index of depth <= 2 and weight <= 3, plain,
    with --series 5 and with --json --series 5, and of (1,1) with
    --series 4;
  * expand of each plain index of depth 1 to 3 and weight <= 3, plain
    and with --json, and of "()", which exits 2;
  * magnus of each magnus index of depth <= 2 and weight <= 3, plain
    and with --json, of (1,2;1) and of (1,2,3;4) with --json, and of
    the plain "(1,2)", which exits 2;
  * product of each list of 1 to 3 factors, each <= 2, plain and with
    --json.

A command may be a pipeline, written as a shell would: "|" joins
stages, each stage's stdout the next one's stdin, and ";" joins the
commands of one stage, whose stdouts are concatenated.  "cat NAME"
stands for the package data file data/NAME, which verify --bundled
reads.  Each command of a pipeline runs with fresh caches, as its own
process would; the record holds the last stage's stdout, the stderr of
every command and the exit code of the last.  A change that alters
output regenerates the manifest and says which commands changed and
why:

    PYTHONPATH=src python tests/output_manifest.py > tests/output_manifest.json

test_cli recomputes the manifest, but for its slowest boxes, and
compares it with the committed file; it also runs the corpus once more
in one pass with warm caches, and then the verify commands again.  CI
recomputes every command against the installed package.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
from importlib import resources
from pathlib import Path

import npolylog.polylog as pl
from npolylog.cli import main
from npolylog.magnus import magnus_indices
from npolylog.ratpoly import RatFun

PATH = Path(__file__).with_name("output_manifest.json")


def _plain(depths: range, max_weight: int) -> list[str]:
    """The plain indices of the given depths and weight <= max_weight, as text, by depth then entries."""
    return [
        "({})".format(",".join(map(str, e)))
        for depth in depths
        for e in itertools.product(range(max_weight + 1), repeat=depth)
        if sum(e) <= max_weight
    ]


def corpus() -> list[list[str]]:
    """The commands of the manifest, as argv lists, in the order it lists them."""
    duality = [
        ["duality-check", "--max-depth", str(depth), "--max-weight", str(weight), *form]
        for depth in range(6)
        for weight in range(9)
        for form in ([], ["--json"])
    ] + [["duality-check", "--max-depth", "2", "--max-weight", "30"]]
    sweeps = [
        ["kernel", str(k), "--all-sigma"]
        for depth in range(4)
        for weight in range(7)
        for k in magnus_indices(depth, weight)
    ]
    sigmas = [
        ["kernel", "(1,2,3;4)", "--sigma", "2 1 4 3"],
        ["kernel", "(1,2;3)", "--sigma", "1 2 3"],
        ["kernel", "(1;2)", "--sigma", "1 1"],
    ]
    verify = [
        ["verify", "--bundled"],
        ["verify", "--bundled", "--json"],
        ["kernel", "(1,2,1,2,1;1)", "--all-sigma", "|", "verify", "-"],
        ["kernel", "(3,1,2;2)", "--all-sigma", "|", "verify", "-"],
        ["kernel", "(0,1;2)", "--all-sigma", "|", "verify", "-"],
        ["kernel", "(1,2,3;4)", "--all-sigma", ";", "cat", "known_relations.jsonl", "|", "verify", "-"],
    ]
    evals = [
        ["eval", s, *form]
        for s in _plain(range(3), 3)
        for form in ([], ["--series", "5"], ["--json", "--series", "5"])
    ] + [["eval", "(1,1)", "--series", "4"]]
    expands = [["expand", s, *form] for s in _plain(range(1, 4), 3) for form in ([], ["--json"])]
    magnus = [
        ["magnus", str(k), *form]
        for depth in range(3)
        for weight in range(4)
        for k in magnus_indices(depth, weight)
        for form in ([], ["--json"])
    ] + [["magnus", "(1,2;1)"], ["magnus", "(1,2,3;4)", "--json"]]
    products = [
        ["product", *map(str, factors), *form]
        for n in range(1, 4)
        for factors in itertools.product(range(3), repeat=n)
        for form in ([], ["--json"])
    ]
    refused = [["expand", "()"], ["magnus", "(1,2)"]]
    return duality + sweeps + sigmas + verify + evals + expands + magnus + products + refused


def recorded_command(argv: list[str]) -> str:
    """The subcommand whose output a record holds: that of the pipeline's last stage."""
    return _split(argv, "|")[-1][0]


def _split(tokens: list[str], sep: str) -> list[list[str]]:
    parts: list[list[str]] = [[]]
    for t in tokens:
        if t == sep:
            parts.append([])
        else:
            parts[-1].append(t)
    return parts


def _call(argv: list[str], stdin: str, fresh: bool) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one in-process command, fresh caches first if fresh is set."""
    if fresh:
        pl._LI, pl._ROWS = {(): RatFun.one()}, {(): [1]}
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return out.getvalue(), err.getvalue(), code


def run(argv: list[str], fresh: bool = True) -> dict[str, object]:
    """The sha256 of stdout and of stderr, and the exit code, of one in-process command or pipeline."""
    stdin, errs, code = "", [], 0
    for stage in _split(argv, "|"):
        outs = []
        for cmd in _split(stage, ";"):
            if cmd[0] == "cat":
                outs.append(resources.files("npolylog").joinpath("data", *cmd[1:]).read_text(encoding="utf-8"))
                continue
            out, err, code = _call(cmd, stdin, fresh)
            outs.append(out)
            errs.append(err)
        stdin = "".join(outs)
    return {
        "stdout": hashlib.sha256(stdin.encode()).hexdigest(),
        "stderr": hashlib.sha256("".join(errs).encode()).hexdigest(),
        "exit": code,
    }


def manifest(commands: list[list[str]], fresh: bool = True) -> dict[str, dict[str, object]]:
    """The record of each command, keyed by its argv joined with spaces; fresh=False shares caches across commands."""
    return {" ".join(argv): run(argv, fresh) for argv in commands}


def dumps(records: dict[str, dict[str, object]]) -> str:
    """The manifest file's text: one command per line, so a diff names the commands that changed."""
    lines = [f"  {json.dumps(cmd)}: {json.dumps(rec)}" for cmd, rec in records.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    sys.stdout.write(dumps(manifest(corpus())))
