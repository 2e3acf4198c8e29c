"""The byte-identity manifest of CLI output, and its generator.

For each command of the corpus, the manifest holds the sha256 of its
stdout, the sha256 of its stderr and its exit code, each command run
through the in-process cli.main.  The corpus is the 54 duality-check
boxes of depth <= 5 and weight <= 8, each plain and with --json; the
kernel --all-sigma sweep of each of the 329 magnus indices of depth
<= 3 and weight <= 6; two kernel --sigma commands, one of them the
identity; and one refused sigma, which exits 2.  A change that alters
output regenerates the manifest and says which commands changed and
why:

    PYTHONPATH=src python tests/output_manifest.py > tests/output_manifest.json

test_cli recomputes the manifest and compares it with the committed file.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from npolylog.cli import main
from npolylog.magnus import magnus_indices

PATH = Path(__file__).with_name("output_manifest.json")


def corpus() -> list[list[str]]:
    """The commands of the manifest, as argv lists, in the order it lists them."""
    duality = [
        ["duality-check", "--max-depth", str(depth), "--max-weight", str(weight), *form]
        for depth in range(6)
        for weight in range(9)
        for form in ([], ["--json"])
    ]
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
    return duality + sweeps + sigmas


def run(argv: list[str]) -> dict[str, object]:
    """The sha256 of stdout and of stderr, and the exit code, of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "exit": code,
    }


def manifest(commands: list[list[str]]) -> dict[str, dict[str, object]]:
    """The record of each command, keyed by its argv joined with spaces."""
    return {" ".join(argv): run(argv) for argv in commands}


def dumps(records: dict[str, dict[str, object]]) -> str:
    """The manifest file's text: one command per line, so a diff names the commands that changed."""
    lines = [f"  {json.dumps(cmd)}: {json.dumps(rec)}" for cmd, rec in records.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    sys.stdout.write(dumps(manifest(corpus())))
