"""Command-line front end.

Subcommands map one-to-one onto library operations: eval (rational
value of one index), magnus (Magnus polynomial, its image under the
word-splitting map, and the product identity it encodes), expand
(single value as products of depth-one values), product (n-fold
product expansion), kernel (functional equations from slot
permutations, emitted as JSON lines), verify (recheck a relation
file), and duality-check (basis-change sweeps).  All output is
byte-deterministic.  Exit codes: 0 success, 1 verification failure,
2 parse or usage error, 3 the two evaluation pipelines disagreed and
the relation was left undecided, 141 (128 + SIGPIPE, what the shell
reports for a process killed by SIGPIPE) the reader closed stdout,
with nothing on stderr.  A closed stderr drops the error line, and
argparse's usage line with it, and keeps the code.  Every count
argument is read by one rule, as an index entry is: ASCII digits and
no sign, so "-0" is refused as "-1" is, with one message.  magnus and
product print the product identity through one renderer.

A kernel sweep walks arrangements, not permutations: --all-sigma
passes the permutations of k's entries, in the order of the slot
permutations and valid by construction, and --sigma checks its one
sigma and passes the arrangement sigma(k).  The sweep evaluates k and
each distinct arrangement once, not each relation, so it costs its
distinct arrangements: "(1,2,1,2,1;1)" --all-sigma evaluates 15,
counting k, and --sigma evaluates k and one arrangement, or none for
the identity.
polylog._kernel_records keeps the sweep's one dict, from each
arrangement met to its record line and verdict, for one command call,
and kernel prints the lines it yields.  The Li values and series rows
are cached by polylog for the process, so the relations of one sweep
or one verify file share them, and so do repeated main() calls in one
process.  A sweep's words are cached with their tails, and its index
texts last one call.  verify reads its one source, a path, "-" or the
bundled file beside this module, a line at a time through _lines, and
prints each verdict as soon as its line is decided: it holds one chunk
of its input at a time, and a piped stream gets its verdicts as it is
written.

Importing this module loads no dataclasses or typing, and no command
loads importlib.resources: each command call is a new process, and
start-up is paid on every call.  For the same reason main builds the
subparser of the command it is given and no other; no arguments, -h or
an unknown command build the full parser, which lists every command.
Either way the output is the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator, Sequence

from .freealg import NcPoly, poly_to_json_obj
from .magnus import grade_report, magnus_poly
from .polylog import (
    LinComb,
    PipelineDisagreement,
    _arranged,
    _kernel_records,
    expand_to_products,
    nfold_product,
    polylog_rational,
    relation_from_record,
    relation_record,
    verify_relation,
)
from .ratpoly import taylor_coeffs
from .words import _parse_int, _require_magnus, _require_plain, parse_index

_BUNDLED = os.path.join(os.path.dirname(__file__), "data", "known_relations.jsonl")


@contextlib.contextmanager
def _unlimited_digits():
    """Lift Python's int-to-str digit limit while a computed value becomes text.

    The limit guards parsing against huge untrusted numbers, so it is
    restored before any further input is read.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _count(text: str, name: str) -> int:
    """A count argument, ASCII digits as in an index, so no sign is read."""
    try:
        return _parse_int(text, text)
    except ValueError:
        raise ValueError(f"bad {name} {text!r}: a count must be >= 0, written in ASCII digits") from None


def _label(factors: Sequence[int]) -> str:
    return "*".join(f"Li({f})" for f in factors)


def _product(factors: Sequence[int]) -> tuple[LinComb, str, dict[str, object]]:
    """Li(f1)*...*Li(fn) in closed form: the relation, its text line and its JSON object."""
    c = nfold_product(factors)
    return c, f"{_label(factors)} = {c}", {"factors": list(factors), "terms": relation_record(c, True)["terms"]}


def cmd_eval(args: argparse.Namespace) -> int:
    idx = _require_plain(parse_index(args.index))
    n_max = None if args.series is None else _count(args.series, "--series")
    f = polylog_rational(idx)
    series = None if n_max is None else taylor_coeffs(f, n_max)
    with _unlimited_digits():
        if args.json:
            obj: dict[str, object] = {"index": list(idx.entries), "value": f.to_json_obj()}
            if series is not None:
                obj["series"] = [str(c) for c in series]
            print(json.dumps(obj))
        else:
            print(str(f))
            if series is not None:
                print("series: " + ", ".join(str(c) for c in series))
    return 0


def cmd_magnus(args: argparse.Namespace) -> int:
    k = _require_magnus(parse_index(args.index))
    with _unlimited_digits():
        expansion, line, product = _product(k.entries)
        image = NcPoly._trusted("Y", expansion._terms)
        if args.json:
            obj = {
                "index": str(k),
                "magnus": poly_to_json_obj(magnus_poly(k)),
                "image": poly_to_json_obj(image),
                "product": product,
            }
            print(json.dumps(obj))
        else:
            print(f"magnus: {magnus_poly(k)}")
            print(f"image: {image}")
            print(f"product: {line}")
    return 0


def cmd_expand(args: argparse.Namespace) -> int:
    s = _require_plain(parse_index(args.index))
    fam = sorted(expand_to_products(s).items(), key=lambda kv: kv[0].entries)
    with _unlimited_digits():
        if args.json:
            print(json.dumps({"index": list(s.entries), "products": {str(k): c for k, c in fam}}))
        else:
            chunks = [_label(k.entries) if c == 1 else f"{c}*{_label(k.entries)}" for k, c in fam]
            print(f"Li{s} = " + " + ".join(chunks))
    return 0


def cmd_product(args: argparse.Namespace) -> int:
    factors = [_count(f, "factor") for f in args.factors]
    with _unlimited_digits():
        _, line, obj = _product(factors)
        print(json.dumps(obj) if args.json else line)
    return 0


def cmd_kernel(args: argparse.Namespace) -> int:
    k = _require_magnus(parse_index(args.index))
    if args.all_sigma:
        # Positions permuted in lexicographic order: the arrangements of
        # the slot permutations in order, each valid by construction.
        arrangements = itertools.permutations(k.entries)
    else:
        try:
            sigma = [_parse_int(t, args.sigma) for t in args.sigma.split()]
        except ValueError as exc:
            raise ValueError(f"bad permutation {args.sigma!r}") from exc
        arrangements = [_arranged(k, sigma)]
    rc = 0
    with _unlimited_digits():
        for line, ok in _kernel_records(k, arrangements):
            print(line)
            if not ok:
                rc = 1
    return rc


def _error(line: str) -> None:
    """Write line to stderr, or nothing when stderr is closed: the command's exit code stands either way."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def _lines(stream: Iterable[str]) -> Iterator[str]:
    """The lines of a text stream, each without its end: "\r\n", a bare "\r" or "\n".

    A stream hands out chunks that end at "\n", as io.StringIO does, or
    also at "\r", as a file or stdin read with newline="" does; neither
    splits "\r\n".  A raw "\r" cannot occur inside a JSON string, while
    U+2028, U+2029 and U+0085 can, so they do not end a line.
    """
    for chunk in stream:
        yield from chunk.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")


def cmd_verify(args: argparse.Namespace) -> int:
    path = _BUNDLED if args.bundled else args.file
    if path == "-" and sys.stdin is None:
        raise OSError("stdin is closed")
    # POSIX stdin ends its chunks only at "\n"; read it as a path is read.
    if path == "-" and hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(newline="")
    checked = 0
    failed = 0
    # A byte that is not UTF-8 is decoded as Python decodes stdin in the
    # C locale, so it fails the parse of its line, by path as piped.
    with contextlib.nullcontext(sys.stdin) if path == "-" else open(
        path, encoding="utf-8", errors="surrogateescape", newline=""
    ) as source:
        for lineno, line in enumerate(_lines(source), start=1):
            if not line.strip():
                continue
            # json.loads recurses once per nesting level, so a deeply nested
            # line raises RecursionError: a parse error like any other.
            try:
                record = json.loads(line)
                c = relation_from_record(record)
            except (json.JSONDecodeError, ValueError, RecursionError) as exc:
                _error(f"line {lineno}: parse error: {exc}")
                return 2
            ok, witness = verify_relation(c)
            checked += 1
            if not ok:
                failed += 1
            with _unlimited_digits():
                shown = None if ok else str(witness)
            if args.json:
                print(json.dumps({"line": lineno, "ok": ok, "witness": shown}), flush=True)
            else:
                print(f"line {lineno}: ok" if ok else f"line {lineno}: FAIL witness={shown}", flush=True)
    if not args.json:
        print(f"checked {checked} relations: {checked - failed} ok, {failed} failed")
    return 1 if failed else 0


def cmd_duality_check(args: argparse.Namespace) -> int:
    max_depth, max_weight = _count(args.max_depth, "--max-depth"), _count(args.max_weight, "--max-weight")
    cells = []
    ok = True
    for cell in grade_report(max_depth, max_weight):
        ok = ok and cell["ok"]
        if args.json:
            cells.append(cell)
        else:
            state = "ok" if cell["ok"] else "FAIL"
            print(f"depth={cell['depth']} weight={cell['weight']} size={cell['size']} {state}")
    if args.json:
        print(json.dumps({"max_depth": max_depth, "max_weight": max_weight, "cells": cells, "ok": ok}))
    else:
        print("all graded pieces ok" if ok else "FAIL")
    return 0 if ok else 1


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("index", help='plain index, e.g. "(1,2)" or "()"')
    p.add_argument("--series", metavar="N", help="also print coefficients of z^0..z^N")
    p.add_argument("--json", action="store_true")


def _magnus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("index", help='magnus index, e.g. "(1;2)" or "(;0)"')
    p.add_argument("--json", action="store_true")


def _expand_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("index", help='plain index of depth >= 1, e.g. "(1,1)"')
    p.add_argument("--json", action="store_true")


def _product_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("factors", nargs="+", help="single indices, e.g. 5 4")
    p.add_argument("--json", action="store_true")


def _kernel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("index", help='magnus index, e.g. "(1;2)"')
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--sigma", metavar="PERM", help='one-line permutation, e.g. "2 1"')
    g.add_argument("--all-sigma", action="store_true", help="every permutation of the slots")


def _verify_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("file", nargs="?", help="path to a .jsonl file, or '-' for stdin")
    g.add_argument("--bundled", action="store_true", help="check the relations shipped with the package")
    p.add_argument("--json", action="store_true")


def _duality_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-depth", default="3")
    p.add_argument("--max-weight", default="6")
    p.add_argument("--json", action="store_true")


# name -> (handler, help line, arguments), in the order the full parser lists them.
_COMMANDS = {
    "eval": (cmd_eval, "rational value of Li at one plain index", _eval_args),
    "magnus": (cmd_magnus, "Magnus polynomial, its Y-image, and its product identity", _magnus_args),
    "expand": (cmd_expand, "one Li value as products of depth-one values", _expand_args),
    "product": (cmd_product, "expand a product of depth-one values", _product_args),
    "kernel": (cmd_kernel, "functional equations from slot permutations (JSON lines)", _kernel_args),
    "verify": (cmd_verify, "recheck a relation file (JSON lines)", _verify_args),
    "duality-check": (cmd_duality_check, "basis-change sweeps over graded pieces", _duality_check_args),
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with its usage error written through _error: with stderr closed, nothing goes to stdout."""

    def error(self, message: str) -> None:
        _error(f"{self.format_usage()}{self.prog}: error: {message}")
        self.exit(2)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or, given a command's name, of that one only.

    A one-command parser parses that command's arguments as the full
    parser does, with the same output and errors: the top-level usage
    names the metavar "command", not the list of choices, and a
    command's own errors come from its own subparser.
    """
    parser = _Parser(
        prog="npolylog",
        description=(
            "Exact polylogarithm values at non-positive indices, Magnus-basis "
            "expansions, and functional-equation generation and checking."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in _COMMANDS if command is None else [command]:
        func, text, add_args = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        add_args(p)
        p.set_defaults(func=func)
    return parser


# One parser per command and process: building one costs about as much
# as a short command.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A named command builds only its own subparser.  No arguments, -h
    # or an unknown command take the full one, which lists the commands.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _parser(command).parse_args(argv)
    try:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        rc = args.func(args)
        # A reader that closed the pipe is met here, not at exit.
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # As the Python docs' note on SIGPIPE does: the flush at exit
        # writes to devnull and cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        _error(f"error: {exc}")
        return 2
    except PipelineDisagreement as exc:
        _error(f"error: {exc}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
