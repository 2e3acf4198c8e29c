"""Seeded workloads: CLI argument lists with the answers they must produce.

A run is a sequence of whole cycles of passes.  Pass i is drawn from
two generators.  random.Random("<workload>/pass/<i mod cycle>") fixes
what decides an op's cost:
the tail of each magnus index and the multiset of its other entries,
the entries of each relation and of each term that makes a line false,
which lines are false, and which entry each permutation moves to the
last slot (that entry fixes the number of terms).
random.Random("<workload>/<seed>/<i>") draws everything else: the order
of the other entries, the rest of each permutation, the rational
coefficients, the order of the ops.  So the same seed always gives the
same inputs, and runs with different seeds do comparable work.  Without
this split, runs of kernel-sweep and verify-mixed moved by 10-30 % from
seed to seed on the size of their draws alone.  As the cost-deciding
draws repeat every cycle, a run that fits more cycles into its time
measures the same mix as one that fits fewer.  Expected answers come
from oracle.py, never from npolylog.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import oracle

WORKLOADS = ("kernel-sweep", "verify-mixed", "duality-sweep")

# Passes per cycle: about 5 s of work at the reference speed each.
CYCLES = {"kernel-sweep": 4, "verify-mixed": 8, "duality-sweep": 3}

# kernel-sweep draws one magnus index per (depth, weight) cell.
KERNEL_DEPTHS = (2, 3)
KERNEL_WEIGHTS = range(3, 9)

# verify-mixed: relation lines per pass besides the bundled ones; a
# quarter of all lines are made false.
VERIFY_LINES = 15
VERIFY_MAX_WEIGHT = 12

# duality-sweep runs every box whose largest graded piece has at most
# this many rows, 25 boxes.  That leaves out (3,6), (4,5) and larger:
# (4,6) alone costs as much as four passes of the rest.  With 25 boxes
# per pass the nearest ranks of p50 and p90 (12.5 and 22.5 of 25) fall
# in the middle of one box's samples, not on the edge between two boxes
# of very different cost.
DUALITY_MAX_DEPTH = 4
DUALITY_MAX_WEIGHT = 8
DUALITY_MAX_PIECE = 70

BUNDLED = Path("src/npolylog/data/known_relations.jsonl")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    stdin: str
    stdout: str
    code: int


def _composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """A uniformly random composition of total into parts entries >= 0."""
    cuts = sorted(rng.sample(range(total + parts - 1), parts - 1))
    bounds = [-1] + cuts + [total + parts - 1]
    return tuple(bounds[i + 1] - bounds[i] - 1 for i in range(parts))


def _magnus_text(entries: tuple[int, ...]) -> str:
    return "({};{})".format(",".join(map(str, entries[:-1])), entries[-1])


def kernel_pass(shape: random.Random, rng: random.Random) -> list[Op]:
    ops = []
    for depth in KERNEL_DEPTHS:
        for weight in KERNEL_WEIGHTS:
            entries = _composition(shape, weight, depth + 1)
            k = tuple(rng.sample(entries[:-1], depth)) + entries[-1:]
            argv = ("kernel", _magnus_text(k), "--all-sigma")
            ops.append(Op(argv, "", oracle.kernel_output(k), 0))
    rng.shuffle(ops)
    return ops


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def _random_relation(shape: random.Random, rng: random.Random) -> oracle.Terms:
    """A random-rational combination of 1-3 nonzero permutation relations."""
    parts = []
    for _ in range(shape.randint(1, 3)):
        f: tuple[int, ...] = (0,)
        while len(set(f)) == 1:
            depth = shape.randint(1, 3)
            f = _composition(shape, shape.randint(1, VERIFY_MAX_WEIGHT), depth + 1)
        # Moving an entry other than f's last value to the end makes
        # sigma f differ from f, so the relation is nonzero: the
        # nfold(f) are linearly independent (they are Magnus polynomials).
        last = shape.choice([i for i in range(1, len(f) + 1) if f[i - 1] != f[-1]])
        rest = [i for i in range(1, len(f) + 1) if i != last]
        sigma = tuple(rng.sample(rest, len(rest))) + (last,)
        parts.append((_rational(rng), oracle.perm_relation(f, sigma)))
    return oracle.combine(*parts)


def _bundled_relations(root: Path) -> list[oracle.Terms]:
    out = []
    for line in (root / BUNDLED).read_text(encoding="utf-8").splitlines():
        if line.strip():
            terms: oracle.Terms = {}
            for t in json.loads(line)["terms"]:
                oracle.add_term(terms, tuple(t["index"]), Fraction(t["coef"]))
            out.append(terms)
    return out


def verify_pass(shape: random.Random, rng: random.Random, bundled: list[oracle.Terms]) -> list[Op]:
    relations = [_random_relation(shape, rng) for _ in range(VERIFY_LINES)] + bundled
    false_lines = set(shape.sample(range(len(relations)), len(relations) // 4))
    ops = []
    for i, terms in enumerate(relations):
        if i in false_lines:
            s = _composition(shape, shape.randint(0, VERIFY_MAX_WEIGHT), shape.randint(1, 4))
            terms = oracle.combine((Fraction(1), terms), (_rational(rng), {s: Fraction(1)}))
        stdout, code = oracle.verify_output(terms)
        if (code == 1) != (i in false_lines):
            raise ArithmeticError(f"oracle verdict disagrees with construction on {terms}")
        line = json.dumps({"terms": oracle.terms_json(terms)}) + "\n"
        ops.append(Op(("verify", "-"), line, stdout, code))
    rng.shuffle(ops)
    return ops


DUALITY_BOXES = tuple(
    (d, w)
    for d in range(1, DUALITY_MAX_DEPTH + 1)
    for w in range(1, DUALITY_MAX_WEIGHT + 1)
    if comb(w + d, d) <= DUALITY_MAX_PIECE
)


def duality_pass(rng: random.Random) -> list[Op]:
    boxes = list(DUALITY_BOXES)
    rng.shuffle(boxes)
    return [
        Op(
            ("duality-check", "--max-depth", str(d), "--max-weight", str(w)),
            "",
            oracle.duality_output(d, w),
            0,
        )
        for d, w in boxes
    ]


class Workload:
    """Pass generator for one workload and seed; cycle is its passes per cycle."""

    def __init__(self, name: str, seed: int, root: Path) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.cycle = CYCLES[name]
        self._bundled = _bundled_relations(root) if name == "verify-mixed" else []

    def ops(self, i: int) -> list[Op]:
        shape = random.Random(f"{self.name}/pass/{i % self.cycle}")
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        if self.name == "kernel-sweep":
            return kernel_pass(shape, rng)
        if self.name == "verify-mixed":
            return verify_pass(shape, rng, self._bundled)
        return duality_pass(rng)
