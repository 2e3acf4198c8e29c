"""Expected answers for the benchmark, built without importing npolylog.

Everything here follows from the definitions, not from the package:

* Li(s)(z) = sum_{n1 > ... > nr > 0} n1^s1 ... nr^sr z^n1 has integer
  series coefficients, computed by a direct triangular sum.
* Li(s) = P(z)/(1-z)^D with D = weight + depth and deg P <= D, so the
  coefficients of z^0..z^D decide P exactly.  The same bound decides
  whether a Q-combination of values is zero.
* Li(f1)...Li(fn) has the closed n-fold product expansion below, and
  the product commutes, so nfold(f) - nfold(sigma f) is a relation for
  every slot permutation sigma.  The CLI's `kernel` command prints
  exactly these relations.

Output formats (term order, rational-function text, JSON records) are
the ones documented in the package README.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb

Entries = tuple[int, ...]
Terms = dict[Entries, Fraction]


def nfold(factors: Entries) -> Terms:
    """Li(f1)*...*Li(fn) as a combination of depth-n values.

    Sums over 0 <= k_j <= f_j for j < n the coefficient
    prod_j (-1)^k_j C(f_j, k_j) on the index
    (f1-k1, f2-k2+k1, ..., fn+k_(n-1)).
    """
    n = len(factors)
    if n == 1:
        return {factors: Fraction(1)}
    out: Terms = {}
    for ks in itertools.product(*(range(f + 1) for f in factors[:-1])):
        coef = 1
        idx = []
        carry = 0
        for f, k in zip(factors[:-1], ks):
            coef *= (-1) ** k * comb(f, k)
            idx.append(f - k + carry)
            carry = k
        idx.append(factors[-1] + carry)
        add_term(out, tuple(idx), Fraction(coef))
    return out


def add_term(terms: Terms, idx: Entries, coef: Fraction) -> None:
    c = terms.get(idx, Fraction(0)) + coef
    if c:
        terms[idx] = c
    else:
        terms.pop(idx, None)


def combine(*parts: tuple[Fraction, Terms]) -> Terms:
    out: Terms = {}
    for scale, terms in parts:
        for idx, c in terms.items():
            add_term(out, idx, scale * c)
    return out


def perm_relation(factors: Entries, sigma: Entries) -> Terms:
    """nfold(f) - nfold(sigma f), sigma in one-line notation on 1..n."""
    permuted = tuple(factors[i - 1] for i in sigma)
    return combine((Fraction(1), nfold(factors)), (Fraction(-1), nfold(permuted)))


def index_key(idx: Entries) -> tuple[int, tuple[int, ...]]:
    """Display order: graded lexicographic through y_k -> x0^k x1."""
    xs: list[int] = []
    for e in idx:
        xs.extend([0] * e)
        xs.append(1)
    return (len(xs), tuple(xs))


def terms_json(terms: Terms) -> list[dict[str, object]]:
    return [
        {"coef": str(terms[idx]), "index": list(idx)}
        for idx in sorted(terms, key=index_key)
    ]


def relation_line(terms: Terms) -> str:
    """The JSON line `kernel` prints for a verified relation."""
    weights = {sum(idx) for idx in terms}
    depths = {len(idx) for idx in terms}
    return json.dumps(
        {
            "terms": terms_json(terms),
            "verified": True,
            "weight": weights.pop() if len(weights) == 1 else None,
            "depth": depths.pop() if len(depths) == 1 else None,
        }
    )


def kernel_output(magnus_entries: Entries) -> str:
    """stdout of `kernel "<k>" --all-sigma`: one relation per permutation."""
    n = len(magnus_entries)
    lines = [
        relation_line(perm_relation(magnus_entries, sigma))
        for sigma in itertools.permutations(range(1, n + 1))
    ]
    return "".join(line + "\n" for line in lines)


def series(idx: Entries, n_max: int) -> list[int]:
    """Coefficients of z^0..z^n_max of Li(idx), summing the outer slot last."""
    if not idx:
        return [1] + [0] * n_max
    inner = [0] + [m ** idx[-1] for m in range(1, n_max + 1)]
    for e in reversed(idx[:-1]):
        below = 0
        outer = [0] * (n_max + 1)
        for m in range(1, n_max + 1):
            below += inner[m - 1]
            outer[m] = m**e * below
        inner = outer
    return inner


def value(terms: Terms) -> tuple[tuple[Fraction, ...], int]:
    """Canonical (numerator, d) of sum c * Li(idx); ((), 0) for zero."""
    if not terms:
        return (), 0
    d = max(sum(idx) + len(idx) for idx in terms)
    n_max = 2 * d + 2
    total = [Fraction(0)] * (n_max + 1)
    for idx, c in terms.items():
        for n, a in enumerate(series(idx, n_max)):
            if a:
                total[n] += c * a
    num = total
    for _ in range(d):
        num = [num[0]] + [num[i] - num[i - 1] for i in range(1, len(num))]
    if any(num[d + 1 :]):
        raise ArithmeticError("numerator degree exceeds weight + depth")
    num = num[: d + 1]
    while num and num[-1] == 0:
        num.pop()
    while d > 0 and num and sum(num) == 0:
        quot, acc = [], Fraction(0)
        for c in num[:-1]:
            acc += c
            quot.append(acc)
        num, d = quot, d - 1
        while num and num[-1] == 0:
            num.pop()
    return (tuple(num), d) if num else ((), 0)


def _term_text(coef: Fraction, deg: int) -> str:
    if deg == 0:
        return str(coef)
    z = "z" if deg == 1 else f"z^{deg}"
    if coef == 1:
        return z
    if coef == -1:
        return f"-{z}"
    if coef.denominator == 1:
        return f"{coef}{z}"
    return f"({coef}){z}"


def ratfun_text(num: tuple[Fraction, ...], d: int) -> str:
    """P(z)/(1-z)^d in the CLI's text form, e.g. (2z^2+z^3)/(1-z)^4."""
    if not num:
        return "0"
    chunks: list[str] = []
    for deg, c in enumerate(num):
        if not c:
            continue
        if not chunks:
            chunks.append(_term_text(c, deg))
        else:
            chunks.append(("-" if c < 0 else "+") + _term_text(abs(c), deg))
    top = "".join(chunks)
    if d == 0:
        return top
    if len(chunks) > 1:
        top = f"({top})"
    return f"{top}/" + ("(1-z)" if d == 1 else f"(1-z)^{d}")


def verify_output(terms: Terms) -> tuple[str, int]:
    """stdout and exit code of `verify -` on the one-line file of terms."""
    num, d = value(terms)
    if not num:
        return "line 1: ok\nchecked 1 relations: 1 ok, 0 failed\n", 0
    witness = ratfun_text(num, d)
    return f"line 1: FAIL witness={witness}\nchecked 1 relations: 0 ok, 1 failed\n", 1


def duality_output(max_depth: int, max_weight: int) -> str:
    """stdout of `duality-check`: every piece ok, of size C(w+d, d)."""
    lines = [
        f"depth={d} weight={w} size={comb(w + d, d)} ok"
        for d in range(max_depth + 1)
        for w in range(max_weight + 1)
    ]
    lines.append("all graded pieces ok")
    return "".join(line + "\n" for line in lines)
