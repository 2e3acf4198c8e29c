"""The Magnus polynomial basis of Q<X> and its word-basis change.

Write x1^(0) = x1 and x1^(n+1) = [x0, x1^(n)].  These iterated
brackets expand as

    x1^(n) = sum_{k=0}^{n} (-1)^k C(n, k) x0^(n-k) x1 x0^k,

and for an index k = (k1,...,kn;kinf) the Magnus polynomial is the
product M(k) = x1^(k1) ... x1^(kn) x0^kinf.  The family of all M(k) is
a linear basis of Q<X>; this module computes both directions of the
change between it and the monomial basis, whose elements are labelled
by the same index shape:

    w(s) = x0^(s1) x1 ... x0^(sn) x1 x0^(sinf).

The transition coefficients are products of binomials driven by
cumulative budgets ("array binomials").  In one direction
w(s) = sum_k binom<s,k> M(k); in the other M(k) = sum_s binom<<k,s>> w(s)
with a signed dual coefficient.  Both vanish unless depth and weight
agree, so each graded piece is a finite square matrix and the two
coefficient families are inverse matrices.  grade_report verifies
this on every graded piece up to given bounds, reading a row of <<k,s>>
at the block words of M(k) x1, which are also its expansion in words.

Split into blocks x0^a x1, M(k) x1 is the closed form of the product
Li(k1)...Li(kn)Li(kinf) (Theorem main4), a fold of one bracket step
over the entries; magnus_poly (M(k) in words), the graded sweeps, and
the n-fold product and kernel sweeps of polylog all read it.  A row of
<s,k> is a fold of one budget step.  One walk per depth, shared by all
its weights, meets the indices of every piece of the depth in
lexicographic order, so each prefix takes both steps once per depth.

Both checks of an index k = p + (t,) read only its prefix p.  The
entries a[s][k'] and <<k',s'>> depend on prefixes alone, and the tail t
adds t to the last entry of every k' and s' that the rows of p + (t,)
reach, a shift that is one to one from the piece of weight sum(p) into
that of weight sum(p) + t.  So row p + (t,) of a.b is row p + (0,)
shifted, the same vector for every t, and row p + (t,) of b matches the
closed form exactly when row p + (0,) does: each leaf p of the walk is
decided once, in its lightest piece, for every piece it serves.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations
from math import comb

from .freealg import NcPoly
from .words import MultiIndex, _is_count, _letters_y_to_x, _require_magnus

__all__ = [
    "lie_power",
    "magnus_poly",
    "basis_word",
    "array_binom",
    "dual_array_binom",
    "magnus_indices",
    "word_to_magnus",
    "grade_report",
]


def lie_power(n: int) -> NcPoly:
    """x1^(n) via the closed form sum_k (-1)^k C(n,k) x0^(n-k) x1 x0^k."""
    if not _is_count(n):
        raise ValueError("bracket order must be an integer >= 0")
    terms = {(0,) * (n - k) + (1,) + (0,) * k: (-1) ** k * comb(n, k) for k in range(n + 1)}
    return NcPoly._trusted("X", terms)


# The partial of no entries: (head, carry, value) for the empty prefix.
_SEED = [((), 0, 1)]


def _bracket(partial: list, e: int) -> list:
    """One bracket x1^(e) more: each (blocks, i of the last bracket, coefficient) branches per i in 0..e."""
    row = [(-1) ** i * comb(e, i) for i in range(e + 1)]
    return [(blocks + (e - i + carry,), i, coef * c) for blocks, carry, coef in partial for i, c in enumerate(row)]


def _budget(partial: list, sj: int) -> list:
    """One entry s_j more: each (k so far, budget left, value) branches per k_j in 0..budget + s_j."""
    return [(ks + (kj,), b + sj - kj, v * comb(b + sj, kj)) for ks, b, v in partial for kj in range(b + sj + 1)]


def _close(partial: list, last: int) -> dict[tuple[int, ...], int]:
    """The terms of a fold whose last entry, with the carry or budget left, fills the final slot."""
    return {head + (last + carry,): v for head, carry, v in partial}


def _product_terms(entries: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The closed form of Li(e1)...Li(en): the blocks of M(e) x1 as Y-words.

    Expanding the brackets of M(e) = x1^(e1) ... x1^(e_(n-1)) x0^en and
    splitting M(e) x1 into blocks x0^a x1 gives one block word
    (e1-i1, e2-i2+i1, ..., en+i_(n-1)) per choice of i_j in 0..e_j, with
    coefficient prod_j (-1)^(i_j) C(e_j, i_j).  Distinct choices give
    distinct words, so there are exactly prod_(j<n) (e_j + 1) terms.
    """
    partial = _SEED
    for e in entries[:-1]:
        partial = _bracket(partial, e)
    return _close(partial, entries[-1])


def magnus_poly(k: MultiIndex) -> NcPoly:
    """M(k) = x1^(k1) ... x1^(kn) x0^kinf, expanded directly into words.

    The words are those of the closed form M(k) x1 with the final x1
    dropped: x0^(k1-i1) x1 x0^(k2-i2+i1) x1 ... x0^(kn-in+i_(n-1)) x1
    x0^(kinf+in), with coefficient prod_j (-1)^(i_j) C(k_j, i_j).
    """
    _require_magnus(k)
    return NcPoly._trusted(
        "X", {_letters_y_to_x(ys)[:-1]: coef for ys, coef in _product_terms(k.entries).items()}
    )


def basis_word(s: MultiIndex) -> NcPoly:
    """The monomial basis element w(s) = x0^(s1) x1 ... x0^(sn) x1 x0^(sinf)."""
    _require_magnus(s)
    return NcPoly._trusted("X", {_letters_y_to_x(s.prefix) + (0,) * s.tail: 1})


def array_binom(s: MultiIndex, k: MultiIndex) -> int:
    """The coefficient of M(k) in w(s): C(s1,k1) C(s1+s2-k1,k2) ...

    The j-th factor draws k_j from the budget sum_(i<=j) s_i minus
    what earlier factors used.  Zero unless depth and weight agree and
    every partial sum of (s_i - k_i) stays >= 0.
    """
    _require_magnus(s)
    _require_magnus(k)
    if s.depth != k.depth or s.weight != k.weight:
        return 0
    budget = 0
    val = 1
    for sj, kj in zip(s.prefix, k.prefix):
        budget += sj
        if budget < kj:
            return 0
        val *= comb(budget, kj)
        budget -= kj
    return val


def dual_array_binom(k: MultiIndex, s: MultiIndex) -> int:
    """The coefficient <<k,s>> of w(s) in M(k), a signed product of binomials.

    With the running differences c_j = sum_(i<=j) (k_i - s_i), the
    value is (-1)^(c_1+...+c_n) prod_j C(k_j, c_j); it vanishes unless
    depth and weight agree and every c_j lies in 0..k_j.  The checked
    form of _dual_array_binom; the tests' dense reference for b's rows.
    """
    _require_magnus(k)
    _require_magnus(s)
    if k.depth != s.depth or k.weight != s.weight:
        return 0
    return _dual_array_binom(k.prefix, s.prefix)


def _dual_array_binom(k: tuple[int, ...], s: tuple[int, ...]) -> int:
    """The unchecked kernel of dual_array_binom, which b's rows call per entry.

    For equal depth and weight, on the prefix of k; zip drops a tail of s.
    """
    c = 0
    val = 1
    for kj, sj in zip(k, s):
        c += kj - sj
        if not 0 <= c <= kj:
            return 0
        val *= -comb(kj, c) if c & 1 else comb(kj, c)
    return val


def _a_row(s: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Row s of a = <s,k> by entries, over the k that s dominates: at any other k, array_binom meets budget < k_j."""
    partial = _SEED
    for sj in s[:-1]:
        partial = _budget(partial, sj)
    return _close(partial, s[-1])


def _walk(total: int, length: int) -> Iterator[tuple[tuple[int, ...], int, list, list]]:
    """(p, total - sum(p), bracket and budget partials of p) for each p of length entries summing to <= total.

    Depth first on a stack, in lexicographic order; each prefix is stepped once and shared by all p under it.
    A popped node of level n writes its entry at path[n - 1] (the root the spare slot), so p is built at leaves only.
    """
    path = [0] * (length + 1)
    stack = [(0, 0, total, _SEED, _SEED)]
    while stack:
        n, path[n - 1], left, brackets, budgets = stack.pop()
        if n == length:
            yield tuple(path[:length]), left, brackets, budgets
        else:
            stack += [(n + 1, e, left - e, _bracket(brackets, e), _budget(budgets, e)) for e in range(left, -1, -1)]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The compositions of total into parts, in lexicographic order: stars and bars, bars in increasing position."""
    stars = total + parts - 1
    for bars in combinations(range(stars), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (stars,)))


def magnus_indices(depth: int, weight: int) -> list[MultiIndex]:
    """All magnus indices of the given depth and weight, in lexicographic order."""
    if not (_is_count(depth) and _is_count(weight)):
        raise ValueError("depth and weight must be >= 0")
    return [MultiIndex(c, magnus=True) for c in _compositions(weight, depth + 1)]


def word_to_magnus(s: MultiIndex) -> dict[MultiIndex, int]:
    """Nonzero coefficients of w(s) in the Magnus basis: the k that s dominates."""
    _require_magnus(s)
    return {MultiIndex(k, magnus=True): v for k, v in _a_row(s.entries).items()}


def grade_report(max_depth: int, max_weight: int) -> Iterator[dict[str, object]]:
    """Check every graded piece with depth <= max_depth, weight <= max_weight.

    Each piece builds a = <s,k> and b = <<k,s>> as sparse rows over every
    entry that their guards do not send to 0, row k of b at the block
    words of M(k) x1.  The piece is square, so a.b = I shows that they are
    mutually inverse (duality).  Each w(s) is one word, so comparing row
    k of b with the terms of M(k) x1 checks M(k) = sum_s b[k][s] w(s);
    with a.b = I this gives w(s) = sum_k a[s][k] M(k), so inversion holds
    exactly when both checks pass.  Each depth takes one walk, shared by all
    its weights; its records come in weight order when that walk ends, before
    the next depth's.  A leaf p of the walk is the index p + (t,) of every
    piece of weight sum(p) + t, and a tail t only shifts the last entry of
    every word in both checks' rows, one to one within the piece: the leaf's
    dual values are evaluated once per head of its closed form, its row of
    a.b is summed once, in piece sum(p), and both verdicts hold for all its
    tails, so a piece fails with every heavier piece of its depth.  Raises
    ValueError when a bound is negative, at the call rather than at the
    first record.
    """
    if not (_is_count(max_depth) and _is_count(max_weight)):
        raise ValueError(f"max depth and max weight must be >= 0, got {max_depth} and {max_weight}")
    return _grade_cells(max_depth, max_weight)


def _grade_cells(max_depth: int, max_weight: int) -> Iterator[dict[str, object]]:
    for depth in range(max_depth + 1):
        # One walk per depth: leaf p is k = p + (tail,) of piece sum(p) + tail for
        # every tail, each piece with its own positions and rows of b.  k is row k of
        # b, then row s = k of a.b; a piece meets its k in lexicographic order and row
        # s of a holds only k <= s, so the rows of b it reads are built, keyed by p:
        # the piece fixes k[-1].  A tail adds to the last entry of every word of both
        # rows, and positions within a piece match, so one verdict serves all tails.
        pos, at = [{} for _ in range(max_weight + 1)], [{} for _ in range(max_weight + 1)]
        # The lightest weight from which each check fails: each leaf serves all heavier pieces.
        duality_from = inversion_from = max_weight + 1
        for p, left, brackets, budgets in _walk(max_weight, depth):
            lightest = max_weight - left
            duals = [(head, carry, d) for head, carry, _ in brackets if (d := _dual_array_binom(p, head))]
            # A spurious head has dual value 0, so b's row differs from M(k) x1; a
            # missing one leaves b short of a nonzero entry, so a.b != I.
            if {head: d for head, _, d in duals} != {head: coef for head, _, coef in brackets}:
                inversion_from = min(inversion_from, lightest)
            for tail in range(left + 1):
                pos_w = pos[lightest + tail]
                pos_w[p + (tail,)] = len(pos_w)
                at[lightest + tail][p] = [(pos_w[head + (tail + carry,)], d) for head, carry, d in duals]
            n, at_w = comb(lightest + depth, depth), at[lightest]
            out = [0] * n
            for ks, _, v in budgets:
                for j, x in at_w[ks]:
                    out[j] += v * x
            if out[pos[lightest][p + (0,)]] != 1 or out.count(0) != n - 1:
                duality_from = min(duality_from, lightest)
        for w in range(max_weight + 1):
            ok = w < duality_from and w < inversion_from
            yield {"depth": depth, "weight": w, "size": len(pos[w]), "duality_ok": w < duality_from,
                   "inversion_ok": ok, "ok": ok}
