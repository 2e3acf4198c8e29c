"""Slow, independent constructions that the fast library code is checked against.

Each follows its definition literally and is meant for small inputs only.
lie_bracket and poly_y_to_x, first, are definitions that the library
itself does not use: the bracket of the recursion x1^(n+1) =
[x0, x1^(n)], and the inverse of poly_x_to_y.
depth_one_by_stirling is the classical form of the depth-one values.
The helpers at the end reach polylog's evaluation only at its test
seams, where faults go in and work is counted; test_package fails when
a test names another private name of polylog.  For each seam: its
helpers, a mutation of the code at it, and tests that the mutation
fails (in brackets, how many tier-1 tests it fails); each named test
must keep failing under its mutation.

  _li_level, the value level: raise_value, log_levels.
      One unit at z^0 of the numerator of Li(1,2) [96]:
      test_tail_built_values_match_the_fold,
      test_rational_against_series_dp,
      test_verify_relation_rejects_nonrelations,
      test_kernel_records_refuse_when_values_and_rows_disagree.
  _row_level, the row level: raise_row, log_levels.
      One unit at the top slot of every build of the row of Li(1,2) [68]:
      test_series_dp_against_chain_enumeration,
      test_series_rows_built_on_one_shared_dict_match_chain_enumeration,
      test_verify_relation_accepts_kernel_elements,
      test_verify_bundled.
  _product_terms, the closed form: perturb_closed_form.
      The first coefficient of the closed form of (2,1) one too large [33]:
      test_nfold_product_matches_the_sum_over_choices,
      test_kernel_element_examples,
      test_magnus_product_identity_small_sweep,
      test_walk_gives_each_index_its_closed_form_and_row.
  _depth_one_product, the product: scale_product.
      The product scaled by 2 [40]:
      test_kernel_verifies_each_distinct_relation_once,
      test_a_closed_form_both_pipelines_find_wrong_gets_the_verdict_false,
      test_a_fault_at_a_level_is_seen_by_decide,
      test_kernel_records_are_the_verified_relations_of_every_small_index.
  _decide, the one rule of every verdict: log_decisions.
      The comparison of the series row with the reference's skipped [19]:
      test_verify_relation_refuses_on_pipeline_disagreement,
      test_a_fault_at_a_level_is_seen_by_decide[row],
      test_verify_relation_refuses_every_relation_with_a_corrupted_shared_row,
      test_pipeline_disagreement_exits_3.

reset_caches gives polylog the caches of new_caches, as the tests'
fixture does.
"""

import itertools
from math import comb, factorial
from typing import Sequence

from npolylog.freealg import NcPoly, _add_term
from npolylog import magnus
from npolylog.magnus import _dual_array_binom, lie_power
import npolylog.polylog as pl
from npolylog.polylog import LinComb
from npolylog.ratpoly import RatFun, Scalar
from npolylog.words import MultiIndex, _is_count, _letters_y_to_x, _require_plain
from output_manifest import new_caches

_X0 = NcPoly.monomial("X", (0,))
_X1 = NcPoly.monomial("X", (1,))


def lie_bracket(u: NcPoly, v: NcPoly) -> NcPoly:
    """[u, v] = uv - vu."""
    return u * v - v * u


def poly_y_to_x(b: NcPoly) -> NcPoly:
    """Inverse of poly_x_to_y: each y_k becomes the block x0^k x1, and the empty Y-word the empty X-word."""
    if b.alphabet != "Y":
        raise ValueError("expected a polynomial over Y")
    return NcPoly("X", {_letters_y_to_x(ys): coef for ys, coef in b.sorted_terms()})


def lie_power_by_brackets(n: int) -> NcPoly:
    """x1^(n) by iterating the bracket recursion; oracle for lie_power."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("bracket order must be an integer >= 0")
    out = _X1
    for _ in range(n):
        out = lie_bracket(_X0, out)
    return out


def magnus_poly_by_products(k: MultiIndex) -> NcPoly:
    """M(k) as an actual product of lie powers; oracle for magnus_poly."""
    if not isinstance(k, MultiIndex) or not k.magnus:
        raise ValueError(f"expected a magnus index like (1;2), got {k}")
    out = NcPoly.one("X")
    for kj in k.prefix:
        out = out * lie_power(kj)
    return out * NcPoly.monomial("X", (0,) * k.tail)


def product_terms_by_brackets(entries: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The closed form of Li(e1)...Li(en), bracket by bracket for one index; oracle for the walk's closed forms."""
    partial: list[tuple[tuple[int, ...], int, int]] = [((), 0, 1)]
    for e in entries[:-1]:
        row = [(-1) ** i * comb(e, i) for i in range(e + 1)]
        partial = [
            (blocks + (e - i + carry,), i, coef * c)
            for blocks, carry, coef in partial
            for i, c in enumerate(row)
        ]
    return {blocks + (entries[-1] + carry,): coef for blocks, carry, coef in partial}


def a_row_by_budgets(s: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Row s of a = <s,k> for one row, each k_j drawn up to the running budget; oracle for the walk's rows of a."""
    if len(s) == 1:
        return {s: 1}
    partial: list[tuple[tuple[int, ...], int, int]] = [((), 0, 1)]
    for sj in s[:-2]:
        partial = [(ks + (kj,), b + sj - kj, v * comb(b + sj, kj)) for ks, b, v in partial for kj in range(b + sj + 1)]
    sn, tail = s[-2:]
    return {ks + (kj, b + sn - kj + tail): v * comb(b + sn, kj) for ks, b, v in partial for kj in range(b + sn + 1)}


def compositions_by_recursion(total: int, parts: int):
    """The compositions of total into parts in lexicographic order, first entry first; oracle for the walk's order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions_by_recursion(total - first, parts - 1):
            yield (first,) + rest


def grade_report_by_rows(max_depth: int, max_weight: int):
    """The records of grade_report, each piece built index by index; oracle for grade_report's walk.

    Per piece: the closed form of every k, row k of b as the dual
    coefficient at its block words, a.b summed row by row into a dense
    row of the piece's size, and the closed forms compared with b.
    """
    for depth in range(max_depth + 1):
        for weight in range(max_weight + 1):
            idx = list(compositions_by_recursion(weight, depth + 1))
            blocks = {k: product_terms_by_brackets(k) for k in idx}
            b = {k: {s: v for s in terms if (v := _dual_array_binom(k[:-1], s))} for k, terms in blocks.items()}
            pos = {k: j for j, k in enumerate(b)}
            at = {k: [(pos[t], v) for t, v in row.items()] for k, row in b.items()}
            duality_ok = True
            for i, s in enumerate(idx):
                out = [0] * len(b)
                for k, v in a_row_by_budgets(s).items():
                    for j, w in at[k]:
                        out[j] += v * w
                if out[i] != 1 or out.count(0) != len(b) - 1:
                    duality_ok = False
                    break
            inversion_ok = duality_ok and blocks == b
            yield {
                "depth": depth,
                "weight": weight,
                "size": len(b),
                "duality_ok": duality_ok,
                "inversion_ok": inversion_ok,
                "ok": duality_ok and inversion_ok,
            }


def nfold_product_by_choices(factors) -> LinComb:
    """Li(s1)...Li(sn) summed over every choice of k_j in 0..s_j, j < n; oracle for nfold_product.

    Builds each index and coefficient of the closed form from its own
    choice tuple, one product of coefficients per term.
    """
    fac = tuple(factors)
    n = len(fac)
    if n == 1:
        return LinComb._trusted("Y", {fac: 1})
    terms: dict[tuple[int, ...], Scalar] = {}
    for ks in itertools.product(*(range(s + 1) for s in fac[:-1])):
        coef = 1
        entries = [fac[0] - ks[0]]
        for j in range(1, n - 1):
            entries.append(fac[j] - ks[j] + ks[j - 1])
        entries.append(fac[-1] + ks[-1])
        for s, k in zip(fac, ks):
            coef *= (-1) ** k * comb(s, k)
        _add_term(terms, tuple(entries), coef)
    return LinComb._trusted("Y", terms)


def product_letter_word(m: int, w: MultiIndex) -> LinComb:
    """Li(m) * Li(w) for a plain non-empty w = (r, w'); folded from the right, an oracle for nfold_product.

    Li(m)*Li(r,w') = sum_{k=0}^{m} (-1)^k C(m,k) Li(m-k, r+k, w').
    """
    if not _is_count(m):
        raise ValueError("the single index must be an integer >= 0")
    _require_plain(w)
    if not w.entries:
        raise ValueError("w must be non-empty; multiply by Li(()) = 1 directly")
    r, rest = w.entries[0], w.entries[1:]
    terms: dict[tuple[int, ...], Scalar] = {}
    for k in range(m + 1):
        _add_term(terms, (m - k, r + k) + rest, (-1) ** k * comb(m, k))
    return LinComb._trusted("Y", terms)


def series_coeffs_by_chains(s: MultiIndex, n_max: int) -> list[int]:
    """Coefficients of z^0..z^n_max of Li(s) by enumerating the chains n > n2 > ... > nr > 0.

    Exponential in the depth; an oracle for series_coeffs on small inputs.
    """
    if not isinstance(s, MultiIndex) or s.magnus:
        raise ValueError(f"expected a plain index like (1,2), got {s}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not s.entries:
        return [1] + [0] * n_max
    r = s.depth
    out = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        total = 0
        for lower in itertools.combinations(range(1, n), r - 1):
            chain = (n,) + tuple(sorted(lower, reverse=True))
            prod = 1
            for ni, si in zip(chain, s.entries):
                prod *= ni**si
            total += prod
        out[n] = total
    return out


def polylog_by_fold(s: MultiIndex) -> RatFun:
    """Li(s) folded from 1 over the entries, innermost first, caching nothing.

    Each step goes through the canonicalising constructor: z/(1-z) by
    shifting the numerator, the Euler operator by the term-by-term
    formula.  An oracle for polylog_rational, which builds each value
    from the cached value of its tail by whole Euler powers.
    """
    f = RatFun.one()
    for e in reversed(s.entries):
        f = RatFun((0,) + f.num, f.dpow + 1)
        for _ in range(e):
            f = euler_deriv_by_formula(f)
    return f


def euler_deriv_by_formula(f: RatFun) -> RatFun:
    """z d/dz (P/(1-z)^d) = z (P'(z)(1-z) + d P(z)) / (1-z)^(d+1), term by term.

    Forms P', multiplies it by (1-z), adds d P and hands the numerator
    to the canonicalising constructor; an oracle for euler_deriv.
    """
    dp = [(j + 1) * f.num[j + 1] for j in range(len(f.num) - 1)]
    inner = dp + [0]
    for i in range(len(dp)):
        inner[i + 1] -= dp[i]
    inner += [0] * (len(f.num) - len(inner))
    for i, c in enumerate(f.num):
        inner[i] += f.dpow * c
    return RatFun([0] + inner, f.dpow + 1)


def taylor_coeffs_by_comb(f: RatFun, n_max: int) -> list:
    """Coefficient n as sum_j P_j C(n-j+d-1, d-1), one comb per term; oracle for taylor_coeffs."""
    if f.dpow == 0:
        return [f.num[n] if n < len(f.num) else 0 for n in range(n_max + 1)]
    d = f.dpow
    out = []
    for n in range(n_max + 1):
        acc = 0
        for j, c in enumerate(f.num[: n + 1]):
            if c:
                acc += c * comb(n - j + d - 1, d - 1)
        out.append(acc)
    return out


def combine_by_rows(pairs) -> RatFun:
    """sum c*f over the common denominator, every group raised by its binomial row; oracle for _combine.

    Sums the numerators that share a power d_i, then convolves each sum
    with the signed binomial row of (1-z)^(d - d_i), the row [1] at d_i = d
    included.
    """
    groups: dict[int, list[Scalar]] = {}
    for c, f in pairs:
        acc = groups.setdefault(f.dpow, [])
        acc.extend([0] * (len(f.num) - len(acc)))
        for i, p in enumerate(f.num):
            acc[i] += c * p
    d = max(groups, default=0)
    out: list[Scalar] = [0] * max((len(acc) + d - di for di, acc in groups.items()), default=0)
    for di, acc in groups.items():
        row = [(-1) ** k * comb(d - di, k) for k in range(d - di + 1)]
        for i, p in enumerate(acc):
            for k, b in enumerate(row):
                out[i + k] += p * b
    return RatFun(out, d)


def relation_record_by_dicts(c: LinComb, verified: bool) -> dict[str, object]:
    """The relation record built as a dict, terms in sorted_terms order; oracle for relation_line.

    Weight and depth are the common values over all terms, or None when
    they differ.
    """
    weights = {sum(entries) for entries in c._terms}
    depths = {len(entries) for entries in c._terms}
    return {
        "terms": [{"coef": str(coef), "index": list(letters)} for letters, coef in c.sorted_terms()],
        "verified": verified,
        "weight": weights.pop() if len(weights) == 1 else None,
        "depth": depths.pop() if len(depths) == 1 else None,
    }


def _mul_one_minus_z(coeffs: Sequence[Scalar]) -> list[Scalar]:
    out = list(coeffs) + [0]
    for i in range(len(out) - 1, 0, -1):
        out[i] -= coeffs[i - 1]
    return out


def _raised_num(f: RatFun, target_dpow: int) -> list[Scalar]:
    """Numerator after rewriting over the denominator (1-z)^target_dpow."""
    out = list(f.num)
    for _ in range(target_dpow - f.dpow):
        out = _mul_one_minus_z(out)
    return out


def add_by_raising(f: RatFun, g: RatFun) -> RatFun:
    """f + g with each numerator raised one factor (1-z) at a time; oracle for RatFun addition."""
    d = max(f.dpow, g.dpow)
    a = _raised_num(f, d)
    b = _raised_num(g, d)
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return RatFun(out, d)


def depth_one_by_stirling(n: int) -> list[int]:
    """The coefficients of G_n(u) = sum_(k<=n) k! S(n+1, k+1) u^k, S the Stirling numbers of the second kind.

    Li(n) = u G_n(u) at u = z/(1-z), the classical form of Li at a
    non-positive integer; an oracle for the depth-one values, built
    from S(m, j) = j S(m-1, j) + S(m-1, j-1) alone.
    """
    row = [1]
    for m in range(1, n + 2):
        row = [0] + [j * (row[j] if j < len(row) else 0) + row[j - 1] for j in range(1, m + 1)]
    return [factorial(k) * row[k + 1] for k in range(n + 1)]


def reset_caches(monkeypatch):
    """Give polylog the caches a new process starts with, those of new_caches."""
    for name, cache in new_caches().items():
        monkeypatch.setattr(pl, name, cache)


def raise_value(monkeypatch, index, slot):
    """Make the Li value of index 1 larger in the numerator coefficient of z^slot, at _li_level, where every value is built."""
    good = pl._li_level

    def lying(entries, tail):
        f = good(entries, tail)
        if entries != index:
            return f
        num = list(f.num) + [0] * (slot + 1 - len(f.num))
        num[slot] += 1
        return RatFun(num, f.dpow)

    monkeypatch.setattr(pl, "_li_level", lying)


def raise_row(monkeypatch, index, slot):
    """Make the series row of index 1 larger at z^slot, at _row_level, where every row is built.

    Slot -1 is the top slot of every build or growth of the row; any
    other slot is raised once, by the first build that reaches it, so a
    row grown later keeps its one wrong slot, and a row built again in
    fresh caches is right.
    """
    good = pl._row_level
    raised = False

    def lying(entries, tail, row, n):
        nonlocal raised
        row = good(entries, tail, row, n)
        if entries == index and not raised and len(row) > slot:
            row[slot] += 1
            raised = slot >= 0
        return row

    monkeypatch.setattr(pl, "_row_level", lying)


def perturb_closed_form(monkeypatch, change, entries=None):
    """Make the closed form of the product at entries (at every entries when None) change(terms), at _product_terms.

    change gets a fresh dict of the exact closed form, and may edit it
    in place.  Both modules that read the closed form see the change.
    """
    exact = pl._product_terms

    def perturbed(at):
        terms = exact(at)
        return change(terms) if entries is None or at == entries else terms

    monkeypatch.setattr(pl, "_product_terms", perturbed)
    monkeypatch.setattr(magnus, "_product_terms", perturbed)


def scale_product(monkeypatch, scale):
    """Make the product of depth-one values that a sweep decides k's closed form against scale times itself, at _depth_one_product."""
    exact = pl._depth_one_product
    monkeypatch.setattr(pl, "_depth_one_product", lambda entries: scale * exact(entries))


def log_levels(monkeypatch):
    """Log the work of polylog at its two levels: (values, slots), appended to in order.

    values gets the entries of every Li value built at _li_level, and
    slots the (entries, m) of every slot z^m that _row_level appends to
    a row; slot z^0 of a row, and the row of Li(()) = 1, are seeded,
    not built.
    """
    values, slots = [], []
    li_level, row_level = pl._li_level, pl._row_level

    def row_grown(entries, tail, row, n):
        slots.extend((entries, m) for m in range(len(row), n + 1))
        return row_level(entries, tail, row, n)

    monkeypatch.setattr(pl, "_li_level", lambda entries, tail: values.append(entries) or li_level(entries, tail))
    monkeypatch.setattr(pl, "_row_level", row_grown)
    return values, slots


def log_decisions(monkeypatch):
    """Log the terms, as a dict, of every verdict polylog._decide makes, in order."""
    calls = []
    decide = pl._decide

    def logged(terms, bound, value, row):
        calls.append(dict(terms))
        return decide(terms, bound, value, row)

    monkeypatch.setattr(pl, "_decide", logged)
    return calls
