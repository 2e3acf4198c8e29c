"""Acceptance gate: one check per shipped guarantee, one verdict line each.

Every check is exact (Fraction arithmetic, no tolerances).  Each test
prints "criterion N (label): PASS" or "... FAIL" so the suite output
doubles as the acceptance report.
"""

import functools
import itertools
import json
import random
from fractions import Fraction
from importlib import resources

from npolylog.freealg import NcPoly, poly_x_to_y
from npolylog.magnus import (
    array_binom,
    dual_array_binom,
    grade_report,
    magnus_indices,
)
from npolylog.polylog import (
    LinComb,
    kernel_element,
    magnus_product_identity,
    nfold_product,
    polylog_map,
    polylog_rational,
    relation_from_record,
    series_coeffs,
    verify_relation,
)
from npolylog.ratpoly import RatFun, euler_deriv, taylor_coeffs
from npolylog import cli
from npolylog.words import magnus_index, mpl_index
from oracles import lie_bracket, poly_y_to_x


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n} ({label}): FAIL")
                raise
            print(f"criterion {n} ({label}): PASS")

        return wrapper

    return deco


def plain_indices(max_depth, max_weight):
    out = []
    for depth in range(max_depth + 1):
        for entries in itertools.product(range(max_weight + 1), repeat=depth):
            if sum(entries) <= max_weight:
                out.append(mpl_index(*entries))
    return out


def series_product(a, b):
    return [sum(a[j] * b[n - j] for j in range(n + 1)) for n in range(min(len(a), len(b)))]


@criterion(1, "closed forms")
def test_criterion_1_closed_forms():
    geom = RatFun((0, 1), 1)
    assert polylog_rational(mpl_index(0)) == geom
    for r in range(1, 9):
        assert polylog_rational(mpl_index(*([0] * r))) == geom**r
    assert polylog_rational(mpl_index(1, 1)) == RatFun((0, 0, 2, 1), 4)


@criterion(2, "rational form matches series oracle")
def test_criterion_2_oracle_equivalence():
    indices = plain_indices(3, 8)
    assert len(indices) == 220
    for s in indices:
        assert taylor_coeffs(polylog_rational(s), 30) == series_coeffs(s, 30)


@criterion(3, "pairing duality")
def test_criterion_3_duality():
    for depth in range(4):
        for weight in range(7):
            idx = magnus_indices(depth, weight)
            for s in idx:
                for k in idx:
                    acc = sum(array_binom(s, u) * dual_array_binom(u, k) for u in idx)
                    assert acc == (1 if s == k else 0)
    # indices from different graded pieces never pair
    for s, k in [
        (magnus_index(1, 2), magnus_index(2, 2)),
        (magnus_index(1, 2), magnus_index(3)),
        (magnus_index(0, 0, 1), magnus_index(0, 1)),
    ]:
        assert array_binom(s, k) == 0
        assert dual_array_binom(s, k) == 0


@criterion(4, "basis inversion on graded pieces")
def test_criterion_4_basis_inversion():
    rep = list(grade_report(3, 6))
    assert len(rep) == 4 * 7
    for cell in rep:
        assert cell["duality_ok"], cell
        assert cell["inversion_ok"], cell
        assert cell["ok"], cell


@criterion(5, "product identity for basis polynomials")
def test_criterion_5_product_identity():
    count = 0
    for depth in range(4):
        for entries in itertools.product(range(5), repeat=depth + 1):
            k = magnus_index(*entries)
            lhs, rhs = magnus_product_identity(k)
            assert lhs == rhs, k
            prod = RatFun.one()
            for e in k.entries:
                prod = prod * polylog_rational(mpl_index(e))
            assert polylog_map(rhs) == prod, k
            count += 1
    assert count == 780


@criterion(6, "kernel command reproduces known relations")
def test_criterion_6_kernel_relations(capsys):
    assert cli.main(["kernel", "(1;2)", "--sigma", "2 1"]) == 0
    rec1 = json.loads(capsys.readouterr().out)
    assert cli.main(["kernel", "(0,1;2)", "--sigma", "2 3 1"]) == 0
    rec2 = json.loads(capsys.readouterr().out)

    def as_dict(rec):
        return {tuple(t["index"]): Fraction(t["coef"]) for t in rec["terms"]}

    # 3Li(1,2) = 2Li(0,3) + Li(2,1), written as a kernel element
    assert as_dict(rec1) == {(1, 2): 3, (0, 3): -2, (2, 1): -1}
    assert rec1["verified"] is True
    assert as_dict(rec2) == {
        (0, 1, 2): 2,
        (1, 1, 1): 2,
        (0, 3, 0): 1,
        (0, 0, 3): -1,
        (1, 2, 0): -1,
        (1, 0, 2): -1,
        (0, 2, 1): -2,
    }
    assert rec2["verified"] is True


@criterion(7, "single-factor reductions of depth-one products")
def test_criterion_7_single_factor_reductions():
    """Li(m)*Li(n) as a combination of depth-one Li(k), for three pairs.

    The z^N coefficient of Li(m)*Li(n) is sum_{a=1}^{N-1} a^m (N-a)^n,
    a polynomial in N of degree m+n+1 <= 19, and each Li(k) contributes
    c_k N^k.  Two polynomials of degree <= 19 that agree at the 41 points
    N = 0..40 are equal, so the series check below decides each identity
    exactly rather than spot-checking it.

    The Li(4) coefficient of the (6, 7) reduction was first stated as
    5/44; that identity is false, and the proven value is 5/33 (see
    test_corrected_second_reduction_is_unique).  Each reduction is also
    tied to its bundled relation, so the table and the data cannot drift
    apart.
    """
    reductions = [
        ((5, 4), {2: Fraction(-1, 60), 4: Fraction(1, 63), 10: Fraction(1, 1260)}),
        (
            (6, 7),
            {
                2: Fraction(-691, 5460),
                4: Fraction(5, 33),
                6: Fraction(-1, 40),
                14: Fraction(1, 24024),
            },
        ),
        (
            (8, 10),
            {
                1: Fraction(43867, 798),
                3: Fraction(-39787, 510),
                5: Fraction(77, 3),
                7: Fraction(-11056, 4095),
                9: Fraction(5, 66),
                19: Fraction(1, 831402),
            },
        ),
    ]
    data = resources.files("npolylog").joinpath("data/known_relations.jsonl").read_text(encoding="utf-8")
    # lines 3-5 of the bundled data are these three reductions, in this order
    bundled = [json.loads(line) for line in data.splitlines()[2:5]]
    bad = []
    for ((m, n), coefs), record in zip(reductions, bundled, strict=True):
        combo = LinComb({mpl_index(k): c for k, c in coefs.items()})
        bundled_ok = nfold_product([m, n]) - combo == relation_from_record(record)
        lhs = polylog_rational(mpl_index(m)) * polylog_rational(mpl_index(n))
        rhs = RatFun.zero()
        for k, c in coefs.items():
            rhs = rhs + c * polylog_rational(mpl_index(k))
        rational_ok = lhs == rhs
        lhs_series = series_product(series_coeffs(mpl_index(m), 40), series_coeffs(mpl_index(n), 40))
        rhs_series = [Fraction(0)] * 41
        for k, c in coefs.items():
            for i, a in enumerate(series_coeffs(mpl_index(k), 40)):
                rhs_series[i] += c * a
        series_ok = lhs_series == rhs_series
        if not (rational_ok and series_ok and bundled_ok):
            bad.append((m, n))
    assert not bad, f"reductions failed for factor pairs {bad}"


@criterion(8, "algebraic property suites")
def test_criterion_8_property_suites():
    rng = random.Random(20240815)

    def rand_poly(alphabet, ending_in_x1=False):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            n = rng.randint(1 if ending_in_x1 else 0, 6)
            if alphabet == "X":
                letters = tuple(rng.randint(0, 1) for _ in range(n))
                if ending_in_x1:
                    letters = letters[:-1] + (1,)
            else:
                letters = tuple(rng.randint(0, 3) for _ in range(n))
            terms[letters] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return NcPoly(alphabet, terms)

    def rand_ratfun():
        num = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        return RatFun(num, rng.randint(0, 4))

    for _ in range(25):
        a, b, c = rand_poly("X"), rand_poly("X"), rand_poly("X")
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert NcPoly.one("X") * a == a == a * NcPoly.one("X")
        assert lie_bracket(a, lie_bracket(b, c)) + lie_bracket(b, lie_bracket(c, a)) + lie_bracket(c, lie_bracket(a, b)) == NcPoly.zero("X")

    for _ in range(25):
        f, g = rand_ratfun(), rand_ratfun()
        assert euler_deriv(f * g) == euler_deriv(f) * g + f * euler_deriv(g)

    for _ in range(25):
        a = rand_poly("X", ending_in_x1=True)
        assert poly_y_to_x(poly_x_to_y(a)) == a
        b = rand_poly("Y")
        if all(letters for letters, _ in b.sorted_terms()):
            assert poly_x_to_y(poly_y_to_x(b)) == b

    for m in range(7):
        for n in range(7):
            assert polylog_map(nfold_product([m, n])) == polylog_map(nfold_product([n, m]))


@criterion(9, "kernel soundness sweep")
def test_criterion_9_kernel_sweep():
    count = 0
    for depth in range(3):
        slots = depth + 1
        sigmas = list(itertools.permutations(range(1, slots + 1)))
        for entries in itertools.product(range(4), repeat=slots):
            k = magnus_index(*entries)
            for sigma in sigmas:
                ok, witness = verify_relation(kernel_element(k, sigma))
                assert ok and witness is None, (k, sigma)
                count += 1
    assert count == 420


def test_corrected_second_reduction_is_unique():
    """Companion to criterion 7, not a criterion itself: the proof of its
    corrected coefficient.

    Criterion 7 reduces Li(6)*Li(7) over {Li(2), Li(4), Li(6), Li(14)}
    with 5/33 on Li(4); the value first stated was 5/44.  Solving the
    linear system from the series pins every coefficient uniquely, and
    the Li(4) coefficient comes out 5/33.  With that value the identity
    is exact, and the form with 5/44 is refuted with a nonzero witness.
    """
    targets = [2, 4, 6, 14]
    n_rows = 6
    lhs = series_product(series_coeffs(mpl_index(6), n_rows), series_coeffs(mpl_index(7), n_rows))
    cols = [series_coeffs(mpl_index(k), n_rows) for k in targets]
    rows = [[Fraction(cols[j][n]) for j in range(4)] + [Fraction(lhs[n])] for n in range(1, n_rows + 1)]
    # exact Gauss-Jordan on the augmented system
    pivot_rows = 0
    for col in range(4):
        pivot = next((i for i in range(pivot_rows, len(rows)) if rows[i][col]), None)
        assert pivot is not None
        rows[pivot_rows], rows[pivot] = rows[pivot], rows[pivot_rows]
        lead = rows[pivot_rows][col]
        rows[pivot_rows] = [v / lead for v in rows[pivot_rows]]
        for i in range(len(rows)):
            if i != pivot_rows and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[pivot_rows])]
        pivot_rows += 1
    for i in range(pivot_rows, len(rows)):
        assert all(v == 0 for v in rows[i])
    solution = [rows[i][4] for i in range(4)]
    assert solution == [
        Fraction(-691, 5460),
        Fraction(5, 33),
        Fraction(-1, 40),
        Fraction(1, 24024),
    ]

    corrected = LinComb(
        {
            mpl_index(2): Fraction(-691, 5460),
            mpl_index(4): Fraction(5, 33),
            mpl_index(6): Fraction(-1, 40),
            mpl_index(14): Fraction(1, 24024),
        }
    )
    prod = polylog_rational(mpl_index(6)) * polylog_rational(mpl_index(7))
    assert polylog_map(corrected) == prod
    deep = nfold_product([6, 7]) - corrected
    ok, witness = verify_relation(deep)
    assert ok and witness is None

    first_stated = LinComb(
        {
            mpl_index(2): Fraction(-691, 5460),
            mpl_index(4): Fraction(5, 44),
            mpl_index(6): Fraction(-1, 40),
            mpl_index(14): Fraction(1, 24024),
        }
    )
    ok, witness = verify_relation(nfold_product([6, 7]) - first_stated)
    assert not ok and witness is not None and not witness.is_zero()
    # the false form differs from the exact one by (5/33 - 5/44) * Li(4)
    assert witness == Fraction(5, 132) * polylog_rational(mpl_index(4))
