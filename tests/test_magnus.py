"""Alternating-power basis: expansions, change of basis, and duality."""

import itertools
import random
from fractions import Fraction
from math import comb, prod

import pytest

from npolylog import magnus
from npolylog.freealg import NcPoly
from npolylog.magnus import (
    array_binom,
    basis_word,
    dual_array_binom,
    grade_report,
    lie_power,
    magnus_indices,
    magnus_poly,
    word_to_magnus,
)
from npolylog.words import magnus_index
from oracles import (
    a_row_by_budgets,
    compositions_by_recursion,
    grade_report_by_rows,
    lie_bracket,
    lie_power_by_brackets,
    magnus_poly_by_products,
    product_terms_by_brackets,
)


def small_indices(max_depth, max_entry):
    out = []
    for depth in range(max_depth + 1):
        for entries in itertools.product(range(max_entry + 1), repeat=depth + 1):
            out.append(magnus_index(*entries))
    return out


def test_lie_power_base_cases():
    x0 = NcPoly.monomial("X", (0,))
    x1 = NcPoly.monomial("X", (1,))
    assert lie_power(0) == x1
    assert lie_power(1) == lie_bracket(x0, x1)
    assert lie_power(2) == NcPoly("X", {(0, 0, 1): 1, (0, 1, 0): -2, (1, 0, 0): 1})


def test_lie_power_matches_nested_brackets():
    for n in range(13):
        assert lie_power(n) == lie_power_by_brackets(n)


def test_lie_power_support():
    for n in range(9):
        p = lie_power(n)
        assert len(p) == n + 1
        for letters, coef in p.sorted_terms():
            assert len(letters) == n + 1
            assert letters.count(1) == 1
            k = letters.index(1)
            assert coef == (-1) ** (n - k) * comb(n, n - k)


def test_magnus_poly_examples():
    assert magnus_poly(magnus_index(0)) == NcPoly.one("X")
    assert magnus_poly(magnus_index(3)) == NcPoly.monomial("X", (0, 0, 0))
    assert magnus_poly(magnus_index(0, 0)) == NcPoly.monomial("X", (1,))
    assert str(magnus_poly(magnus_index(1, 2))) == "x0x1x0^2 - x1x0^3"
    assert magnus_poly(magnus_index(1, 0)) == lie_power(1)


def test_magnus_poly_matches_product_of_lie_powers():
    for k in small_indices(2, 3):
        assert magnus_poly(k) == magnus_poly_by_products(k)
    rng = random.Random(451)
    for _ in range(15):
        entries = [rng.randint(0, 4) for _ in range(4)]
        k = magnus_index(*entries)
        assert magnus_poly(k) == magnus_poly_by_products(k)


def test_magnus_poly_support_size_and_grading():
    for k in small_indices(2, 4):
        p = magnus_poly(k)
        expect_terms = 1
        for e in k.entries[:-1]:
            expect_terms *= e + 1
        assert len(p) == expect_terms
        for letters, _ in p.sorted_terms():
            assert len(letters) == k.weight + k.depth
            assert letters.count(1) == k.depth


def test_basis_word():
    assert basis_word(magnus_index(1, 2)) == NcPoly.monomial("X", (0, 1, 0, 0))
    assert basis_word(magnus_index(0)) == NcPoly.one("X")
    assert basis_word(magnus_index(2)) == NcPoly.monomial("X", (0, 0))
    assert basis_word(magnus_index(0, 0, 1)) == NcPoly.monomial("X", (1, 1, 0))


def test_array_binom_guards():
    assert array_binom(magnus_index(1, 2), magnus_index(0, 2)) == 0  # weight differs
    assert array_binom(magnus_index(1, 2), magnus_index(3)) == 0  # depth differs
    assert array_binom(magnus_index(1, 1), magnus_index(2, 0)) == 0  # budget overdrawn
    assert array_binom(magnus_index(0), magnus_index(0)) == 1
    assert array_binom(magnus_index(1, 0), magnus_index(0, 1)) == 1


def test_dual_array_binom_guards():
    assert dual_array_binom(magnus_index(1, 2), magnus_index(0, 2)) == 0  # weight differs
    assert dual_array_binom(magnus_index(1, 2), magnus_index(3)) == 0  # depth differs
    assert dual_array_binom(magnus_index(1, 2), magnus_index(3, 0)) == 0  # c_1 negative
    assert dual_array_binom(magnus_index(1, 2), magnus_index(1, 2)) == 1
    assert dual_array_binom(magnus_index(1, 2), magnus_index(0, 3)) == -1


def test_expansion_coefficients_reproduce_basis_words():
    for s in small_indices(2, 3):
        total = NcPoly.zero("X")
        for k in magnus_indices(s.depth, s.weight):
            c = array_binom(s, k)
            if c:
                total = total + c * magnus_poly(k)
        assert total == basis_word(s)


def test_inversion_coefficients_reproduce_magnus_polys():
    for k in small_indices(2, 3):
        total = NcPoly.zero("X")
        for s in magnus_indices(k.depth, k.weight):
            c = dual_array_binom(k, s)
            if c:
                total = total + c * basis_word(s)
        assert total == magnus_poly(k)


def test_duality_kronecker_delta():
    for depth in range(3):
        for weight in range(5):
            idx = magnus_indices(depth, weight)
            for s in idx:
                for k in idx:
                    acc = sum(array_binom(s, u) * dual_array_binom(u, k) for u in idx)
                    assert acc == (1 if s == k else 0)


def test_magnus_indices_enumeration():
    idx = magnus_indices(1, 2)
    assert [str(k) for k in idx] == ["(0;2)", "(1;1)", "(2;0)"]
    for depth in range(4):
        for weight in range(6):
            idx = magnus_indices(depth, weight)
            assert len(idx) == comb(weight + depth, depth)
            assert idx == sorted(idx, key=lambda k: k.entries)
            assert all(k.depth == depth and k.weight == weight for k in idx)


def test_word_to_magnus_examples():
    assert word_to_magnus(magnus_index(1, 0)) == {
        magnus_index(1, 0): 1,
        magnus_index(0, 1): 1,
    }
    assert word_to_magnus(magnus_index(0)) == {magnus_index(0): 1}


def test_magnus_poly_examples_in_the_word_basis():
    # M(1;2) = x1^(1) x0^2 = x0x1x0^2 - x1x0^3 = w(1;2) - w(0;3).
    assert magnus_poly(magnus_index(1, 2)) == basis_word(magnus_index(1, 2)) - basis_word(magnus_index(0, 3))
    assert magnus_poly(magnus_index(2)) == basis_word(magnus_index(2))


def test_change_of_basis_round_trip():
    # w(s) = sum_k <s,k> M(k), stated in Q<X>.
    rng = random.Random(452)
    for _ in range(20):
        depth = rng.randint(0, 3)
        entries = [rng.randint(0, 3) for _ in range(depth + 1)]
        s = magnus_index(*entries)
        back = NcPoly.zero("X")
        for k, c in word_to_magnus(s).items():
            back = back + c * magnus_poly(k)
        assert back == basis_word(s)


def test_grade_report_cells():
    rep = list(grade_report(3, 6))
    assert all(cell["ok"] for cell in rep)
    assert all(cell["duality_ok"] and cell["inversion_ok"] for cell in rep)
    by_key = {(cell["depth"], cell["weight"]): cell["size"] for cell in rep}
    assert by_key[(2, 4)] == 15
    assert by_key[(3, 6)] == comb(9, 3)
    assert len(rep) == 4 * 7


def test_grade_report_rejects_negative_bounds():
    for bounds in ((-1, 3), (2, -2), (-1, -1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            grade_report(*bounds)
    assert len(list(grade_report(0, 0))) == 1


def failing(cells):
    """The (depth, weight) of the pieces failing duality, inversion and ok, in that order."""
    cells = list(cells)
    return [{(c["depth"], c["weight"]) for c in cells if not c[key]} for key in ("duality_ok", "inversion_ok", "ok")]


def bracket_partial_of(p, change):
    """A stand-in for magnus._bracket that applies change to the bracket partial of the prefix p only.

    The choice i = 0 at every bracket gives the head p itself, the largest
    head of its partial, so that head names the prefix.  change edits a dict
    from each head to its (carry, coefficient).  The walk of every depth
    past len(p) steps on from the changed partial.
    """
    exact = magnus._bracket

    def perturbed(partial, e):
        terms = exact(partial, e)
        if max(head for head, _, _ in terms) != p:
            return terms
        heads = {head: (carry, coef) for head, carry, coef in terms}
        change(heads)
        return [(head, carry, coef) for head, (carry, coef) in heads.items()]

    return perturbed


def test_grade_report_catches_a_wrong_magnus_term(monkeypatch):
    # The term of head (1,) in the partial of (1,) is the block word (1, 1 + tail)
    # of M(1, tail) x1.  Leaf (1,) serves the pieces of depth 1, weight >= 1, and
    # the walk of depth 2 extends it into every k = (1, e, tail), so their closed
    # forms hold a wrong coefficient too; b's rows and a.b are untouched.
    def change(heads):
        carry, coef = heads[(1,)]
        heads[(1,)] = carry, coef + 1

    monkeypatch.setattr(magnus, "_bracket", bracket_partial_of((1,), change))
    bad = {(d, w) for d in (1, 2) for w in range(1, 4)}
    assert failing(grade_report(2, 3)) == [set(), bad, bad]


@pytest.mark.parametrize("change", ["drop", "add"])
def test_dual_rows_are_read_at_the_closed_form_block_words(monkeypatch, change):
    # Row k of b is evaluated at the block words of the closed form of k.  A
    # word dropped there leaves b short of a nonzero entry, so a.b != I; a
    # spurious word has dual value 0, so row k differs from the closed form.
    # Head (0, 2) of the partial of (1, 1) is the word (0, 2, 1) of (1, 1, 1),
    # and a spurious head (3, 0) has c_1 = -2.  Leaf (1, 1) serves the pieces
    # of depth 2, weight >= 2, and the walk of depth 3 extends it into
    # every k = (1, 1, e, tail).
    def perturb(heads):
        if change == "drop":
            del heads[(0, 2)]
        else:
            heads[(3, 0)] = 0, 1

    monkeypatch.setattr(magnus, "_bracket", bracket_partial_of((1, 1), perturb))
    bad = {(d, w) for d in (2, 3) for w in range(2, 5)}
    assert failing(grade_report(3, 4)) == [bad if change == "drop" else set(), bad, bad]


def test_grade_report_catches_a_wrong_matrix_entry(monkeypatch):
    # The budget step that ends at the prefix (2, 1) gives the terms of row
    # (2, 1, tail) of a, keyed by k[:-1]; the prefix itself is their largest
    # key.  The prefixes (2, 1) and (1, 2) meet in the pieces of depth 2,
    # weight >= 3, and (2, 1) dominates (1, 2), so the walk of row (2, 1, 0)
    # reaches the entry a[(2, 1, 0)][(1, 2, 0)].  The one walk of depth 2
    # shares that step with the rows (2, 1, tail) of the heavier pieces, and
    # the walk of depth 3 extends it into the rows (2, 1, e, tail), so the
    # pieces of depth 3, weight >= 3 are bad too.
    exact = magnus._budget

    def perturbed(partial, sj):
        terms = exact(partial, sj)
        if max(ks for ks, _, _ in terms) == (2, 1):
            terms.append(((1, 2), 0, 1))
        return terms

    monkeypatch.setattr(magnus, "_budget", perturbed)
    for bounds, bad in (((2, 3), {(2, 3)}), ((3, 5), {(d, w) for d in (2, 3) for w in range(3, 6)})):
        assert failing(grade_report(*bounds)) == [bad] * 3


def test_grade_report_catches_a_wrong_diagonal_entry(monkeypatch):
    # Row (0, 0, w) of a holds only its diagonal and row (0, 0, w) of b only
    # the word (0, 0, w), so doubling that entry of a doubles the diagonal of
    # a.b and leaves the rest of its row 0.  Every piece of depth 2 holds
    # the prefix (0, 0), and every piece of depth 3 the prefix (0, 0, 0),
    # which the walk extends from it; no piece of depth < 2 does.
    exact = magnus._budget

    def perturbed(partial, sj):
        terms = exact(partial, sj)
        if max(ks for ks, _, _ in terms) == (0, 0):
            terms.append(((0, 0), 0, 1))
        return terms

    monkeypatch.setattr(magnus, "_budget", perturbed)
    for bounds, bad in (((2, 3), {(2, w) for w in range(4)}), ((3, 5), {(d, w) for d in (2, 3) for w in range(6)})):
        assert failing(grade_report(*bounds)) == [bad] * 3


def test_grade_report_catches_a_wrong_dual_matrix_entry(monkeypatch):
    # An entry below the diagonal of b in the piece of depth 2, weight 3,
    # on the walk of row (2, 1): c = (1, 0).  The walk passes s with its
    # tail, which the formula ignores, so compare prefixes.
    exact = magnus._dual_array_binom

    def perturbed(k, s):
        return exact(k, s) + (1 if (k, s[: len(k)]) == ((2, 1), (1, 2)) else 0)

    monkeypatch.setattr(magnus, "_dual_array_binom", perturbed)
    for cell in grade_report(2, 3):
        bad = (cell["depth"], cell["weight"]) == (2, 3)
        assert cell["duality_ok"] is not bad
        assert cell["inversion_ok"] is not bad
        assert cell["ok"] is not bad


def b_row(k):
    """Row k of b as grade_report reads it: the dual coefficient at each block word of k, zeros dropped."""
    return {s: v for s in magnus._product_terms(k) if (v := magnus._dual_array_binom(k[:-1], s))}


def walk_disagreements(max_depth, max_weight):
    """(matrix, row, column, dense value, walked value) wherever a walked row differs from the dense formula."""
    out = []
    for depth in range(max_depth + 1):
        for weight in range(max_weight + 1):
            idx = magnus_indices(depth, weight)
            for name, walk, formula in (("a", magnus._a_row, array_binom), ("b", b_row, dual_array_binom)):
                for s in idx:
                    walked = walk(s.entries)
                    assert set(walked) <= {k.entries for k in idx}
                    for k in idx:
                        dense, got = formula(s, k), walked.get(k.entries, 0)
                        if dense != got:
                            out.append((name, s.entries, k.entries, dense, got))
    return out


def test_walked_rows_hold_every_nonzero_entry():
    # Every entry the walks skip is a zero of the dense formulas, and every
    # walked entry has the formula's value; the walks store no zeros.
    assert walk_disagreements(3, 6) == []
    for depth in range(4):
        for weight in range(7):
            for s in magnus_indices(depth, weight):
                assert all(magnus._a_row(s.entries).values())
                assert all(b_row(s.entries).values())


def test_walk_check_catches_an_off_walk_dual_entry(monkeypatch):
    # An entry above the diagonal of b in the piece of depth 2, weight 3:
    # zero when exact.  c_1 = -1 there, so the walk of row (1, 2) never
    # reaches it and grade_report cannot see it; the dense comparison does.
    exact = magnus._dual_array_binom

    def perturbed(k, s):
        return exact(k, s) + (1 if (k, s) == ((1, 2), (2, 1)) else 0)

    monkeypatch.setattr(magnus, "_dual_array_binom", perturbed)
    assert all(cell["ok"] for cell in grade_report(2, 3))
    assert walk_disagreements(2, 3) == [("b", (1, 2, 0), (2, 1, 0), 1, 0)]


def test_grade_report_walks_once_per_depth(monkeypatch):
    # Nothing is walked at the call; the first record comes from the one
    # walk of depth 0, which runs to the box's weight bound, before any
    # deeper walk starts.
    built = []
    exact = magnus._walk

    def counting(weight, depth):
        built.append((depth, weight))
        return exact(weight, depth)

    monkeypatch.setattr(magnus, "_walk", counting)
    cells = grade_report(4, 8)
    assert built == []
    first = next(cells)
    assert (first["depth"], first["weight"], first["size"], first["ok"]) == (0, 0, 1, True)
    assert built == [(0, 8)]
    assert len(list(cells)) == 5 * 9 - 1
    assert built == [(depth, 8) for depth in range(5)]


def test_grade_report_steps_each_prefix_once_per_depth(monkeypatch):
    # One walk per depth shares every prefix among all the pieces of the
    # depth: the prefixes of length 1..d summing to <= 8 are C(8 + L, L) per
    # length L, and each takes one bracket and one budget step.
    calls = {"_bracket": 0, "_budget": 0}
    for name in calls:
        def counting(partial, e, exact=getattr(magnus, name), name=name):
            calls[name] += 1
            return exact(partial, e)

        monkeypatch.setattr(magnus, name, counting)
    assert all(cell["ok"] for cell in grade_report(4, 8))
    expected = sum(comb(8 + length, length) for depth in range(5) for length in range(1, depth + 1))
    assert expected == 996
    assert calls == {"_bracket": expected, "_budget": expected}


def test_grade_report_evaluates_each_leaf_dual_once(monkeypatch):
    # The dual values of a leaf p depend on the heads of its bracket partial,
    # not on the tail, so each head is evaluated once for every piece p
    # serves: the sum over the leaves of |partial| = prod_j (p_j + 1).
    calls = 0
    exact = magnus._dual_array_binom

    def counting(k, s):
        nonlocal calls
        calls += 1
        return exact(k, s)

    monkeypatch.setattr(magnus, "_dual_array_binom", counting)
    assert all(cell["ok"] for cell in grade_report(4, 8))
    # The leaves of depth d are k[:-1] for the k of the piece (d, 8).
    expected = sum(prod(e + 1 for e in k[:-1]) for depth in range(5) for k in compositions_by_recursion(8, depth + 1))
    assert expected == 16414
    assert calls == expected


def test_a_piece_record_does_not_depend_on_the_box():
    # Each piece keeps its own state within the shared walk, so a smaller
    # box yields exactly the records of its pieces in the larger one.
    whole = list(grade_report(4, 8))
    for max_depth, max_weight in [(4, 5), (2, 8), (0, 0), (3, 3), (1, 7)]:
        within = [c for c in whole if c["depth"] <= max_depth and c["weight"] <= max_weight]
        assert list(grade_report(max_depth, max_weight)) == within


def test_grade_report_equals_the_per_index_path():
    # The walk against the path it replaced: closed forms per index, rows
    # of a per row, and a dense row of a.b per row of a.
    assert list(grade_report(5, 8)) == list(grade_report_by_rows(5, 8))


def test_walk_gives_each_index_its_closed_form_and_row():
    # In every piece the walk meets the indices in lexicographic order, and
    # the partials it shares close to the per-index folds, which equal the
    # loops they were written from.
    for depth in range(5):
        for weight in range(9):
            walked = list(magnus._walk(weight, depth))
            assert [p + (tail,) for p, tail, _, _ in walked] == list(compositions_by_recursion(weight, depth + 1))
            for p, tail, brackets, budgets in walked:
                k = p + (tail,)
                assert magnus._close(brackets, tail) == magnus._product_terms(k) == product_terms_by_brackets(k)
                assert magnus._close(budgets, tail) == magnus._a_row(k) == a_row_by_budgets(k)


def test_deep_boxes_need_no_recursion():
    # Depth past the interpreter's recursion limit: one index per piece.
    assert [k.entries for k in magnus_indices(1200, 0)] == [(0,) * 1201]
    cells = list(grade_report(1100, 0))
    assert [(c["depth"], c["size"]) for c in cells] == [(d, 1) for d in range(1101)]
    assert all(c["ok"] for c in cells)


def test_polynomials_store_integer_coefficients():
    for k in small_indices(2, 3):
        for p in (magnus_poly(k), basis_word(k), lie_power(k.tail)):
            assert p.sorted_terms() and all(type(c) is int and c for _, c in p.sorted_terms())


def test_magnus_basis_check():
    for max_depth, max_weight in [(2, 4), (0, 3), (3, 6)]:
        assert all(cell["ok"] for cell in grade_report(max_depth, max_weight))


def test_magnus_polys_span_by_gaussian_rank():
    # independent of the pairing: exact row reduction over the word basis
    depth, weight = 2, 4
    idx = magnus_indices(depth, weight)
    words = sorted(
        {letters for k in idx for letters, _ in magnus_poly(k).sorted_terms()}
    )
    col = {w: j for j, w in enumerate(words)}
    rows = []
    for k in idx:
        row = [Fraction(0)] * len(words)
        for letters, coef in magnus_poly(k).sorted_terms():
            row[col[letters]] = coef
        rows.append(row)
    rank = 0
    for j in range(len(words)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][j]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                factor = rows[i][j] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    assert len(words) == len(idx) == 15
    assert rank == 15


def test_lie_power_rejects_negative():
    with pytest.raises(ValueError):
        lie_power(-1)
