"""Evaluation, series oracles, product expansions, and relation generation."""

import itertools
import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npolylog.polylog as pl
from npolylog import cli, magnus
from npolylog.freealg import NcPoly
from npolylog.polylog import (
    LinComb,
    PipelineDisagreement,
    expand_to_products,
    kernel_element,
    magnus_product_identity,
    nfold_product,
    polylog_map,
    polylog_rational,
    relation_from_record,
    relation_line,
    relation_record,
    series_coeffs,
    verify_relation,
)
from npolylog.ratpoly import RatFun, taylor_coeffs
from npolylog.words import magnus_index, mpl_index
from output_manifest import new_caches
from oracles import (
    RowLog,
    nfold_product_by_choices,
    polylog_by_fold,
    product_letter_word,
    raise_row,
    raise_value,
    relation_record_by_dicts,
    series_coeffs_by_chains,
)


def plain_indices(max_depth, max_weight):
    out = []
    for depth in range(max_depth + 1):
        for entries in itertools.product(range(max_weight + 1), repeat=depth):
            if sum(entries) <= max_weight:
                out.append(mpl_index(*entries))
    return out


def polylog_map_by_terms(c):
    """Reference for polylog_map: the per-term sum in RatFun arithmetic."""
    out = RatFun.zero()
    for idx, coef in c.items():
        out = out + coef * polylog_rational(idx)
    return out


def eulerian_row(n):
    """A(n,0..n-1) by A(n,k) = (k+1) A(n-1,k) + (n-k) A(n-1,k-1), with A(0) = (1,)."""
    row = [1]
    for m in range(1, n + 1):
        prev = row + [0]
        row = [(k + 1) * prev[k] + (m - k) * (prev[k - 1] if k else 0) for k in range(m)]
    return row


def test_closed_forms():
    assert polylog_rational(mpl_index()) == 1
    assert polylog_rational(mpl_index(0)) == RatFun((0, 1), 1)
    assert polylog_rational(mpl_index(1)) == RatFun((0, 1), 2)
    assert polylog_rational(mpl_index(1, 1)) == RatFun((0, 0, 2, 1), 4)
    for r in range(1, 9):
        assert polylog_rational(mpl_index(*([0] * r))) == RatFun((0, 1), 1) ** r


def test_depth_one_matches_eulerian_closed_form():
    # Li(n) = z A_n(z)/(1-z)^(n+1), a third oracle independent of the
    # Euler-operator recursion and of the series recursion.
    assert eulerian_row(3) == [1, 4, 1]
    for n in range(16):
        f = polylog_rational(mpl_index(n))
        assert f == RatFun([0] + eulerian_row(n), n + 1)
        assert all(type(c) is int for c in f.num)


def test_integer_invariants_of_values():
    count = 0
    for depth in range(5):
        for entries in itertools.product(range(7), repeat=depth):
            f = polylog_rational(mpl_index(*entries))
            assert all(type(c) is int for c in f.num), entries
            if depth:
                assert f.dpow == sum(entries) + depth, entries
            assert f.degree <= f.dpow, entries
            count += 1
    assert count == 2801


def test_rational_against_series_dp():
    for s in plain_indices(2, 4):
        assert taylor_coeffs(polylog_rational(s), 25) == series_coeffs(s, 25)


def test_tail_built_values_match_the_fold():
    # The test's fresh cache, filled in a shuffled order, so that some
    # tails are cached when their index is reached and some are not.
    indices = [mpl_index(*e) for r in range(5) for e in itertools.product(range(7), repeat=r)]
    random.Random(6).shuffle(indices)
    for s in indices:
        assert polylog_rational(s) == polylog_by_fold(s)
    assert len(pl._LI) == len(indices)


def test_series_dp_against_chain_enumeration():
    for s in plain_indices(2, 3):
        assert series_coeffs(s, 12) == series_coeffs_by_chains(s, 12)
    assert series_coeffs(mpl_index(3, 1, 2), 10) == series_coeffs_by_chains(
        mpl_index(3, 1, 2), 10
    )


def test_series_rows_built_on_one_shared_dict_match_chain_enumeration():
    # Indices of mixed depth whose tails overlap, read at rising and
    # falling bounds in a seeded order into the test's fresh row cache:
    # a row is built from its cached tails, grown in place from the
    # shorter rows of a tail, or read as a prefix of a longer one.
    indices = [e for r in range(5) for e in itertools.product(range(3), repeat=r)]
    reads = [(e, n) for e in indices for n in (0, 3, 7, 11)]
    random.Random(18).shuffle(reads)
    for entries, n in reads:
        assert series_coeffs(mpl_index(*entries), n) == series_coeffs_by_chains(mpl_index(*entries), n), (entries, n)
    # One row per index, each reaching the largest bound read at it or
    # at an index it is a tail of.
    reach = {}
    for entries, n in reads:
        for i in range(len(entries) + 1):
            reach[entries[i:]] = max(reach.get(entries[i:], 0), n)
    assert {e: len(row) - 1 for e, row in pl._ROWS.items()} == reach


def test_a_row_read_below_its_reach_builds_nothing(monkeypatch):
    log = RowLog()
    monkeypatch.setattr(pl, "_ROWS", log)
    s = mpl_index(1, 0, 2)
    series_coeffs(s, 12)
    # Every tail is stored once at z^12, the row of Li(()) = 1 grown to it.
    assert sorted(log.stored) == sorted((e, 12) for e in tails(s.entries) + [()])
    log.stored.clear()
    for n in (12, 3, 0, 7):
        assert series_coeffs(s, n) == series_coeffs_by_chains(s, n)
        assert series_coeffs(mpl_index(0, 2), n) == series_coeffs_by_chains(mpl_index(0, 2), n)
    assert log.stored == []
    # A larger bound grows each row once, innermost first.
    series_coeffs(s, 15)
    assert log.stored == [((), 15), ((2,), 15), ((0, 2), 15), ((1, 0, 2), 15)]


def test_verify_reads_only_up_to_its_bound_of_a_longer_row():
    # Rows first built far past the D = 5 of the relations of (1;2):
    # verify_relation and a kernel sweep read only z^0..z^5 of them.
    c = kernel_element(magnus_index(1, 2), (2, 1))
    for e in c._terms:
        series_coeffs(mpl_index(*e), 30)
    assert verify_relation(c) == (True, None)
    assert verify_relation(c + LinComb({mpl_index(2): 1}))[0] is False
    assert [ok for _, ok in pl._kernel_records(magnus_index(1, 2), [(1, 2), (2, 1)])] == [True, True]


def test_li_values_keep_int_coefficients_after_a_sweep(capsys):
    assert cli.main(["kernel", "(1,0,2;3)", "--all-sigma"]) == 0
    capsys.readouterr()
    assert len(pl._LI) > 20
    assert {type(c) for f in pl._LI.values() for c in f.num} == {int}


def test_series_coeffs_returns_a_copy_of_the_cached_row():
    # Mutating a returned row must not reach the cached row, nor any
    # row or verdict built on it later.
    for s, n in [(mpl_index(1, 2), 5), (mpl_index(), 5)]:
        row = series_coeffs(s, n)
        want = list(row)
        row[-1] += 1
        row.append(7)
        assert series_coeffs(s, n) == want
    assert series_coeffs(mpl_index(0, 1, 2), 5) == series_coeffs_by_chains(mpl_index(0, 1, 2), 5)
    assert verify_relation(kernel_element(magnus_index(1, 2), (2, 1))) == (True, None)
    assert verify_relation(LinComb({mpl_index(): 1})) == (False, RatFun.one())


def test_rational_values_from_an_empty_cache_match_the_fold():
    count = 0
    for depth in range(5):
        for entries in itertools.product(range(9), repeat=depth):
            if sum(entries) <= 8:
                assert polylog_rational(mpl_index(*entries)) == polylog_by_fold(mpl_index(*entries)), entries
                assert {type(c) for c in pl._polylog_entries(entries).num} == {int}, entries
                count += 1
    assert count == 715


def test_series_examples():
    assert series_coeffs(mpl_index(0), 4) == [0, 1, 1, 1, 1]
    assert series_coeffs(mpl_index(), 3) == [1, 0, 0, 0]
    got = series_coeffs(mpl_index(1, 1), 6)
    assert got == [0, 0, 2, 9, 24, 50, 90]


def test_polylog_map_is_linear():
    a = mpl_index(1)
    b = mpl_index(0, 0)
    c = LinComb({a: Fraction(1, 2), b: -3})
    want = Fraction(1, 2) * polylog_rational(a) - 3 * polylog_rational(b)
    assert polylog_map(c) == want
    assert polylog_map(LinComb()).is_zero()


def random_rational_combination(rng, pool, n_terms):
    terms = {}
    for idx in rng.sample(pool, n_terms):
        terms[idx] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12))
    return LinComb(terms)


def test_polylog_map_matches_per_term_sum():
    rng = random.Random(475)
    pool = plain_indices(3, 5)
    mixed = 0
    for _ in range(60):
        c = random_rational_combination(rng, pool, rng.randint(1, 6))
        mixed += len({polylog_rational(idx).dpow for idx, _ in c.items()}) > 1
        assert polylog_map(c) == polylog_map_by_terms(c)
    assert mixed > 30
    # mixed denominator powers, integer and rational coefficients
    c = LinComb({mpl_index(): 2, mpl_index(0): Fraction(1, 3), mpl_index(2, 3): Fraction(-7, 4)})
    assert polylog_map(c) == polylog_map_by_terms(c)


def test_polylog_map_cancellations():
    # full cancellation of a rescaled kernel element
    rel = Fraction(5, 6) * kernel_element(magnus_index(0, 1, 2), (2, 3, 1))
    assert polylog_map(rel).is_zero() and polylog_map_by_terms(rel).is_zero()
    assert polylog_map(rel).dpow == 0
    # the d = 6 parts cancel and leave -(5/4) z/(1-z) with d = 1
    c = rel + LinComb({mpl_index(0): Fraction(-5, 4)})
    assert polylog_map(c) == polylog_map_by_terms(c) == RatFun((0, Fraction(-5, 4)), 1)
    # z/(1-z)^2 - z^2/(1-z)^2 = z/(1-z): both terms have d = 2
    c = LinComb({mpl_index(1): Fraction(1, 2), mpl_index(0, 0): Fraction(-1, 2)})
    assert polylog_map(c) == polylog_map_by_terms(c) == RatFun((0, Fraction(1, 2)), 1)


def test_verify_relation_witness_matches_per_term_sum():
    rng = random.Random(476)
    pool = plain_indices(3, 4)
    for _ in range(30):
        c = random_rational_combination(rng, pool, rng.randint(1, 5))
        ok, witness = verify_relation(c)
        assert not ok
        assert witness == polylog_map_by_terms(c)
    ok, witness = verify_relation(Fraction(2, 9) * kernel_element(magnus_index(1, 2), (2, 1)))
    assert ok and witness is None


def test_polylog_map_is_the_witness_of_the_integer_path():
    # polylog_map sums rational coefficients as they are; verify_relation
    # clears denominators first and divides the witness at the end.
    c = LinComb({mpl_index(1, 2): Fraction(1, 3), mpl_index(0, 3): Fraction(-5, 7), mpl_index(4): 2})
    assert polylog_map(c) == verify_relation(c)[1]
    rng = random.Random(477)
    pool = plain_indices(3, 4)
    for _ in range(30):
        c = random_rational_combination(rng, pool, rng.randint(1, 5))
        assert polylog_map(c) == verify_relation(c)[1]
    for depth in range(3):
        for weight in range(6):
            for k in magnus.magnus_indices(depth, weight):
                for c in (kernel_element(k, s) for s in itertools.permutations(range(1, depth + 2))):
                    assert polylog_map(c).is_zero()


def test_lincomb_basics():
    a = mpl_index(1, 2)
    b = mpl_index(0, 3)
    c = LinComb({a: 1, b: -1})
    assert str(c) == "Li(1,2) - Li(0,3)"
    assert str(LinComb()) == "0"
    assert (c - c).is_zero()
    assert 2 * c - c == c
    assert str(LinComb({b: Fraction(-1, 2)})) == "-1/2*Li(0,3)"
    assert list(LinComb({b: 1, a: 1}).items())[0][0] == a


def test_lincomb_arithmetic_stays_lincomb():
    a = LinComb({mpl_index(1, 2): 1, mpl_index(0, 3): Fraction(-1, 2)})
    b = kernel_element(magnus_index(1, 2), (2, 1))
    for c in (a + b, a - b, 2 * a, a * Fraction(1, 3), -a, b * 0):
        assert type(c) is LinComb
    assert (b * 0).is_zero() and len(b * 0) == 0
    with pytest.raises(ValueError, match="plain index"):
        LinComb({magnus_index(1, 2): 1})


def test_lincomb_zero_one_and_monomial():
    assert LinComb.zero("Y") == LinComb()
    assert type(LinComb.zero("Y")) is LinComb
    assert type(LinComb.one("Y")) is LinComb
    assert LinComb.one("Y") == LinComb({mpl_index(): 1})
    m = LinComb.monomial("Y", (1, 2), Fraction(6, 3))
    assert type(m) is LinComb and m == LinComb({mpl_index(1, 2): 2})
    assert type(m.coefficient(mpl_index(1, 2))) is int
    assert LinComb.monomial("Y", (1,), 0) == LinComb()
    with pytest.raises(ValueError, match="bad letter"):
        LinComb.monomial("Y", (-1,))
    with pytest.raises(ValueError, match="unknown alphabet"):
        NcPoly.zero("Z")


def test_lincomb_helpers_refuse_alphabet_x():
    for build in (lambda: LinComb.zero("X"), lambda: LinComb.one("X"), lambda: LinComb.monomial("X", (1, 0))):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == "a combination of indices is over Y, got alphabet 'X'"
    assert str(NcPoly.monomial("X", (1, 0))) == "x1x0"


def test_lincomb_coefficients_follow_the_int_rule():
    idx = mpl_index(2, 1)
    c = LinComb({idx: Fraction(4, 2)})
    assert c.coefficient(idx) == 2 and type(c.coefficient(idx)) is int
    assert c.coefficient(mpl_index(1, 2)) == 0
    for k, sigma in [((1, 2), (2, 1)), ((0, 1, 2), (2, 3, 1)), ((2, 0, 3, 1), (4, 1, 3, 2))]:
        assert all(type(coef) is int for _, coef in kernel_element(magnus_index(*k), sigma))
    for factors in ([3], [2, 1], [4, 0, 3], [1, 2, 3, 1]):
        assert all(type(coef) is int for _, coef in nfold_product(factors))
    assert all(type(coef) is int for _, coef in product_letter_word(3, mpl_index(1, 2)))


def test_lincomb_items_follow_the_y_word_order():
    c = nfold_product([4, 5]) + kernel_element(magnus_index(0, 1, 2), (2, 3, 1))
    c = c + LinComb({mpl_index(9): -1, mpl_index(): 3, mpl_index(0, 0, 0): Fraction(1, 2)})
    words = NcPoly("Y", {idx.entries: coef for idx, coef in c.items()}).sorted_terms()
    assert [(idx.entries, coef) for idx, coef in c.items()] == words
    assert list(c) == c.items()


def test_plain_and_magnus_indices_are_kept_apart():
    with pytest.raises(ValueError, match="plain index"):
        polylog_rational(magnus_index(1, 2))
    with pytest.raises(ValueError, match="plain index"):
        expand_to_products(magnus_index(1, 2))
    with pytest.raises(ValueError, match="magnus index"):
        magnus_product_identity(mpl_index(1, 2))
    with pytest.raises(ValueError, match="magnus index"):
        kernel_element(mpl_index(1, 2), (2, 1))


def test_expand_to_products_examples():
    assert expand_to_products(mpl_index(1, 1)) == {
        magnus_index(1, 1): 1,
        magnus_index(0, 2): 1,
    }
    assert expand_to_products(mpl_index(0, 0)) == {magnus_index(0, 0): 1}
    assert expand_to_products(mpl_index(4)) == {magnus_index(4): 1}
    assert expand_to_products(mpl_index(2, 1)) == {
        magnus_index(0, 3): 1,
        magnus_index(1, 2): 2,
        magnus_index(2, 1): 1,
    }
    with pytest.raises(ValueError):
        expand_to_products(mpl_index())


def test_expand_to_products_closes_numerically():
    for s in plain_indices(3, 4):
        if s.depth == 0:
            continue
        total = RatFun.zero()
        for k, c in expand_to_products(s).items():
            prod = RatFun.one()
            for e in k.entries:
                prod = prod * polylog_rational(mpl_index(e))
            total = total + c * prod
        assert total == polylog_rational(s)


def test_product_letter_word_examples():
    got = product_letter_word(2, mpl_index(1))
    assert got == LinComb(
        {mpl_index(2, 1): 1, mpl_index(1, 2): -2, mpl_index(0, 3): 1}
    )
    assert product_letter_word(0, mpl_index(5)) == LinComb({mpl_index(0, 5): 1})
    got = product_letter_word(1, mpl_index(0, 2))
    assert got == LinComb({mpl_index(1, 0, 2): 1, mpl_index(0, 1, 2): -1})


def test_product_letter_word_is_exact():
    rng = random.Random(471)
    for _ in range(20):
        m = rng.randint(0, 4)
        w = mpl_index(*[rng.randint(0, 3) for _ in range(rng.randint(1, 3))])
        lhs = polylog_rational(mpl_index(m)) * polylog_rational(w)
        assert polylog_map(product_letter_word(m, w)) == lhs


def test_nfold_product_examples():
    assert nfold_product([3]) == LinComb({mpl_index(3): 1})
    assert nfold_product([2, 1]) == product_letter_word(2, mpl_index(1))
    assert nfold_product([0, 0]) == LinComb(
        {mpl_index(0, 0): 2}
    ) - LinComb({mpl_index(0, 0): 1}) + LinComb({mpl_index(0, 0): 0})


def test_nfold_product_matches_iterated_expansion():
    rng = random.Random(472)
    for _ in range(15):
        factors = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
        step = LinComb({mpl_index(factors[-1]): 1})
        for m in reversed(factors[:-1]):
            acc = LinComb()
            for idx, coef in step.items():
                acc = acc + coef * product_letter_word(m, idx)
            step = acc
        assert nfold_product(factors) == step


def test_nfold_product_matches_the_sum_over_choices():
    for n in range(1, 5):
        for factors in itertools.product(range(5), repeat=n):
            assert nfold_product(factors) == nfold_product_by_choices(factors)


def test_products_reject_bool_factors():
    with pytest.raises(ValueError, match="bad factor True"):
        nfold_product([True])
    with pytest.raises(ValueError, match="bad factor False"):
        nfold_product([2, False])
    with pytest.raises(ValueError, match="the single index must be an integer >= 0"):
        product_letter_word(True, mpl_index(1))


def test_a_product_needs_a_factor():
    with pytest.raises(ValueError, match="need at least one factor"):
        nfold_product([])


def test_nfold_product_is_exact():
    rng = random.Random(473)
    for _ in range(10):
        factors = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
        prod = RatFun.one()
        for m in factors:
            prod = prod * polylog_rational(mpl_index(m))
        assert polylog_map(nfold_product(factors)) == prod


def test_products_commute_after_evaluation():
    for m in range(5):
        for n in range(5):
            a = polylog_map(nfold_product([m, n]))
            b = polylog_map(nfold_product([n, m]))
            assert a == b


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 5), st.integers(0, 5))
def test_product_commutator_is_a_relation_property(u, v):
    assert verify_relation(nfold_product([u, v]) - nfold_product([v, u])) == (True, None)


def test_magnus_product_identity_examples():
    lhs, rhs = magnus_product_identity(magnus_index(1, 2))
    assert lhs == rhs == LinComb({mpl_index(1, 2): 1, mpl_index(0, 3): -1})
    lhs, rhs = magnus_product_identity(magnus_index(0))
    assert lhs == rhs == LinComb({mpl_index(0): 1})
    lhs, rhs = magnus_product_identity(magnus_index(2))
    assert lhs == rhs == LinComb({mpl_index(2): 1})


def test_magnus_product_identity_small_sweep():
    # Every entry up to 2 at depth up to 3, then every index of depth up
    # to 4 and weight up to 8.  The product and Li(k) are P/(1-z)^D,
    # D = weight + depth, the one bound of the sweep of k, whose closed
    # form (lhs) is checked against the product.
    small = [magnus_index(*entries) for depth in range(3) for entries in itertools.product(range(3), repeat=depth + 1)]
    light = [k for depth in range(4) for weight in range(9) for k in magnus.magnus_indices(depth, weight)]
    for k in small + light:
        lhs, rhs = magnus_product_identity(k)
        assert lhs == rhs
        prod = RatFun.one()
        for e in k.entries:
            prod = prod * polylog_rational(mpl_index(e))
        assert polylog_map(rhs) == prod
        assert prod.dpow == polylog_rational(mpl_index(*k.entries)).dpow == sum(k.entries) + len(k.entries)


def test_magnus_product_identity_catches_a_wrong_closed_form(monkeypatch):
    # The closed form is perturbed wherever it is read; the right side
    # multiplies out the brackets and must not follow it.
    exact = pl._product_terms

    def perturbed(entries):
        terms = exact(entries)
        if entries == (1, 1):
            terms[entries] += 1
        return terms

    monkeypatch.setattr(pl, "_product_terms", perturbed)
    monkeypatch.setattr(magnus, "_product_terms", perturbed)
    lhs, rhs = magnus_product_identity(magnus_index(1, 1))
    assert lhs != rhs
    assert rhs == LinComb({mpl_index(1, 1): 1, mpl_index(0, 2): -1})
    lhs, rhs = magnus_product_identity(magnus_index(1, 2))
    assert lhs == rhs


def test_kernel_element_examples():
    got = kernel_element(magnus_index(1, 2), (2, 1))
    assert got == LinComb(
        {mpl_index(1, 2): 3, mpl_index(0, 3): -2, mpl_index(2, 1): -1}
    )
    got = kernel_element(magnus_index(0, 1, 2), (2, 3, 1))
    assert got == LinComb(
        {
            mpl_index(0, 1, 2): 2,
            mpl_index(1, 1, 1): 2,
            mpl_index(0, 3, 0): 1,
            mpl_index(0, 0, 3): -1,
            mpl_index(1, 2, 0): -1,
            mpl_index(1, 0, 2): -1,
            mpl_index(0, 2, 1): -2,
        }
    )


def test_kernel_element_identity_permutation_is_zero():
    assert kernel_element(magnus_index(1, 2), (1, 2)).is_zero()
    assert kernel_element(magnus_index(0, 1, 2), (1, 2, 3)).is_zero()


def test_kernel_element_is_homogeneous():
    rng = random.Random(474)
    for _ in range(15):
        depth = rng.randint(1, 3)
        entries = [rng.randint(0, 3) for _ in range(depth + 1)]
        k = magnus_index(*entries)
        sigma = list(range(1, depth + 2))
        rng.shuffle(sigma)
        c = kernel_element(k, sigma)
        for idx, _ in c.items():
            assert idx.weight == k.weight
            assert idx.depth == k.depth + 1


def test_kernel_element_rejects_bad_sigma():
    for sigma in [(1, 1), (0, 1), (2, 1, 3), ()]:
        with pytest.raises(ValueError, match="permutation"):
            kernel_element(magnus_index(1, 2), sigma)


@pytest.mark.parametrize("sigma", [(2, True), (2.0, 1.9), ("2", "1")], ids=repr)
def test_kernel_element_refuses_sigma_entries_that_are_not_counts(sigma):
    with pytest.raises(ValueError) as exc:
        kernel_element(magnus_index(1, 2), sigma)
    assert str(exc.value) == f"sigma must be a permutation of 1..2 in one-line notation, got {sigma}"


def test_verify_relation_accepts_kernel_elements():
    ok, witness = verify_relation(kernel_element(magnus_index(1, 2), (2, 1)))
    assert ok and witness is None
    ok, witness = verify_relation(kernel_element(magnus_index(0, 1, 2), (2, 3, 1)))
    assert ok and witness is None
    ok, witness = verify_relation(LinComb())
    assert ok and witness is None


def test_verify_relation_rejects_nonrelations():
    ok, witness = verify_relation(LinComb({mpl_index(0): 1}))
    assert not ok
    assert witness == RatFun((0, 1), 1)
    ok, witness = verify_relation(
        LinComb({mpl_index(1, 2): 1, mpl_index(0, 3): -1})
    )
    assert not ok and witness is not None


READERS = [
    pytest.param(verify_relation, id="verify_relation"),
    pytest.param(polylog_map, id="polylog_map"),
    pytest.param(lambda c: relation_line(c, True), id="relation_line"),
    pytest.param(lambda c: relation_record(c, True), id="relation_record"),
]


@pytest.mark.parametrize("read", READERS)
def test_combination_readers_refuse_anything_but_a_polynomial_over_y(read):
    # x0x1 is a word over X, not an index; read as the Y-word (0, 1) it would be Li(0,1).
    with pytest.raises(ValueError, match="got a polynomial over X"):
        read(NcPoly("X", {(0, 1): 1}))
    with pytest.raises(ValueError, match="got dict"):
        read({(0, 1): 1})
    # An NcPoly over Y need not be a LinComb.
    assert read(NcPoly("Y", {(0, 1): 1})) == read(LinComb({mpl_index(0, 1): 1}))


def test_verify_relation_refuses_on_pipeline_disagreement(monkeypatch):
    good = pl._series_row

    def lying(entries, n_max):
        out = list(good(entries, n_max))
        if entries == (1, 2):
            out[-1] += 1
        return out

    monkeypatch.setattr(pl, "_series_row", lying)
    with pytest.raises(PipelineDisagreement, match="refusing to answer"):
        verify_relation(kernel_element(magnus_index(1, 2), (2, 1)))
    assert issubclass(PipelineDisagreement, RuntimeError)


def corrupt_series(monkeypatch, index, position):
    """Make every row of Li(index) that verify_relation reads 1 too large at z^position.

    The stored rows stay clean; returns the list of bounds read.
    """
    good = pl._series_row
    bounds = []

    def lying(entries, n_max):
        bounds.append(n_max)
        out = list(good(entries, n_max))
        if entries == index.entries and n_max >= position:
            out[position] += 1
        return out

    monkeypatch.setattr(pl, "_series_row", lying)
    return bounds


def test_verify_relation_checks_past_forty_coefficients(monkeypatch):
    # Li(45) has d = 46, so z^46 takes part in the verdict.
    corrupt_series(monkeypatch, mpl_index(45), 46)
    with pytest.raises(PipelineDisagreement, match="refusing to answer"):
        verify_relation(LinComb({mpl_index(45): 1, mpl_index(2, 1): -3}))


def test_verify_relation_bound_is_weight_plus_depth(monkeypatch):
    # The terms of this relation have weight 3 and depth 2, so D = 5:
    # z^5 is read, and nothing past it.
    bounds = corrupt_series(monkeypatch, mpl_index(1, 2), 5)
    with pytest.raises(PipelineDisagreement, match="refusing to answer"):
        verify_relation(kernel_element(magnus_index(1, 2), (2, 1)))
    assert set(bounds) == {5}


@pytest.mark.parametrize("slot", [0, 5], ids=["z^0", "z^D"])
def test_verify_sees_one_unit_in_any_row_slot(monkeypatch, slot):
    # Li(1,2) has no term below z^2, but a row that is wrong there is
    # still wrong: every slot of every row takes part in the sum.
    corrupt_series(monkeypatch, mpl_index(1, 2), slot)
    with pytest.raises(PipelineDisagreement, match="refusing to answer"):
        verify_relation(kernel_element(magnus_index(1, 2), (2, 1)))


def test_verify_relation_refuses_a_nonzero_value_with_a_zero_series(monkeypatch):
    # z^6 vanishes to order D = 5 but is not zero: the rational verdict
    # would be "false relation", the series verdict "true relation".
    good = pl._combine
    monkeypatch.setattr(pl, "_combine", lambda pairs: good(pairs) + RatFun((0,) * 6 + (1,)))
    with pytest.raises(PipelineDisagreement, match="refusing to answer"):
        verify_relation(kernel_element(magnus_index(1, 2), (2, 1)))


def test_kernel_records_refuse_when_values_and_rows_disagree(monkeypatch):
    # A word of the closed form of sigma(k) = (2,1) that k's lacks gains
    # z^6 in its value, past D = 5: the row of that closed form is still
    # k's, but its value is not.  It is evaluated once, after the zero
    # relation and k's closed form, and the two pipelines disagree.
    k, arranged = magnus_index(1, 2), (2, 1)
    terms = pl._product_terms(arranged)
    raise_value(monkeypatch, min(set(terms) - set(pl._product_terms(k.entries))), 6)
    evaluations = []
    evaluate = pl._evaluate
    monkeypatch.setattr(pl, "_evaluate", lambda terms, bound: evaluations.append(dict(terms)) or evaluate(terms, bound))
    with pytest.raises(PipelineDisagreement, match="refusing to answer"):
        list(pl._kernel_records(k, [arranged]))
    assert evaluations == [{}, pl._product_terms(k.entries), terms]


def test_kernel_records_refuse_a_corrupted_row_under_the_value_of_k(monkeypatch):
    # The words of the closed form of (3,2,1) that are not in that of
    # k = (1,2,3) get rows 1 too large at z^D.  The value of (3,2,1) is
    # still k's, so its series is not expanded, but its row is not k's.
    k, arranged = magnus_index(1, 2, 3), (3, 2, 1)
    base, terms = pl._product_terms(k.entries), pl._product_terms(arranged)
    own = set(terms) - set(base)
    assert own and polylog_map(LinComb._trusted("Y", terms)) == polylog_map(LinComb._trusted("Y", base))
    for index in own:
        raise_row(monkeypatch, index, 9)
    records = pl._kernel_records(k, [k.entries, arranged])
    assert next(records)[1] is True
    with pytest.raises(PipelineDisagreement, match="refusing to answer"):
        next(records)


def test_kernel_records_check_a_value_that_is_not_k_against_its_own_row(monkeypatch):
    # A word dropped from the closed form of (3,2,1): its value and row
    # both differ from k's, and the row of another of its words, not in
    # the closed form of k, is 1 too large at z^D.  Only the series of
    # its own value tells.
    k, arranged = magnus_index(1, 2, 3), (3, 2, 1)
    exact = pl._product_terms
    own = sorted(set(exact(arranged)) - set(exact(k.entries)))
    assert len(own) >= 2

    def dropped(entries):
        terms = exact(entries)
        if entries == arranged:
            del terms[own[0]]
        return terms

    good = pl._series_row

    def lying(entries, n_max):
        out = list(good(entries, n_max))
        if entries == own[1]:
            out[-1] += 1
        return out

    monkeypatch.setattr(pl, "_product_terms", dropped)
    assert [ok for _, ok in pl._kernel_records(k, [arranged])] == [False]
    monkeypatch.setattr(pl, "_series_row", lying)
    with pytest.raises(PipelineDisagreement, match="refusing to answer"):
        list(pl._kernel_records(k, [arranged]))


@pytest.mark.parametrize("raise_one", [raise_value, raise_row], ids=["value", "row"])
@pytest.mark.parametrize("slot", ["bottom", "top"])
@pytest.mark.parametrize("where, records", [("k", 1), ("arrangement", 3)])
def test_a_sweep_sees_one_unit_in_any_slot(capsys, monkeypatch, raise_one, slot, where, records):
    # One coefficient of one index 1 too large, at z^0 or at z^D, D = 9:
    # the index is a word of k's closed form, or Li(2,2,2), which first
    # occurs in the fourth arrangement of (1,2;3).  The value and the row
    # of the closed form that holds it then differ from k's in exactly
    # one of the two, whichever slot the unit is in.
    k = magnus_index(1, 2, 3)
    index = next(iter(pl._product_terms(k.entries))) if where == "k" else (2, 2, 2)
    raise_one(monkeypatch, index, {"bottom": 0, "top": 9}[slot])
    code = cli.main(["kernel", str(k), "--all-sigma"])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == "error: rational and series pipelines disagree; refusing to answer\n"
    assert [json.loads(line)["verified"] for line in out.splitlines()] == [True] * records


@pytest.mark.parametrize("raise_one", [raise_value, raise_row], ids=["value", "row"])
def test_a_fault_at_a_level_is_seen_by_decide(raise_one, monkeypatch):
    # One unit at z^D of Li(2,2,2), a word of the closed form of (2,3,1):
    # that closed form's value and row differ from the product's in
    # exactly one of the two, so _decide, the rule of a sweep and of
    # verify_relation, finds its two pipelines disagree.
    k, terms = magnus_index(1, 2, 3), pl._product_terms((2, 3, 1))
    raise_one(monkeypatch, (2, 2, 2), 9)
    product = pl._depth_one_product(k.entries)
    row = taylor_coeffs(product, 9)
    value, direct = pl._evaluate(terms.items(), 9)
    assert (value == product, direct == row) == ((False, True) if raise_one is raise_value else (True, False))
    with pytest.raises(PipelineDisagreement, match="pipelines disagree"):
        pl._decide(terms.items(), 9, product, row)


def test_a_closed_form_both_pipelines_find_wrong_gets_the_verdict_false():
    # One coefficient of the closed form of (2,3,1) one too large: its
    # value and row both differ from the product's, and its value's
    # series is its row.  The verdict is False, and nothing is raised.
    k, terms = magnus_index(1, 2, 3), pl._product_terms((2, 3, 1))
    product = pl._depth_one_product(k.entries)
    row = taylor_coeffs(product, 9)
    assert pl._decide(terms.items(), 9, product, row)[0] is True
    terms[max(terms)] += 1
    verdict, value = pl._decide(terms.items(), 9, product, row)
    assert verdict is False and value != product


def _outcome(decide):
    """The verdict decide() returns, or "disagree" where it raises PipelineDisagreement."""
    try:
        return decide()
    except PipelineDisagreement:
        return "disagree"


@pytest.mark.parametrize(
    "fault, outcome",
    [("value", "disagree"), ("row", "disagree"), ("denominator", "disagree"), ("closed-form", False), ("scaled-closed-form", False)],
)
def test_one_fault_gets_one_verdict_from_verify_and_from_a_sweep(monkeypatch, fault, outcome):
    # One unit at z^D in the value or the row of a word that only the
    # closed form of sigma(k) = (3,2,1) holds, Li(2,2,2), another such
    # word, given the value Li(2,2,2)/(1-z) over (1-z)^10, or that closed
    # form with one coefficient off by one or scaled by 2^w + 1, w = 6:
    # verify_relation on the relation and the sweep decide it by one
    # rule, so they refuse together, or write the same false record.
    k, sigma = magnus_index(1, 2, 3), (3, 2, 1)
    arranged = pl._arranged(k, sigma)
    exact = pl._product_terms
    word = min(set(exact(arranged)) - set(exact(k.entries)))
    if fault == "closed-form":
        monkeypatch.setattr(pl, "_product_terms", lambda entries: {**exact(entries), word: exact(entries)[word] + 1} if entries == arranged else exact(entries))
    elif fault == "scaled-closed-form":
        monkeypatch.setattr(pl, "_product_terms", lambda entries: {w: 65 * a for w, a in exact(entries).items()} if entries == arranged else exact(entries))
    elif fault == "denominator":
        assert (2, 2, 2) in set(exact(arranged)) - set(exact(k.entries))
        good = pl._li_level
        monkeypatch.setattr(pl, "_li_level", lambda entries, tail: good(entries, tail) * RatFun((1,), 1) if entries == (2, 2, 2) else good(entries, tail))
    else:
        {"value": raise_value, "row": raise_row}[fault](monkeypatch, word, 9)
    c = kernel_element(k, sigma)
    assert _outcome(lambda: verify_relation(c)[0]) == outcome
    record = outcome if outcome == "disagree" else (relation_line(c, outcome), outcome)
    assert _outcome(lambda: next(pl._kernel_records(k, [arranged]))) == record


def test_a_sweep_builds_no_value_or_row_an_earlier_sweep_built(capsys, monkeypatch):
    # A sweep caches each word it builds with its tails, so a later sweep
    # of (0,2;2) in the same process builds none of them again: not after
    # the same sweep, nor after (1;3), whose words are all proper tails
    # of words of (0,2;2).  A row grown to a larger bound builds only its
    # new slots.  The later sweep prints what it prints alone.
    values, slots = [], []
    li_level, row_level = pl._li_level, pl._row_level

    def row_grown(entries, tail, row, n):
        slots.extend((entries, m) for m in range(len(row), n + 1))
        return row_level(entries, tail, row, n)

    monkeypatch.setattr(pl, "_li_level", lambda entries, tail: values.append(entries) or li_level(entries, tail))
    monkeypatch.setattr(pl, "_row_level", row_grown)

    def sweep(entries):
        values.clear()
        slots.clear()
        assert cli.main(["kernel", str(magnus_index(*entries)), "--all-sigma"]) == 0
        return capsys.readouterr().out, set(values), set(slots)

    def words(entries):
        return {w for arranged in itertools.permutations(entries) for w in pl._product_terms(arranged)}

    alone = sweep((0, 2, 2))
    for first in [(0, 2, 2), (1, 3)]:
        for name, cache in new_caches().items():
            monkeypatch.setattr(pl, name, cache)
        earlier = sweep(first)
        later = sweep((0, 2, 2))
        assert later[0] == alone[0]
        assert not earlier[1] & later[1] and not earlier[2] & later[2]
        assert words(first) <= earlier[1]
        assert words(first) <= {w[i:] for w in words((0, 2, 2)) for i in range(len(w))}


def test_oversized_closed_forms_and_product_are_decided_by_evaluate(monkeypatch):
    # Every closed form and the product of k's depth-one values scaled
    # by 2^w + 1: every closed form is evaluated once, against the scaled
    # product, and every relation is still true.
    k, scale = magnus_index(1, 2, 3), 2**6 + 1
    exact, product = pl._product_terms, pl._depth_one_product
    monkeypatch.setattr(pl, "_product_terms", lambda entries: {w: scale * a for w, a in exact(entries).items()})
    monkeypatch.setattr(pl, "_depth_one_product", lambda entries: scale * product(entries))
    evaluations, evaluate = [], pl._evaluate
    monkeypatch.setattr(pl, "_evaluate", lambda terms, bound: evaluations.append(dict(terms)) or evaluate(terms, bound))
    arrangements = list(itertools.permutations(k.entries))
    assert [ok for _, ok in pl._kernel_records(k, arrangements)] == [True] * 6
    assert evaluations == [{}] + [pl._product_terms(a) for a in arrangements]


def test_kernel_elements_are_nfold_differences():
    for entries in [(1, 2, 3, 4), (1, 0, 2, 1, 1)]:
        k = magnus_index(*entries)
        sigmas = list(itertools.permutations(range(1, len(entries) + 1)))
        for sigma in sigmas:
            permuted = tuple(entries[i - 1] for i in sigma)
            assert kernel_element(k, sigma) == nfold_product(entries) - nfold_product(permuted)


def tails(entries):
    return [entries[i:] for i in range(len(entries))]


def test_verify_relation_reads_each_row_once_per_shared_dict(monkeypatch):
    k = magnus_index(1, 2, 3, 4)
    cs = [kernel_element(k, s) for s in itertools.permutations(range(1, 5))]
    log = RowLog()
    monkeypatch.setattr(pl, "_ROWS", log)
    bound = k.weight + k.depth + 1
    wanted = {(t, bound) for c in cs for e in c._terms for t in tails(e) + [()]}
    # One build per tail: each tail row is stored once and read by every
    # row built on it, at the one bound of the piece.  The rows outlive
    # the calls, so a second pass over the relations builds none.
    for _ in range(2):
        assert all(verify_relation(c)[0] for c in cs)
        assert sorted(log.stored) == sorted(wanted)
    # A fresh cache per call builds the tails of each relation again.
    fresh = [RowLog() for _ in cs]
    for c, own in zip(cs, fresh):
        monkeypatch.setattr(pl, "_ROWS", own)
        verify_relation(c)
        assert sorted(own.stored) == sorted({(t, bound) for e in c._terms for t in tails(e) + [()]})
    assert sum(len(own.stored) for own in fresh) > len(wanted)


def test_verify_relation_refuses_every_relation_with_a_corrupted_shared_row(monkeypatch):
    k = magnus_index(1, 2, 3)
    cs = [kernel_element(k, s) for s in itertools.permutations(range(1, 4))]
    bad = mpl_index(2, 2, 2)
    hit = [c for c in cs if c.coefficient(bad)]
    clean = [c for c in cs if not c.coefficient(bad)]
    assert len(hit) >= 2 and clean
    # The row cache holds the row of Li(2,2,2) at the piece's D = 9 from
    # the start, corrupted at z^7, with its clean tails; the clean
    # relations fill it further, and then every relation that holds the
    # corrupted index is refused, not only the first.
    bound = k.weight + k.depth + 1
    pl._series_row(bad.entries, bound)
    pl._ROWS[bad.entries][7] += 1
    assert [verify_relation(d)[0] for d in clean] == [True] * len(clean)
    for c in hit:
        with pytest.raises(PipelineDisagreement, match="refusing to answer"):
            verify_relation(c)
    # Grown to a larger bound, the row keeps its corrupted prefix.
    assert series_coeffs(bad, 12)[7] == series_coeffs_by_chains(bad, 12)[7] + 1
    # A fresh cache builds fresh rows and verifies cleanly.
    monkeypatch.setattr(pl, "_ROWS", {(): [1]})
    assert all(verify_relation(c)[0] for c in cs)


def test_relation_record_round_trip():
    c = kernel_element(magnus_index(1, 2), (2, 1))
    rec = relation_record(c, verified=True)
    assert rec["verified"] is True
    assert rec["weight"] == 3 and rec["depth"] == 2
    assert relation_from_record(rec) == c
    mixed = nfold_product([4, 5]) - LinComb({mpl_index(9): 1})
    rec = relation_record(mixed, verified=False)
    assert rec["weight"] == 9 and rec["depth"] is None
    assert relation_from_record(rec) == mixed
    rec = relation_record(LinComb({mpl_index(2): 1, mpl_index(3): 1}), verified=False)
    assert rec["weight"] is None and rec["depth"] == 1


def test_relation_record_coefficients_are_exact_strings():
    c = LinComb({mpl_index(4): Fraction(5, 33)})
    rec = relation_record(c, verified=False)
    assert rec["terms"][0]["coef"] == "5/33"
    assert relation_from_record(rec) == c


def assert_line_is_the_dumped_record(c):
    for verified in (True, False):
        want = relation_record_by_dicts(c, verified)
        assert relation_line(c, verified) == json.dumps(want)
        assert relation_record(c, verified) == want


def test_relation_line_is_the_dumped_record_on_every_small_kernel_relation():
    # Each relation is written by relation_line, and by a sweep of k,
    # whose lines share one texts dict: an index met in an earlier
    # relation of the sweep is read back, not formatted again.
    seen = 0
    for depth in range(4):
        for weight in range(7):
            for k in magnus.magnus_indices(depth, weight):
                # One sigma per arrangement sigma(k): the relation depends on nothing else.
                sigmas = {tuple(k.entries[i - 1] for i in sigma): sigma for sigma in itertools.permutations(range(1, depth + 2))}
                for (line, ok), sigma in zip(pl._kernel_records(k, sigmas), sigmas.values()):
                    c = kernel_element(k, sigma)
                    assert_line_is_the_dumped_record(c)
                    assert ok and line == json.dumps(relation_record_by_dicts(c, True))
                    seen += 1
    assert seen > 1000


def test_index_text_is_the_dumped_entries():
    # The "index" text that _record writes into its texts dict,
    # without json.dumps, is the dumped entry list: for (), single
    # entries, and random entries.
    rng = random.Random(37)
    cases = [(), (0,), (1,), (9,), (10,), (123456789,)]
    cases += [tuple(rng.randrange(10 ** rng.randrange(1, 12)) for _ in range(rng.randrange(1, 9))) for _ in range(300)]
    texts = {}
    for entries in cases:
        pl._record([(entries, 1)], True, texts)
        assert texts[entries][1] == f'"index": {json.dumps(list(entries))}}}'
    assert len(texts) == len(set(cases))


def test_relation_line_is_the_dumped_record_on_edge_combinations():
    assert_line_is_the_dumped_record(LinComb())
    assert relation_line(LinComb(), True) == '{"terms": [], "verified": true, "weight": null, "depth": null}'
    fractions = LinComb({mpl_index(4): Fraction(5, 33), mpl_index(1, 2): Fraction(-7, 2), mpl_index(): 3})
    assert_line_is_the_dumped_record(fractions)
    assert relation_line(fractions, False) == (
        '{"terms": [{"coef": "3", "index": []}, {"coef": "5/33", "index": [4]}, {"coef": "-7/2", "index": [1, 2]}], '
        '"verified": false, "weight": null, "depth": null}'
    )
    # Mixed depth, mixed weight, and both mixed.
    assert_line_is_the_dumped_record(nfold_product([4, 5]) - LinComb({mpl_index(9): 1}))
    assert_line_is_the_dumped_record(LinComb({mpl_index(2): 1, mpl_index(3): 1}))
    assert_line_is_the_dumped_record(LinComb({mpl_index(2): 1, mpl_index(0, 3): -1}))


def test_relation_line_raises_the_digit_limit_error_of_the_record():
    c = LinComb({mpl_index(1): 10 ** (sys.get_int_max_str_digits() + 1)})
    with pytest.raises(ValueError, match="Exceeds the limit"):
        json.dumps(relation_record_by_dicts(c, True))
    with pytest.raises(ValueError, match="Exceeds the limit"):
        relation_line(c, True)


def test_relation_from_record_rejects_malformed_input():
    with pytest.raises(ValueError, match="term 0"):
        relation_from_record({"terms": [{"coef": "x", "index": [1]}]})
    with pytest.raises(ValueError, match="term 0"):
        relation_from_record({"terms": [{"coef": "1"}]})
    with pytest.raises(ValueError, match="terms"):
        relation_from_record({"terms": "nope"})
    with pytest.raises(ValueError):
        relation_from_record({"terms": [{"coef": "1", "index": [1, -2]}]})


def test_relation_from_record_parses_each_coefficient_text_once(monkeypatch):
    parsed, parse = [], pl._parse_coef
    monkeypatch.setattr(pl, "_parse_coef", lambda text: parsed.append(text) or parse(text))
    record = {"terms": [{"coef": "1/2", "index": [e]} for e in range(6)]}
    assert relation_from_record(record) == LinComb({mpl_index(e): Fraction(1, 2) for e in range(6)})
    assert parsed == ["1/2"]
    # The memo lives for one record.
    relation_from_record(record)
    assert parsed == ["1/2", "1/2"]


def test_a_string_and_a_json_integer_coefficient_read_alike():
    want = LinComb({mpl_index(2): 1, mpl_index(3): 1})
    for first, second in [("1", 1), (1, "1"), (1, 1), ("1", "1")]:
        record = {"terms": [{"coef": first, "index": [2]}, {"coef": second, "index": [3]}]}
        assert relation_from_record(record) == want


@pytest.mark.parametrize("bad", ["x", "1/0", True, 1.5])
def test_a_repeated_bad_coefficient_is_reported_at_its_first_term(bad):
    terms = [{"coef": "1", "index": [e]} for e in range(7)]
    terms[2]["coef"] = terms[5]["coef"] = bad
    with pytest.raises(ValueError, match=f"^term 2 has a bad coefficient {re.escape(repr(bad))}$"):
        relation_from_record({"terms": terms})


def test_relation_from_record_rejects_bool_entries():
    with pytest.raises(ValueError, match="term 0 has a bad index"):
        relation_from_record({"terms": [{"coef": "1", "index": [True]}, {"coef": "-1", "index": [1]}]})
    with pytest.raises(ValueError, match="term 1 has a bad index"):
        relation_from_record({"terms": [{"coef": "1", "index": [1]}, {"coef": "-1", "index": [2, False]}]})
