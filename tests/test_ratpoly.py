"""Rational functions with (1-z)-power denominators: arithmetic and expansions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npolylog.ratpoly import RatFun, _combine, euler_deriv, geom_mul, taylor_coeffs
from oracles import add_by_raising, combine_by_rows, euler_deriv_by_formula, taylor_coeffs_by_comb


def random_ratfun(rng, max_deg=4, max_dpow=4):
    num = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(0, max_deg + 1))]
    return RatFun(num, rng.randint(0, max_dpow))


def cauchy(a, b):
    n = min(len(a), len(b)) - 1
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n + 1)]


def test_canonical_reduction():
    # (z - z^2)/(1-z)^2 = z/(1-z)
    f = RatFun((0, 1, -1), 2)
    assert f == RatFun((0, 1), 1)
    assert f.dpow == 1 and f.num == (0, 1)
    # (1 - z)^2/(1-z)^2 = 1
    assert RatFun((1, -2, 1), 2) == RatFun.one() == 1
    # trailing zero coefficients are trimmed
    assert RatFun((1, 0, 0), 0).num == (1,)
    assert RatFun((0, 0, 0), 3).is_zero()
    assert RatFun((0, 0, 0), 3).dpow == 0


def test_canonical_form_is_stable():
    rng = random.Random(431)
    for _ in range(50):
        f = random_ratfun(rng)
        again = RatFun(f.num, f.dpow)
        assert again.num == f.num and again.dpow == f.dpow


def test_equality_and_scalars():
    assert RatFun.const(Fraction(3, 2)) == Fraction(3, 2)
    assert RatFun.zero() == 0
    assert RatFun((2,), 0) != RatFun((2,), 1)
    assert RatFun((0, 1), 1) != 1


def test_integral_coefficients_are_stored_as_int():
    c = RatFun.const(Fraction(4, 2))
    assert c.num == (2,) and type(c.num[0]) is int
    f = RatFun((Fraction(1, 2), Fraction(6, 3), 5), 1)
    assert [type(x) for x in f.num] == [Fraction, int, int]
    assert RatFun([Fraction(0), Fraction(3), Fraction(1, 3)], 2).num == (0, 3, Fraction(1, 3))
    # scaling a rational function back to integers drops the Fractions
    g = RatFun((Fraction(1, 3), Fraction(2, 3)), 2) * 3
    assert g.num == (1, 2) and all(type(x) is int for x in g.num)
    h = euler_deriv(geom_mul(RatFun.one()))
    assert all(type(x) is int for x in h.num)
    assert all(type(x) is int for x in taylor_coeffs(h, 6))


def test_arithmetic_small_cases():
    g = RatFun((0, 1), 1)  # z/(1-z)
    assert g + 1 == RatFun((1,), 1)  # 1/(1-z)
    assert g - g == 0
    assert g * RatFun((1,), 1) == RatFun((0, 1), 2)
    assert 2 * g == RatFun((0, 2), 1)
    assert g**0 == 1
    assert g**3 == RatFun((0, 0, 0, 1), 3)
    assert (-g) + g == 0


def test_a_scalar_minus_a_ratfun():
    assert 1 - RatFun((0, 1), 1) == RatFun((1, -2), 1)  # (1-2z)/(1-z)


def test_scalar_operands_follow_the_scalar_rule():
    f = RatFun((0, 1), 1)
    for call in (lambda: f * True, lambda: True * f, lambda: f - True, lambda: True - f, lambda: f + True):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "bad coefficient True: coefficients are ints or Fractions"
    for call in (lambda: f * 0.5, lambda: 0.5 - f, lambda: "a" - f):
        with pytest.raises(TypeError):
            call()


def test_ratfun_is_unhashable():
    # Equality identifies RatFun.const(3) with 3, and no hash could agree with both.
    with pytest.raises(TypeError):
        hash(RatFun.one())


def test_mul_matches_cauchy_product():
    rng = random.Random(432)
    for _ in range(25):
        f = random_ratfun(rng)
        g = random_ratfun(rng)
        n = 30
        prod = taylor_coeffs(f * g, n)
        assert prod == cauchy(taylor_coeffs(f, n), taylor_coeffs(g, n))


def test_taylor_known_values():
    # geometric series and its square
    assert taylor_coeffs(RatFun((1,), 1), 5) == [1, 1, 1, 1, 1, 1]
    assert taylor_coeffs(RatFun((1,), 2), 5) == [1, 2, 3, 4, 5, 6]
    # weight-two double sum: coefficient of z^n is sum of a*b over n > a > b > 0
    f = RatFun((0, 0, 2, 1), 4)
    want = [Fraction(sum(n * b for b in range(1, n))) for n in range(9)]
    got = taylor_coeffs(f, 8)
    assert got == want
    assert got[3] == 9


def test_euler_deriv_scales_coefficients():
    rng = random.Random(433)
    for _ in range(20):
        f = random_ratfun(rng)
        base = taylor_coeffs(f, 25)
        scaled = taylor_coeffs(euler_deriv(f), 25)
        assert scaled == [n * c for n, c in enumerate(base)]


def test_euler_deriv_examples():
    assert euler_deriv(RatFun.one()).is_zero()
    # theta(z/(1-z)) = z/(1-z)^2
    assert euler_deriv(RatFun((0, 1), 1)) == RatFun((0, 1), 2)


def test_operators_map_zero_to_the_canonical_zero():
    zero = RatFun()
    f = RatFun((1, 2), 3)
    for got in (euler_deriv(zero), geom_mul(zero), zero * f, f * zero, zero * zero):
        assert got == zero
        assert got.num == () and got.dpow == 0


def canonical_ratfun(rng, deg, dpow):
    """A canonical P/(1-z)^dpow with deg P = deg, mixing int and Fraction coefficients."""
    num = [rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4))]) for _ in range(deg)]
    num.append(rng.choice([1, -2, Fraction(3, 2)]))
    if dpow and sum(num) == 0:
        num[0] += 1
    f = RatFun(num, dpow)
    assert f.dpow == dpow and f.degree == deg
    return f


def assert_same(got, want):
    """Equal values stored alike: same coefficients, same types, same dpow, canonical."""
    assert got == want and [type(c) for c in got.num] == [type(c) for c in want.num]
    assert RatFun(got.num, got.dpow) == got


def test_euler_deriv_and_geom_mul_match_the_reference_formulas():
    rng = random.Random(437)
    for dpow in range(7):
        # deg P = dpow makes the top coefficient (dpow - deg) P_deg of the
        # result vanish, so the trailing-zero trim is exercised at every d.
        for deg in range(dpow + 3):
            for _ in range(3):
                f = canonical_ratfun(rng, deg, dpow)
                assert_same(euler_deriv(f), euler_deriv_by_formula(f))
                assert_same(geom_mul(f), RatFun((0,) + f.num, f.dpow + 1))
    # d = 0 numerators divisible by (1-z): every factor is divided out again.
    for k in range(1, 4):
        for _ in range(5):
            q = canonical_ratfun(rng, rng.randint(0, 3), 0)
            f = q * RatFun((1, -1), 0) ** k
            assert f.dpow == 0
            assert_same(euler_deriv(f), euler_deriv_by_formula(f))
            assert_same(geom_mul(f), RatFun((0,) + f.num, 1))


def test_euler_power_is_the_repeated_reference_formula():
    rng = random.Random(439)
    fs = [canonical_ratfun(rng, deg, dpow) for dpow in range(6) for deg in range(dpow + 3)]
    # d = 0 numerators divisible by (1-z), and the zero function.
    fs += [canonical_ratfun(rng, rng.randint(0, 3), 0) * RatFun((1, -1)) ** k for k in range(1, 4)]
    fs += [RatFun(), RatFun.const(Fraction(5, 3)), RatFun((Fraction(1, 2), Fraction(-1, 2)))]
    assert any(f.dpow == 0 for f in fs) and any(type(c) is Fraction for f in fs for c in f.num)
    for f in fs:
        want = f
        for e in range(6):
            assert_same(euler_deriv(f, e), want)
            want = euler_deriv_by_formula(want)


def test_euler_power_of_zero_steps_is_its_argument():
    for f in (RatFun(), RatFun.one(), RatFun((0, 1), 1), RatFun((Fraction(1, 2), 3), 4)):
        assert euler_deriv(f, 0) is f


def test_combine_matches_raising_every_group_by_its_row():
    rng = random.Random(557)
    for trial in range(300):
        # Every trial on an odd number is one group at a single power, as
        # every term of a homogeneous kernel relation is.
        powers = [rng.randint(0, 5)] if trial % 2 else list(range(6))
        pairs = [
            (rng.choice([1, -3, Fraction(2, 7)]), canonical_ratfun(rng, rng.randint(0, 5), rng.choice(powers)))
            for _ in range(rng.randint(1, 6))
        ]
        if trial % 7 == 0:
            pairs.append((-pairs[0][0], pairs[0][1]))
        assert_same(_combine(pairs), combine_by_rows(pairs))
    assert_same(_combine([]), combine_by_rows([]))
    assert _combine([]) == 0


@pytest.mark.parametrize("e", [-1, True, 1.0])
def test_euler_power_refuses_a_bad_exponent(e):
    with pytest.raises(ValueError, match="exponent must be an integer >= 0"):
        euler_deriv(RatFun.one(), e)


def test_taylor_coeffs_match_the_comb_reference():
    rng = random.Random(438)
    for dpow in range(31):
        f = canonical_ratfun(rng, rng.randint(0, dpow + 2), dpow)
        for n_max in (0, 1, dpow, 60):
            got = taylor_coeffs(f, n_max)
            want = taylor_coeffs_by_comb(f, n_max)
            assert got == want and [type(c) for c in got] == [type(c) for c in want]


def test_euler_deriv_leibniz_rule():
    rng = random.Random(434)
    for _ in range(20):
        f = random_ratfun(rng)
        g = random_ratfun(rng)
        assert euler_deriv(f * g) == euler_deriv(f) * g + f * euler_deriv(g)


# Mixed int and Fraction coefficients over mixed denominator powers,
# derandomized so that every run checks the same examples.
NUMERATORS = st.lists(
    st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=3)),
    max_size=5,
)
RATFUNS = st.builds(RatFun, NUMERATORS, st.integers(0, 4))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(RATFUNS, RATFUNS)
def test_euler_deriv_leibniz_property(f, g):
    assert euler_deriv(f * g) == euler_deriv(f) * g + f * euler_deriv(g)


SUMMANDS = st.builds(RatFun, NUMERATORS, st.integers(0, 6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(SUMMANDS, SUMMANDS)
def test_sum_and_difference_match_raising_one_factor_at_a_time(f, g):
    assert_same(f + g, add_by_raising(f, g))
    assert_same(f - g, add_by_raising(f, -g))


def test_sum_drops_a_denominator_power():
    # (1 - z)/(1-z)^2 = 1/(1-z)
    assert_same(RatFun((1,), 2) + RatFun((0, -1), 2), RatFun((1,), 1))


def test_geom_mul_takes_strict_prefix_sums():
    rng = random.Random(435)
    for _ in range(20):
        f = random_ratfun(rng)
        base = taylor_coeffs(f, 25)
        summed = taylor_coeffs(geom_mul(f), 25)
        assert summed == [sum(base[:n]) for n in range(26)]
    assert geom_mul(RatFun.one()) == RatFun((0, 1), 1)


def test_value_at_zero_and_degree():
    f = RatFun((3, 0, 1), 2)
    assert taylor_coeffs(f, 0) == [3]
    assert f.degree == 2
    assert RatFun.zero().degree == -1


def test_str_forms():
    assert str(RatFun.zero()) == "0"
    assert str(RatFun.one()) == "1"
    assert str(RatFun((0, 1), 1)) == "z/(1-z)"
    assert str(RatFun((0, 0, 2, 1), 4)) == "(2z^2+z^3)/(1-z)^4"
    assert str(RatFun((0, Fraction(1, 2)), 0)) == "(1/2)z"
    assert str(RatFun((1, -1, 0, 2), 0)) == "1-z+2z^3"


def test_str_of_a_negative_monomial_over_a_denominator():
    assert str(RatFun((0, -1), 1)) == "-z/(1-z)"


def test_json_round_trip():
    rng = random.Random(436)
    for _ in range(20):
        f = random_ratfun(rng)
        obj = f.to_json_obj()
        assert RatFun(map(Fraction, obj["num"]), obj["dpow"]) == f
    obj = RatFun((0, Fraction(1, 3)), 2).to_json_obj()
    assert obj == {"num": ["0", "1/3"], "dpow": 2}


def test_bool_denominator_power_is_rejected():
    for dpow in [True, False]:
        with pytest.raises(ValueError, match="denominator power"):
            RatFun((1,), dpow)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        RatFun((1,), -1)
    with pytest.raises(ValueError):
        taylor_coeffs(RatFun.one(), -1)
