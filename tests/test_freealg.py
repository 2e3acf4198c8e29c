"""Ring structure of the word algebras and the splitting isomorphism."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npolylog.freealg import NcPoly, _add_term, _term_key, poly_to_json_obj, poly_x_to_y
from npolylog.words import _letters_y_to_x
from oracles import lie_bracket, poly_y_to_x


def random_poly(rng, alphabet, max_terms=5, max_len=6, min_len=0, ending_in_x1=False):
    if ending_in_x1:
        min_len = max(min_len, 1)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(min_len, max_len)
        if alphabet == "X":
            letters = tuple(rng.randint(0, 1) for _ in range(n))
            if ending_in_x1:
                letters = letters[:-1] + (1,)
        else:
            letters = tuple(rng.randint(0, 4) for _ in range(n))
        terms[letters] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return NcPoly(alphabet, terms)


def test_mul_examples():
    x0 = NcPoly.monomial("X", (0,))
    x1 = NcPoly.monomial("X", (1,))
    assert x0 * x1 == NcPoly.monomial("X", (0, 1))
    assert (x0 + x1) * x0 == NcPoly("X", {(0, 0): 1, (1, 0): 1})
    assert (0 * (x0 + x1)).is_zero()
    assert NcPoly.one("X") * x1 == x1 == x1 * NcPoly.one("X")


def test_bool_scalars_are_refused():
    x1 = NcPoly.monomial("X", (1,))
    for call in (lambda: x1 * True, lambda: True * x1):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "bad coefficient True: coefficients are ints or Fractions"


def test_canonical_form_drops_zeros():
    p = NcPoly("X", {(0,): 1, (1,): 0})
    assert len(p) == 1
    assert (p - p).is_zero()


def test_ring_axioms_randomized():
    rng = random.Random(411)
    for _ in range(30):
        a = random_poly(rng, "X")
        b = random_poly(rng, "X")
        c = random_poly(rng, "X")
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert NcPoly.one("X") * a == a


def test_alphabet_mismatch_raises():
    x = NcPoly.monomial("X", (0,))
    y = NcPoly.monomial("Y", (0,))
    with pytest.raises(ValueError, match="alphabet mismatch"):
        x + y
    with pytest.raises(ValueError, match="alphabet mismatch"):
        x * y


def test_bracket_examples():
    x0 = NcPoly.monomial("X", (0,))
    x1 = NcPoly.monomial("X", (1,))
    assert lie_bracket(x0, x1) == NcPoly("X", {(0, 1): 1, (1, 0): -1})
    assert lie_bracket(x0 + 2 * x1, x0 + 2 * x1).is_zero()
    b2 = lie_bracket(x0, lie_bracket(x0, x1))
    assert b2 == NcPoly("X", {(0, 0, 1): 1, (0, 1, 0): -2, (1, 0, 0): 1})


def test_jacobi_identity_randomized():
    rng = random.Random(412)
    for _ in range(20):
        a = random_poly(rng, "X", max_terms=3, max_len=4)
        b = random_poly(rng, "X", max_terms=3, max_len=4)
        c = random_poly(rng, "X", max_terms=3, max_len=4)
        total = (
            lie_bracket(a, lie_bracket(b, c))
            + lie_bracket(b, lie_bracket(c, a))
            + lie_bracket(c, lie_bracket(a, b))
        )
        assert total.is_zero()


def test_splitting_examples():
    assert poly_x_to_y(NcPoly.monomial("X", (0, 0, 0, 1))) == NcPoly.monomial("Y", (3,))
    assert poly_x_to_y(NcPoly.monomial("X", (1,))) == NcPoly.monomial("Y", (0,))
    p = NcPoly("X", {(0, 1, 0, 0, 1): 1, (1, 0, 0, 0, 1): -1})
    assert poly_x_to_y(p) == NcPoly("Y", {(1, 2): 1, (0, 3): -1})
    assert poly_x_to_y(NcPoly.zero("X")).is_zero()


def test_splitting_rejects_words_outside_domain():
    with pytest.raises(ValueError, match="not in <X>x1"):
        poly_x_to_y(NcPoly.monomial("X", (1, 0)))
    with pytest.raises(ValueError, match="not in <X>x1"):
        poly_x_to_y(NcPoly.one("X"))
    with pytest.raises(ValueError, match="expected a polynomial over X"):
        poly_x_to_y(NcPoly.monomial("Y", (1,)))


def test_splitting_round_trips_randomized():
    rng = random.Random(413)
    for _ in range(40):
        a = random_poly(rng, "X", max_len=8, ending_in_x1=True)
        assert poly_y_to_x(poly_x_to_y(a)) == a
        b = random_poly(rng, "Y", max_len=8, min_len=1)
        assert poly_x_to_y(poly_y_to_x(b)) == b


def test_splitting_is_multiplicative():
    rng = random.Random(414)
    for _ in range(25):
        a = random_poly(rng, "X", max_len=6, ending_in_x1=True)
        b = random_poly(rng, "X", max_len=6, ending_in_x1=True)
        assert poly_x_to_y(a * b) == poly_x_to_y(a) * poly_x_to_y(b)


def test_display_order_and_strings():
    p = NcPoly("X", {(1, 0, 0, 0): -1, (0, 1, 0, 0): 1})
    assert str(p) == "x0x1x0^2 - x1x0^3"
    q = poly_x_to_y(p * NcPoly.monomial("X", (1,)))
    assert str(q) == "y1y2 - y0y3"
    assert str(NcPoly.zero("Y")) == "0"
    assert str(NcPoly("X", {(): Fraction(-1, 2), (0,): 2})) == "-1/2 + 2*x0"


def test_y_term_order_is_the_order_of_the_x_embeddings():
    # _term_key orders Y-words without building their X-embeddings; the
    # graded lex order of the embeddings is the reference.
    words = [w for n in range(6) for w in itertools.product(range(7), repeat=n)]
    assert len(words) == 19608
    embedded = sorted(words, key=lambda w: (len(_letters_y_to_x(w)), _letters_y_to_x(w)))
    assert sorted(words, key=lambda w: _term_key("Y", w)) == embedded
    p = NcPoly("Y", {w: i + 1 for i, w in enumerate(words[:400])})
    assert [w for w, _ in poly_y_to_x(p).sorted_terms()] == [_letters_y_to_x(w) for w, _ in p.sorted_terms()]


def test_json_round_trip():
    p = NcPoly("X", {(0, 1, 0, 0): 1, (1, 0, 0, 0): -1})
    obj = poly_to_json_obj(p)
    assert obj == [
        {"coef": "1", "word": "x0x1x0x0"},
        {"coef": "-1", "word": "x1x0x0x0"},
    ]
    # an X-word serializes as its letter codes, each after an "x"
    assert NcPoly("X", {tuple(map(int, t["word"][1::2])): Fraction(t["coef"]) for t in obj}) == p
    q = NcPoly("Y", {(1, 2): Fraction(1, 3), (): -2})
    assert poly_to_json_obj(q) == [
        {"coef": "-2", "word": "eps"},
        {"coef": "1/3", "word": "y1 y2"},
    ]


def assert_canonical(p):
    """No zero is stored, and every integral coefficient is an int."""
    for coef in p._terms.values():
        assert coef != 0
        assert type(coef) is int or (type(coef) is Fraction and coef.denominator != 1)


def test_integral_coefficients_are_stored_as_int():
    p = NcPoly("X", {(1,): Fraction(4, 2)})
    assert p.coefficient((1,)) == 2 and type(p.coefficient((1,))) is int
    half = NcPoly("X", {(0,): Fraction(1, 2), (1,): 3})
    assert (half + half).coefficient((0,)) == 1
    assert_canonical(half + half)
    assert_canonical(half * half)
    q = p * Fraction(1, 2)
    assert q.coefficient((1,)) == 1 and type(q.coefficient((1,))) is int
    r = half * Fraction(1, 2)
    assert r.coefficient((0,)) == Fraction(1, 4) and r.coefficient((1,)) == Fraction(3, 2)
    assert_canonical(r)
    for zero in (0, Fraction(0)):
        assert (half * zero).is_zero() and len(half * zero) == 0
        assert len(zero * half) == 0


def test_add_term_keeps_the_int_rule_and_drops_zeros():
    out = {}
    # A new key: an integral Fraction is stored as its int, a zero adds nothing.
    _add_term(out, (1,), Fraction(4, 2))
    _add_term(out, (0,), 0)
    _add_term(out, (0, 1), Fraction(0))
    assert out == {(1,): 2} and type(out[(1,)]) is int
    _add_term(out, (0,), Fraction(1, 3))
    assert out == {(1,): 2, (0,): Fraction(1, 3)}
    # A sum that reaches an integer is stored as an int, and one that
    # reaches zero removes its key.
    _add_term(out, (0,), Fraction(2, 3))
    assert out[(0,)] == 1 and type(out[(0,)]) is int
    _add_term(out, (1,), Fraction(-4, 2))
    _add_term(out, (0,), -1)
    assert out == {}


def test_output_bytes_do_not_depend_on_int_or_fraction_input():
    as_int = NcPoly("X", {(0, 1): 3, (1,): -1, (): Fraction(1, 2)})
    as_fraction = NcPoly("X", {(0, 1): Fraction(3, 1), (1,): Fraction(-2, 2), (): Fraction(1, 2)})
    assert repr(as_int) == repr(as_fraction)
    assert str(as_int) == str(as_fraction) == "1/2 - x1 + 3*x0x1"
    assert poly_to_json_obj(as_int) == poly_to_json_obj(as_fraction)
    assert [item["coef"] for item in poly_to_json_obj(as_fraction)] == ["1/2", "-1", "3"]


def test_public_constructor_validates_letters():
    with pytest.raises(ValueError, match="bad letter 2 for alphabet X"):
        NcPoly("X", {(0, 2): 1})
    with pytest.raises(ValueError, match="bad letter -1 for alphabet Y"):
        NcPoly("Y", {(3, -1): Fraction(1, 2)})
    # bool is an int subclass, but True is no letter code.
    with pytest.raises(ValueError, match="bad letter True for alphabet Y"):
        NcPoly("Y", {(True, 2): 1})
    with pytest.raises(ValueError, match="bad letter True for alphabet X"):
        NcPoly.monomial("X", (True,))
    with pytest.raises(ValueError, match="unknown alphabet"):
        NcPoly("Z")


# Property tests over mixed int/Fraction coefficients, next to the seeded
# loops above; derandomized so that every run checks the same examples.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
COEFS = st.one_of(
    st.integers(-4, 4),
    st.integers(-4, 4).map(lambda n: Fraction(n, 1)),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


def polys(alphabet="X", ending_in_x1=False, min_len=0):
    if ending_in_x1:
        words = st.lists(st.integers(0, 1), max_size=4).map(lambda ls: tuple(ls) + (1,))
    else:
        letter = st.integers(0, 1) if alphabet == "X" else st.integers(0, 4)
        words = st.lists(letter, min_size=min_len, max_size=4).map(tuple)
    return st.dictionaries(words, COEFS, max_size=4).map(lambda terms: NcPoly(alphabet, terms))


@PROPERTY
@given(polys(), polys(), polys())
def test_ring_axioms_property(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    for p in (a * b, a + b, a - b, -a, a * (b + c)):
        assert_canonical(p)
    assert (a - a).is_zero() and len(a - a) == 0


@PROPERTY
@given(polys(), COEFS)
def test_scalar_multiple_matches_public_constructor(a, q):
    expect = NcPoly("X", {w: q * v for w, v in a.sorted_terms()})
    assert a * q == q * a == expect
    assert_canonical(a * q)


@PROPERTY
@given(polys(ending_in_x1=True), polys("Y", min_len=1))
def test_splitting_round_trip_property(a, b):
    y = poly_x_to_y(a)
    assert_canonical(y)
    assert poly_y_to_x(y) == a
    assert poly_x_to_y(poly_y_to_x(b)) == b
