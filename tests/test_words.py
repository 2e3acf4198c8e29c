"""Indices, words, and the maps between them."""

import copy
import itertools
import pickle
import random

import pytest

from npolylog.freealg import NcPoly
from npolylog.magnus import grade_report, lie_power, magnus_indices
from npolylog.polylog import series_coeffs
from npolylog.ratpoly import RatFun, taylor_coeffs
from npolylog.words import (
    MultiIndex,
    _letters_x_to_y,
    _letters_y_to_x,
    _word_display,
    _word_json,
    magnus_index,
    mpl_index,
    parse_index,
)


def test_depth_and_weight():
    assert magnus_index(0, 1, 2).depth == 2
    assert magnus_index(0, 1, 2).weight == 3
    assert magnus_index(5).depth == 0
    assert magnus_index(5).weight == 5
    assert mpl_index(1, 2).depth == 2
    assert mpl_index(1, 2).weight == 3
    assert mpl_index().depth == 0
    assert mpl_index().weight == 0


def test_only_a_magnus_index_splits_into_prefix_and_tail():
    k = magnus_index(0, 1, 2)
    assert (k.prefix, k.tail) == ((0, 1), 2)
    for name in ("prefix", "tail"):
        with pytest.raises(ValueError, match="magnus indices only"):
            getattr(mpl_index(0, 1, 2), name)


def test_index_validation():
    with pytest.raises(ValueError):
        MultiIndex((1, -2))
    with pytest.raises(ValueError):
        MultiIndex((), magnus=True)


def test_index_rejects_bool_entries():
    for entries in [(True,), (1, False)]:
        with pytest.raises(ValueError, match="bad index entry"):
            MultiIndex(entries)
        with pytest.raises(ValueError, match="bad index entry"):
            MultiIndex(entries + (2,), magnus=True)


def test_index_rejects_a_magnus_flag_that_is_not_a_bool():
    for flag in ["no", 1, None]:
        with pytest.raises(ValueError, match="magnus flag"):
            MultiIndex((1, 2), magnus=flag)


def test_index_notation_round_trip():
    for text in ["(1,2,3)", "()", "(1;2)", "(;2)", "(0,1;2)", "(0)"]:
        assert str(parse_index(text)) == text
    assert parse_index(" ( 1 , 2 ) ") == mpl_index(1, 2)
    assert parse_index("(0,1;2)") == magnus_index(0, 1, 2)
    assert parse_index("(;5)") == magnus_index(5)


@pytest.mark.parametrize("magnus", [False, True], ids=["plain", "magnus"])
def test_index_is_a_frozen_value_of_its_entries_and_flag(magnus):
    s = MultiIndex([1, 2], magnus=magnus)
    assert type(s.entries) is tuple and s.entries == (1, 2) and s.magnus is magnus
    assert s == MultiIndex((1, 2), magnus) and hash(s) == hash(((1, 2), magnus))
    assert s != MultiIndex((1, 2), not magnus) and s != MultiIndex((1, 3), magnus)
    assert s != ((1, 2), magnus)
    assert repr(s) == f"MultiIndex(entries=(1, 2), magnus={magnus})"
    match s:
        case MultiIndex(entries, flag):
            assert (entries, flag) == ((1, 2), magnus)
        case _:
            pytest.fail("a positional class pattern does not match")
    for name in ("entries", "magnus", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, (3,))
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert s.entries == (1, 2) and s.magnus is magnus
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(twin) is MultiIndex and twin == s and repr(twin) == repr(s)


@pytest.mark.parametrize("bad", ["1,2", "(1,,2)", "(1;2;3)", "(a)", "(1, -2)", "", "(1 2)", "(\u0663)", "(\uff11,2)"])
def test_index_parse_errors(bad):
    with pytest.raises(ValueError):
        parse_index(bad)


def test_embedding_examples():
    assert _letters_y_to_x((2,)) == (0, 0, 1)
    assert _letters_y_to_x((1, 0)) == (0, 1, 1)
    assert _letters_y_to_x(()) == ()


def test_embedding_is_multiplicative_and_lands_in_x1():
    rng = random.Random(20241)
    for _ in range(200):
        u = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 5)))
        v = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 5)))
        assert _letters_y_to_x(u + v) == _letters_y_to_x(u) + _letters_y_to_x(v)
        img = _letters_y_to_x(u)
        if img:
            assert img[-1] == 1
        assert _letters_x_to_y(img) == u


def test_splitting_inverse_rejects_bad_words():
    with pytest.raises(ValueError, match=r"not in <X>x1: x1x0\b"):
        _letters_x_to_y((1, 0))
    with pytest.raises(ValueError, match=r"not in <X>x1: x0\^2x1x0\^3$"):
        _letters_x_to_y((0, 0, 1, 0, 0, 0))
    assert _letters_x_to_y(()) == ()


def test_display_and_json_forms():
    assert _word_display("X", (0, 1, 0, 0)) == "x0x1x0^2"
    assert _word_display("Y", (1, 2)) == "y1y2"
    assert _word_display("Y", (1, 12)) == "y1y12"
    assert _word_json("X", (0, 1, 0, 0)) == "x0x1x0x0"
    assert _word_json("Y", (1, 2)) == "y1 y2"
    assert _word_json("Y", ()) == "eps"
    assert _word_json("X", ()) == "eps"


def test_exhaustive_small_round_trips():
    for r in range(4):
        for entries in itertools.product(range(3), repeat=r):
            s = MultiIndex(entries)
            assert parse_index(str(s)) == s
            assert _letters_x_to_y(_letters_y_to_x(s.entries)) == s.entries
        for entries in itertools.product(range(3), repeat=r + 1):
            k = MultiIndex(entries, magnus=True)
            assert parse_index(str(k)) == k


# Every count in the package is an int >= 0 that is not a bool, so each
# check refuses True and floats with its own message.
COUNT_CHECKS = [
    pytest.param(lambda: lie_power(True), "bracket order must be an integer >= 0", id="lie_power-True"),
    pytest.param(lambda: RatFun((0, 1), 1) ** True, "exponent must be an integer >= 0", id="RatFun-pow-True"),
    pytest.param(lambda: series_coeffs(mpl_index(1), True), "n_max must be >= 0", id="series_coeffs-True"),
    pytest.param(lambda: series_coeffs(mpl_index(1), 2.0), "n_max must be >= 0", id="series_coeffs-2.0"),
    pytest.param(lambda: taylor_coeffs(RatFun.one(), True), "n_max must be >= 0", id="taylor_coeffs-True"),
    pytest.param(lambda: taylor_coeffs(RatFun.one(), 2.0), "n_max must be >= 0", id="taylor_coeffs-2.0"),
    pytest.param(lambda: magnus_indices(True, 1), "depth and weight must be >= 0", id="magnus_indices-True"),
    pytest.param(lambda: magnus_indices(1.0, 1), "depth and weight must be >= 0", id="magnus_indices-1.0"),
    pytest.param(
        lambda: grade_report(True, 1), "max depth and max weight must be >= 0, got True and 1", id="grade_report-True"
    ),
    pytest.param(
        lambda: grade_report(1.0, 1), "max depth and max weight must be >= 0, got 1.0 and 1", id="grade_report-1.0"
    ),
]


@pytest.mark.parametrize("call, message", COUNT_CHECKS)
def test_counts_are_ints_that_are_not_bools(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("coef", [0.1, "1/2", True], ids=repr)
def test_coefficients_are_ints_or_fractions(coef):
    message = f"bad coefficient {coef!r}: coefficients are ints or Fractions"
    for build in (
        lambda: NcPoly("X", {(1,): coef}),
        lambda: NcPoly.monomial("Y", (2,), coef),
        lambda: RatFun((1, coef), 1),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message
    assert RatFun.one() != coef
