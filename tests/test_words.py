"""Indices, words, and the maps between them."""

import itertools
import random

import pytest

from npolylog.words import (
    MultiIndex,
    Word,
    magnus_index,
    mpl_index,
    parse_index,
    parse_word_json,
    parse_y_word,
    to_index,
    to_y_word,
    word_display,
    word_json,
    word_x_to_y,
    word_y_to_x,
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


def test_index_notation_round_trip():
    for text in ["(1,2,3)", "()", "(1;2)", "(;2)", "(0,1;2)", "(0)"]:
        assert str(parse_index(text)) == text
    assert parse_index(" ( 1 , 2 ) ") == mpl_index(1, 2)
    assert parse_index("(0,1;2)") == magnus_index(0, 1, 2)
    assert parse_index("(;5)") == magnus_index(5)


@pytest.mark.parametrize("bad", ["1,2", "(1,,2)", "(1;2;3)", "(a)", "(1, -2)", "", "(1 2)"])
def test_index_parse_errors(bad):
    with pytest.raises(ValueError):
        parse_index(bad)


def test_y_word_bijection_examples():
    assert to_y_word(mpl_index(1, 2, 3)) == Word("Y", (1, 2, 3))
    assert to_y_word(mpl_index()) == Word("Y", ())
    assert to_y_word(mpl_index(0, 0)) == Word("Y", (0, 0))
    assert to_index(Word("Y", (4, 5, 6))) == mpl_index(4, 5, 6)
    assert to_index(Word("Y", ())) == mpl_index()
    assert to_index(Word("Y", (0,))) == mpl_index(0)


def test_y_word_bijection_round_trip():
    rng = random.Random(20240)
    for _ in range(200):
        r = rng.randint(0, 6)
        s = MultiIndex(tuple(rng.randint(0, 6) for _ in range(r)))
        assert to_index(to_y_word(s)) == s
        w = Word("Y", tuple(rng.randint(0, 6) for _ in range(r)))
        assert to_y_word(to_index(w)) == w


def test_embedding_examples():
    assert word_y_to_x(Word("Y", (2,))) == Word("X", (0, 0, 1))
    assert word_y_to_x(Word("Y", (1, 0))) == Word("X", (0, 1, 1))
    assert word_y_to_x(Word("Y", ())) == Word("X", ())


def test_embedding_is_multiplicative_and_lands_in_x1():
    rng = random.Random(20241)
    for _ in range(200):
        u = Word("Y", tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 5))))
        v = Word("Y", tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 5))))
        assert word_y_to_x(u * v) == word_y_to_x(u) * word_y_to_x(v)
        img = word_y_to_x(u)
        if img.letters:
            assert img.letters[-1] == 1
        assert word_x_to_y(img) == u


def test_splitting_inverse_rejects_bad_words():
    with pytest.raises(ValueError, match="not in <X>x1"):
        word_x_to_y(Word("X", (1, 0)))
    assert word_x_to_y(Word("X", ())) == Word("Y", ())


def test_word_validation():
    with pytest.raises(ValueError):
        Word("X", (0, 2))
    with pytest.raises(ValueError):
        Word("Z", (0,))
    with pytest.raises(ValueError):
        Word("Y", (-1,))


def test_display_and_json_forms():
    assert word_display(Word("X", (0, 1, 0, 0))) == "x0x1x0^2"
    assert word_display(Word("Y", (1, 2))) == "y1y2"
    assert word_display(Word("X", ())) == "eps"
    assert word_json(Word("X", (0, 1, 0, 0))) == "x0x1x0x0"
    assert word_json(Word("Y", (1, 2))) == "y1 y2"
    assert word_json(Word("Y", ())) == "eps"
    assert parse_word_json("X", "x0x1x0x0") == Word("X", (0, 1, 0, 0))
    assert parse_word_json("Y", "y1 y2") == Word("Y", (1, 2))
    assert parse_word_json("Y", "eps") == Word("Y", ())
    assert parse_y_word("y1y12") == Word("Y", (1, 12))
    with pytest.raises(ValueError):
        parse_y_word("y1 q2")
    with pytest.raises(ValueError):
        parse_word_json("X", "x2")


def test_exhaustive_small_round_trips():
    for r in range(4):
        for entries in itertools.product(range(3), repeat=r):
            s = MultiIndex(entries)
            assert parse_index(str(s)) == s
            assert to_index(to_y_word(s)) == s
            assert word_x_to_y(word_y_to_x(to_y_word(s))) == to_y_word(s)
        for entries in itertools.product(range(3), repeat=r + 1):
            k = MultiIndex(entries, magnus=True)
            assert parse_index(str(k)) == k
