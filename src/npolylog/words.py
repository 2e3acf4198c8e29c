"""Alphabets, words, and the index notation shared by the whole package.

Two alphabets appear throughout.  X = {x0, x1} generates the free
associative algebra whose Magnus-type basis drives all expansions, and
the countable alphabet Y = {y0, y1, ...} encodes polylogarithm indices
letter by letter.  A word is a tuple of letter codes, 0 and 1 for x0
and x1 and n for y_n, so the Y-word y_s1...y_sr is the entry tuple of
the plain index (s1,...,sr).  A plain index stands for the nested
series sum_{n1>...>nr>0} n1^s1 ... nr^sr z^n1.  An index written in
tail form (k1,...,kn;kinf) labels a Magnus polynomial; its last entry
is the exponent of a trailing x0 block and does not count toward the
depth.  The two kinds are kept apart by an explicit flag instead of a
caller-side convention.

Each input rule of the package is decided here, once: the index kind
(_require_plain, _require_magnus), a count such as an entry, power or
slot number (_is_count, or _parse_int on text), a coefficient (_scalar,
which applies the int rule _exact that freealg and ratpoly use on sums).

Text notation: "(1,2,3)" plain, "()" the empty index, "(1;2)" tail
form, "(;2)" tail form of depth 0.  Words display as "x0x1x0^2" or
"y1y2" and serialize as "x0x1x0x0" or "y1 y2", with "eps" for the
empty word.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction

__all__ = ["MultiIndex", "mpl_index", "magnus_index", "parse_index"]

Scalar = int | Fraction


def _exact(c: Scalar) -> Scalar:
    """The int rule, unchecked: c as an int when integral (a Fraction is in lowest terms)."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _scalar(c: object) -> Scalar:
    """c as an int when integral, else as a Fraction; only ints and Fractions are scalars."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise ValueError(f"bad coefficient {c!r}: coefficients are ints or Fractions")
    return _exact(c)


def _is_count(v: object) -> bool:
    """True for an integer >= 0 that is not a bool: an entry, a letter, a power, a bound."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


class MultiIndex:
    """An index (s1,...,sr), or (k1,...,kn;kinf) when ``magnus`` is set.

    A frozen value: equality, hash and repr are those of the pair
    (entries, magnus), and an index is copied and pickled by that pair.
    """

    __slots__ = ("entries", "magnus")
    __match_args__ = ("entries", "magnus")

    def __init__(self, entries: Iterable[int], magnus: bool = False) -> None:
        entries = tuple(entries)
        for e in entries:
            if not _is_count(e):
                raise ValueError(f"bad index entry {e!r}: entries are integers >= 0")
        if not isinstance(magnus, bool):
            raise ValueError(f"the magnus flag must be True or False, got {magnus!r}")
        if magnus and not entries:
            raise ValueError("a magnus index needs at least its tail entry")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "magnus", magnus)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return MultiIndex, (self.entries, self.magnus)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries and self.magnus == other.magnus

    def __hash__(self) -> int:
        return hash((self.entries, self.magnus))

    def __repr__(self) -> str:
        return f"MultiIndex(entries={self.entries!r}, magnus={self.magnus!r})"

    @property
    def depth(self) -> int:
        """Number of slots; the tail entry of a magnus index is not a slot."""
        return len(self.entries) - 1 if self.magnus else len(self.entries)

    @property
    def weight(self) -> int:
        return sum(self.entries)

    @property
    def prefix(self) -> tuple[int, ...]:
        if not self.magnus:
            raise ValueError("prefix/tail split applies to magnus indices only")
        return self.entries[:-1]

    @property
    def tail(self) -> int:
        if not self.magnus:
            raise ValueError("prefix/tail split applies to magnus indices only")
        return self.entries[-1]

    def __str__(self) -> str:
        if self.magnus:
            return "({};{})".format(",".join(map(str, self.prefix)), self.tail)
        return "({})".format(",".join(map(str, self.entries)))


def _require_plain(s: object) -> MultiIndex:
    """s itself, if it is a plain index; raises ValueError otherwise."""
    if not isinstance(s, MultiIndex) or s.magnus:
        raise ValueError(f"expected a plain index like (1,2), got {s}")
    return s


def _require_magnus(k: object) -> MultiIndex:
    """k itself, if it is a magnus index; raises ValueError otherwise."""
    if not isinstance(k, MultiIndex) or not k.magnus:
        raise ValueError(f"expected a magnus index like (1;2), got {k}")
    return k


def mpl_index(*entries: int) -> MultiIndex:
    return MultiIndex(entries)


def magnus_index(*entries: int) -> MultiIndex:
    """Build a tail-form index; the last argument is the tail entry."""
    return MultiIndex(entries, magnus=True)


def _parse_int(token: str, text: str) -> int:
    tok = token.strip()
    if not re.fullmatch(r"[0-9]+", tok):
        raise ValueError(f"bad token {tok!r} in index {text!r}")
    return int(tok)


def parse_index(text: str) -> MultiIndex:
    """Parse "(1,2)", "()", "(1;2)" or "(;2)" into a MultiIndex."""
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"index {text!r} must be wrapped in parentheses")
    body = t[1:-1].strip()
    if not body:
        return MultiIndex(())
    if ";" in body:
        head, _, tail = body.partition(";")
        if ";" in tail:
            raise ValueError(f"index {text!r} has more than one ';'")
        entries = [_parse_int(p, text) for p in head.split(",")] if head.strip() else []
        entries.append(_parse_int(tail, text))
        return MultiIndex(tuple(entries), magnus=True)
    return MultiIndex(tuple(_parse_int(p, text) for p in body.split(",")))


def _letters_y_to_x(letters: Iterable[int]) -> tuple[int, ...]:
    """The embedding y_s -> x0^s x1 on letter codes, extended to words."""
    out: list[int] = []
    for s in letters:
        out.extend([0] * s)
        out.append(1)
    return tuple(out)


def _letters_x_to_y(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of _letters_y_to_x: X-words ending in x1, and the empty word."""
    if letters and letters[-1] != 1:
        raise ValueError(f"not in <X>x1: {_word_display('X', letters)}")
    out: list[int] = []
    run = 0
    for c in letters:
        if c == 0:
            run += 1
        else:
            out.append(run)
            run = 0
    return tuple(out)


def _word_display(alphabet: str, letters: tuple[int, ...]) -> str:
    """Compact form of a non-empty word: "x0x1x0^2", "y1y2"."""
    if alphabet == "Y":
        return "".join(f"y{c}" for c in letters)
    parts: list[str] = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        run = j - i
        parts.append(f"x{letters[i]}" + (f"^{run}" if run > 1 else ""))
        i = j
    return "".join(parts)


def _word_json(alphabet: str, letters: tuple[int, ...]) -> str:
    """Serialized form: "x0x1x0x0" for X, "y1 y2" for Y, "eps" when empty."""
    if not letters:
        return "eps"
    if alphabet == "X":
        return "".join(f"x{c}" for c in letters)
    return " ".join(f"y{c}" for c in letters)
