"""Noncommutative polynomials over the word algebras Q<X> and Q<Y>.

An NcPoly is a finite Q-linear combination of words, stored as a
mapping from words to coefficients.  A word is a tuple of letter
codes (see words), the only word type of the package.  Coefficients
are ints and Fractions, an int when integral (words._exact), so each
polynomial has one representation and integer inputs (every Magnus
polynomial and basis change, for instance) stay in integer arithmetic
throughout.  Sums and products accumulate through _add_term, the one
sparse sum, which drops zero coefficients eagerly, so equality is plain
dictionary equality and kernel membership tests stay exact.  Display
and serialization order terms by word length and then lexicographically
by letter codes, a Y-word as its X-embedding would sort, which keeps
every output byte-deterministic.

The module also provides the splitting isomorphism from Q<X>x1 to
Q<Y>: a word that ends in x1 factors uniquely into blocks x0^k x1, and
each block is renamed y_k.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .words import Scalar, _exact, _is_count, _letters_x_to_y, _scalar, _word_display, _word_json

__all__ = ["NcPoly", "poly_x_to_y", "poly_to_json_obj"]

Letters = tuple[int, ...]


def _check_letters(alphabet: str, letters: Letters) -> None:
    for c in letters:
        if not _is_count(c) or (alphabet == "X" and c > 1):
            raise ValueError(f"bad letter {c!r} for alphabet {alphabet}")


def _term_key(alphabet: str, letters: Letters) -> tuple[int, Letters]:
    # Y-words sort as their X-embeddings y_k -> x0^k x1 would, so that the
    # image of a polynomial under the splitting isomorphism keeps the term
    # order of its preimage: by embedded length, then by the larger letter
    # first, since x0^a x1 precedes x0^b x1 in X exactly when a > b.
    if alphabet == "Y":
        return (sum(letters) + len(letters), tuple([-c for c in letters]))
    return (len(letters), letters)


def _add_term(out: dict[Letters, Scalar], letters: Letters, coef: Scalar) -> None:
    """out[letters] += coef in place, keeping the int rule and dropping zeros.

    A new key takes coef as it is, so no sum is made for it.
    """
    s = out.get(letters)
    s = coef if s is None else s + coef
    if s:
        out[letters] = _exact(s)
    else:
        out.pop(letters, None)


class NcPoly:
    """A noncommutative polynomial over the alphabet "X" or "Y"."""

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: str, terms: Mapping[Letters, Scalar] | None = None) -> None:
        self._check_alphabet(alphabet)
        self.alphabet = alphabet
        clean: dict[Letters, Scalar] = {}
        for letters, coef in (terms or {}).items():
            letters = tuple(letters)
            _check_letters(alphabet, letters)
            _add_term(clean, letters, _scalar(coef))
        self._terms = clean

    @classmethod
    def _trusted(cls, alphabet: str, terms: dict[Letters, Scalar]) -> NcPoly:
        """Wrap terms as they are: valid letters, no zero, int when integral.

        The dict is taken over, not copied.
        """
        p = cls.__new__(cls)
        p.alphabet = alphabet
        p._terms = terms
        return p

    # construction helpers ------------------------------------------------

    # These build through _trusted, not the constructor, so that they
    # also serve subclasses whose constructor takes other arguments; a
    # subclass narrows the alphabets they take by its _check_alphabet.

    @staticmethod
    def _check_alphabet(alphabet: str) -> None:
        if alphabet not in ("X", "Y"):
            raise ValueError(f"unknown alphabet {alphabet!r}")

    @classmethod
    def zero(cls, alphabet: str) -> NcPoly:
        cls._check_alphabet(alphabet)
        return cls._trusted(alphabet, {})

    @classmethod
    def one(cls, alphabet: str) -> NcPoly:
        cls._check_alphabet(alphabet)
        return cls._trusted(alphabet, {(): 1})

    @classmethod
    def monomial(cls, alphabet: str, letters: Iterable[int], coef: Scalar = 1) -> NcPoly:
        cls._check_alphabet(alphabet)
        letters = tuple(letters)
        _check_letters(alphabet, letters)
        coef = _scalar(coef)
        return cls._trusted(alphabet, {letters: coef} if coef else {})

    # inspection -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, letters: Iterable[int]) -> Scalar:
        return self._terms.get(tuple(letters), 0)

    def sorted_terms(self) -> list[tuple[Letters, Scalar]]:
        """Terms in the canonical order: graded lexicographic by word length,
        then letter codes, with Y-words measured through their X-embedding."""
        return sorted(self._terms.items(), key=lambda kv: _term_key(self.alphabet, kv[0]))

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    # arithmetic -----------------------------------------------------------

    def _require_same(self, other: NcPoly) -> None:
        if self.alphabet != other.alphabet:
            raise ValueError(f"alphabet mismatch: {self.alphabet} vs {other.alphabet}")

    def __add__(self, other: NcPoly) -> NcPoly:
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._require_same(other)
        out = dict(self._terms)
        for w, v in other._terms.items():
            _add_term(out, w, v)
        return self._trusted(self.alphabet, out)

    def __neg__(self) -> NcPoly:
        return self * -1

    def __sub__(self, other: NcPoly) -> NcPoly:
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: NcPoly | Scalar) -> NcPoly:
        if isinstance(other, (int, Fraction)):
            c = _scalar(other)
            return self._trusted(self.alphabet, {w: _exact(c * v) for w, v in self._terms.items()} if c else {})
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._require_same(other)
        out: dict[Letters, Scalar] = {}
        for u, cu in self._terms.items():
            for v, cv in other._terms.items():
                _add_term(out, u + v, cu * cv)
        return self._trusted(self.alphabet, out)

    __rmul__ = __mul__

    def _term_str(self, letters: Letters, mag: Scalar) -> str:
        """One term of the display without its sign; mag is positive."""
        if not letters:
            return str(mag)
        word = _word_display(self.alphabet, letters)
        return word if mag == 1 else f"{mag}*{word}"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for letters, coef in self.sorted_terms():
            body = self._term_str(letters, abs(coef))
            if not chunks:
                chunks.append(f"-{body}" if coef < 0 else body)
            else:
                chunks.append(f" - {body}" if coef < 0 else f" + {body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.alphabet!r}, {self._terms!r})"


def poly_x_to_y(a: NcPoly) -> NcPoly:
    """Split every support word at its x1 letters and rename x0^k x1 to y_k.

    Defined on Q<X>x1: every support word must be non-empty and end in
    x1 (the zero polynomial is accepted).  Linear, and multiplicative
    whenever both factors stay inside Q<X>x1.
    """
    if a.alphabet != "X":
        raise ValueError("expected a polynomial over X")
    out: dict[Letters, Scalar] = {}
    for letters, coef in a._terms.items():
        if not letters:
            raise ValueError("not in <X>x1: eps")
        out[_letters_x_to_y(letters)] = coef
    return NcPoly._trusted("Y", out)


def poly_to_json_obj(a: NcPoly) -> list[dict[str, str]]:
    """Canonically ordered [{"coef": "num/den", "word": ...}, ...]."""
    return [
        {"coef": str(coef), "word": _word_json(a.alphabet, letters)}
        for letters, coef in a.sorted_terms()
    ]

