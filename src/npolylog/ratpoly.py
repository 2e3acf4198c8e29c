"""Exact arithmetic in the ring Q[z, 1/(1-z)].

Every value this package evaluates lives in the subring of rational
functions generated by z and 1/(1-z), so a single distinguished
denominator suffices: a RatFun is P(z)/(1-z)^d with P a dense tuple of
coefficients and d >= 0.  Coefficients are ints and Fractions, an int
when integral (words._exact), so each value has one representation and
integer inputs (every polylogarithm value, for instance) stay in
integer arithmetic throughout.  Canonical form requires that P have no
trailing zero coefficients and, when d > 0, that (1-z) not divide P,
which is equivalent to P(1) != 0.  Reduction therefore never needs a
gcd: evaluate P at 1 and divide synthetically while it vanishes.

Every sum, from RatFun addition to the value of a combination of
polylogarithms, goes through _combine, the one dense sum, which raises
each group of numerators that share a denominator power to it once.

Beyond the ring operations the module provides the two operators that
generate all polylogarithm values here: the Euler operator z d/dz and
multiplication by z/(1-z), plus exact Taylor coefficient extraction.
The Euler operator builds each numerator coefficient from two
neighbouring ones in a single pass, and on a canonical input with
d >= 1 its result is canonical once trailing zeros are trimmed, as is
z/(1-z) times it, so both skip the (1-z) reduction; its powers wrap
only the result, and make integral values ints only when an input
coefficient is a Fraction.  The Taylor coefficients of P/(1-z)^d are
the prefix sums of P taken d times, one pass per factor 1/(1-z).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate
from math import comb

from .words import Scalar, _exact, _is_count, _scalar

__all__ = [
    "RatFun",
    "euler_deriv",
    "geom_mul",
    "taylor_coeffs",
]


class RatFun:
    """A canonical rational function P(z)/(1-z)^d."""

    __slots__ = ("num", "dpow")

    def __init__(self, num: Iterable[Scalar] = (), dpow: int = 0) -> None:
        if not _is_count(dpow):
            raise ValueError("denominator power must be an integer >= 0")
        coeffs = [c if type(c) is int else _scalar(c) for c in num]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        # P(1) == 0 exactly when (1-z) divides P; peel those factors off.
        # The quotient's top coefficient is c_0+...+c_(n-1) = -c_n != 0,
        # and a partial sum of Fractions may be integral.
        while dpow > 0 and coeffs and sum(coeffs) == 0:
            coeffs = [_exact(c) for c in accumulate(coeffs[:-1])]
            dpow -= 1
        if not coeffs:
            dpow = 0
        self.num = tuple(coeffs)
        self.dpow = dpow

    @classmethod
    def _trusted(cls, num: tuple[Scalar, ...], dpow: int) -> RatFun:
        """Wrap num/(1-z)^dpow as it is, already canonical.

        num must hold ints where integral, end in a nonzero coefficient,
        and have num(1) != 0 when dpow > 0; nothing is checked.
        """
        f = cls.__new__(cls)
        f.num = num
        f.dpow = dpow
        return f

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls) -> RatFun:
        return cls()

    @classmethod
    def one(cls) -> RatFun:
        return cls((1,))

    @classmethod
    def const(cls, c: Scalar) -> RatFun:
        return cls((c,))

    # inspection -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        """Degree of the numerator; -1 for the zero function."""
        return len(self.num) - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = RatFun.const(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.dpow == other.dpow

    __hash__ = None  # type: ignore[assignment]

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: RatFun | Scalar) -> RatFun:
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return _combine(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> RatFun:
        return RatFun([-c for c in self.num], self.dpow)

    def __sub__(self, other: RatFun | Scalar) -> RatFun:
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return _combine(((1, self), (-1, other)))

    def __rsub__(self, other: Scalar) -> RatFun:
        return (-self).__add__(other)

    def __mul__(self, other: RatFun | Scalar) -> RatFun:
        if isinstance(other, (int, Fraction)):
            other = _scalar(other)
            return RatFun([other * a for a in self.num], self.dpow)
        if not isinstance(other, RatFun):
            return NotImplemented
        out: list[Scalar] = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    out[i + j] += a * b
        return RatFun(out, self.dpow + other.dpow)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> RatFun:
        if not _is_count(n):
            raise ValueError("exponent must be an integer >= 0")
        out = RatFun.one()
        for _ in range(n):
            out = out * self
        return out

    # display --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.num:
            return "0"
        top = _poly_str(self.num)
        if self.dpow == 0:
            return top
        nonzero = sum(1 for c in self.num if c)
        if nonzero > 1:
            top = f"({top})"
        den = "(1-z)" if self.dpow == 1 else f"(1-z)^{self.dpow}"
        return f"{top}/{den}"

    def __repr__(self) -> str:
        return f"RatFun({self.num!r}, {self.dpow!r})"

    # serialization ----------------------------------------------------------

    def to_json_obj(self) -> dict[str, object]:
        return {"num": [str(c) for c in self.num], "dpow": self.dpow}


def _combine(pairs: Iterable[tuple[Scalar, RatFun]]) -> RatFun:
    """sum c*f over (c, f) in pairs, over the common denominator (1-z)^d.

    Numerators that share a denominator power d_i are summed as they
    are.  Each such sum below the largest power d is then raised once
    to d by the signed binomial row of (1-z)^(d - d_i) and added to the
    sum already at d, and the total is canonicalised once.
    """
    groups: dict[int, list[Scalar]] = {}
    for c, f in pairs:
        acc = groups.setdefault(f.dpow, [])
        if len(acc) < len(f.num):
            acc.extend([0] * (len(f.num) - len(acc)))
        for i, p in enumerate(f.num):
            acc[i] += c * p
    d = max(groups, default=0)
    out = groups.pop(d, [])
    out.extend([0] * (max((len(acc) + d - di for di, acc in groups.items()), default=0) - len(out)))
    for di, acc in groups.items():
        row = [(-1) ** k * comb(d - di, k) for k in range(d - di + 1)]
        for i, p in enumerate(acc):
            if p:
                for k, b in enumerate(row):
                    out[i + k] += p * b
    return RatFun(out, d)


def _term_str(coef: Scalar, deg: int) -> str:
    if deg == 0:
        return str(coef)
    z = "z" if deg == 1 else f"z^{deg}"
    if coef == 1:
        return z
    if coef == -1:
        return f"-{z}"
    if coef.denominator == 1:
        return f"{coef}{z}"
    return f"({coef}){z}"


def _poly_str(coeffs: Sequence[Scalar]) -> str:
    chunks: list[str] = []
    for deg, c in enumerate(coeffs):
        if not c:
            continue
        term = _term_str(abs(c), deg)
        if not chunks:
            chunks.append(_term_str(c, deg))
        else:
            chunks.append(f"-{term}" if c < 0 else f"+{term}")
    return "".join(chunks)


def euler_deriv(f: RatFun, e: int = 1) -> RatFun:
    """The Euler operator z d/dz applied e times, exact on P/(1-z)^d.

    z d/dz (P/(1-z)^d) = z (P'(z)(1-z) + d P(z)) / (1-z)^(d+1) has numerator
    q_j = j P_j + (d+1-j) P_(j-1), one pass per step over a plain list.  For
    d >= 1, q(1) = d P(1) != 0, so q is canonical once trailing zeros are
    gone; only the result is wrapped, and made int where integral unless
    every input coefficient is an int (every Li value), when every output
    coefficient is one already.  A polynomial (d = 0) stays one and goes
    through the constructor, and e = 0 returns f itself.
    """
    if not _is_count(e):
        raise ValueError("exponent must be an integer >= 0")
    if not e:
        return f
    p, d = f.num, f.dpow
    if not d:
        return RatFun([i**e * c for i, c in enumerate(p)])
    ints = {int} >= set(map(type, p))
    for _ in range(e):
        q, prev = [], 0
        for j, c in enumerate(p):
            q.append(j * c + (d + 1 - j) * prev)
            prev = c
        q.append((d + 1 - len(p)) * prev)
        while not q[-1]:
            q.pop()
        p, d = q, d + 1
    return RatFun._trusted(tuple(p) if ints else tuple([_exact(c) for c in p]), d)


def geom_mul(f: RatFun) -> RatFun:
    """Multiply by z/(1-z)."""
    if f.dpow:
        # z P keeps P(1) != 0 and the leading coefficient of P.
        return RatFun._trusted((0,) + f.num, f.dpow + 1)
    return RatFun((0,) + f.num, 1)


def taylor_coeffs(f: RatFun, n_max: int) -> list[Scalar]:
    """Coefficients of z^0..z^n_max in the expansion around 0.

    Multiplying a series by 1/(1-z) takes its prefix sums, so the
    coefficients are P, truncated to z^n_max, summed d times.
    """
    if not _is_count(n_max):
        raise ValueError("n_max must be >= 0")
    p = f.num[: n_max + 1]
    c = list(p) + [0] * (n_max + 1 - len(p))
    for _ in range(f.dpow):
        c = list(accumulate(c))
    return c
