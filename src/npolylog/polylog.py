"""Polylogarithms at non-positive integer indices and their relations.

For a plain index s = (s1,...,sr) define

    Li(s)(z) = sum_{n1 > n2 > ... > nr > 0} n1^s1 ... nr^sr z^n1,

with Li(()) = 1.  Each of these series is a rational function in
Q[z, 1/(1-z)]: peeling the outermost summation index turns the series
over (s1,...,sr) into the Euler operator applied s1 times to z/(1-z)
times the series over (s2,...,sr), so the whole value is produced by
alternately multiplying by z/(1-z) and differentiating.  That
recursion is the definition used here; every expansion theorem is
verified against it, never used to define it.

The linear extension of s -> Li(s) to formal Q-combinations of indices
has a large kernel, i.e. the indices satisfy many Q-linear functional
equations.  Such a combination is a LinComb: an NcPoly over Y whose
words are read as indices, (s1,...,sr) <-> y_s1...y_sr, so it shares
the arithmetic, the int/Fraction rule and the term order of Q<Y>.
polylog_map, verify_relation and relation_line read the words of any
NcPoly over Y as indices, a LinComb or not, and refuse anything else
with ValueError.  The index kinds, counts and coefficients taken here
are all checked by the rules of words.  Two constructions from the
Magnus basis produce and certify them:

  * expand_to_products / magnus_product_identity relate a single Li
    value to products of depth-one values through the basis change,
  * kernel_element maps the difference M(k) - M(sigma(k)) of a Magnus
    polynomial and a slot permutation of it through the word-splitting
    isomorphism; the result is always annihilated by Li.

verify_relation decides kernel membership by exact evaluation, twice:
through the rational-function pipeline and through an independent
series pipeline whose truncation bound comes from the input indices
and decides the verdict on its own.  One rule, _decide, makes every
verdict here: both pipelines answer whether the terms are worth a
reference value (zero for verify_relation), a value that is not the
reference must have its own series, and disagreement raises
PipelineDisagreement instead of picking a winner.  _kernel_records
decides a slot-permutation sweep by arrangement: the relation of sigma
is zero exactly when the closed forms of k and of sigma(k) have one
value.  Every term of a sweep has weight w and depth r, so D = w + r
decides every closed form, and _decide compares each with the product
of k's depth-one values (Theorem main4).  So a correct sweep expands
one series, the product's, whatever its length.

Every Li value has integer numerator coefficients, so verify_relation
evaluates a combination in integer arithmetic: its coefficients are
scaled by the lcm L of their denominators, the scaled values are summed
over a common denominator by the one sum routine of ratpoly, and
rationals come back only when a witness is divided by L at the end.
polylog_map, on no verification path, sums the rational coefficients
as they are through the same routine.

The relations of one graded piece share most of their work, and each
shared piece is built once.  This module owns two caches, each kept
for the life of the process, and no function takes one as an
argument.  Li values (_LI) and series rows (_ROWS) are cached with
every tail, and a new one is built out from its longest cached tail,
one level (_li_level, _row_level) at a time.  Each index has one row,
whatever the bound: it is grown in place when a larger bound is read,
and a smaller bound reads a prefix of it.  A sweep's words are cached
there too, so a later sweep builds none of them again.  A sweep owns
the rest of its state, in _kernel_records: one dict maps each
arrangement sigma(k) met to its record line and verdict, and one maps
each index met to its text.  So each distinct arrangement is expanded,
evaluated and written, and each index formatted, once per sweep.  Its
relation is k's closed form minus sigma(k)'s, the terms of
kernel_element, which is the definition for one arrangement and keeps
nothing.  _record is the one writer of a record line, for
relation_line and a sweep alike; relation_record parses its text
back.  The closed form lives in magnus and nfold_product reads it;
only magnus_product_identity derives it again, multiplying out the
brackets of M(k) x1 in Q<X>, as the independent side of the identity
it states.

Test seams.  Tests put faults into the evaluation, and count its work,
at four names only: the value level _li_level, the row level
_row_level, the closed form _product_terms and the product
_depth_one_product.  They count verdicts at _decide, and replace the
two caches only whole, with the caches a new process starts with.  So
the code between the seams may be merged, renamed or rewritten with
no test restated, as long as every value and row is still built one
level at a time through the two levels.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .freealg import NcPoly, _add_term, _term_key, poly_x_to_y
from .magnus import _product_terms, lie_power, word_to_magnus
from .ratpoly import RatFun, _combine, euler_deriv, geom_mul, taylor_coeffs
from .words import MultiIndex, Scalar, _is_count, _require_magnus, _require_plain, _scalar

__all__ = [
    "LinComb",
    "PipelineDisagreement",
    "polylog_rational",
    "polylog_map",
    "series_coeffs",
    "expand_to_products",
    "nfold_product",
    "magnus_product_identity",
    "kernel_element",
    "verify_relation",
    "relation_line",
    "relation_record",
    "relation_from_record",
]

class LinComb(NcPoly):
    """A formal Q-linear combination of plain indices.

    An NcPoly over Y with the index (s1,...,sr) stored as the Y-word
    y_s1...y_sr, so arithmetic, equality and term order are those of
    Q<Y>; only construction, lookup and display speak in indices.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[MultiIndex, Scalar] | None = None) -> None:
        terms = terms or {}
        for idx in terms:
            _require_plain(idx)
        super().__init__("Y", {idx.entries: coef for idx, coef in terms.items()})

    @staticmethod
    def _check_alphabet(alphabet: str) -> None:
        if alphabet != "Y":
            raise ValueError(f"a combination of indices is over Y, got alphabet {alphabet!r}")

    def coefficient(self, idx: MultiIndex) -> Scalar:
        return self._terms.get(idx.entries, 0)

    def items(self) -> list[tuple[MultiIndex, Scalar]]:
        """Terms in the order of their Y-words (graded lex via the X-embedding)."""
        return [(MultiIndex(entries), coef) for entries, coef in self.sorted_terms()]

    def __iter__(self) -> Iterator[tuple[MultiIndex, Scalar]]:
        return iter(self.items())

    def _term_str(self, letters: tuple[int, ...], mag: Scalar) -> str:
        li = f"Li{MultiIndex(letters)}"
        return li if mag == 1 else f"{mag}*{li}"


# The two caches of this module, each kept for the life of the process.
# Li values by entry tuple.  Every tail of a computed index is stored
# too: the values of one graded piece share their tails, and each new
# value is built from its longest one.
_LI: dict[tuple[int, ...], RatFun] = {(): RatFun.one()}
# Series rows of Li by entry tuple, one row per index whatever the
# bound: a row holds z^0..z^n for the largest n read so far, and is grown
# in place, from its tail's row, when a larger n is read.
_ROWS: dict[tuple[int, ...], list[int]] = {(): [1]}


def _polylog_entries(entries: tuple[int, ...]) -> RatFun:
    """Li at plain entries, built out from the longest cached tail, caching every tail; never recurses."""
    f = _LI.get(entries)
    if f is not None:
        return f
    start = 1
    while entries[start:] not in _LI:
        start += 1
    f = _LI[entries[start:]]
    for i in range(start - 1, -1, -1):
        tail = entries[i:]
        f = _LI[tail] = _li_level(tail, f)
    return f


def _li_level(entries: tuple[int, ...], tail: RatFun) -> RatFun:
    """Li at entries from tail, Li at entries[1:]: z/(1-z) times tail, then entries[0] Euler steps."""
    return euler_deriv(geom_mul(tail), entries[0])


def polylog_rational(s: MultiIndex) -> RatFun:
    """Li(s) as a canonical element of Q[z, 1/(1-z)].

    Built right to left from the longest cached tail: for each entry,
    innermost first, multiply by z/(1-z) and apply the Euler operator
    entry-many times.  Vanishes at z = 0 whenever the depth is >= 1.
    """
    _require_plain(s)
    return _polylog_entries(s.entries)


def _index_terms(c: object) -> dict[tuple[int, ...], Scalar]:
    """The terms of c, whose words are read as indices; raises ValueError unless c is an NcPoly over Y."""
    if not isinstance(c, NcPoly) or c.alphabet != "Y":
        what = f"a polynomial over {c.alphabet}" if isinstance(c, NcPoly) else type(c).__name__
        raise ValueError(f"expected a combination of indices, an NcPoly over Y, got {what}")
    return c._terms


def polylog_map(c: LinComb) -> RatFun:
    """Linear extension of polylog_rational to formal combinations."""
    return _combine([(a, _polylog_entries(e)) for e, a in _index_terms(c).items()])


def series_coeffs(s: MultiIndex, n_max: int) -> list[int]:
    """Coefficients of z^0..z^n_max of Li(s), by the triangular recursion.

    Summing over the innermost index first: with g_(r+1) the series
    [1, 0, ..., 0] of Li(()) = 1 and g_j(m) = m^(s_j) * sum_{m > l >= 0}
    g_(j+1)(l), the coefficient of z^n is g_1(n).  Prefix sums keep the
    cost at depth * n_max.
    """
    _require_plain(s)
    if not _is_count(n_max):
        raise ValueError("n_max must be >= 0")
    # A copy of z^0..z^n_max: the row itself stays in _ROWS for later verdicts.
    return _series_row(s.entries, n_max)[: n_max + 1]


def _series_row(entries: tuple[int, ...], n: int) -> list[int]:
    """The cached row of Li at plain entries, reaching at least z^n; read only z^0..z^n of it.

    A row that already reaches z^n is returned at once.  Otherwise walks
    in to the longest tail whose row reaches z^n, then grows each
    shorter row outward in place, resuming its prefix sum where the row
    stopped, and stores it again (a new row starts as [0]).
    """
    g = _ROWS.get(entries)
    if g is not None and len(g) > n:
        return g
    start = 0
    while start < len(entries) and len(_ROWS.get(entries[start:], ())) <= n:
        start += 1
    g = _ROWS[entries[start:]]
    if len(g) <= n:
        # Only the row [1, 0, 0, ...] of Li(()) = 1 can be short here.
        g = _ROWS[()] = g + [0] * (n + 1 - len(g))
    for i in range(start - 1, -1, -1):
        tail = entries[i:]
        g = _ROWS[tail] = _row_level(tail, g, _ROWS.get(tail) or [0], n)
    return g


def _row_level(entries: tuple[int, ...], tail: list[int], row: list[int], n: int) -> list[int]:
    """row, Li's at entries, grown in place to z^n from tail, the row of entries[1:] to z^(n-1) or more."""
    e = entries[0]
    prefix = sum(tail[: len(row) - 1])
    for m in range(len(row), n + 1):
        prefix += tail[m - 1]
        row.append(m**e * prefix)
    return row


def expand_to_products(s: MultiIndex) -> dict[MultiIndex, int]:
    """Write Li(s1,...,sr) as a sum of r-fold products of depth-one values.

    Reading s in tail form, the word-to-Magnus coefficients give

        Li(s) = sum_k <s,k> Li(k1) ... Li(kn) Li(kinf),

    so the returned mapping sends each magnus index k to the integer
    coefficient of the product it labels.
    """
    _require_plain(s)
    if s.depth == 0:
        raise ValueError("the empty index has no product expansion; Li(()) = 1")
    return word_to_magnus(MultiIndex(s.entries, magnus=True))


def nfold_product(factors: Sequence[int]) -> LinComb:
    """Expand Li(s1) * ... * Li(sn) into depth-n indices in closed form.

    The sum runs over 0 <= k_j <= s_j for j < n, with coefficient
    prod_j (-1)^(k_j) C(s_j, k_j) on the index
    (s1-k1, s2-k2+k1, ..., s_(n-1)-k_(n-1)+k_(n-2), sn+k_(n-1)).
    """
    fac = tuple(factors)
    if not fac:
        raise ValueError("need at least one factor")
    for f in fac:
        if not _is_count(f):
            raise ValueError(f"bad factor {f!r}: factors are integers >= 0")
    return LinComb._trusted("Y", _product_terms(fac))


def magnus_product_identity(k: MultiIndex) -> tuple[LinComb, LinComb]:
    """Both expansions of Li(k1)...Li(kn)Li(kinf) for a magnus index k.

    The left component is the closed n-fold product expansion; the
    right one multiplies out x1^(k1) ... x1^(kn) x0^kinf x1 in Q<X> and
    splits it into blocks.  The two are equal term by term, which is
    exactly what makes the permutation construction below land in the kernel.
    """
    _require_magnus(k)
    m = NcPoly.monomial("X", (0,) * k.tail + (1,))
    for e in reversed(k.prefix):
        m = lie_power(e) * m
    return nfold_product(k.entries), LinComb._trusted("Y", poly_x_to_y(m)._terms)


def _arranged(k: MultiIndex, sigma: Sequence[int]) -> tuple[int, ...]:
    """The entries of sigma(k), slot i holding slot sigma_i of k; raises ValueError unless sigma permutes the slots."""
    sig = tuple(sigma)
    r = k.depth + 1
    if not all(map(_is_count, sig)) or sorted(sig) != list(range(1, r + 1)):
        raise ValueError(f"sigma must be a permutation of 1..{r} in one-line notation, got {sig}")
    return tuple(k.entries[i - 1] for i in sig)


def kernel_element(k: MultiIndex, sigma: Sequence[int]) -> LinComb:
    """The kernel combination read off M(k) - M(sigma(k)), times x1.

    sigma permutes all depth+1 slots of k, the tail included, in
    one-line notation: sigma = (2, 1) swaps the two slots of (1;2).
    The image under Li is zero because both Magnus polynomials expand
    the same (commutative) product of depth-one values.
    """
    return nfold_product(_require_magnus(k).entries) - nfold_product(_arranged(k, sigma))


class PipelineDisagreement(RuntimeError):
    """The rational and series pipelines gave different answers."""


_DISAGREE = "rational and series pipelines disagree; refusing to answer"


def _decide(terms: Collection[tuple[tuple[int, ...], int]], bound: int, value: RatFun, row: list[int]) -> tuple[bool, RatFun]:
    """(verdict, f): f is Li of the integer terms, and verdict whether f is value, whose series to z^bound is row.

    The one rule of every verdict.  Two independent pipelines evaluate
    the terms: the rational one sums their values into f, and the
    series one sums their rows into direct, z^0..z^bound, every slot of
    each row included, so a row that is wrong anywhere shows in the sum.
    f and direct each say whether the terms are worth value, and the
    two must agree; an f other than value must also have direct as its
    own series.  Raises PipelineDisagreement otherwise.
    """
    f = _combine([(a, _polylog_entries(e)) for e, a in terms])
    direct = [0] * (bound + 1)
    for entries, a in terms:
        own = _series_row(entries, bound)
        for n in range(bound + 1):
            direct[n] += a * own[n]
    verdict = f == value
    if verdict != (direct == row) or (not verdict and taylor_coeffs(f, bound) != direct):
        raise PipelineDisagreement(_DISAGREE)
    return verdict, f


def _depth_one_product(entries: tuple[int, ...]) -> RatFun:
    """Li(e1)...Li(en) as a RatFun product of depth-one values: the value main4 gives their closed form."""
    f = RatFun.one()
    for e in entries:
        f = f * _polylog_entries((e,))
    return f


def verify_relation(c: LinComb) -> tuple[bool, RatFun | None]:
    """Decide whether Li maps the combination to zero, with a witness.

    Evaluates L*c, the combination with its denominators cleared,
    through two independent pipelines: the exact rational form, and
    integer series coefficients of z^0..z^D, D the largest weight +
    depth over the terms.  Every Li(s) is P(z)/(1-z)^d with
    deg P <= d <= weight + depth, so these coefficients decide on their
    own whether the value is zero.  The bound is read off the indices,
    not off the rational result.  _decide compares the two with zero:
    they must agree whether the value is zero, and a nonzero value's
    truncated series must be the direct series; any mismatch means a
    pipeline is broken and raises PipelineDisagreement.  Returns
    (True, None) on kernel membership, else (False, witness) with the
    nonzero rational value of c.  Each tail row is built once, and
    grown at most once per larger D, for the life of the process.
    """
    c_terms = _index_terms(c)
    scale = lcm(*(coef.denominator for coef in c_terms.values()))
    terms = [(entries, coef.numerator * (scale // coef.denominator)) for entries, coef in c_terms.items()]
    bound = max((sum(entries) + len(entries) for entries, _ in terms), default=0)
    verdict, f = _decide(terms, bound, RatFun(), [0] * (bound + 1))
    return verdict, (None if verdict else f * Fraction(1, scale))


def relation_line(c: LinComb, verified: bool) -> str:
    """The JSON-line record for a relation, as text: terms, verified, weight, depth.

    Terms are in display order, each {"coef": str(coef), "index": [..]}.
    Weight and depth are the common values over all terms, or null when
    the combination is not homogeneous (products of depth-one values
    reduce to lower weight, so mixed records are legitimate).  The text
    is json.dumps of relation_record, written by _record; its index
    texts are formatted into a dict of the call's own.
    """
    return _record(_index_terms(c).items(), verified, {})


def _record(terms: Iterable[tuple[tuple[int, ...], Scalar]], verified: bool, texts: dict[tuple[int, ...], tuple]) -> str:
    """The record line of the relation with terms (entries, coef), in any order; sorts them.

    texts maps each index to its _term_key, its '"index": [..]}' text,
    weight and depth; an index not in it is formatted into it, the
    entries joined as json.dumps writes the list.
    """
    rows = []
    for entries, coef in terms:
        t = texts.get(entries)
        if t is None:
            text = '"index": [' + ", ".join(map(str, entries)) + "]}"
            t = texts[entries] = _term_key("Y", entries), text, sum(entries), len(entries)
        rows.append((t[0], f'{{"coef": "{coef!s}", {t[1]}', t[2], t[3]))
    # Distinct entries have distinct sort keys, so each row orders by its key.
    rows.sort(key=itemgetter(0))
    weights = {row[2] for row in rows}
    depths = {row[3] for row in rows}
    joined = ", ".join([row[1] for row in rows])
    weight = str(weights.pop()) if len(weights) == 1 else "null"
    depth = str(depths.pop()) if len(depths) == 1 else "null"
    return f'{{"terms": [{joined}], "verified": {"true" if verified else "false"}, "weight": {weight}, "depth": {depth}}}'


def _kernel_records(k: MultiIndex, arrangements: Iterable[tuple[int, ...]]) -> Iterator[tuple[str, bool]]:
    """(record line, verdict) of the relation of k and each arrangement of its entries in turn, lazily.

    An arrangement is the entries of sigma(k) for a slot permutation
    sigma, and its relation is kernel_element(k, sigma).  One dict per
    sweep maps each arrangement met to its record line and verdict; a
    repeat yields the stored pair again.  The dict starts with k and
    the zero relation of sigma(k) = k, which verify_relation decides at
    D = 0 without evaluating a word.  The relation of any other
    arrangement is the closed form of k minus that of sigma(k), of
    weight w and depth r, so Li maps it to zero exactly when the two
    closed forms have one value, and D = w + r decides as in
    verify_relation.

    When the first other arrangement is met, k's closed form is decided
    by the rule of verify_relation (_decide) against the product of its
    depth-one values, which Theorem main4 says it is worth, and refused
    if it is not.  Each distinct arrangement is then decided once by the
    same call against the same product, now k's value and row.  An
    arrangement whose value is k's needs no series of its own: its
    series is the product's, which is its row.  So the verdict is that
    of verify_relation on the relation, and PipelineDisagreement is
    raised where checking every value against its own row would raise
    it.  Each pair is yielded before the next arrangement is evaluated.
    Each relation is a copy of k's closed form with sigma(k)'s
    subtracted term by term, the terms kernel_element holds, and _record
    writes it through one texts dict per sweep, so each index is
    formatted once per sweep.
    """
    _require_magnus(k)
    zero = LinComb()
    ok = verify_relation(zero)[0]
    records = {k.entries: (relation_line(zero, ok), ok)}
    base = _product_terms(k.entries)
    bound = sum(k.entries) + len(k.entries)
    texts: dict[tuple[int, ...], tuple] = {}
    product = None
    for arranged in arrangements:
        if arranged not in records:
            if product is None:
                # Theorem main4's value of k's closed form, and its series.
                product = _depth_one_product(k.entries)
                product_row = taylor_coeffs(product, bound)
                if not _decide(base.items(), bound, product, product_row)[0]:
                    raise PipelineDisagreement(
                        f"the closed form of {k} is not the product of its depth-one values; refusing to answer"
                    )
            terms = _product_terms(arranged)
            ok = _decide(terms.items(), bound, product, product_row)[0]
            relation = dict(base)
            for w, a in terms.items():
                _add_term(relation, w, -a)
            records[arranged] = _record(relation.items(), ok, texts), ok
        yield records[arranged]


def relation_record(c: LinComb, verified: bool) -> dict[str, object]:
    """The JSON-line record for a relation as a dict: relation_line, parsed."""
    return json.loads(relation_line(c, verified))


# Python 3.10's Fraction string syntax in ASCII, read the same on every
# supported Python: no underscores, no spaces at the slash, ASCII digits only.
_COEF = re.compile(
    r"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*)"
    r"(?:/(?P<den>\d+)|(?:\.(?P<dec>\d*))?(?:[eE](?P<exp>[-+]?\d+))?)\s*",
    re.ASCII,
)


def _parse_coef(text: str) -> Scalar:
    """The value of a coefficient in _COEF syntax; raises ValueError otherwise.

    The value is built from the match groups, so the text is read once:
    a/b is Fraction(a, b), and a decimal is its mantissa digits times a
    power of ten.
    """
    m = _COEF.fullmatch(text)
    if not m:
        raise ValueError(text)
    sign, num, den, dec, exp = m.groups()
    dec = dec or ""
    power = int(exp or 0)
    limit = sys.get_int_max_str_digits()
    # 10**exp is built here, and the int-to-str digit limit does not see
    # it: the exponent counts as digits of the mantissa.
    if 0 < limit < len(num) + len(dec) + abs(power):
        raise ValueError(text)
    if den is not None:
        return _scalar(Fraction(int(sign + num), int(den)))
    mantissa = int(sign + num + dec)
    power -= len(dec)
    return mantissa * 10**power if power >= 0 else _scalar(Fraction(mantissa, 10**-power))


def relation_from_record(obj: dict[str, object]) -> LinComb:
    """Parse the terms of a relation record; raises ValueError when malformed.

    One pass over the parsed JSON: each term is checked and added to
    the combination as it is read.  A coefficient is a JSON string in
    _COEF syntax or a JSON integer, read as its decimal text: a JSON
    number with a fraction or an exponent reaches here already rounded
    to a float, so it is refused.  A dict local to the call maps each
    coefficient text to its value, so each distinct text is parsed once
    per record, and a bad one is reported at its first term.
    """
    if not isinstance(obj, dict) or "terms" not in obj:
        raise ValueError("relation record must be an object with a 'terms' array")
    items = obj["terms"]
    if not isinstance(items, list):
        raise ValueError("'terms' must be an array")
    terms: dict[tuple[int, ...], Scalar] = {}
    values: dict[str, Scalar] = {}
    for i, item in enumerate(items):
        if not isinstance(item, dict) or "coef" not in item or "index" not in item:
            raise ValueError(f"term {i} must be an object with 'coef' and 'index'")
        try:
            if type(item["coef"]) not in (str, int):
                raise ValueError(item["coef"])
            text = str(item["coef"])
            coef = values.get(text)
            if coef is None:
                coef = values[text] = _parse_coef(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"term {i} has a bad coefficient {item['coef']!r}") from exc
        index = item["index"]
        if not isinstance(index, list) or not all(map(_is_count, index)):
            raise ValueError(f"term {i} has a bad index {index!r}")
        _add_term(terms, tuple(index), coef)
    return LinComb._trusted("Y", terms)
