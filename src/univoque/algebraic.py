"""Algebraic real numbers as (integer polynomial, isolating interval) pairs.

The polynomial need not be irreducible or square-free; the interval must
contain exactly one distinct real root.  `algebraic_real` certifies that
by a Sturm count; `expansions.solve_base` certifies it by monotonicity
instead.  All decisions are exact: bisection midpoints are rationals and
sign tests never touch floating point.

Bisection keeps the half where the defining polynomial changes sign.
When it already changes sign strictly over the isolating interval, the
root has odd multiplicity and the polynomial itself is bisected; only a
root of even multiplicity (no sign change) needs the square-free part.

The sign of an integer polynomial c at the root is decided in three
stages, cheapest first.  An interval enclosure of c over the isolating
interval decides it whenever the enclosure excludes 0.  Otherwise the
interval is bisected as above and the enclosure is tried again.  Once the
interval is narrower than a width tied to the bit size of c and the
enclosure still contains 0, one exact zero test (a gcd with the defining
polynomial and a Sturm count) settles whether c vanishes at the root.  The
tightest interval found for each root is kept in a bounded memo, so
successive sign tests at one root share the bisection work; the memo
never changes an AlgebraicReal.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from . import polynomials as pl


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class EndpointRootError(ValueError):
    """An interval endpoint is a root of the tested polynomial.

    Perturb the endpoints (e.g. shrink the interval slightly) and retry.
    """


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def sturm_count(p: tuple, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi)."""
    if pl.is_zero(p):
        raise ValueError("zero polynomial has no isolated roots")
    if lo >= hi:
        raise ValueError("need lo < hi")
    if (pl.scaled_value(p, lo.numerator, lo.denominator) == 0
            or pl.scaled_value(p, hi.numerator, hi.denominator) == 0):
        raise EndpointRootError(
            "interval endpoint is a root; perturb the endpoints")
    chain = pl.sturm_chain(p)
    return pl.sign_variations(chain, lo) - pl.sign_variations(chain, hi)


@dataclass(frozen=True)
class AlgebraicReal:
    """A real root of an integer polynomial, pinned by an isolating interval."""

    poly: tuple
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))

    @property
    def interval(self) -> tuple:
        return (self.lo, self.hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def validate(self) -> None:
        if sturm_count(self.poly, self.lo, self.hi) != 1:
            raise ValueError("interval does not isolate exactly one root")


def algebraic_real(poly_coeffs, lo, hi) -> AlgebraicReal:
    """The root of poly_coeffs in (lo, hi), certified by a Sturm count."""
    a = AlgebraicReal(pl.poly(poly_coeffs), Fraction(lo), Fraction(hi))
    a.validate()
    return a


class _Box(NamedTuple):
    """An isolating interval (lo/den, hi/den) in integer form, with f a
    polynomial that changes sign at the root and s its sign at lo/den."""

    f: tuple
    lo: int
    hi: int
    den: int
    s: int


def _box(a: AlgebraicReal) -> _Box:
    """a's interval in integer form, bisected by a.poly itself when it
    changes sign strictly over the interval.

    With one distinct root r inside, a.poly = (x - r)^k g with g of one
    sign on the closed interval, so a strict sign change means k is odd:
    a.poly then has the sign of (x - r) times a constant, like its
    square-free part, and keeps the same halves.  No sign change (k even,
    or a root at an endpoint) falls back to the square-free part."""
    den = lcm(a.lo.denominator, a.hi.denominator)
    lo = a.lo.numerator * (den // a.lo.denominator)
    hi = a.hi.numerator * (den // a.hi.denominator)
    s = _sign(pl.scaled_value(a.poly, lo, den))
    if s * _sign(pl.scaled_value(a.poly, hi, den)) < 0:
        return _Box(a.poly, lo, hi, den, s)
    f = pl.squarefree_part(a.poly)
    return _Box(f, lo, hi, den, _sign(pl.scaled_value(f, lo, den)))


def _bisect(box: _Box) -> _Box:
    """One bisection step.  The root is a sign change of f, so the half
    without a sign change is discarded."""
    f, lo, hi, den, s = box
    mid = lo + hi
    smid = _sign(pl.scaled_value(f, mid, 2 * den))
    if smid == 0:
        # the midpoint IS the root; keep a thin interval around it
        return _Box(f, 5 * lo + 3 * hi, 3 * lo + 5 * hi, 8 * den, s)
    if s != smid:
        return _Box(f, 2 * lo, mid, 2 * den, s)
    return _Box(f, mid, 2 * hi, 2 * den, s)


def refine(a: AlgebraicReal, eps) -> AlgebraicReal:
    """Shrink the isolating interval to width <= eps; same root, new value."""
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    if a.hi - a.lo <= eps:
        return a
    box = _box(a)
    while (box.hi - box.lo) * eps.denominator > eps.numerator * box.den:
        box = _bisect(box)
    return AlgebraicReal(a.poly, Fraction(box.lo, box.den),
                         Fraction(box.hi, box.den))


def _filter(c: tuple, lo: int, hi: int, den: int) -> int:
    """Sign of c over all of [lo/den, hi/den] when an interval enclosure of
    c there excludes 0; 0 when the enclosure is ambiguous.

    For x >= 0 the positive and the negative coefficients of c each give a
    nondecreasing part, c = c+ - c-, so c(x) lies between c+(lo) - c-(hi)
    and c+(hi) - c-(lo).  Points left of 0 are mirrored by x -> -x, and an
    interval around 0 is split there."""
    if lo < 0:
        mirrored = tuple(-x if i % 2 else x for i, x in enumerate(c))
        if hi <= 0:
            return _filter(mirrored, -hi, -lo, den)
        s = _filter(c, 0, hi, den)
        return s if s == _filter(mirrored, 0, -lo, den) else 0
    pos = tuple(x if x > 0 else 0 for x in c)
    neg = tuple(-x if x < 0 else 0 for x in c)
    pos_lo = pl.scaled_value(pos, lo, den)
    neg_lo = pl.scaled_value(neg, lo, den)
    # the sign of c(lo) says which end of the enclosure can pass 0
    if pos_lo > neg_lo and pos_lo > pl.scaled_value(neg, hi, den):
        return 1
    if pos_lo < neg_lo and pl.scaled_value(pos, hi, den) < neg_lo:
        return -1
    return 0


# Margin, in bits, past the bit size of c before the zero test runs: a
# nonzero value is nearly always decided by the enclosure before then.
_ZERO_TEST_MARGIN = 32

# The tightest interval found so far per root, least recently used first.
_REFINED: OrderedDict = OrderedDict()
_REFINED_MAX = 256


def sign_at(c, a: AlgebraicReal) -> int:
    """Exact sign of the integer polynomial c at the root represented by a.

    First an interval enclosure of c over the isolating interval decides
    the sign whenever it excludes 0.  While it does not, the interval is
    bisected and the enclosure tried again.  Once the interval is narrower
    than 2^-(b + 32), b the bit size of the largest coefficient of c, and
    the enclosure still contains 0, one exact zero test runs: a root of
    gcd(a.poly, c) inside a's interval means c vanishes at the root.  If
    it does not, bisection goes on until the enclosure excludes 0, which
    it does once the interval is narrow enough.

    Each call starts from the tightest interval found for an equal
    AlgebraicReal and leaves its own tightest interval behind in a bounded
    memo; a itself is never changed.
    """
    c = pl.poly(c)
    if pl.is_zero(c):
        return 0
    if pl.degree(c) == 0:
        return _sign(c[0])
    box = _REFINED.pop(a, None) or _box(a)
    zero_test_bits = max(abs(x) for x in c).bit_length() + _ZERO_TEST_MARGIN
    tested = False
    try:
        while True:
            s = _filter(c, box.lo, box.hi, box.den)
            if s != 0:
                return s
            if not tested and (box.hi - box.lo) << zero_test_bits <= box.den:
                tested = True
                g = pl.poly_gcd(a.poly, c)
                if pl.degree(g) >= 1 and sturm_count(g, a.lo, a.hi) >= 1:
                    return 0
            box = _bisect(box)
    finally:
        _REFINED[a] = box
        if len(_REFINED) > _REFINED_MAX:
            _REFINED.popitem(last=False)


def floor_of(a: AlgebraicReal) -> tuple:
    """Integer part of a value >= 1, plus a flag for exact integrality."""
    if sign_at(pl.poly([-1, 1]), a) < 0:
        raise DomainError("floor_of requires a value >= 1")
    # bisect below width 1; the sign tests below reuse a's memo entry
    box = _box(a)
    while box.hi - box.lo >= box.den:
        box = _bisect(box)
    nlo = box.lo // box.den
    nhi = box.hi // box.den
    if nlo == nhi:
        # the interval might still straddle-touch nhi exactly at an endpoint;
        # the only integer the root could equal is in [nlo, nlo+1)
        t = nlo
        s = sign_at(pl.poly([-t, 1]), a)
        if s == 0:
            return t, True
        return t, False
    # exactly one integer candidate t = nhi lies inside (lo, hi)
    t = nhi
    s = sign_at(pl.poly([-t, 1]), a)
    if s == 0:
        return t, True
    if s > 0:
        return t, False
    return t - 1, False
