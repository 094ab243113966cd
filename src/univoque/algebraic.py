"""Algebraic real numbers as (integer polynomial, isolating interval) pairs.

The polynomial need not be irreducible or square-free; the interval must
contain exactly one distinct real root.  `algebraic_real` certifies that
for `poly:` input by a Sturm count, the only use of Sturm chains;
`expansions.solve_base` certifies it by monotonicity instead.  All
decisions are exact: bisection midpoints are rationals and sign tests
never touch floating point.

Every interval a computation narrows to is a cell of the bisection grid
of the isolating interval: the 2^d equal cells at depth d.  `refine`
steps by quadratic interval refinement (QIR; Abbott, ACM CCA 2014): the
secant over the current cell picks one of nq = 2^j subcells, two sign
tests confirm it and nq is squared; a step that fails takes nq to its
square root and bisects.  Near the root each successful step doubles the
bits gained.  The answer for a width eps is the ancestor, at the depth
where plain bisection stops, of the deepest cell found: the interval
bisection gives, at no further sign test.  Only a root at a grid point
(a dyadic root) leaves the grid, through the thin interval bisection
keeps around a midpoint root.  The polynomial stepped on is the defining
one when it changes sign strictly over the isolating interval (a root of
odd multiplicity); only a root of even multiplicity needs the square-free
part.

The sign of an integer polynomial c at the root is decided in three
stages, cheapest first.  An interval enclosure of c over the isolating
interval decides it whenever the enclosure excludes 0.  Otherwise the
interval is bisected and the enclosure is tried again.  Once the
interval is narrower than a width tied to the bit size of c and the
enclosure still contains 0, one exact zero test settles whether c
vanishes at the root: the square-free part of gcd(a.poly, c) changes sign
over the interval.

One bounded memo keeps the tightest interval found for each root, with
the polynomial's values at its ends and QIR's current nq.  `sign_at` and
`refine` both start from it and leave their own tightest interval
behind, so successive calls at one root share the work; the memo never
changes an AlgebraicReal or a result.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm
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
    return (pl.sign_variations(chain, lo.numerator, lo.denominator)
            - pl.sign_variations(chain, hi.numerator, hi.denominator))


@dataclass(frozen=True)
class AlgebraicReal:
    """A real root of an integer polynomial, pinned by an isolating interval."""

    poly: tuple
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))


def algebraic_real(poly_coeffs, lo, hi) -> AlgebraicReal:
    """The root of poly_coeffs in (lo, hi), certified by a Sturm count."""
    a = AlgebraicReal(pl.poly(poly_coeffs), Fraction(lo), Fraction(hi))
    if sturm_count(a.poly, a.lo, a.hi) != 1:
        raise ValueError("interval does not isolate exactly one root")
    return a


class _Box(NamedTuple):
    """An isolating interval (lo/den, hi/den) in integer form, with f a
    polynomial that changes sign at the root, vlo and vhi its values
    den^deg f at lo/den and hi/den (of opposite signs), and nq the number
    of subcells the next QIR step of `refine` splits the interval into."""

    f: tuple
    lo: int
    hi: int
    den: int
    vlo: int
    vhi: int
    nq: int = 4


def _grid(a: AlgebraicReal) -> tuple:
    """a's interval as integer numerators (lo, hi) over one denominator."""
    den = lcm(a.lo.denominator, a.hi.denominator)
    return (a.lo.numerator * (den // a.lo.denominator),
            a.hi.numerator * (den // a.hi.denominator), den)


def _box(a: AlgebraicReal) -> _Box:
    """a's interval in integer form, bisected by a.poly itself when it
    changes sign strictly over the interval.

    With one distinct root r inside, a.poly = (x - r)^k g with g of one
    sign on the closed interval, so a strict sign change means k is odd:
    a.poly then has the sign of (x - r) times a constant, like its
    square-free part, and keeps the same halves.  No sign change (k even,
    or a root at an endpoint) falls back to the square-free part."""
    lo, hi, den = _grid(a)
    f = a.poly
    vlo, vhi = pl.scaled_value(f, lo, den), pl.scaled_value(f, hi, den)
    if _sign(vlo) * _sign(vhi) >= 0:
        f = pl.squarefree_part(a.poly)
        vlo, vhi = pl.scaled_value(f, lo, den), pl.scaled_value(f, hi, den)
    return _Box(f, lo, hi, den, vlo, vhi)


def _bisect(box: _Box) -> _Box:
    """One bisection step.  The root is a sign change of f, so the half
    without a sign change is discarded."""
    f, lo, hi, den, vlo, vhi, nq = box
    k = len(f) - 1
    mid = lo + hi
    vmid = pl.scaled_value(f, mid, 2 * den)
    if vmid == 0:
        # the midpoint IS the root; keep a thin interval around it
        lo, hi, den = 5 * lo + 3 * hi, 3 * lo + 5 * hi, 8 * den
        return _Box(f, lo, hi, den, pl.scaled_value(f, lo, den),
                    pl.scaled_value(f, hi, den), nq)
    if _sign(vlo) != _sign(vmid):
        return _Box(f, 2 * lo, mid, 2 * den, vlo << k, vmid, nq)
    return _Box(f, mid, 2 * hi, 2 * den, vmid, vhi << k, nq)


def _qir(box: _Box):
    """One step of quadratic interval refinement (Abbott, ACM CCA 2014).

    The secant of f over the interval points at one of its nq = 2^j equal
    subcells; the values at that subcell's two ends confirm it, and cost
    one evaluation each, none at an end of the interval itself.  Returns
    the subcell with nq squared; None when the subcell holds no sign
    change; and 0 when an evaluated point is the root."""
    f, lo, hi, den, vlo, vhi, nq = box
    j = nq.bit_length() - 1
    w, shift, slo = hi - lo, j * (len(f) - 1), _sign(vlo)

    def value(i):
        if i == 0:
            return vlo << shift
        if i == nq:
            return vhi << shift
        return pl.scaled_value(f, (lo << j) + i * w, den << j)

    # the subcell end nearest the secant's root: round(nq vlo / (vlo - vhi))
    m = (2 * nq * vlo + vlo - vhi) // (2 * (vlo - vhi))
    vm = value(m)
    if vm == 0:
        return 0
    i = m if _sign(vm) == slo else m - 1
    vo = value(m + 1 if i == m else m - 1)
    if vo == 0:
        return 0
    vi, vi1 = (vm, vo) if i == m else (vo, vm)
    if _sign(vi) != slo or _sign(vi1) == slo:
        return None
    return _Box(f, (lo << j) + i * w, (lo << j) + (i + 1) * w, den << j,
                vi, vi1, nq * nq)


def _is_cell(box: _Box, lo: int, hi: int, den: int) -> bool:
    """Whether box is a cell of the bisection grid of (lo/den, hi/den)."""
    r, off = divmod(box.den, den)
    return (off == 0 and r & (r - 1) == 0 and box.hi - box.lo == hi - lo
            and (box.lo - lo * r) % (hi - lo) == 0)


# The tightest interval found so far per root, least recently used first.
_REFINED: OrderedDict = OrderedDict()
_REFINED_MAX = 256


def _remember(a: AlgebraicReal, box: _Box) -> None:
    """Keep box as the tightest interval found for a, within the bound."""
    _REFINED[a] = box
    if len(_REFINED) > _REFINED_MAX:
        _REFINED.popitem(last=False)


def refine(a: AlgebraicReal, eps) -> AlgebraicReal:
    """Shrink the isolating interval to width <= eps; same root, new value.

    The result is the interval plain bisection of a's interval stops at:
    the cell of its grid that holds the root, at the first depth t whose
    cells are no wider than eps.  QIR steps (`_qir`), with one bisection
    for each step that fails, find a cell at depth t or below, starting
    from the memo's cell for a when that is a cell of a's grid; the answer
    is its ancestor at depth t.  Once a grid point proves to be the root,
    bisection alone finishes the call, through the thin intervals it
    keeps around a midpoint root.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    lo0, hi0, den0 = _grid(a)
    w = hi0 - lo0
    # the least t with w / (den0 2^t) <= eps
    t = (-(-w * eps.denominator // (eps.numerator * den0)) - 1).bit_length()
    if t == 0:
        return a
    box = _REFINED.pop(a, None)
    if box is None or not _is_cell(box, lo0, hi0, den0):
        box = _box(a)
    dyadic = False
    try:
        while (box.hi - box.lo) * eps.denominator > eps.numerator * box.den:
            step = None if dyadic else _qir(box)
            if step:
                box = step
                continue
            box = _bisect(box._replace(
                nq=max(4, 1 << (box.nq.bit_length() - 1) // 2)))
            # a root at a grid point, or a thin interval around a midpoint
            # root (off the grid), leaves only bisection
            dyadic = dyadic or step == 0 or box.hi - box.lo != w
    finally:
        _remember(a, box)
    if dyadic:
        return AlgebraicReal(a.poly, Fraction(box.lo, box.den),
                             Fraction(box.hi, box.den))
    # the ancestor at depth t of the cell at depth d = log2(box.den / den0)
    d = (box.den // den0).bit_length() - 1
    lo = (lo0 << t) + ((box.lo - (lo0 << d)) // w >> (d - t)) * w
    return AlgebraicReal(a.poly, Fraction(lo, den0 << t),
                         Fraction(lo + w, den0 << t))


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


def sign_at(c, a: AlgebraicReal) -> int:
    """Exact sign of the integer polynomial c at the root represented by a.

    First an interval enclosure of c over the isolating interval decides
    the sign whenever it excludes 0.  While it does not, the interval is
    bisected and the enclosure tried again.  Once the interval is narrower
    than 2^-(b + 32), b the bit size of the largest coefficient of c, and
    the enclosure still contains 0, one exact zero test runs on
    h = squarefree_part(gcd(a.poly, c)).  The interval isolates one
    distinct root of a.poly and h divides a.poly, so a root of h inside
    it is that root, simple in h: c vanishes at the root exactly when h
    changes sign strictly over the interval.  If it does not, bisection
    goes on until the enclosure excludes 0, which it does once the
    interval is narrow enough.

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
                h = pl.squarefree_part(pl.poly_gcd(a.poly, c))
                if (_sign(pl.scaled_value(h, box.lo, box.den))
                        * _sign(pl.scaled_value(h, box.hi, box.den)) < 0):
                    return 0
            box = _bisect(box)
    finally:
        _remember(a, box)


def floor_of(a: AlgebraicReal) -> tuple:
    """Integer part of a value >= 1, plus a flag for exact integrality.

    At width <= 1 the interval (lo, hi) holds the root r in (hi - 1, hi),
    so with t = floor(hi) the integer part is t when r >= t and t - 1
    otherwise; one sign test of r - t decides which, and whether r = t."""
    t = floor(refine(a, 1).hi)
    s = sign_at(pl.poly([-t, 1]), a)
    if s < 0:
        t -= 1
    if t < 1:
        raise DomainError("floor_of requires a value >= 1")
    return t, s == 0
