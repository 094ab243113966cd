"""Algebraic real numbers as (integer polynomial, isolating interval) pairs.

The polynomial need not be irreducible or square-free; the interval must
contain exactly one distinct real root.  `algebraic_real` certifies that
for `poly:` input by a Sturm count, the only use of Sturm chains;
`expansions.solve_base` certifies it by monotonicity instead.  All
decisions are exact: bisection midpoints are rationals and sign tests
never touch floating point.  Floats only propose where a root lies, and
exact signs decide whether the proposal stands.

Every interval a computation narrows to is a cell of the bisection grid
of the isolating interval, the 2^d equal cells at depth d, or a point of
that grid.  A root's first box (`_box`) is the cell about 44 bits below
the root's magnitude that a float Newton estimate points at, kept when
the exact signs of the polynomial at its two ends bracket the root (an
end where it vanishes is the root, kept as that point); otherwise the
whole isolating interval.  `floor_at` narrows it by one step rule,
`_step`: quadratic interval refinement (QIR; Abbott, ACM CCA 2014), where
the secant over the current cell picks one of nq = 2^j subcells, two sign
tests confirm it and nq is squared; a step that fails takes nq to its
square root and bisects.  Near the root each successful step doubles the
bits gained.  A step that evaluates the polynomial at the root itself, a
grid point (a dyadic root), ends the narrowing: the interval becomes that
point, lo == hi, the exact rational root.  The polynomial stepped on is the
defining one when it changes sign strictly over the isolating interval
(a root of odd multiplicity); only a root of even multiplicity needs the
square-free part.  A caller that knows a sparser multiple g a.poly, with
g of one strict sign on the interval, hands it over by `refine_on`: the
lacunary (x^k - 1) P of an approximant, whose evaluations skip its runs
of zero coefficients.  Once a zero test has found a factor that vanishes
at the root, the steps go on with that factor.  Which polynomial is
stepped on changes only the cells a step visits, never the root they
hold or an answer.  An interval over which not even the square-free part
changes sign strictly, as when a root sits at an end, cannot be narrowed
to its root: `_box` refuses it, so `refine` and `floor_at` raise there
instead of answering for another root.

Every exact decision at a root is one floor, `floor_at`: t = floor(c(r)/s)
for an integer polynomial c, clipped to lo - 1..hi - 1, and whether
c(r) = t s.  It is one loop over the memo's box, cheapest test first.
Each pass takes an interval enclosure of c over the box (`_enclose`); at
a point box, one evaluation is c's exact value.  The floor is decided
once the enclosure holds none of the integer thresholds lo..hi - 1
(scaled to the enclosure's units); over a cell on one side of 0 the
enclosure is open.  When one threshold T is left and the box is narrower
than a width tied to the bit size of c - T s, one exact zero test runs on
c - T s.  It finds c(r) = T s at once when the polynomial f that the box
steps on divides c - T s, and otherwise when h, the square-free part of
gcd(f, c - T s), changes sign over the box; then h becomes the box's f,
so a later zero at that root costs one division.  Any other pass takes
one step.  `sign_at` is the floor with the one threshold 0, and `cell`
the floor of a linear polynomial, the index of the grid cell at the
depth asked for: its answer for a width num/den is the interval plain
bisection gives, that cell or, at a dyadic root, the thin interval
bisection keeps around a midpoint root, in closed form, as integers.
The grid it cuts is any interval that holds the root, apart from the
AlgebraicReal that keys the memo, so cells of successive grids share one
box.  `refine` is `cell` of a's own grid under the key a, as Fractions.

One bounded memo, `_REFINED`, keeps the tightest interval found for each
root, a cell or a point, with the polynomial stepped on, its values at
the interval's ends and its nq; it is the only cache in the exact core
that outlives a call.  `floor_at` reads and writes it, and `refine_on`
files a root's first box in it, also under the AlgebraicReal it returns.
Each call starts from it and leaves its own tightest interval behind, so
successive calls at one root share the work, and a dyadic root or a
vanishing factor found by one call is known to the next; the memo never
changes an AlgebraicReal or a result.  An AlgebraicReal hashes its
fields once, as every memo lookup hashes it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isfinite, lcm
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
        # Fraction(x) of a Fraction would copy it, through an ABC check
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))

    @cached_property
    def _hash(self) -> int:
        return hash((self.poly, self.lo, self.hi))

    def __hash__(self) -> int:
        # the dataclass hash, taken once: every memo lookup hashes a
        return self._hash


def algebraic_real(poly_coeffs, lo, hi) -> AlgebraicReal:
    """The root of poly_coeffs in (lo, hi), certified by a Sturm count."""
    a = AlgebraicReal(pl.poly(poly_coeffs), Fraction(lo), Fraction(hi))
    if sturm_count(a.poly, a.lo, a.hi) != 1:
        raise ValueError("interval does not isolate exactly one root")
    return a


class _Box(NamedTuple):
    """An isolating interval (lo/den, hi/den) in integer form, with f a
    polynomial that changes sign at the root, vlo and vhi its values
    den^deg f at lo/den and hi/den, and nq the number of subcells the next
    QIR step splits the interval into.  f is a.poly, its square-free part,
    the vanishing factor a zero test found, or a multiple g a.poly whose
    cofactor g has one strict sign on a's closed interval (`refine_on`):
    in every case f has no root in the interval but r, and it changes sign
    strictly at r.  A cell has lo < hi and vlo, vhi of opposite signs;
    lo == hi is a point, the exact root, where vlo = vhi = 0 and no step
    applies."""

    f: tuple
    lo: int
    hi: int
    den: int
    vlo: int
    vhi: int
    nq: int = 4


def grid(a: AlgebraicReal) -> tuple:
    """a's interval as integer numerators (lo, hi) over one denominator."""
    den = lcm(a.lo.denominator, a.hi.denominator)
    return (a.lo.numerator * (den // a.lo.denominator),
            a.hi.numerator * (den // a.hi.denominator), den)


def _box(a: AlgebraicReal, f: tuple) -> _Box:
    """a's interval in integer form, bisected by f, a.poly or a multiple of
    it that has no other root in the interval, when f changes sign
    strictly over the interval.

    With one distinct root r inside, f = (x - r)^k g with g of one
    sign on the closed interval, so a strict sign change means k is odd:
    f then has the sign of (x - r) times a constant, like the square-free
    part of a.poly, and keeps the same halves.  No sign change (k even)
    falls back to that square-free part, which changes sign strictly at r.
    An interval where even that part has no strict sign change cannot be
    narrowed to r, and is refused: with `EndpointRootError` when a.poly
    vanishes at an end, and `DomainError` otherwise, when the interval
    holds an even number of distinct roots.  Of that interval, `_propose`
    keeps the cell 44 bits below r's magnitude that a float estimate of r
    falls in, once exact signs at its ends confirm it: QIR then starts
    from 2^16 subcells of it, where from the whole interval it would need
    several steps to gain those bits.  This is the box a root starts
    from when the memo holds none; a zero test in `floor_at` may later
    replace its f by a factor that vanishes at r."""
    lo, hi, den = grid(a)
    vlo, vhi = pl.scaled_value(f, lo, den), pl.scaled_value(f, hi, den)
    if _sign(vlo) * _sign(vhi) >= 0:
        f = pl.squarefree_part(a.poly)
        vlo, vhi = pl.scaled_value(f, lo, den), pl.scaled_value(f, hi, den)
        if vlo == 0 or vhi == 0:
            raise EndpointRootError(
                "interval endpoint is a root; perturb the endpoints")
        if _sign(vlo) == _sign(vhi):
            raise DomainError("no sign change over the isolating interval")
    return _propose(_Box(f, lo, hi, den, vlo, vhi))


# The proposed cell is this many bits narrower than the root's magnitude,
# 9 bits above the resolution of a float's 53; its first QIR step splits it
# into _PROPOSAL_NQ subcells.
_PROPOSAL_BITS = 44
_PROPOSAL_NQ = 1 << 16
_NEWTON_STEPS = 64


def _newton(g: list, a: float, b: float, sa: int):
    """A float root of g (highest coefficient first) between a < b, where
    g has the sign sa at a and -sa at b; None on an overflow or a NaN.

    Newton's method from the midpoint, safeguarded as in rtsafe (Press et
    al., Numerical Recipes, 9.4): each iterate's float sign narrows the
    bracket, and a step that leaves it, or is not at most half the step
    two before, bisects instead, so a steep g such as x^n - c, where
    Newton gains only a factor 1 - 1/n per step far from the root, still
    converges."""
    x = (a + b) / 2
    last = before = b - a
    for _ in range(_NEWTON_STEPS):
        v = dv = 0.0
        for c in g:
            dv = dv * x + v
            v = v * x + c
        if not (isfinite(v) and isfinite(dv)):
            return None
        if v == 0:
            return x
        if (v > 0) == (sa > 0):
            a = x
        else:
            b = x
        nx = x - v / dv if dv else x
        if not a < nx < b or 2 * abs(nx - x) > abs(before):
            nx = (a + b) / 2
        last, before = nx - x, last
        if abs(last) <= abs(x) * 2.0 ** -52:
            return nx
        x = nx
    return x


def _float_root(box: _Box):
    """A float estimate of the root in the cell box, or None.  Right of 1
    Newton runs on y^k f(1/y) in y = 1/x, whose values stay within float
    range where f's overflow at high degree; elsewhere on f in x."""
    f, lo, hi, den, vlo, vhi, _ = box
    try:
        if lo >= den:
            # y^k f(1/y) has f's sign for y > 0, so vhi's at den/hi
            y = _newton([float(c) for c in f], den / hi, den / lo,
                        _sign(vhi))
            return None if y is None else 1 / y
        return _newton([float(c) for c in reversed(f)], lo / den, hi / den,
                       _sign(vlo))
    except (OverflowError, ZeroDivisionError):
        return None


def _propose(box: _Box) -> _Box:
    """The cell of box's grid about _PROPOSAL_BITS bits below the root's
    magnitude that holds a float estimate of the root, when exact signs at
    its two ends show that it holds the root; else box itself.

    Floats only propose: the cell is kept, with nq = _PROPOSAL_NQ, when
    f's exact values at its ends have opposite signs, and an end where f
    vanishes is the root (f has no zero at box's own ends), kept as that
    point.  An estimate that overflows, is not finite or lies outside box,
    and a failed check, leave box; so does a box already narrower than a
    float resolves, before any evaluation."""
    f, lo, hi, den = box[:4]
    w = hi - lo
    if max(abs(lo), abs(hi)) > w << _PROPOSAL_BITS:
        return box
    x = _float_root(box)
    if x is None or not isfinite(x):
        return box
    p, q = x.as_integer_ratio()
    # depth t: cells of width w / (den 2^t) about |x| 2^-_PROPOSAL_BITS
    t = ((w * q).bit_length() - (den * abs(p)).bit_length()
         + _PROPOSAL_BITS)
    if t < 1:
        return box
    i = ((p * den - lo * q) << t) // (q * w)
    if not 0 <= i < 1 << t:
        return box
    clo, cden = (lo << t) + i * w, den << t
    vclo = pl.scaled_value(f, clo, cden)
    if vclo == 0:
        return _Box(f, clo, clo, cden, 0, 0, _PROPOSAL_NQ)
    vchi = pl.scaled_value(f, clo + w, cden)
    if vchi == 0:
        return _Box(f, clo + w, clo + w, cden, 0, 0, _PROPOSAL_NQ)
    if _sign(vclo) * _sign(vchi) < 0:
        return _Box(f, clo, clo + w, cden, vclo, vchi, _PROPOSAL_NQ)
    return box


def _bisect(box: _Box) -> _Box:
    """One bisection step.  The root is a sign change of f, so the half
    without a sign change is discarded; a root at the midpoint is returned
    as that point."""
    f, lo, hi, den, vlo, vhi, nq = box
    k = len(f) - 1
    mid = lo + hi
    vmid = pl.scaled_value(f, mid, 2 * den)
    if vmid == 0:
        return _Box(f, mid, mid, 2 * den, 0, 0, nq)
    if _sign(vlo) != _sign(vmid):
        return _Box(f, 2 * lo, mid, 2 * den, vlo << k, vmid, nq)
    return _Box(f, mid, 2 * hi, 2 * den, vmid, vhi << k, nq)


def _qir(box: _Box):
    """One step of quadratic interval refinement (Abbott, ACM CCA 2014).

    The secant of f over the interval points at one of its nq = 2^j equal
    subcells; the values at that subcell's two ends confirm it, and cost
    one evaluation each, none at an end of the interval itself.  Returns
    the subcell with nq squared; the point itself when an evaluated point
    is the root, a grid point; and None when the subcell holds no sign
    change."""
    f, lo, hi, den, vlo, vhi, nq = box
    j = nq.bit_length() - 1
    w, shift, slo = hi - lo, j * (len(f) - 1), _sign(vlo)

    def value(i):
        if i == 0:
            return vlo << shift
        if i == nq:
            return vhi << shift
        return pl.scaled_value(f, (lo << j) + i * w, den << j)

    def root(i):
        x = (lo << j) + i * w
        return _Box(f, x, x, den << j, 0, 0, nq)

    # the subcell end nearest the secant's root: round(nq vlo / (vlo - vhi))
    m = (2 * nq * vlo + vlo - vhi) // (2 * (vlo - vhi))
    vm = value(m)
    if vm == 0:
        return root(m)
    i = m if _sign(vm) == slo else m - 1
    o = m + 1 if i == m else m - 1
    vo = value(o)
    if vo == 0:
        return root(o)
    vi, vi1 = (vm, vo) if i == m else (vo, vm)
    if _sign(vi) != slo or _sign(vi1) == slo:
        return None
    return _Box(f, (lo << j) + i * w, (lo << j) + (i + 1) * w, den << j,
                vi, vi1, nq * nq)


def _step(box: _Box) -> _Box:
    """The one narrowing step of `floor_at`, on a cell: a QIR step, or,
    when it fails, one bisection with nq at its square root.  Either may
    end on the root as a point."""
    return _qir(box) or _bisect(
        box._replace(nq=max(4, 1 << (box.nq.bit_length() - 1) // 2)))


# The tightest interval found so far per root, least recently used first.
_REFINED: OrderedDict = OrderedDict()
_REFINED_MAX = 256


def _file(a: AlgebraicReal, box: _Box) -> None:
    """Keep box as the memo's box for a, evicting the least recently used
    entry past _REFINED_MAX."""
    _REFINED[a] = box
    if len(_REFINED) > _REFINED_MAX:
        _REFINED.popitem(last=False)


def cell(a: AlgebraicReal, lo0: int, hi0: int, den0: int, num: int,
         den: int) -> tuple:
    """(lo, hi, d): the interval plain bisection of the grid
    (lo0/den0, hi0/den0) stops at around a's root r, at the first depth t
    whose cells are no wider than num/den > 0, as integers over one
    denominator d; at t = 0 the grid itself.

    The grid is any interval that holds r strictly inside, such as one that
    `refine` or `cell` returned for r; a is only the key of the memo's box,
    so cells of many grids share one box.  With w = hi0 - lo0, cell i at
    depth t is [lo0 2^t + i w, lo0 2^t + (i + 1) w] / (den0 2^t), so the
    cell that holds r is i = floor(c(r) / w) for the linear
    c(x) = 2^t (den0 x - lo0), 0 <= i < 2^t: `floor_at(c, w, a, 0, 2^t)`.
    When c(r) is not i w, r lies strictly inside cell i, which bisection
    keeps at every depth down to t: the answer is cell i.  When c(r) = i w,
    r is grid point i (i > 0, as r is inside the grid), on the grid from
    depth d0 = t - v2(i) on (a dyadic root).  Bisection meets r as a
    midpoint at depth d0 and keeps a thin interval centred on it, which
    each further bisection narrows to a quarter: the answer has half-width
    w / (den0 2^e), e = d0 + 2 + 2 ((t - d0) // 2) > t, in closed form.
    """
    w = hi0 - lo0
    # the least t with w / (den0 2^t) <= num / den
    t = (-(-w * den // (num * den0)) - 1).bit_length()
    if t == 0:
        return lo0, hi0, den0
    i, exact = floor_at((-lo0 << t, den0 << t), w, a, 0, 1 << t)
    lo = (lo0 << t) + i * w
    if not exact:
        return lo, lo + w, den0 << t
    d0 = t - ((i & -i).bit_length() - 1)
    e = d0 + 2 + 2 * ((t - d0) // 2)
    r = lo << (e - t)
    return r - w, r + w, den0 << e


def refine(a: AlgebraicReal, eps) -> AlgebraicReal:
    """Shrink the isolating interval to width <= eps; same root, new value.

    The result is the interval plain bisection of a's interval stops at,
    at the first depth whose cells are no wider than eps: `cell` of a's
    own grid, under the key a, as Fractions.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    g = grid(a)
    lo, hi, den = cell(a, *g, eps.numerator, eps.denominator)
    if (lo, hi, den) == g:
        return a
    return AlgebraicReal(a.poly, Fraction(lo, den), Fraction(hi, den))


def refine_on(a: AlgebraicReal, g: tuple, eps) -> AlgebraicReal:
    """refine(a, eps), whose steps at a's root, when the memo holds no box
    for a, start on the multiple g a.poly if the integer polynomial g has
    one strict sign on a's closed interval, and on a.poly otherwise.  The
    box is filed under the AlgebraicReal returned too, unless the memo
    holds one for it already, so later calls with either start from there.

    A strict sign of g is read off its enclosure (`_enclose`) over the
    interval.  g a.poly then has a.poly's roots there and no other, and at
    every point the sign of a.poly times that of g, so it changes sign at r
    where a.poly does; the steps visit other cells, as the secant differs,
    but every answer is the same.  A sparse multiple is cheaper to evaluate
    than a.poly, as (x^k - 1) P is for a P whose coefficients repeat with
    period k."""
    if a not in _REFINED:
        lo, hi, den = grid(a)
        low, high = _enclose(g, lo, hi, den)
        f = pl.multiply(g, a.poly) if low > 0 or high < 0 else a.poly
        _file(a, _box(a, f))
    r = refine(a, eps)
    if r not in _REFINED:
        _file(r, _REFINED[a])
    return r


def _enclose(c: tuple, lo: int, hi: int, den: int) -> tuple:
    """(A, B) with A <= den^k c(x) <= B for every x in [lo/den, hi/den],
    k = len(c) - 1: an interval enclosure of c, one evaluation per end of
    each of two parts.  At a point, lo == hi, A = B is the exact value.

    For x >= 0 the positive and the negative coefficients of c each give a
    nondecreasing part, c = c+ - c-, so c(x) lies between c+(lo) - c-(hi)
    and c+(hi) - c-(lo).  Points left of 0 are mirrored by x -> -x, and an
    interval around 0 is split there."""
    if lo < 0:
        mirrored = tuple(-x if i % 2 else x for i, x in enumerate(c))
        if hi <= 0:
            return _enclose(mirrored, -hi, -lo, den)
        a1, b1 = _enclose(mirrored, 0, -lo, den)
        a2, b2 = _enclose(c, 0, hi, den)
        return min(a1, a2), max(b1, b2)
    # c+ and c- at both ends in one pass of Horner's rule, homogenized as
    # in `polynomials.scaled_value`
    pos_lo = neg_lo = pos_hi = neg_hi = 0
    dk = 1
    for x in reversed(c):
        pos_lo *= lo
        neg_lo *= lo
        pos_hi *= hi
        neg_hi *= hi
        if x > 0:
            pos_lo += x * dk
            pos_hi += x * dk
        elif x < 0:
            neg_lo -= x * dk
            neg_hi -= x * dk
        dk *= den
    return pos_lo - neg_hi, pos_hi - neg_lo


# Margin, in bits, past the bit size of c - T s before the zero test runs:
# a floor is nearly always decided by the enclosure before then.
_ZERO_TEST_MARGIN = 32


def _clip(v: int, S: int, lo: int, hi: int) -> tuple:
    """(t, v == t S) for t = floor(v / S) clipped to lo - 1..hi - 1; a t
    clipped to lo - 1 is never exact."""
    t = v // S
    if t < lo:
        return lo - 1, False
    if t >= hi:
        return hi - 1, False
    return t, v == t * S


def floor_at(c, s: int, a: AlgebraicReal, lo: int, hi: int) -> tuple:
    """(t, c(r) == t s) for t = floor(c(r) / s) clipped to lo - 1..hi - 1,
    at the root r of a, for an integer polynomial c and an integer s > 0.

    A constant c is one floor division.  Otherwise each pass over the memo's
    box for a, with S = s den^k, k = deg c: at a point box, the exact value
    den^k c(r) is one evaluation.  Over a cell, `_enclose` gives
    A <= den^k c(r) <= B, and the floor is decided once the enclosure holds
    no threshold T S, lo <= T < hi; a floor so decided is never exact.
    Over a cell with lo >= 0 the enclosure is open, A < den^k c(r) < B, so
    a threshold equal to A or B is excluded: r lies strictly inside the
    cell, and on [0, inf) the part c+ or c- that holds a nonconstant term
    of c is strictly increasing, the other nondecreasing.  The mirror gives
    the same for hi <= 0.  A cell around 0 keeps the closed enclosure
    [A, B], as c(0) can be an end of it (x^2 over (-1, 2) has A = 0).

    With one T left, once the cell is narrower than 2^-(b + 32), b the bit
    size of the largest coefficient of c - T s, one zero test runs.  The
    polynomial f the box steps on vanishes at r and has no other root in
    a's closed interval, which holds the cell (`_Box`; for a multiple
    g a.poly, g has one strict sign there).  When f divides c - T s,
    c(r) = T s.  Otherwise let h = squarefree_part(gcd(f, c - T s)).  h
    divides f, so the only root h can have in the closed cell is r, and a
    simple one, as h is square-free; so h changes sign strictly over the
    cell exactly when h(r) = 0.  And h(r) = 0 exactly when x - r divides
    both f and c - T s, that is when c(r) = T s, as f(r) = 0.  Then h
    vanishes at r with no other root in the interval, and becomes the
    box's f.  Any other pass takes one step (`_step`), which narrows the
    enclosure until it excludes T.

    Each call starts from the tightest box found for an equal AlgebraicReal
    and leaves its own behind in a bounded memo; a itself is never changed.
    A box that `_box` refuses raises `EndpointRootError` or `DomainError`.
    """
    c = pl.poly(c)
    if len(c) <= 1:
        return _clip(c[0] if c else 0, s, lo, hi)
    box = _REFINED.pop(a, None) or _box(a, a.poly)
    tested = False
    try:
        while True:
            S = s * box.den ** (len(c) - 1)
            if box.lo == box.hi:
                return _clip(pl.scaled_value(c, box.lo, box.den), S, lo, hi)
            low, high = _enclose(c, box.lo, box.hi, box.den)
            # the thresholds T S inside the enclosure are T = first..last;
            # over a cell on one side of 0 it is open, o = 1
            o = int(box.lo >= 0 or box.hi <= 0)
            first = max(lo, -((-low - o) // S))
            last = min(hi - 1, (high - o) // S)
            if first > last:
                return _clip(low, S, lo, hi)[0], False
            if first == last and not tested:
                d = (c[0] - first * s,) + c[1:]
                bits = max(map(abs, d)).bit_length() + _ZERO_TEST_MARGIN
                if (box.hi - box.lo) << bits <= box.den:
                    tested = True
                    if pl.divides(box.f, d):
                        return first, True
                    h = pl.squarefree_part(pl.poly_gcd(box.f, d))
                    vlo = pl.scaled_value(h, box.lo, box.den)
                    vhi = pl.scaled_value(h, box.hi, box.den)
                    if _sign(vlo) * _sign(vhi) < 0:
                        box = box._replace(f=h, vlo=vlo, vhi=vhi)
                        return first, True
            box = _step(box)
    finally:
        _file(a, box)


def sign_at(c, a: AlgebraicReal) -> int:
    """Exact sign of the integer polynomial c at the root represented by a:
    `floor_at` with the one threshold 0."""
    t, exact = floor_at(c, 1, a, 0, 1)
    return -1 if t < 0 else 0 if exact else 1
