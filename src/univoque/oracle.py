"""Brute-force enumeration of all expansions of 1, as an independent oracle.

Branch-and-bound over digit prefixes: a prefix c_1..c_n is viable iff the
scaled residual r_n = q^n (1 - sum c_i q^{-i}) can still be completed,
i.e. 0 <= r_n <= M / (q - 1) with M the digit cap.  Everything is decided
exactly; an interval-valued base gives a conservative (never-prune-a-real-
expansion) variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebraic import AlgebraicReal, DomainError, floor_of, reduce_mod, \
    sign_of_fraction_poly
from .expansions import coerce_base


@dataclass(frozen=True)
class PrefixTree:
    depth: int
    levels: tuple          # per level: tuple of digit-prefix tuples, or None
    counts: tuple          # per level: number of viable prefixes
    exhaustive: bool


class _RationalBase:
    def __init__(self, q: Fraction):
        if q <= 1:
            raise DomainError("oracle requires q > 1")
        self.q = q
        self.cap = q.numerator // q.denominator
        self.tail_max = Fraction(self.cap, 1) / (q - 1)

    def root(self):
        return Fraction(1)

    def step(self, r, c):
        return self.q * r - c

    def viable(self, r, strict_positive=False) -> bool:
        low_ok = r > 0 if strict_positive else r >= 0
        return low_ok and r <= self.tail_max


class _AlgebraicBase:
    def __init__(self, a: AlgebraicReal):
        if sign_of_fraction_poly([Fraction(-1), Fraction(1)], a) <= 0:
            raise DomainError("oracle requires q > 1")
        self.a = a
        self.f = a.poly
        self.cap, _ = floor_of(a)

    def root(self):
        d = len(self.f) - 1
        r = [Fraction(0)] * d
        r[0] = Fraction(1)
        return tuple(r)

    def step(self, r, c):
        shifted = [Fraction(0)] + list(r)
        out = reduce_mod(shifted, self.f)
        out[0] -= c
        return tuple(out)

    def _sign(self, coeffs) -> int:
        if all(x == 0 for x in coeffs):
            return 0
        return sign_of_fraction_poly(list(coeffs), self.a)

    def viable(self, r, strict_positive=False) -> bool:
        s = self._sign(r)
        if s < 0 or (strict_positive and s == 0):
            return False
        # r <= M/(q-1)  <=>  r*(q-1) - M <= 0
        shifted = [Fraction(0)] + list(r)
        rq = reduce_mod(shifted, self.f)
        expr = [rq[i] - r[i] for i in range(len(r))]
        expr[0] -= self.cap
        return self._sign(expr) <= 0


class _IntervalBase:
    """Base known only within a rational interval (lo, hi), 1 < lo < hi.
    Residuals become intervals; pruning happens only on certain violations,
    so a 'unique prefix' verdict is sound for the true base inside."""

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo <= 1:
            raise DomainError("interval base must lie right of 1")
        if int(lo) != int(hi):
            raise DomainError("digit cap must be constant over the interval")
        self.lo, self.hi = lo, hi
        self.cap = hi.numerator // hi.denominator
        self.tail_max = Fraction(self.cap, 1) / (lo - 1)

    def root(self):
        return (Fraction(1), Fraction(1))

    def step(self, r, c):
        rlo, rhi = r
        prods = (self.lo * rlo, self.lo * rhi, self.hi * rlo, self.hi * rhi)
        return (min(prods) - c, max(prods) - c)

    def viable(self, r, strict_positive=False) -> bool:
        rlo, rhi = r
        if rhi < 0 or (strict_positive and rhi <= 0):
            return False
        return rlo <= self.tail_max


def _adapter(base):
    if isinstance(base, tuple) and len(base) == 2:
        return _IntervalBase(Fraction(base[0]), Fraction(base[1]))
    b = coerce_base(base)
    if isinstance(b, AlgebraicReal):
        return _AlgebraicBase(b)
    return _RationalBase(b)


def enumerate_expansions(base, depth: int, level_cap: int = 100_000,
                         counts_only: bool = False,
                         strict_positive: bool = False) -> PrefixTree:
    """All viable digit prefixes of expansions of 1, level by level."""
    if depth < 0:
        raise DomainError("depth must be >= 0, got %d" % depth)
    ad = _adapter(base)
    frontier = [((), ad.root())]
    levels, counts = [], []
    exhaustive = True
    for _ in range(depth):
        nxt = []
        for prefix, r in frontier:
            for c in range(ad.cap, -1, -1):
                child = ad.step(r, c)
                if ad.viable(child, strict_positive):
                    nxt.append((prefix + (c,), child))
        nxt.sort(key=lambda pr: pr[0])
        if len(nxt) > level_cap:
            nxt = nxt[:level_cap]
            exhaustive = False
        frontier = nxt
        counts.append(len(frontier))
        levels.append(None if counts_only
                      else tuple(p for p, _ in frontier))
    return PrefixTree(depth, tuple(levels), tuple(counts), exhaustive)


def certify_unique_prefix(base, depth: int, level_cap: int = 100_000) -> bool:
    """True iff exactly one viable prefix survives at every level: a
    depth-bounded necessary condition for univoqueness (sound refutation)."""
    tree = enumerate_expansions(base, depth, level_cap, counts_only=True)
    return tree.exhaustive and all(c == 1 for c in tree.counts)


def greedy_via_oracle(base, depth: int, strict_positive: bool = False) -> tuple:
    """Lexicographically largest viable prefix, following the largest
    viable digit level by level."""
    ad = _adapter(base)
    r = ad.root()
    digits = []
    for _ in range(depth):
        for c in range(ad.cap, -1, -1):
            child = ad.step(r, c)
            if ad.viable(child, strict_positive):
                digits.append(c)
                r = child
                break
        else:
            raise RuntimeError("no viable digit: invariant violated")
    return tuple(digits)
