"""Brute-force enumeration of all expansions of 1, as an independent oracle.

Branch-and-bound over digit prefixes: a prefix c_1..c_n is viable iff the
scaled residual r_n = q^n (1 - sum c_i q^{-i}) can still be completed,
i.e. 0 <= r_n <= M / (q - 1) with M the digit cap.  The residuals use the
arithmetic of `expansions` (RationalBase, AlgebraicBase), so everything is
decided exactly; the rule itself is this module's own, not the greedy floor
rule.  An interval-valued base gives a conservative (never-prune-a-real-
expansion) variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebraic import DomainError
from .expansions import base_arithmetic, q_minus_1_sign

# the default bound on the prefixes kept per level
LEVEL_CAP = 100_000


@dataclass(frozen=True)
class PrefixTree:
    depth: int
    levels: tuple          # per level: tuple of digit-prefix tuples, or None
    counts: tuple          # per level: number of viable prefixes
    exhaustive: bool


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

    def times_q(self, r):
        rlo, rhi = r
        prods = (self.lo * rlo, self.lo * rhi, self.hi * rlo, self.hi * rhi)
        return (min(prods), max(prods))

    def minus(self, x, c):
        return (x[0] - c, x[1] - c)

    def sign(self, x) -> int:
        """+1 or -1 when the whole interval has that sign, else 0."""
        return 1 if x[0] > 0 else -1 if x[1] < 0 else 0


def _base(base, level_cap: int):
    if isinstance(base, tuple) and len(base) == 2:
        b = _IntervalBase(Fraction(base[0]), Fraction(base[1]))
    else:
        b = base_arithmetic(base)
        if q_minus_1_sign(b) <= 0:
            raise DomainError("oracle requires q > 1")
    if b.cap + 1 > level_cap:
        raise DomainError("each prefix has %d candidate digits, above the "
                          "level cap %d" % (b.cap + 1, level_cap))
    return b


def _below_tail(b, r, qr) -> bool:
    """r <= M/(q - 1), M = b.cap: digits <= M can still complete r.  On an
    exact base this reads q r - r - M <= 0; an interval base compares the
    lower end of r with M/(lo - 1)."""
    if isinstance(b, _IntervalBase):
        return r[0] <= b.tail_max
    return b.sign(b.minus(b.minus(qr, r), b.cap)) <= 0


def _children(b, x):
    """(c, q r) for the viable children r = x - c of a prefix whose residual
    times q is x, largest digit first.  x - c grows as c falls, so every
    digit below the first child with x - c >= 0 passes that test too, and
    the first child above the tail bound ends the list."""
    minus, sign, times_q = b.minus, b.sign, b.times_q
    nonneg = False
    for c in range(b.cap, -1, -1):
        r = minus(x, c)
        nonneg = nonneg or sign(r) >= 0
        if nonneg:
            qr = times_q(r)
            if not _below_tail(b, r, qr):
                return
            yield c, qr


def enumerate_expansions(base, depth: int, level_cap: int = LEVEL_CAP,
                         counts_only: bool = False) -> PrefixTree:
    """All viable digit prefixes of expansions of 1, level by level."""
    if depth < 0:
        raise DomainError("depth must be >= 0, got %d" % depth)
    b = _base(base, level_cap)
    # each prefix is kept with its residual times q
    frontier = [((), b.times_q(b.root()))]
    levels, counts = [], []
    exhaustive = True
    for _ in range(depth):
        nxt = []
        for prefix, x in frontier:
            for c, qr in _children(b, x):
                nxt.append((prefix + (c,), qr))
        nxt.sort(key=lambda pr: pr[0])
        if len(nxt) > level_cap:
            nxt = nxt[:level_cap]
            exhaustive = False
        frontier = nxt
        counts.append(len(frontier))
        levels.append(None if counts_only
                      else tuple(p for p, _ in frontier))
    return PrefixTree(depth, tuple(levels), tuple(counts), exhaustive)


def certify_unique_prefix(base, depth: int, level_cap: int = LEVEL_CAP) -> bool:
    """True iff exactly one viable prefix survives at every level: a
    depth-bounded necessary condition for univoqueness (sound refutation)."""
    tree = enumerate_expansions(base, depth, level_cap, counts_only=True)
    return tree.exhaustive and all(c == 1 for c in tree.counts)


def greedy_via_oracle(base, depth: int) -> tuple:
    """Lexicographically largest viable prefix, following the largest
    viable digit level by level."""
    b = _base(base, LEVEL_CAP)
    x = b.times_q(b.root())
    digits = []
    for _ in range(depth):
        child = next(_children(b, x), None)
        if child is None:
            raise RuntimeError("no viable digit: invariant violated")
        c, x = child
        digits.append(c)
    return tuple(digits)
