"""Certified algebraic univoque approximants of closure points.

For a base q whose quasi-greedy expansion is the purely periodic word
(a_1..a_k)^inf (a closure point outside the univoque set), the sequence

    (a_1..a_k)^N (a_1..a_m  complement(a_1..a_m))^inf

is the greedy expansion of an algebraic univoque base q_N < q, and
q_N -> q as N grows.  Every emitted record carries a replayable
univoqueness certificate and an exact rational gap bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebraic import AlgebraicReal, cell, grid
from .characterization import (NotInClosureError, UnivoqueCertificate,
                               classify, find_m)
from .expansions import solve_base, solve_lacunary_base
from .words import (EPSequence, complement_word, ep_sequence, format_word,
                    word)


class NTooSmallError(ValueError):
    def __init__(self, n: int, minimal: int):
        self.minimal = minimal
        super().__init__(
            "N = %d is too small: the repeated block must cover the "
            "m-block, minimal N = %d" % (n, minimal))


@dataclass(frozen=True)
class ApproximationRecord:
    alpha: tuple
    k: int
    m: int
    N: int
    gamma: EPSequence
    base: AlgebraicReal
    certificate: UnivoqueCertificate
    target_base: AlgebraicReal
    gap: Fraction

    def as_dict(self) -> dict:
        return {
            "alpha": format_word(self.alpha),
            "k": self.k,
            "m": self.m,
            "N": self.N,
            "gamma": str(self.gamma),
            "polynomial": list(self.base.poly),
            "base_interval": [str(self.base.lo), str(self.base.hi)],
            "target_interval": [str(self.target_base.lo),
                                str(self.target_base.hi)],
            "gap": str(self.gap),
            "certificate_verdict": self.certificate.verdict,
            "shifts_checked": self.certificate.shifts_checked,
        }


def _target(alpha) -> tuple:
    """(s, k, m) for the target s = (alpha)^inf in canonical form, whose
    period, of length k, is the primitive root of alpha, and m the least
    block length (find_m, whose scan checks that s is closure-admissible).
    No purely periodic s is univoque, as sigma^k(s) = s fails the strict
    shift condition 21, so s is then a closure point outside the univoque
    set, as the construction needs."""
    alpha = word(alpha)
    if not alpha:
        raise NotInClosureError("empty target word")
    s = ep_sequence((), alpha)
    k = len(s.period)
    try:
        return s, k, find_m(s, k)
    except NotInClosureError:
        raise NotInClosureError(
            "target %s is not closure-admissible" % s) from None


def _gamma(s: EPSequence, k: int, m: int, N: int) -> EPSequence:
    """gamma_N = (a_1..a_k)^N (a_1..a_m complement(a_1..a_m))^inf.  The
    repeated block must cover the m-block: k N >= m (so N >= 1)."""
    if k * N < m:
        raise NTooSmallError(N, -(-m // k))
    alpha_m = s.prefix(m)
    gamma = ep_sequence(s.period * N,
                        alpha_m + complement_word(alpha_m, s.digit(1)))
    # the construction leaves the first m + kN digits of the target intact
    for i in range(1, m + k * N + 1):
        if gamma.digit(i) != s.digit(i):
            raise RuntimeError(
                "internal error: gamma differs from the target at digit "
                "%d of the first m + kN = %d" % (i, m + k * N))
    return gamma


# the reported gap is at least this many times the interval width
_GAP_SHRINK = 10


def _gap_bound(target: AlgebraicReal, t_grid: tuple,
               base: AlgebraicReal) -> tuple:
    """Cut both enclosures until the reported gap dominates the interval
    slack, then return (gap, target cell, base cell), each cell an integer
    triple (lo, hi, den).

    Each round cuts, at one width w, cells of the same two grids: t_grid,
    an interval that holds the target root, and base's own interval.
    `cell` answers under the keys target and base, so it continues from the
    boxes its memo keeps for them.  w strictly decreases, so the cells are
    the ones cutting the last round's would give.  The rounds run on
    integers: with cells (tlo, thi, tden) and (blo, bhi, bden) the gap is
    thi/tden - blo/bden, and the test w <= gap / 10 and the next
    w = gap / 20 are cross-multiplied; only the gap returned is a
    Fraction."""
    b_grid = grid(base)
    wn, wd = 1, 16
    while True:
        tc = cell(target, *t_grid, wn, wd)
        bc = cell(base, *b_grid, wn, wd)
        # gap = gn / gd
        gn, gd = tc[1] * bc[2] - bc[0] * tc[2], tc[2] * bc[2]
        if gn > 0 and _GAP_SHRINK * wn * gd <= gn * wd:
            return Fraction(gn, gd), tc, bc
        wn, wd = (gn, 2 * _GAP_SHRINK * gd) if gn > 0 else (wn, 16 * wd)


def _interval(a: AlgebraicReal, c: tuple) -> AlgebraicReal:
    """a's root on the cell c = (lo, hi, den)."""
    lo, hi, den = c
    return AlgebraicReal(a.poly, Fraction(lo, den), Fraction(hi, den))


def approximate(alpha, n_from: int | None = None, n_to: int | None = None):
    """Run the full pipeline for N = n_from..n_to, returning one certified
    ApproximationRecord per N (ordered by N).  n_from defaults to the least
    N with k N >= m, and n_to to n_from.  The target is checked and solved
    once, before the range: its AlgebraicReal stays the one key of its
    memo box, and each N cuts its cells from the target cell the N before
    reported.  Each gamma_N is built from (s, m), and its base steps on
    (x^k - 1) P (`solve_lacunary_base`)."""
    s, k, m = _target(alpha)
    n_from = -(-m // k) if n_from is None else n_from
    n_to = n_from if n_to is None else n_to
    if n_to < n_from:
        raise ValueError("empty N range")
    target = solve_base(s)
    t_cell = grid(target)
    records = []
    for n in range(n_from, n_to + 1):
        gamma = _gamma(s, k, m, n)
        base = solve_lacunary_base(gamma, k)
        cert = classify(gamma)
        if not cert.is_univoque:
            raise RuntimeError(
                "internal error: constructed sequence failed the "
                "univoqueness certificate at N = %d" % n)
        gap, t_cell, b_cell = _gap_bound(target, t_cell, base)
        records.append(ApproximationRecord(
            alpha=word(alpha), k=k, m=m, N=n, gamma=gamma,
            base=_interval(base, b_cell), certificate=cert,
            target_base=_interval(target, t_cell), gap=gap))
    return records
