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

from .algebraic import AlgebraicReal, refine
from .characterization import (NotInClosureError, UnivoqueCertificate,
                               classify, find_m)
from .expansions import solve_base
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


def _gap_bound(target: AlgebraicReal, base: AlgebraicReal) -> tuple:
    """Refine both enclosures until the reported gap dominates the interval
    slack, then return (gap, target, base).

    Each round refines the inputs themselves, so `refine` continues from
    the cells its memo keeps for them.  w strictly decreases, so the
    intervals are the ones refining the last round's would give."""
    w = Fraction(1, 16)
    while True:
        t, b = refine(target, w), refine(base, w)
        gap = t.hi - b.lo
        if gap > 0 and w <= gap / _GAP_SHRINK:
            return gap, t, b
        w = gap / (2 * _GAP_SHRINK) if gap > 0 else w / 16


def approximate(alpha, n_from: int | None = None, n_to: int | None = None):
    """Run the full pipeline for N = n_from..n_to, returning one certified
    ApproximationRecord per N (ordered by N).  n_from defaults to the least
    N with k N >= m, and n_to to n_from.  The target is checked once, before
    the range; each gamma_N is then built from (s, m)."""
    s, k, m = _target(alpha)
    n_from = -(-m // k) if n_from is None else n_from
    n_to = n_from if n_to is None else n_to
    if n_to < n_from:
        raise ValueError("empty N range")
    target = solve_base(s)
    records = []
    for n in range(n_from, n_to + 1):
        gamma = _gamma(s, k, m, n)
        base = solve_base(gamma)
        cert = classify(gamma)
        if not cert.is_univoque:
            raise RuntimeError(
                "internal error: constructed sequence failed the "
                "univoqueness certificate at N = %d" % n)
        gap, target, base = _gap_bound(target, base)
        records.append(ApproximationRecord(
            alpha=word(alpha), k=k, m=m, N=n, gamma=gamma, base=base,
            certificate=cert, target_base=target, gap=gap))
    return records
