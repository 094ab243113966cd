"""Certified algebraic univoque approximants of closure points.

For a base q whose quasi-greedy expansion is the purely periodic word
(a_1..a_k)^inf (a closure point that is not itself univoque), the sequence

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
from .expansions import poly_from_sequence, solve_base
from .words import EPSequence, complement_word, ep_sequence, format_sequence, word


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
    polynomial: tuple
    base: AlgebraicReal
    certificate: UnivoqueCertificate
    target_base: AlgebraicReal
    gap: Fraction

    def as_dict(self) -> dict:
        return {
            "alpha": format_sequence(self.alpha),
            "k": self.k,
            "m": self.m,
            "N": self.N,
            "gamma": format_sequence(self.gamma),
            "polynomial": list(self.polynomial),
            "base_interval": [str(self.base.lo), str(self.base.hi)],
            "target_interval": [str(self.target_base.lo),
                                str(self.target_base.hi)],
            "gap": str(self.gap),
            "certificate_verdict": self.certificate.verdict,
            "shifts_checked": self.certificate.shifts_checked,
        }


def _target_sequence(alpha) -> tuple:
    """Canonical periodic target; returns (sequence, k, period word)."""
    alpha = word(alpha)
    if not alpha:
        raise NotInClosureError("empty target word")
    s = ep_sequence((), alpha)
    if s.preperiod:
        raise NotInClosureError("target word does not define a purely "
                                "periodic sequence")
    return s, len(s.period), s.period


def minimal_n(alpha, m: int | None = None) -> int:
    """The least block count N for the target (alpha)^inf: the repeated
    block must cover the m-block, k N >= m.  m defaults to the least one
    that satisfies the block condition (find_m), which raises
    NotInClosureError for a target outside the closure."""
    s, k, _ = _target_sequence(alpha)
    if m is None:
        m = find_m(s, k)
    return -(-m // k)


def construct_gamma(alpha, N: int, m: int | None = None):
    """Build the approximant digit sequence for block count N.

    Returns (gamma, k, m).  The target must be a closure point outside the
    univoque set and the repeated block must be long enough: k*N >= m.
    """
    s, k, alpha_c = _target_sequence(alpha)
    cert = classify(s)
    if not cert.in_closure:
        raise NotInClosureError(
            "target %s is not closure-admissible" % format_sequence(s))
    if cert.is_univoque:
        raise NotInClosureError(
            "target %s is itself univoque; the construction needs a "
            "closure point with a finite greedy expansion"
            % format_sequence(s))
    if m is None:
        m = find_m(s, k)
    else:
        if m < k:
            raise ValueError("m must be >= k = %d" % k)
        try:
            find_m(s, m, cap=m)
        except Exception:
            raise ValueError("m = %d does not satisfy the block condition "
                             "for this target" % m) from None
    if N < 1 or k * N < m:
        raise NTooSmallError(N, minimal_n(alpha, m))
    b = s.digit(1)
    alpha_m = s.prefix(m)
    gamma = ep_sequence(alpha_c * N, alpha_m + complement_word(alpha_m, b))
    # the construction leaves the first m + kN digits of the target intact
    for i in range(1, m + k * N + 1):
        if gamma.digit(i) != s.digit(i):
            raise RuntimeError(
                "internal error: gamma differs from the target at digit "
                "%d of the first m + kN = %d" % (i, m + k * N))
    return gamma, k, m


# the reported gap is at least this many times the interval width
_GAP_SHRINK = 10


def _gap_bound(target: AlgebraicReal, base: AlgebraicReal) -> tuple:
    """Refine both enclosures until the reported gap dominates the interval
    slack, then return (gap, target, base)."""
    w = Fraction(1, 16)
    while True:
        target = refine(target, w)
        base = refine(base, w)
        gap = target.hi - base.lo
        if gap > 0 and w <= gap / _GAP_SHRINK:
            return gap, target, base
        w = gap / (2 * _GAP_SHRINK) if gap > 0 else w / 16


def approximate(alpha, n_from: int, n_to: int, m: int | None = None):
    """Run the full pipeline for N = n_from..n_to, returning one certified
    ApproximationRecord per N (ordered by N)."""
    if n_to < n_from:
        raise ValueError("empty N range")
    s, k, alpha_c = _target_sequence(alpha)
    # raises early with the minimal-N hint if n_from is too small
    gamma0, k, m = construct_gamma(alpha, n_from, m)
    target = solve_base(s)
    records = []
    for n in range(n_from, n_to + 1):
        gamma, _, _ = construct_gamma(alpha, n, m)
        polynomial = poly_from_sequence(gamma)
        base = solve_base(gamma)
        cert = classify(gamma)
        if not cert.is_univoque:
            raise RuntimeError(
                "internal error: constructed sequence failed the "
                "univoqueness certificate at N = %d" % n)
        gap, target, base = _gap_bound(target, base)
        records.append(ApproximationRecord(
            alpha=word(alpha), k=k, m=m, N=n, gamma=gamma,
            polynomial=polynomial, base=base, certificate=cert,
            target_base=target, gap=gap))
    return records
