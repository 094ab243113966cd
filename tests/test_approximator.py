"""The certified approximant construction and its convergence behaviour."""

from fractions import Fraction as F

import pytest

from univoque import approximator
from univoque.algebraic import refine
from univoque.approximator import (NTooSmallError, NotInClosureError,
                                   approximate)
from univoque.characterization import classify
from univoque.expansions import poly_from_sequence
from univoque.words import LT, ep_sequence, lex_compare
from univoque import polynomials as pl


def construct_gamma(alpha, N):
    """(gamma_N, k, m) for the target (alpha)^inf, as `approximate` builds
    it."""
    s, k, m = approximator._target(alpha)
    return approximator._gamma(s, k, m, N), k, m


def test_construct_gamma_tribonacci_target():
    gamma, k, m = construct_gamma((1, 1, 0), 2)
    assert (k, m) == (3, 4)
    # same sequence as 110110(11010010)^inf, in canonical form
    assert gamma == ep_sequence((1, 1, 0, 1, 1, 0),
                                (1, 1, 0, 1, 0, 0, 1, 0))
    target = ep_sequence((), (1, 1, 0))
    assert gamma.prefix(10) == target.prefix(10)   # m + kN = 10
    assert gamma.digit(11) == 0 < target.digit(11)


def test_construct_gamma_invariant_raises_when_broken(monkeypatch):
    """The prefix invariant is an explicit check, kept under python -O."""
    real = approximator.ep_sequence

    def corrupted(pre, per):
        # flip the last digit of the repeated blocks of gamma
        if pre:
            pre = tuple(pre[:-1]) + (1 - pre[-1],)
        return real(pre, per)

    monkeypatch.setattr(approximator, "ep_sequence", corrupted)
    with pytest.raises(RuntimeError, match="digit 6 of the first m \\+ kN"):
        construct_gamma((1, 1, 0), 2)


def test_construct_gamma_n_too_small():
    with pytest.raises(NTooSmallError) as exc:
        construct_gamma((1, 1, 0), 1)
    assert exc.value.minimal == 2


def test_minimal_n_is_the_least_n_construct_gamma_accepts():
    for alpha in [(1, 1, 0), (1, 1, 1, 0), (1, 1, 0, 1, 0, 0)]:
        (record,) = approximate(alpha)
        n = record.N
        construct_gamma(alpha, n)
        with pytest.raises(NTooSmallError) as exc:
            construct_gamma(alpha, n - 1)
        assert exc.value.minimal == n


def test_construct_gamma_rejects_non_closure_targets():
    with pytest.raises(NotInClosureError):
        construct_gamma((1, 0), 2)       # golden ratio is not in the closure


def test_construct_gamma_rejects_univoque_targets():
    # no purely periodic sequence is univoque, so periodic targets can only
    # fail here by not being closure-admissible; exercise the message path
    with pytest.raises(NotInClosureError):
        construct_gamma((1, 0, 0), 2)


def test_construct_gamma_non_primitive_input_is_canonicalized():
    g1, k1, m1 = construct_gamma((1, 1, 0, 1, 1, 0), 2)
    g2, k2, m2 = construct_gamma((1, 1, 0), 2)
    assert (g1, k1, m1) == (g2, k2, m2)


def test_approximate_tribonacci_records():
    records = approximate((1, 1, 0), 2, 4)
    assert [r.N for r in records] == [2, 3, 4]
    for r in records:
        assert r.certificate.verdict == "univoque"
        assert classify(r.gamma).is_univoque
        assert r.base.poly == poly_from_sequence(r.gamma)
        lo, hi = r.base.lo, r.base.hi
        assert pl.scaled_value(r.base.poly, lo.numerator, lo.denominator) * \
            pl.scaled_value(r.base.poly, hi.numerator, hi.denominator) < 0
        assert pl.degree(r.base.poly) <= r.k * r.N + 2 * r.m
        assert lex_compare(r.gamma, ep_sequence((), r.alpha)) == LT
    gaps = [r.gap for r in records]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_approximants_increase_towards_target():
    records = approximate((1, 1, 0), 2, 5)
    for a, b in zip(records, records[1:]):
        assert lex_compare(a.gamma, b.gamma) == LT
        x, y = a.base, b.base
        eps = F(1, 64)
        while not x.hi < y.lo:
            eps /= 16
            x, y = refine(x, eps), refine(y, eps)
        assert x.hi < y.lo
    last = records[-1]
    t, b = last.target_base, last.base
    eps = F(1, 64)
    while not b.hi < t.lo:
        eps /= 16
        t, b = refine(t, eps), refine(b, eps)
    assert b.hi < t.lo


def test_approximate_ones_zero_target():
    records = approximate((1, 1, 1, 0), 2, 3)
    assert [(r.k, r.m) for r in records] == [(4, 5), (4, 5)]
    assert all(r.certificate.verdict == "univoque" for r in records)


def test_record_serialization_fields():
    (rec,) = approximate((1, 1, 0), 2, 2)
    d = rec.as_dict()
    assert set(d) == {"alpha", "k", "m", "N", "gamma", "polynomial",
                      "base_interval", "target_interval", "gap",
                      "certificate_verdict", "shifts_checked"}
    assert d["gamma"] == "1101(10110100)"
    assert d["certificate_verdict"] == "univoque"
    assert F(d["gap"]) == rec.gap
    lo, hi = (F(x) for x in d["base_interval"])
    assert lo < hi


def test_gap_dominates_interval_slack():
    records = approximate((1, 1, 0), 2, 4)
    for r in records:
        assert r.base.hi - r.base.lo <= r.gap
        assert r.target_base.hi - r.target_base.lo <= r.gap
