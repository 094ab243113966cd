"""Brute-force expansion enumeration as ground truth."""

import random
from fractions import Fraction as F

import pytest

from univoque.algebraic import DomainError
from univoque.approximator import approximate
from univoque.expansions import (greedy_expansion, kl_constant,
                                 quasi_greedy_expansion, solve_base)
from univoque.oracle import (certify_unique_prefix, enumerate_expansions,
                             greedy_via_oracle)
from univoque.words import ep_sequence

S10 = ep_sequence((), (1, 0))
S110 = ep_sequence((), (1, 1, 0))
UNIVOQUE_N2 = ep_sequence((1, 1, 0, 1, 1, 0), (1, 1, 0, 1, 0, 0, 1, 0))


def test_enumerate_base_two():
    tree = enumerate_expansions(F(2), 3)
    # digit 2 completes with zeros, digit 1 leaves residual 1/2, and digit 0
    # completes as 0 2 2 2 ... which also sums to 1
    assert tree.levels[0] == ((0,), (1,), (2,))
    assert (1, 1, 1) in tree.levels[2] and (2, 0, 0) in tree.levels[2]
    assert tree.exhaustive


def test_enumerate_golden_ratio():
    tree = enumerate_expansions(solve_base(S10), 4)
    level2 = tree.levels[1]
    assert (1, 1) in level2 and (1, 0) in level2
    assert len(level2) >= 2


def test_enumerate_certified_univoque_base():
    base = solve_base(UNIVOQUE_N2)
    tree = enumerate_expansions(base, 20)
    assert all(c == 1 for c in tree.counts)
    assert tree.levels[19][0] == UNIVOQUE_N2.prefix(20)


def test_enumerate_rejects_base_at_most_one():
    with pytest.raises(DomainError):
        enumerate_expansions(F(1), 3)


def test_enumerate_rejects_a_negative_depth():
    assert enumerate_expansions(F(3, 2), 0).counts == ()
    with pytest.raises(DomainError, match="depth must be >= 0"):
        enumerate_expansions(F(3, 2), -2, counts_only=True)
    with pytest.raises(DomainError, match="depth must be >= 0"):
        certify_unique_prefix(F(3, 2), -2)


def test_certify_unique_prefix_examples():
    assert not certify_unique_prefix(solve_base(S110), 6)
    assert not certify_unique_prefix(F(2), 3)
    lo, hi, _ = kl_constant(F(1, 10 ** 8))
    assert certify_unique_prefix((lo, hi), 12)


def test_tribonacci_two_branches_by_depth_six():
    tree = enumerate_expansions(solve_base(S110), 6)
    assert any(p[:3] == (1, 1, 1) for p in tree.levels[5])
    assert any(p[:3] == (1, 1, 0) for p in tree.levels[5])


def test_greedy_via_oracle_examples():
    assert greedy_via_oracle(F(2), 3) == (2, 0, 0)
    assert greedy_via_oracle(solve_base(S10), 4) == (1, 1, 0, 0)
    assert greedy_via_oracle(solve_base(S110), 5) == (1, 1, 1, 0, 0)


def test_oracle_matches_greedy_algorithm_on_random_rationals():
    rng = random.Random(101)
    bases = [F(2), F(3)] + [F(rng.randint(101, 399), 100) for _ in range(30)]
    for q in bases:
        assert greedy_via_oracle(q, 40) == greedy_expansion(q, 40).digits


def test_oracle_strict_positive_matches_quasi_greedy():
    rng = random.Random(102)
    bases = [F(2), F(3)] + [F(rng.randint(101, 399), 100) for _ in range(20)]
    for q in bases:
        got = greedy_via_oracle(q, 40, strict_positive=True)
        assert got == quasi_greedy_expansion(q, 40).digits


def test_level_cap_marks_tree_inexhaustive():
    tree = enumerate_expansions(F(2), 8, level_cap=3)
    assert not tree.exhaustive


def test_counts_only_mode():
    tree = enumerate_expansions(F(2), 5, counts_only=True)
    assert tree.levels == (None,) * 5
    assert len(tree.counts) == 5 and all(c >= 1 for c in tree.counts)


def test_approximant_bases_have_unique_prefixes():
    for rec in approximate((1, 1, 0), 2, 3):
        assert certify_unique_prefix(rec.base, 25)


def test_closure_only_bases_are_refuted_quickly():
    for s in [S110, ep_sequence((), (1, 1, 1, 0))]:
        base = solve_base(s)
        depth = len(s.preperiod) + 2 * len(s.period) + 5
        assert not certify_unique_prefix(base, depth)
