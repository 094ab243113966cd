"""Brute-force expansion enumeration as ground truth."""

import random
from fractions import Fraction as F

import pytest

from univoque.algebraic import DomainError
from univoque.approximator import approximate
from univoque.expansions import (greedy_expansion, quasi_greedy_expansion,
                                 solve_base)
from univoque.oracle import (certify_unique_prefix, enumerate_expansions,
                             greedy_via_oracle, unique_prefix)
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
    with pytest.raises(DomainError, match="depth must be >= 1"):
        certify_unique_prefix(F(3, 2), -2)


def test_certify_unique_prefix_examples():
    assert not certify_unique_prefix(solve_base(S110), 6)
    assert not certify_unique_prefix(F(2), 3)


def test_certify_unique_prefix_refuses_depth_zero():
    # zero checked levels would certify uniqueness vacuously
    with pytest.raises(DomainError, match="depth must be >= 1, got 0"):
        certify_unique_prefix(F(2), 0)
    with pytest.raises(DomainError, match="depth must be >= 1, got 0"):
        unique_prefix(enumerate_expansions(F(3, 2), 0))
    assert not certify_unique_prefix(F(2), 1)
    base = solve_base(UNIVOQUE_N2)
    assert unique_prefix(enumerate_expansions(base, 8))
    assert certify_unique_prefix(base, 8)


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
    """The quasi-greedy expansion from the oracle's greedy one: the same
    when that has no last nonzero digit g_m, else (g_1..g_{m-1} (g_m - 1))^inf.
    """
    rng = random.Random(102)
    bases = [F(2), F(3)] + [F(rng.randint(101, 399), 100) for _ in range(20)]
    for q in bases:
        g = greedy_via_oracle(q, 40)
        m = max(i for i, c in enumerate(g, 1) if c)
        got = g
        if sum(c / q ** i for i, c in enumerate(g[:m], 1)) == 1:
            got = ((g[:m - 1] + (g[m - 1] - 1,)) * 40)[:40]
        assert got == quasi_greedy_expansion(q, 40).digits


def test_oracle_refuses_more_candidate_digits_than_the_level_cap():
    with pytest.raises(DomainError, match="6 candidate digits.*level cap 5"):
        enumerate_expansions(F(5), 3, level_cap=5)
    with pytest.raises(DomainError, match="100001 candidate digits"):
        greedy_via_oracle(F(100_000), 1)


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
