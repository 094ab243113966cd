"""Brute-force expansion enumeration as ground truth."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from univoque import oracle
from univoque.algebraic import DomainError
from univoque.approximator import approximate
from univoque.expansions import (greedy_expansion, quasi_greedy_expansion,
                                 solve_base)
from univoque.oracle import (LEVEL_CAP, PrefixTree, certify_unique_prefix,
                             enumerate_expansions, greedy_via_oracle,
                             unique_prefix)
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


def _enumerate_per_prefix(base, depth, level_cap, counts_only):
    """The enumeration `enumerate_expansions` must reproduce, without its
    residual memo: `_children` runs for every prefix, and a sort puts each
    level in order."""
    b = oracle._base(base, level_cap)
    frontier = [((), b.times_q(b.root()))]
    levels, counts = [], []
    exhaustive = True
    for _ in range(depth):
        nxt = [(prefix + (c,), qr) for prefix, x in frontier
               for c, qr in oracle._children(b, x)]
        nxt.sort(key=lambda pr: pr[0])
        if len(nxt) > level_cap:
            nxt = nxt[:level_cap]
            exhaustive = False
        frontier = nxt
        counts.append(len(frontier))
        levels.append(None if counts_only
                      else tuple(p for p, _ in frontier))
    return PrefixTree(depth, tuple(levels), tuple(counts), exhaustive)


@st.composite
def _bases(draw):
    """A rational a/b in (1, 4] with b <= 12, so residual denominators above
    1 occur, or the base of a short sequence."""
    if draw(st.booleans()):
        b = draw(st.integers(1, 12))
        return F(draw(st.integers(b + 1, 4 * b)), b)
    s = ep_sequence(tuple(draw(st.lists(st.integers(0, 2), max_size=4))),
                    tuple(draw(st.lists(st.integers(0, 2), min_size=1,
                                        max_size=4))))
    assume(not s.is_finite() or sum(s.preperiod) >= 2)
    return s


# Pisot bases, where few residuals recur over long runs of adjacent
# prefixes, with the depth that keeps their levels small: the golden ratio
# twice, the tribonacci and tetranacci numbers, 1 + sqrt(2), the root of
# q^3 - 2q^2 - q - 1, and that of q^3 - q^2 - 2q - 2, where adjacent
# prefixes also share residuals with two viable digits
PISOT = [(ep_sequence(pre, per), depth) for pre, per, depth in [
    ((), (1, 0), 60), ((1, 1), (0,), 60), ((), (1, 1, 0), 60),
    ((), (1, 1, 1, 0), 60), ((), (2, 0), 60), ((), (2, 1, 0), 60),
    ((), (1, 2, 1), 24)]]


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(
           st.tuples(_bases(), st.integers(1, 25)),
           st.sampled_from(PISOT).flatmap(
               lambda sd: st.tuples(st.just(sd[0]), st.integers(1, sd[1])))),
       level_cap=st.one_of(st.integers(1, 64), st.just(LEVEL_CAP)),
       counts_only=st.booleans())
def test_enumerate_matches_the_per_prefix_reference(case, level_cap,
                                                    counts_only):
    """The runs of equal residuals, the memo cleared at `level_cap`
    residuals, and the sort-free level order give the tree the per-prefix
    loop gives, truncated or not; a small cap cuts levels inside runs."""
    base, depth = case
    b = oracle._base(base, LEVEL_CAP)
    assume(b.cap + 1 <= level_cap)
    # about ((cap + 1) / q)^depth prefixes survive at the last level; keep
    # the uncapped runs small
    assume(level_cap < LEVEL_CAP or any(base == s for s, _ in PISOT)
           or ((b.cap + 1) / b.a.lo) ** depth <= 3000)
    assert enumerate_expansions(base, depth, level_cap, counts_only) == \
        _enumerate_per_prefix(base, depth, level_cap, counts_only)


def _count_children(monkeypatch):
    calls = []
    children = oracle._children
    monkeypatch.setattr(oracle, "_children",
                        lambda b, x: calls.append(x) or children(b, x))
    return calls


def test_children_run_once_per_distinct_residual(monkeypatch):
    calls = _count_children(monkeypatch)
    # the golden ratio is a Pisot number: 1,275 parents, 4 residuals
    tree = enumerate_expansions(solve_base(S10), 50, counts_only=True)
    assert 1 + sum(tree.counts[:-1]) == 1275
    assert len(calls) == len(set(calls)) == 4
    # at 151/100 the residual denominators grow by 100 per level, so no
    # residual repeats and every parent runs its own
    calls.clear()
    tree = enumerate_expansions(F(151, 100), 16, counts_only=True)
    assert len(calls) == len(set(calls)) == 1 + sum(tree.counts[:-1])


def test_residual_memo_is_cleared_at_the_level_cap(monkeypatch):
    calls = _count_children(monkeypatch)
    enumerate_expansions(solve_base(S10), 50, level_cap=2, counts_only=True)
    # 3 residuals do not fit a memo of 2, so some residual runs again
    assert len(calls) > len(set(calls)) == 3
