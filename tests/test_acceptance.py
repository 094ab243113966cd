"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion on stdout.
"""

import itertools
import json
import random
import time
from fractions import Fraction as F

from click.testing import CliRunner

from univoque.algebraic import refine
from univoque.approximator import approximate
from univoque.characterization import (check_greedy_admissible, classify,
                                       find_m, verify_lemma_26)
from univoque.cli import main
from univoque.expansions import (greedy_expansion,
                                 quasi_from_greedy, quasi_greedy_expansion,
                                 solve_base, thue_morse_prefix)
from univoque.oracle import (certify_unique_prefix, enumerate_expansions,
                             greedy_via_oracle)
from univoque.words import LT, ep_sequence, lex_compare

TRIBONACCI = ep_sequence((), (1, 1, 0))
# 60-decimal reference for the smallest univoque base, computed separately
# with mpmath at high precision; any certified enclosure must contain it.
KL_REF = F(17872316501, 10 ** 10)


def _report(number, body):
    try:
        body()
    except BaseException:
        print("criterion %d: FAIL" % number)
        raise
    print("criterion %d: PASS" % number)


def _ones_zero(n):
    return ep_sequence((), (1,) * n + (0,))


def _separated(a, b):
    """Refine two isolating intervals until a provably lies below b."""
    eps = F(1, 64)
    while not a.hi < b.lo:
        eps /= 16
        a, b = refine(a, eps), refine(b, eps)
    return a.hi < b.lo


def test_criterion_1_smallest_univoque_base_enclosure():
    def body():
        t0 = time.monotonic()
        r = CliRunner().invoke(main, ["kl", "--eps", "1e-6", "--json"])
        elapsed = time.monotonic() - t0
        assert r.exit_code == 0
        lo, hi = (F(x) for x in json.loads(r.output)["interval"])
        assert hi - lo <= F(1, 10 ** 6)
        assert lo < KL_REF < hi
        assert F(1787, 1000) < lo and hi < F(1788, 1000)
        assert elapsed < 5.0
    _report(1, body)


def test_criterion_2_tribonacci_approximation_pipeline():
    def body():
        t0 = time.monotonic()
        records = approximate((1, 1, 0), 2, 8)
        assert len(records) == 7
        for r in records:
            assert r.certificate.verdict == "univoque"
            assert classify(r.gamma).is_univoque
        for a, b in zip(records, records[1:]):
            assert _separated(a.base, b.base)
        gaps = [r.gap for r in records]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < F(1, 10 ** 5)
        trib = refine(solve_base(TRIBONACCI), F(1, 10 ** 6))
        q_mid = (trib.lo + trib.hi) / 2
        bound = F(12, 10) * q_mid ** -3
        assert all(g2 / g1 <= bound for g1, g2 in zip(gaps, gaps[1:]))
        assert time.monotonic() - t0 < 30.0
    _report(2, body)


def test_criterion_3_oracle_cross_check():
    def body():
        (rec,) = approximate((1, 1, 0), 2, 2)
        assert rec.gamma == ep_sequence((1, 1, 0, 1, 1, 0),
                                        (1, 1, 0, 1, 0, 0, 1, 0))
        assert certify_unique_prefix(rec.base, 30)
        trib = solve_base(TRIBONACCI)
        assert not certify_unique_prefix(trib, 6)
        tree = enumerate_expansions(trib, 6)
        assert any(p[:3] == (1, 1, 1) for p in tree.levels[5])
        assert any(p[:3] == (1, 1, 0) for p in tree.levels[5])
    _report(3, body)


def _closure_words(count):
    out = [_ones_zero(n) for n in range(2, 13)]
    for length in range(1, 13):
        for digs in itertools.product((0, 1), repeat=length):
            s = ep_sequence((), digs)
            if len(s.period) != length or s in out:
                continue
            if classify(s).in_closure:
                out.append(s)
            if len(out) >= count:
                return out
    raise AssertionError("could not generate %d closure words" % count)


def test_criterion_4_block_lemma_at_scale():
    def body():
        t0 = time.monotonic()
        family = _closure_words(200)
        assert len(family) == 200
        for s in family:
            assert verify_lemma_26(s, 50) == (True, None)
            k = len(s.period)
            m = find_m(s, k, cap=200)
            assert m >= k
        assert time.monotonic() - t0 < 60.0
    _report(4, body)


def _greedy_words(count, rng):
    found = []
    while len(found) < count:
        n = rng.randint(1, 7)
        w = tuple(rng.randint(0, 3) for _ in range(n))
        if sum(w) < 2 or w[-1] < 1 or w in found:
            continue
        ok, _ = check_greedy_admissible(ep_sequence(w, (0,)))
        if ok:
            found.append(w)
    return found


def test_criterion_5_round_trip_and_greedy_quasi_relation():
    def body():
        rng = random.Random(20240817)
        for w in _greedy_words(50, rng):
            m = len(w)
            base = solve_base(ep_sequence(w, (0,)))
            assert greedy_expansion(base, 100).digits == w + (0,) * (100 - m)
            qg = quasi_from_greedy(w)
            expect = tuple(qg.digit(i) for i in range(1, 3 * m + 1))
            assert quasi_greedy_expansion(base, 3 * m).digits == expect
            assert qg.preperiod == () and len(qg.period) == m
            assert qg.digit(m) == w[-1] - 1
    _report(5, body)


def _univoque_family():
    seqs = {}
    for n in (2, 3, 4, 5, 6):
        for r in approximate((1,) * n + (0,), 2, 8):
            seqs[r.gamma] = r.base
    return sorted(seqs.items(), key=lambda kv: kv[0].prefix(100))


def test_criterion_6_monotone_order_preservation():
    def body():
        closure = sorted(_closure_words(31), key=lambda s: s.prefix(40))
        pairs = list(zip(closure, closure[1:]))
        assert len(pairs) >= 30
        for s1, s2 in pairs:
            assert lex_compare(s1, s2) == LT
            assert _separated(solve_base(s1), solve_base(s2))
        univoque = _univoque_family()
        pairs = list(zip(univoque, univoque[1:]))
        assert len(pairs) >= 30
        for (s1, b1), (s2, b2) in pairs:
            assert classify(s1).is_univoque
            assert lex_compare(s1, s2) == LT
            assert _separated(b1, b2)
    _report(6, body)


def test_criterion_7_golden_ratio_negative_control():
    def body():
        r = CliRunner().invoke(
            main, ["check", "(10)", "--which", "closure", "--json"])
        assert r.exit_code == 1
        payload = json.loads(r.output)
        assert payload["pass"] is False
        assert any(w["condition"] == 24 and w["j"] == 1
                   for w in payload["witnesses"])
        golden = solve_base(ep_sequence((), (1, 0)))
        tree = enumerate_expansions(golden, 4)
        assert len(tree.levels[1]) >= 2
    _report(7, body)


def test_criterion_8_greedy_oracle_equivalence():
    def body():
        rng = random.Random(20240824)
        bases = [F(2), F(3)]
        while len(bases) < 100:
            q = F(rng.randint(101, 399), 100)
            if q not in bases:
                bases.append(q)
        for q in bases:
            assert greedy_via_oracle(q, 40) == greedy_expansion(q, 40).digits
    _report(8, body)


def test_criterion_9_thue_morse_prefix_admissibility():
    def body():
        t = thue_morse_prefix(1024)
        assert t[0] == 1
        for j in range(1, 1024):
            tail = t[j:]
            head = t[:len(tail)]
            # prefix form of the strict shift condition
            assert not tail > head
            # prefix form of the complemented shift condition
            comp = tuple(1 - x for x in tail)
            assert not comp > head
    _report(9, body)
