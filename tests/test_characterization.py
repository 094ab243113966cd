"""Shift-condition checkers, the m-search and the doubling-block lemma."""

import itertools
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from univoque import characterization
from univoque.algebraic import refine
from univoque.characterization import (ConditionWitness, SearchCapExceeded,
                                       UnivoqueCertificate,
                                       check_greedy_admissible,
                                       check_quasi_greedy_admissible,
                                       classify, find_m,
                                       verify_lemma_26)
from univoque.expansions import (greedy_expansion, solve_base,
                                 thue_morse_prefix)
from univoque.words import (EQ, GT, LT, complement, complement_word,
                            ep_sequence,
                            lex_compare, shift)

S10 = ep_sequence((), (1, 0))
S110 = ep_sequence((), (1, 1, 0))
UNIVOQUE_N2 = ep_sequence((1, 1, 0, 1, 1, 0), (1, 1, 0, 1, 0, 0, 1, 0))


def ones_zero(n):
    """(1^n 0)^inf."""
    return ep_sequence((), (1,) * n + (0,))


def test_greedy_admissible_examples():
    ok, _ = check_greedy_admissible(ep_sequence((1, 1, 1), (0,)))
    assert ok
    ok, w = check_greedy_admissible(S110)
    assert not ok and w.j == 3
    ok, w = check_greedy_admissible(S10)
    assert not ok and w.j == 2


def test_check_univoque_examples():
    cert = classify(ep_sequence((1, 1, 1), (0,)))
    assert not cert.is_univoque
    assert any(w.condition == 22 and w.j == 3 for w in cert.witnesses)

    cert = classify(UNIVOQUE_N2)
    assert cert.is_univoque and not cert.witnesses

    cert = classify(ep_sequence((), (1,)))
    assert not cert.is_univoque
    assert any(w.condition == 21 and w.j == 1 and w.relation == "="
               for w in cert.witnesses)


def test_check_closure_examples():
    assert classify(S110).verdict == "closure_only"
    cert = classify(S10)
    assert not cert.in_closure
    assert any(w.condition == 24 and w.j == 1 for w in cert.witnesses)
    assert classify(ones_zero(3)).in_closure


def test_digits_above_first_digit_are_inadmissible():
    cert = classify(ep_sequence((), (1, 2)))
    assert cert.verdict == "inadmissible"


def test_quasi_greedy_admissible_examples():
    assert check_quasi_greedy_admissible(ep_sequence((), (1,)))
    assert not check_quasi_greedy_admissible(ep_sequence((1,), (0,)))
    assert check_quasi_greedy_admissible(S110)


def test_find_m_examples():
    assert find_m(S110, 3) == 4
    assert find_m(ones_zero(3), 4) == 5
    with pytest.raises(ValueError):
        find_m(S10, 2)


def test_find_m_cap():
    with pytest.raises(ValueError):
        find_m(S110, 3, cap=2)
    # for (1110)^inf the smallest valid m is 5, so a cap at 4 is exceeded
    with pytest.raises(SearchCapExceeded):
        find_m(ones_zero(3), 4, cap=4)


def _find_m_ref(s, k, cap=None):
    """find_m by comparing the two blocks of every j < m as tuples, for
    each m from k up."""
    if not classify(s).in_closure:
        raise characterization.NotInClosureError("not closure-admissible")
    if k < 1:
        raise ValueError("k must be >= 1")
    if cap is None:
        cap = 50 * (len(s.preperiod) + len(s.period))
    if cap < k:
        raise ValueError("cap must be >= k")
    b = s.digit(1)
    for m in range(k, cap + 1):
        prefix = s.prefix(m)
        if all(complement_word(prefix[j:], b) < prefix[:m - j]
               for j in range(m)):
            return m
    raise SearchCapExceeded("no valid m found up to cap %d" % cap)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, SearchCapExceeded) as exc:
        return type(exc)


@st.composite
def _closure_sequences(draw):
    """Closure-admissible sequences led by their largest digit, often with
    a preperiod that repeats part of the period."""
    top = draw(st.integers(1, 2))
    digit = st.integers(0, top)
    per = [top] + draw(st.lists(digit, max_size=7))
    pre = draw(st.lists(digit, max_size=6))
    if pre:
        pre[0] = top
    pre += per * draw(st.integers(0, 2))
    s = ep_sequence(pre, per)
    assume(classify(s).in_closure)
    return s


@settings(max_examples=300, deadline=None)
@given(_closure_sequences())
def test_find_m_matches_the_block_comparison_reference(s):
    p, r = len(s.preperiod), len(s.period)
    for k in sorted({1, r, p + r}):
        m = find_m(s, k)
        assert m == _find_m_ref(s, k) >= k
        for cap in (m - 1, m):
            assert _outcome(find_m, s, k, cap) == \
                _outcome(_find_m_ref, s, k, cap)


def test_find_m_on_a_384_digit_thue_morse_word_takes_under_a_tenth_of_a_s():
    s = ep_sequence((), thue_morse_prefix(384))
    t = time.perf_counter()
    assert find_m(s, 384) == 512
    assert time.perf_counter() - t < 0.1


def test_verify_lemma_26_examples():
    assert verify_lemma_26(S110, 3) == (True, None)
    assert verify_lemma_26(S10, 2) == (False, 1)
    assert verify_lemma_26(ep_sequence((), (1,)), 5) == (True, None)


def _closure_family(count):
    """Deterministic supply of closure-admissible purely periodic words,
    found by exhaustive filtering over small alphabets."""
    out = [ones_zero(n) for n in range(2, 13)]
    for length in range(1, 13):
        for digs in itertools.product((0, 1), repeat=length):
            s = ep_sequence((), digs)
            if len(s.period) != length or s in out:
                continue
            if classify(s).in_closure:
                out.append(s)
            if len(out) >= count:
                return out
    for length in range(1, 8):
        for digs in itertools.product((0, 1, 2), repeat=length):
            s = ep_sequence((), digs)
            if len(s.period) != length or s in out:
                continue
            if classify(s).in_closure:
                out.append(s)
            if len(out) >= count:
                return out
    return out


def test_closure_family_is_large_enough():
    fam = _closure_family(200)
    assert len(fam) >= 200


def test_univoque_implies_closure_on_generated_family():
    # every univoque verdict also passes the closure conditions
    for pre_len in range(0, 3):
        for digs in itertools.product((0, 1), repeat=pre_len + 3):
            s = ep_sequence(digs[:pre_len], digs[pre_len:])
            cert = classify(s)
            if cert.is_univoque:
                assert cert.in_closure


def test_lemma_holds_on_closure_family_sample():
    for s in _closure_family(40):
        assert verify_lemma_26(s, 50) == (True, None)
        k = len(s.period)
        m = find_m(s, k, cap=200)
        assert m >= k


def test_monotone_bijection_closure():
    fam = sorted(_closure_family(25), key=lambda s: s.prefix(40))
    pairs = list(zip(fam, fam[1:]))
    for s1, s2 in pairs:
        assert lex_compare(s1, s2) == LT
        b1, b2 = solve_base(s1), solve_base(s2)
        eps = F(1, 2)
        while not b1.hi < b2.lo:
            eps /= 16
            b1, b2 = refine(b1, eps), refine(b2, eps)
        assert b1.hi < b2.lo


def test_witness_replay():
    for s in [S10, S110, ep_sequence((), (1,)), ep_sequence((1, 1, 1), (0,)),
              ep_sequence((), (1, 0, 1, 1))]:
        cert = classify(s)
        b = s.digit(1)
        for w in cert.witnesses:
            t = shift(s, w.j)
            if w.condition in (22, 24):
                t = complement(t, b)
            assert lex_compare(t, s) != LT


def test_closure_without_univoque_has_finite_greedy_expansion():
    for n in range(2, 8):
        s = ones_zero(n)
        cert = classify(s)
        assert cert.verdict == "closure_only"
        digits = greedy_expansion(solve_base(s), 60).digits
        # finite greedy expansion: a trailing zero block of length >= 30
        assert digits == (1,) * (n + 1) + (0,) * (60 - n - 1)


# --- the window comparison against the per-shift reference ------------------

_REL = {LT: "<", EQ: "=", GT: ">"}


def _classify_ref(s):
    """classify by one re-canonicalized shift and one full lex_compare per
    shift index, as the conditions are stated."""
    b = s.digit(1)
    n_shifts = len(s.preperiod) + len(s.period)
    if s.max_digit > b:
        return UnivoqueCertificate("inadmissible", (ConditionWitness(
            22, 0, str(s), str(b), "digit exceeds first digit"),),
            0)
    witnesses = []
    ok = {21: True, 22: True, 23: True, 24: True}

    def fail(cond, j, left, c):
        if ok[cond]:
            ok[cond] = False
            witnesses.append(ConditionWitness(cond, j, str(left), str(s),
                                              _REL[c]))

    for j in range(1, n_shifts + 1):
        t = shift(s, j)
        c = lex_compare(t, s)
        if c != LT:
            fail(21, j, t, c)
        if c == GT:
            fail(23, j, t, c)
        ct = complement(t, b)
        c = lex_compare(ct, s)
        if c != LT:
            fail(22, j, ct, c)
            fail(24, j, ct, c)
    if ok[21] and ok[22]:
        verdict = "univoque"
    elif ok[23] and ok[24]:
        verdict = "closure_only"
    else:
        verdict = "inadmissible"
    return UnivoqueCertificate(verdict, tuple(witnesses), n_shifts)


def _greedy_ref(s):
    for j in range(1, len(s.preperiod) + len(s.period) + 1):
        t = shift(s, j)
        c = lex_compare(t, s)
        if c != LT:
            return False, ConditionWitness(21, j, str(t), str(s), _REL[c])
    return True, None


def _quasi_ref(s):
    n_shifts = len(s.preperiod) + len(s.period)
    return not s.is_finite() and all(
        lex_compare(shift(s, j), s) != GT for j in range(1, n_shifts + 1))


def _assert_matches_reference(s):
    assert classify(s) == _classify_ref(s)
    assert check_greedy_admissible(s) == _greedy_ref(s)
    assert check_quasi_greedy_admissible(s) == _quasi_ref(s)


@st.composite
def _sequences(draw):
    """Eventually periodic sequences with digits up to 13, often led by
    their largest digit (so the shift conditions decide), with empty or
    short preperiods and periods up to 64."""
    top = draw(st.integers(1, 13))
    digit = st.integers(0, top)
    pre = draw(st.lists(digit, max_size=12))
    per = draw(st.lists(digit, min_size=1, max_size=64))
    if draw(st.booleans()):
        (pre if pre else per)[0] = top
    if draw(st.booleans()):
        # a repeated block makes long agreements between shifts
        per = per[:draw(st.integers(1, 8))] * draw(st.integers(1, 8))
    return ep_sequence(pre, per)


@settings(max_examples=400, deadline=None)
@given(_sequences())
def test_window_checks_match_the_per_shift_reference(s):
    _assert_matches_reference(s)


@st.composite
def _long_windows(draw):
    """A block repeated up to about 300 digits, then a short tail, as the
    preperiod: shifted and complemented windows then agree with the
    sequence over long stretches, where the scan reuses earlier common
    prefix lengths.  The period is short, or the block followed by its
    complement, as in gamma_N."""
    top = draw(st.integers(1, 3))
    digit = st.integers(0, top)
    block = draw(st.lists(digit, min_size=1, max_size=8))
    if draw(st.booleans()):
        block[0] = top
    pre = block * draw(st.integers(1, 300 // len(block))) + \
        draw(st.lists(digit, max_size=8))
    if draw(st.booleans()):
        per = block + [top - d for d in block]
    else:
        per = draw(st.lists(digit, min_size=1, max_size=8))
    return ep_sequence(pre, per)


@settings(max_examples=200, deadline=None)
@given(_long_windows())
def test_window_checks_match_the_reference_on_long_windows(s):
    _assert_matches_reference(s)


def test_window_checks_match_on_approximant_sequences():
    """Long gamma_N and their neighbours leaving the closure, as in the
    approximant pipeline."""
    for alpha, m in (((1, 1, 0), 4), ((1, 1, 1, 0), 5),
                     ((1, 1, 0, 1, 0, 0), 8)):
        a = ep_sequence((), alpha).prefix(m)
        block = a + tuple(1 - d for d in a)
        for n in (2, 7, 20):
            for s in (ep_sequence(alpha * n, block),
                      ep_sequence(alpha * n, (1,)),
                      ep_sequence(alpha * n, (0,)),
                      ep_sequence((), alpha)):
                _assert_matches_reference(s)


def test_window_checks_match_on_every_short_binary_sequence():
    # shifts that agree with s on all but the last digit of the window
    for length in range(1, 9):
        for digs in itertools.product((0, 1), repeat=length):
            for p in range(length):
                _assert_matches_reference(ep_sequence(digs[:p], digs[p:]))


def test_window_checks_take_linear_time():
    """60,000-digit windows, each decided in under 1 s: gamma_20000 for
    (110), univoque, and its neighbour 110...110(1), which fails 21 and 23
    at j = 3 but passes 22, so its complements are scanned to the end."""
    gamma = ep_sequence((1, 1, 0) * 20000, (1, 1, 0, 1, 0, 0, 1, 0))
    neighbour = ep_sequence((1, 1, 0) * 20000, (1,))
    for s, verdict, greedy, quasi in ((gamma, "univoque", True, True),
                                      (neighbour, "inadmissible", False,
                                       False)):
        for check, want in ((lambda s: classify(s).verdict, verdict),
                            (lambda s: check_greedy_admissible(s)[0], greedy),
                            (check_quasi_greedy_admissible, quasi)):
            t = time.perf_counter()
            assert check(s) == want
            assert time.perf_counter() - t < 1
    assert [(w.condition, w.j) for w in classify(neighbour).witnesses] == \
        [(21, 3), (23, 3)]


def test_witnesses_build_at_most_four_shifts(monkeypatch):
    calls = []

    def counting_shift(s, j):
        calls.append(j)
        return shift(s, j)

    monkeypatch.setattr(characterization, "shift", counting_shift)
    for s in (ep_sequence((), (1, 0, 0, 1)), ep_sequence((1, 0, 0), (1,)),
              ep_sequence((1, 1) * 50, (1,)), UNIVOQUE_N2, S110):
        for check in (classify, check_greedy_admissible,
                      check_quasi_greedy_admissible):
            del calls[:]
            check(s)
            assert len(calls) <= 4
    # the 21/23 pair and the 22/24 pair each share one shifted sequence
    del calls[:]
    cert = classify(ep_sequence((), (1, 0, 0, 1)))
    assert sorted(w.condition for w in cert.witnesses) == [21, 22, 23, 24]
    assert sorted(calls) == [1, 3]
