"""Canonical eventually periodic sequences and lexicographic comparison."""

from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from univoque.words import (EPSequence, LT, EQ, GT, ParseError,
                            complement, complement_word, ep_sequence,
                            format_sequence,
                            format_word, lex_compare,
                            parse_sequence, parse_word, shift)


def test_canonicalize_examples():
    assert ep_sequence((1,), (0, 1)) == ep_sequence((), (1, 0))
    assert ep_sequence((), (1, 1, 0, 1, 1, 0)) == ep_sequence((), (1, 1, 0))
    s = ep_sequence((1, 1), (0,))
    assert s.preperiod == (1, 1) and s.period == (0,)


def test_canonicalize_requires_period():
    with pytest.raises(ParseError):
        ep_sequence((1,), ())


def test_shift_examples():
    s = ep_sequence((), (1, 1, 0))
    assert shift(s, 1) == ep_sequence((), (1, 0, 1))
    big = ep_sequence((1, 1, 0, 1, 1, 0), (1, 1, 0, 1, 0, 0, 1, 0))
    assert shift(big, 6) == ep_sequence((), (1, 1, 0, 1, 0, 0, 1, 0))
    assert shift(ep_sequence((), (1, 0)), 2) == ep_sequence((), (1, 0))


def test_complement_examples():
    assert complement_word((1, 1, 0, 1), 1) == (0, 0, 1, 0)
    assert complement(ep_sequence((), (0, 1)), 1) == ep_sequence((), (1, 0))
    assert complement_word((2, 2, 0), 2) == (0, 0, 2)
    with pytest.raises(ValueError):
        complement_word((2, 0), 1)
    with pytest.raises(ValueError):
        complement(ep_sequence((2,), (0,)), 1)


def test_lex_compare_examples():
    a = ep_sequence((), (0, 1))
    b = ep_sequence((), (1, 0))
    assert lex_compare(a, b) == LT
    assert lex_compare(ep_sequence((1,), (0, 1)), b) == EQ
    s110 = ep_sequence((), (1, 1, 0))
    big = ep_sequence((1, 1, 0, 1, 1, 0), (1, 1, 0, 1, 0, 0, 1, 0))
    assert lex_compare(s110, big) == GT
    # the first difference sits at position 11
    assert s110.prefix(10) == big.prefix(10)
    assert s110.digit(11) == 1 and big.digit(11) == 0


def test_parse_and_format_round_trip():
    assert parse_sequence("110110(11010010)") == ep_sequence(
        (1, 1, 0, 1, 1, 0), (1, 1, 0, 1, 0, 0, 1, 0))
    assert parse_sequence("(10)") == ep_sequence((), (1, 0))
    assert parse_sequence("1101") == (1, 1, 0, 1)
    assert parse_word("[10,2,0]") == (10, 2, 0)
    assert format_word((10, 2)) == "[10,2]"
    s = ep_sequence((1, 1), (0,))
    assert parse_sequence(format_sequence(s)) == s


def test_parse_rejects_garbage():
    for bad in ["12a", "1(", "(”)", "[1,]", "1)0("]:
        with pytest.raises(ParseError):
            parse_sequence(bad)


digits = st.integers(min_value=0, max_value=3)
words_nonempty = st.lists(digits, min_size=1, max_size=6).map(tuple)
words_any = st.lists(digits, min_size=0, max_size=6).map(tuple)
sequences = st.builds(ep_sequence, words_any, words_nonempty)


@given(words_any, words_nonempty)
def test_canonicalize_idempotent_and_value_preserving(pre, per):
    s = ep_sequence(pre, per)
    assert ep_sequence(s.preperiod, s.period) == s
    raw = EPSequence(tuple(pre), tuple(per))
    n = len(pre) + 10 * len(per)
    assert s.prefix(n) == raw.prefix(n)


@given(sequences, st.integers(0, 50), st.integers(0, 50))
def test_shift_additivity(s, i, j):
    assert shift(shift(s, i), j) == shift(s, i + j)


@given(words_any, sequences, st.integers(3, 9))
def test_complement_involution(w, s, b):
    assert complement_word(complement_word(w, b), b) == w
    assert complement(complement(s, b), b) == s


@given(sequences, sequences)
@settings(max_examples=200)
def test_lex_compare_matches_naive_digit_scan(a, b):
    bound = 10 * (max(len(a.preperiod), len(b.preperiod))
                  + lcm(len(a.period), len(b.period)))
    naive = EQ
    for i in range(1, bound + 1):
        if a.digit(i) != b.digit(i):
            naive = LT if a.digit(i) < b.digit(i) else GT
            break
    assert lex_compare(a, b) == naive


@given(sequences)
def test_canonical_form_invariants(s):
    per = s.period
    for d in range(1, len(per)):
        if len(per) % d == 0:
            assert per[:d] * (len(per) // d) != per
    if s.preperiod:
        assert s.preperiod[-1] != s.period[-1]
