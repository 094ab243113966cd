"""Canonical eventually periodic sequences and lexicographic comparison."""

import re
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from univoque.words import (EPSequence, LT, EQ, GT, ParseError, _primitive,
                            complement, complement_word, ep_sequence,
                            format_word, lex_compare,
                            parse_sequence, parse_word, shift, word)


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
    with pytest.raises(ParseError):
        parse_sequence("1101")
    assert parse_word("[10,2,0]") == (10, 2, 0)
    assert format_word((10, 2)) == "[10,2]"
    s = ep_sequence((1, 1), (0,))
    assert parse_sequence(str(s)) == s


def test_parse_rejects_garbage():
    for bad in ["12a", "1(", "(”)", "[1,]", "1)0("]:
        with pytest.raises(ParseError):
            parse_sequence(bad)


digits = st.integers(min_value=0, max_value=3)
words_nonempty = st.lists(digits, min_size=1, max_size=6).map(tuple)
words_any = st.lists(digits, min_size=0, max_size=6).map(tuple)
sequences = st.builds(ep_sequence, words_any, words_nonempty)
wide_digits = st.integers(min_value=0, max_value=12)
wide_words = st.lists(wide_digits, max_size=12).map(tuple)
wide_sequences = st.one_of(
    st.builds(ep_sequence, wide_words, wide_words.filter(bool)),
    # raw pairs: a period that is not primitive, a preperiod not shortest
    st.builds(EPSequence, wide_words, wide_words.filter(bool)))


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


@given(wide_sequences, wide_sequences)
@settings(max_examples=300)
# periods 2 and 3 that agree on 2 + 3 - 1 - 1 digits, then differ
@example(ep_sequence((), (0, 1)), ep_sequence((), (0, 1, 0)))
@example(EPSequence((), (1, 1)), EPSequence((1,), (1,)))
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


def _ep_sequence_ref(pre, per):
    """Canonical form by popping the last preperiod digit and rotating the
    period right by one, while the two last digits agree."""
    pre, per = list(pre), _primitive(tuple(per))
    while pre and pre[-1] == per[-1]:
        per = per[-1:] + per[:-1]
        pre.pop()
    return EPSequence(tuple(pre), per)


@given(words_any, words_nonempty, st.integers(0, 6), st.integers(0, 4))
def test_canonical_form_matches_the_pop_and_rotate_reference(head, per, i,
                                                             copies):
    # the preperiod ends in a suffix of the period and whole copies of it
    pre = head + per[len(per) - i % (len(per) + 1):] + per * copies
    assert ep_sequence(pre, per) == _ep_sequence_ref(pre, per)


# --- the per-digit reference ----------------------------------------------
#
# Each whole-word operation of `words` is one C-level call; these are the
# per-digit loops they replaced, kept as the reference they must agree with
# (`lex_compare`'s is the digit scan of its test above).

_WORD_RE_REF = re.compile(r"^(?:[0-9]*|\[\s*\d+(?:\s*,\s*\d+)*\s*\])$")


def _word_ref(digits):
    w = tuple(int(d) for d in digits)
    if any(d < 0 for d in w):
        raise ValueError("digits must be nonnegative")
    return w


def _parse_word_ref(text):
    text = text.strip()
    if not _WORD_RE_REF.match(text):
        raise ParseError("invalid word: %r" % text)
    if text.startswith("["):
        return _word_ref(int(t) for t in text[1:-1].split(","))
    return _word_ref(int(ch) for ch in text)


def _format_word_ref(w):
    if all(d <= 9 for d in w):
        return "".join(str(d) for d in w)
    return "[" + ",".join(str(d) for d in w) + "]"


def _complement_word_ref(w, b):
    if any(d > b for d in w):
        raise ValueError("digit exceeds the complement base %d" % b)
    return tuple(b - d for d in w)


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


digit_strings = st.text(alphabet="0123456789", max_size=40)
bracket_words = st.builds(
    lambda ds, seps, pad: "[" + pad + "".join(
        str(d) + sep for d, sep in zip(ds, seps))[:-1] + pad + "]",
    st.lists(wide_digits, min_size=1, max_size=8),
    st.lists(st.sampled_from([",", ", ", " ,", " , "]), min_size=8,
             max_size=8),
    st.sampled_from(["", " "]))
texts = st.one_of(digit_strings, bracket_words,
                  st.text(alphabet="0123456789[], ()-a\n", max_size=12),
                  st.text(max_size=8))


@given(texts)
@settings(max_examples=300)
def test_parse_word_matches_the_per_digit_reference(text):
    assert _outcome(parse_word, text) == _outcome(_parse_word_ref, text)


@given(wide_words)
def test_format_word_matches_the_per_digit_reference(w):
    assert format_word(w) == _format_word_ref(w)
    assert parse_word(format_word(w)) == w


@given(st.lists(st.integers(-3, 12), max_size=12))
def test_word_matches_the_per_digit_reference(digits):
    assert _outcome(word, digits) == _outcome(_word_ref, digits)
    assert _outcome(word, tuple(digits)) == _outcome(_word_ref, digits)


@given(wide_words, st.integers(0, 12))
def test_complement_word_matches_the_per_digit_reference(w, b):
    assert _outcome(complement_word, w, b) == \
        _outcome(_complement_word_ref, w, b)


def test_digits_must_be_ints():
    # `word` does not convert its digits: `_word_ref`'s per-digit `int()`
    # reads ("110", "1") as (1, 1, 0)(1), `word` refuses it
    with pytest.raises(TypeError):
        ep_sequence("110", "1")
    # a raw EPSequence skips `word`'s check, and printing needs it
    with pytest.raises(ValueError):
        str(EPSequence((1, -1), (0,)))
