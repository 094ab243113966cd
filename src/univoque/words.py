"""Finite digit words and eventually periodic sequences.

A Word is a tuple of nonnegative integers.  An EPSequence is a canonical
(preperiod, period) pair: the period is primitive and the preperiod is as
short as possible, which makes structural equality coincide with equality
of the represented infinite sequences.

Each whole-word operation is one call into C, never a loop over digits in
Python: a word is validated by one `min`, a digit string crosses one
`bytes.translate` table each way (characters "0".."9" to digits 0..9 and
back), and a complement is one `map`.  Only a digit above 9 takes the
bracket form "[d,d,...]", read and printed one number at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd


class ParseError(ValueError):
    """Input does not match the word / sequence grammar."""


LT, EQ, GT = -1, 0, 1


def word(digits) -> tuple:
    """The digits as a Word.

    The digits must be ints: they are not converted, and the one `min`
    check refuses only a negative digit.  Other digit types are not
    supported (`ep_sequence("110", "1")` raises TypeError).  `format_word`
    needs the same nonnegative ints, which a raw EPSequence built without
    this check need not have."""
    w = tuple(digits)
    if w and min(w) < 0:
        raise ValueError("digits must be nonnegative")
    return w


# digit d <-> character "0" + d, for 0 <= d <= 9
_FROM_TEXT = bytes.maketrans(b"0123456789", bytes(range(10)))
_TO_TEXT = bytes.maketrans(bytes(range(10)), b"0123456789")


def _primitive(per: tuple) -> tuple:
    r = len(per)
    for d in range(1, r + 1):
        if r % d == 0 and per[:d] * (r // d) == per:
            return per[:d]
    return per


@dataclass(frozen=True)
class EPSequence:
    preperiod: tuple
    period: tuple

    def digit(self, i: int) -> int:
        """1-based digit access."""
        p = len(self.preperiod)
        if i <= p:
            return self.preperiod[i - 1]
        return self.period[(i - p - 1) % len(self.period)]

    def prefix(self, n: int) -> tuple:
        pre, per = self.preperiod, self.period
        if n <= len(pre):
            return pre[:max(n, 0)]
        return (pre + per * -(-(n - len(pre)) // len(per)))[:n]

    @property
    def max_digit(self) -> int:
        return max(self.preperiod + self.period)

    def is_finite(self) -> bool:
        """True iff only finitely many digits are nonzero."""
        return not any(self.period)

    def __str__(self) -> str:
        return format_word(self.preperiod) + "(" + format_word(self.period) + ")"


def ep_sequence(pre, per) -> EPSequence:
    """Canonicalize a (preperiod, period) pair: make the period primitive,
    then drop the t last preperiod digits that repeat it and rotate it
    right by t, once."""
    pre = word(pre)
    per = word(per)
    if not per:
        raise ParseError("period must be nonempty")
    per = _primitive(per)
    t = 0
    while t < len(pre) and pre[-1 - t] == per[-1 - t % len(per)]:
        t += 1
    d = t % len(per)
    return EPSequence(pre[:len(pre) - t], per[-d:] + per[:-d])


def shift(s: EPSequence, j: int) -> EPSequence:
    """Drop the first j digits."""
    if j < 0:
        raise ValueError("shift must be nonnegative")
    p = len(s.preperiod)
    if j <= p:
        return ep_sequence(s.preperiod[j:], s.period)
    d = (j - p) % len(s.period)
    return ep_sequence((), s.period[d:] + s.period[:d])


def complement_word(w: tuple, b: int) -> tuple:
    """Digitwise b - digit of the Word w."""
    if w and max(w) > b:
        raise ValueError("digit exceeds the complement base %d" % b)
    return tuple(map(b.__sub__, w))


def complement(s: EPSequence, b: int) -> EPSequence:
    """Digitwise b - digit; `complement_word` does it for a word."""
    return ep_sequence(complement_word(s.preperiod, b),
                       complement_word(s.period, b))


def lex_compare(a: EPSequence, b: EPSequence) -> int:
    """Exact lexicographic comparison of two eventually periodic sequences.

    After both preperiods, of lengths <= p, the two sequences are periodic
    with periods r and r'; by the Fine-Wilf theorem, two such tails that
    agree on r + r' - gcd(r, r') digits agree everywhere.  So the first
    difference, if any, falls within n = p + r + r' - gcd(r, r') digits,
    and the first n digits order the sequences as tuples do."""
    r, r2 = len(a.period), len(b.period)
    n = max(len(a.preperiod), len(b.preperiod)) + r + r2 - gcd(r, r2)
    x, y = a.prefix(n), b.prefix(n)
    return EQ if x == y else LT if x < y else GT


# --- string grammar -------------------------------------------------------
#
#   WORD := DIGITSEQ | "[" INT ("," INT)* "]"
#   SEQ  := WORD? "(" WORD ")"
#
# "110110(11010010)" is preperiod 110110 with period 11010010; "(10)" is
# (10)^infinity; "1101" alone has no period and is refused.

_WORD_RE = re.compile(r"^(?:[0-9]*|\[\s*\d+(?:\s*,\s*\d+)*\s*\])$")


def parse_word(text: str) -> tuple:
    text = text.strip()
    if not _WORD_RE.match(text):
        raise ParseError("invalid word: %r" % text)
    if text.startswith("["):
        return tuple(int(t) for t in text[1:-1].split(","))
    return tuple(text.encode().translate(_FROM_TEXT))


def parse_sequence(text: str) -> EPSequence:
    """Parse the SEQ grammar into a canonical EPSequence."""
    text = text.strip()
    m = re.match(r"^(.*?)(?:\((.+)\))?$", text)
    if m is None:
        raise ParseError("invalid sequence: %r" % text)
    pre_txt, per_txt = m.group(1), m.group(2)
    pre = parse_word(pre_txt) if pre_txt else ()
    if per_txt is None:
        raise ParseError("an infinite sequence is required; add an "
                         "explicit period, e.g. '111(0)'")
    return ep_sequence(pre, parse_word(per_txt))


def format_word(w: tuple) -> str:
    """The digit string of the Word w, or its bracket form if a digit
    exceeds 9."""
    if not w or max(w) <= 9:
        return bytes(w).translate(_TO_TEXT).decode()
    return "[" + ",".join(map(str, w)) + "]"
