"""Finite digit words and eventually periodic sequences.

A Word is a tuple of nonnegative integers.  An EPSequence is a canonical
(preperiod, period) pair: the period is primitive and the preperiod is as
short as possible, which makes structural equality coincide with equality
of the represented infinite sequences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm


class ParseError(ValueError):
    """Input does not match the word / sequence grammar."""


LT, EQ, GT = -1, 0, 1


def word(digits) -> tuple:
    w = tuple(int(d) for d in digits)
    if any(d < 0 for d in w):
        raise ValueError("digits must be nonnegative")
    return w


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
    if any(d > b for d in w):
        raise ValueError("digit exceeds the complement base %d" % b)
    return tuple(b - d for d in w)


def complement(s: EPSequence, b: int) -> EPSequence:
    """Digitwise b - digit; `complement_word` does it for a word."""
    return ep_sequence(complement_word(s.preperiod, b),
                       complement_word(s.period, b))


def lex_compare(a: EPSequence, b: EPSequence) -> int:
    """Exact lexicographic comparison of two eventually periodic sequences."""
    if a == b:
        return EQ
    bound = max(len(a.preperiod), len(b.preperiod)) + lcm(len(a.period),
                                                          len(b.period))
    for i in range(1, bound + 1):
        da, db = a.digit(i), b.digit(i)
        if da != db:
            return LT if da < db else GT
    return EQ


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
        return word(int(t) for t in text[1:-1].split(","))
    return word(int(ch) for ch in text)


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
    if all(d <= 9 for d in w):
        return "".join(str(d) for d in w)
    return "[" + ",".join(str(d) for d in w) + "]"
