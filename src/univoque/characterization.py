"""Lexicographic admissibility and univoqueness checks.

A sequence is the greedy expansion of some base iff every shifted tail is
strictly below the sequence itself (condition 21).  Univoqueness adds the
same strict bound for complemented tails (22).  The closure of the
univoque set relaxes 21 to non-strict (23) while keeping the complement
condition strict (24).  All quantifiers over shifts reduce to the finite
set of distinct shifts of the canonical eventually periodic form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .words import (EPSequence, LT, EQ, GT, complement, complement_word,
                    lex_compare_word, shift, format_sequence)

# stable numeric codes for the shift conditions, reported in witnesses
SHIFT_STRICT = 21          # shifted tail <  sequence   (greedy / univoque)
COMPL_STRICT_GREEDY = 22   # complemented tail < sequence (univoque)
SHIFT_WEAK = 23            # shifted tail <= sequence   (closure)
COMPL_STRICT_QUASI = 24    # complemented tail < sequence (closure)


class SearchCapExceeded(RuntimeError):
    """An existence-guaranteed search ran past its engineering cap."""


@dataclass(frozen=True)
class ConditionWitness:
    condition: int
    j: int
    left: str
    right: str
    relation: str

    def as_dict(self) -> dict:
        return {"condition": self.condition, "j": self.j,
                "left": self.left, "right": self.right,
                "relation": self.relation}


@dataclass(frozen=True)
class UnivoqueCertificate:
    verdict: str                       # univoque | closure_only | inadmissible
    witnesses: tuple = field(default_factory=tuple)
    shifts_checked: int = 0

    @property
    def is_univoque(self) -> bool:
        return self.verdict == "univoque"

    @property
    def in_closure(self) -> bool:
        return self.verdict in ("univoque", "closure_only")

    def as_dict(self) -> dict:
        return {"verdict": self.verdict,
                "shifts_checked": self.shifts_checked,
                "witnesses": [w.as_dict() for w in self.witnesses]}


def _rel(cmp: int) -> str:
    return {LT: "<", EQ: "=", GT: ">"}[cmp]


def _order(a: tuple, b: tuple) -> int:
    return (a > b) - (a < b)


def _window(s: EPSequence):
    """(w, n): n = p + r distinct shifts and the first 2n digits of s."""
    n = len(s.preperiod) + len(s.period)
    return s.prefix(2 * n), n


def _witnesses(s: EPSequence, failures: list) -> tuple:
    """Witnesses for the (condition, j, order) failures, in order.  Each
    shifted (or complemented) sequence is built and formatted once."""
    b = s.digit(1)
    right = format_sequence(s)
    lefts = {}
    out = []
    for cond, j, c in failures:
        key = (j, cond in (COMPL_STRICT_GREEDY, COMPL_STRICT_QUASI))
        if key not in lefts:
            t = shift(s, j)
            lefts[key] = format_sequence(complement(t, b) if key[1] else t)
        out.append(ConditionWitness(cond, j, lefts[key], right, _rel(c)))
    return tuple(out)


def classify(s: EPSequence) -> UnivoqueCertificate:
    """Evaluate all four shift conditions on the distinct shifts of s.

    With p and r the preperiod and period lengths of the canonical form
    (so the period is primitive), the distinct shifts are sigma^j(s) for
    1 <= j <= n = p + r.  Each of them, its complement and s itself have
    a preperiod of length <= p and a period of length r.  Two such
    sequences that agree on their first p + r digits agree from digit p + 1
    on over a whole period, hence everywhere, so their first difference
    (if any) falls within p + r digits: the bound `lex_compare` uses.  So
    with w the first 2n digits of s, sigma^j(s) compares with s as the
    word w[j:j+n] compares with w[:n], and its complement as the
    complemented slice does.  Those are tuple comparisons; the shifted
    sequences are built only for the witnesses, at most four.
    """
    b = s.digit(1)
    if s.max_digit > b:
        w = ConditionWitness(COMPL_STRICT_GREEDY, 0, format_sequence(s),
                             str(b), "digit exceeds first digit")
        return UnivoqueCertificate("inadmissible", (w,), 0)

    w, n = _window(s)
    cw = complement_word(w, b)
    head = w[:n]
    failures = []
    # 22 and 24 are the same strict bound on complements: one flag
    ok21 = ok23 = ok_compl = True
    # b is the largest digit, so a shift (complement) can reach s only
    # when its first digit w[j] is b (0); no slice is built otherwise
    for j in range(1, n + 1):
        if w[j] == b and w[j:j + n] >= head:
            c = _order(w[j:j + n], head)
            if ok21:
                ok21 = False
                failures.append((SHIFT_STRICT, j, c))
            if c == GT and ok23:
                ok23 = False
                failures.append((SHIFT_WEAK, j, c))
        if ok_compl and w[j] == 0 and cw[j:j + n] >= head:
            ok_compl = False
            c = _order(cw[j:j + n], head)
            failures.append((COMPL_STRICT_GREEDY, j, c))
            failures.append((COMPL_STRICT_QUASI, j, c))
        if not (ok21 or ok23 or ok_compl):
            break

    if ok21 and ok_compl:
        verdict = "univoque"
    elif ok23 and ok_compl:
        verdict = "closure_only"
    else:
        verdict = "inadmissible"
    return UnivoqueCertificate(verdict, _witnesses(s, failures), n)


def check_greedy_admissible(s: EPSequence):
    """Is s the greedy expansion of 1 for some base (Parry's condition)?

    Returns (bool, witness-or-None); the witness records the smallest
    failing shift index.  Shifts are compared on one digit window, as in
    `classify`."""
    w, n = _window(s)
    head = w[:n]
    for j in range(1, n + 1):
        if w[j] >= w[0] and w[j:j + n] >= head:
            c = _order(w[j:j + n], head)
            return False, _witnesses(s, [(SHIFT_STRICT, j, c)])[0]
    return True, None


def check_quasi_greedy_admissible(s: EPSequence) -> bool:
    """Is s the quasi-greedy expansion of 1 for some q > 1?  Requires
    infinitely many nonzero digits plus the non-strict shift condition,
    checked on one digit window as in `classify`."""
    if s.is_finite():
        return False
    w, n = _window(s)
    head = w[:n]
    return not any(w[j] >= w[0] and w[j:j + n] > head
                   for j in range(1, n + 1))


def find_m(s: EPSequence, k: int, cap: int | None = None) -> int:
    """Smallest m in [k, cap] such that for every 0 <= j < m the
    complemented block of digits j+1..m is strictly below the leading block
    of the same length."""
    cert = classify(s)
    if not cert.in_closure:
        raise ValueError("sequence is not closure-admissible")
    if k < 1:
        raise ValueError("k must be >= 1")
    if cap is None:
        cap = 50 * (len(s.preperiod) + len(s.period))
    if cap < k:
        raise ValueError("cap must be >= k")
    b = s.digit(1)
    for m in range(k, cap + 1):
        prefix = s.prefix(m)
        if all(lex_compare_word(complement_word(prefix[j:], b),
                                prefix[:m - j]) == LT
               for j in range(m)):
            return m
    raise SearchCapExceeded("no valid m found up to cap %d" % cap)


def verify_lemma_26(s: EPSequence, m_max: int):
    """Check, for m = 1..m_max, that the complemented length-m prefix is
    strictly below the next block of m digits.  Returns (bool, first
    failing m or None)."""
    b = s.digit(1)
    head = s.prefix(2 * m_max)
    for m in range(1, m_max + 1):
        if lex_compare_word(complement_word(head[:m], b),
                            head[m:2 * m]) != LT:
            return False, m
    return True, None
