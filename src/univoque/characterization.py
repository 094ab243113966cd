"""Lexicographic admissibility and univoqueness checks.

A sequence is the greedy expansion of some base iff every shifted tail is
strictly below the sequence itself (condition 21).  Univoqueness adds the
same strict bound for complemented tails (22).  The closure of the
univoque set relaxes 21 to non-strict (23) while keeping the complement
condition strict (24).  All quantifiers over shifts reduce to the n = p + r
distinct shifts of the canonical eventually periodic form (preperiod p,
period r), and one scan of the first 2n digits (`_scan`) decides them for
`classify` and for the greedy and quasi-greedy admissibility checks.

The scan reads each order off a longest common prefix with the sequence:
z[j] for the j-th shift (the Z-function of the window; Gusfield,
Algorithms on Strings, Trees and Sequences, 1997, section 1.4) and y[j]
for its complement (matching statistics against the same z array).  Both are
built left to right from earlier values, and every digit comparison that
matches extends a known match further into the window, so the pass makes
at most n + p + r matching comparisons per array and one mismatch per
shift: linear in n, where comparing each shift directly costs n^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .words import (EPSequence, LT, EQ, GT, complement, complement_word,
                    shift, format_sequence)

# stable numeric codes for the shift conditions, reported in witnesses
SHIFT_STRICT = 21          # shifted tail <  sequence   (greedy / univoque)
COMPL_STRICT_GREEDY = 22   # complemented tail < sequence (univoque)
SHIFT_WEAK = 23            # shifted tail <= sequence   (closure)
COMPL_STRICT_QUASI = 24    # complemented tail < sequence (closure)


class NotInClosureError(ValueError):
    """The target word is not the quasi-greedy expansion of a closure point."""


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


def _scan(s: EPSequence, complements: bool) -> list:
    """The first shift of s that fails 21 and the first that fails 23, and
    with complements=True the first complement that fails 22 (and so 24),
    as (condition, j, order) failures in order of j.  A complement scan
    needs every digit at most the first.

    With p and r the preperiod and period lengths of the canonical form
    (so the period is primitive), the distinct shifts are sigma^j(s) for
    1 <= j <= n = p + r.  Each of them, its complement and s itself have
    a preperiod of length <= p and a period of length r.  Two such
    sequences that agree on their first p + r digits agree from digit p + 1
    on over a whole period, hence everywhere, so their first difference
    (if any) falls within p + r digits: the bound `lex_compare` uses.  So
    with w the first 2n digits of s, sigma^j(s) compares with s as the
    word w[j:j+n] compares with w[:n], and its complement as the
    complemented word does.

    Both are read off longest common prefixes, capped at n:
    z[j] = lcp(w[j:], w) (the Z-function) and y[j] = lcp(cw[j:], w), with
    cw the complement of w.  sigma^j(s) equals s when z[j] = n; otherwise
    the digits w[j + z[j]] and w[z[j]] decide the order.  Each array keeps
    a box [l, e) whose digits are known to repeat a prefix of w
    (w[l:e] = w[:e - l], and cw[l:e] = w[:e - l]); for j inside it the
    lcp is z[j - l] when that ends before e, and otherwise it is extended
    digit by digit from e.  A matching comparison moves e right within the
    2n digits of w, and each j ends with at most one mismatch, so each
    array costs at most n + p + r matches and n mismatches, against
    n slices of n digits for the direct comparisons.  The pass stops at
    the first j by which all of 21, 23 and the complement condition have
    failed; the shifted sequences are built only for the witnesses, at
    most four.
    """
    w, n = _window(s)
    b = w[0]
    failures = []
    # 22 and 24 are the same strict bound on complements: one flag
    ok21 = ok23 = True
    ok_compl = complements
    # the boxes: w[zl:ze] = w[:ze - zl] and cw[yl:ye] = w[:ye - yl]
    z = [n]
    zl = ze = yl = ye = 0
    for j in range(1, n + 1):
        # z[j]: inside the box it is z[j - zl] if that ends before ze;
        # otherwise it is at least ze - j, and the digits from ze decide
        k = ze - j
        if k > 0 and z[j - zl] < k:
            k = z[j - zl]
        else:
            if k < 0:
                k = 0
            while k < n and w[j + k] == w[k]:
                k += 1
            zl, ze = j, j + k
        z.append(k)
        if k == n or w[j + k] > w[k]:
            c = EQ if k == n else GT
            if ok21:
                ok21 = False
                failures.append((SHIFT_STRICT, j, c))
            if c == GT and ok23:
                ok23 = False
                failures.append((SHIFT_WEAK, j, c))
        if ok_compl:
            # y[j] by the same rule, matched against z; cw[i] = b - w[i]
            k = ye - j
            if k > 0 and z[j - yl] < k:
                k = z[j - yl]
            else:
                if k < 0:
                    k = 0
                while k < n and b - w[j + k] == w[k]:
                    k += 1
                yl, ye = j, j + k
            if k == n or b - w[j + k] > w[k]:
                ok_compl = False
                c = EQ if k == n else GT
                failures.append((COMPL_STRICT_GREEDY, j, c))
                failures.append((COMPL_STRICT_QUASI, j, c))
        if not (ok21 or ok23 or ok_compl):
            break
    return failures


def classify(s: EPSequence) -> UnivoqueCertificate:
    """Evaluate all four shift conditions on the distinct shifts of s, by
    one `_scan`; a digit above the first fails them all at once."""
    b = s.digit(1)
    if s.max_digit > b:
        w = ConditionWitness(COMPL_STRICT_GREEDY, 0, format_sequence(s),
                             str(b), "digit exceeds first digit")
        return UnivoqueCertificate("inadmissible", (w,), 0)
    failures = _scan(s, complements=True)
    failed = {cond for cond, _, _ in failures}
    if not failed & {SHIFT_STRICT, COMPL_STRICT_GREEDY}:
        verdict = "univoque"
    elif not failed & {SHIFT_WEAK, COMPL_STRICT_QUASI}:
        verdict = "closure_only"
    else:
        verdict = "inadmissible"
    return UnivoqueCertificate(verdict, _witnesses(s, failures),
                               len(s.preperiod) + len(s.period))


def check_greedy_admissible(s: EPSequence):
    """Is s the greedy expansion of 1 for some base (Parry's condition)?

    Returns (bool, witness-or-None); the witness records the smallest
    failing shift index."""
    # a shift that fails 23 fails 21, so the first failure is one of 21
    failures = _scan(s, complements=False)
    if failures:
        return False, _witnesses(s, failures[:1])[0]
    return True, None


def check_quasi_greedy_admissible(s: EPSequence) -> bool:
    """Is s the quasi-greedy expansion of 1 for some q > 1?  Requires
    infinitely many nonzero digits plus the non-strict shift condition."""
    return not s.is_finite() and all(
        cond != SHIFT_WEAK for cond, _, _ in _scan(s, complements=False))


def find_m(s: EPSequence, k: int, cap: int | None = None) -> int:
    """Smallest m in [k, cap] such that for every 0 <= j < m the
    complemented block of digits j+1..m is strictly below the leading block
    of the same length."""
    cert = classify(s)
    if not cert.in_closure:
        raise NotInClosureError("sequence is not closure-admissible")
    if k < 1:
        raise ValueError("k must be >= 1")
    if cap is None:
        cap = 50 * (len(s.preperiod) + len(s.period))
    if cap < k:
        raise ValueError("cap must be >= k")
    b = s.digit(1)
    # both blocks have m - j digits, so tuple order is lexicographic order
    for m in range(k, cap + 1):
        prefix = s.prefix(m)
        if all(complement_word(prefix[j:], b) < prefix[:m - j]
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
        if complement_word(head[:m], b) >= head[m:2 * m]:
            return False, m
    return True, None
