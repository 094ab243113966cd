"""Expected answers derived from the paper's identities, without the package.

Nothing here imports ``univoque``: every expected output is computed by
separate code (exact fractions, or mpmath at high precision) so that a
wrong answer from the code under test cannot also make its check pass.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import mpmath


# --- words ------------------------------------------------------------------

def fmt(w) -> str:
    return "".join(str(d) for d in w)


def seq_text(pre, per) -> str:
    return fmt(pre) + "(" + fmt(per) + ")"


def digits(pre, per, n: int) -> tuple:
    """First n digits of pre followed by per repeated."""
    out = list(pre[:n])
    while len(out) < n:
        out.extend(per)
    return tuple(out[:n])


def parse_seq(text: str):
    """Inverse of seq_text for single-digit sequences: (pre, per)."""
    pre, per = text.rstrip(")").split("(")
    return tuple(int(c) for c in pre), tuple(int(c) for c in per)


def is_greedy_word(w) -> bool:
    """Parry's condition for w 0^inf: every shifted tail is strictly below."""
    n = len(w) + 1
    s = digits(w, (0,), 2 * n)
    head = s[:n]
    return all(s[j:j + n] < head for j in range(1, n + 1))


def greedy_words(length: int) -> list:
    """All greedy words of a length over the digits 0-3: digit sum >= 2,
    last digit nonzero."""
    return [w for w in itertools.product(range(4), repeat=length)
            if sum(w) >= 2 and w[-1] >= 1 and is_greedy_word(w)]


def quasi_of_greedy(w) -> tuple:
    """The quasi-greedy period (w_1 .. w_{m-1} (w_m - 1)) of the base whose
    greedy expansion is w 0^inf."""
    return tuple(w[:-1]) + (w[-1] - 1,)


def is_univoque(pre, per) -> bool:
    """Both strict shift conditions on every distinct shift of pre per^inf.

    Two eventually periodic sequences with preperiod <= p and period r agree
    iff their first p + r digits agree, so comparing that many digits decides
    each lexicographic relation."""
    n = len(pre) + len(per)
    s = digits(pre, per, 2 * n)
    head, b = s[:n], s[0]
    if max(s) > b:
        return False
    for j in range(1, n + 1):
        tail = s[j:j + n]
        if not tail < head or not tuple(b - d for d in tail) < head:
            return False
    return True


def block_condition(alpha, m: int) -> bool:
    """For every j < m the complemented digits j+1..m lie strictly below the
    leading block of the same length."""
    a = digits((), alpha, m)
    b = a[0]
    return all(tuple(b - d for d in a[j:]) < a[:m - j] for j in range(m))


def minimal_m(alpha) -> int:
    m = len(alpha)
    while not block_condition(alpha, m):
        m += 1
    return m


def gamma(alpha, n: int, m: int):
    """(alpha)^N (a_1..a_m complement(a_1..a_m))^inf as (pre, per)."""
    a = digits((), alpha, m)
    b = a[0]
    return tuple(alpha) * n, a + tuple(b - d for d in a)


# --- values -----------------------------------------------------------------

def value(pre, per, x: Fraction) -> Fraction:
    """Exact sum of s_i x^{-i} for pre per^inf at a rational x > 1."""
    y = 1 / x
    u = Fraction(0)
    for d in reversed(pre):
        u = (u + d) * y
    w = Fraction(0)
    for d in reversed(per):
        w = (w + d) * y
    return u + y ** len(pre) * w / (1 - y ** len(per))


def brackets(pre, per, lo: Fraction, hi: Fraction) -> bool:
    """Does [lo, hi] contain the base q > 1 where the value of the sequence
    is 1?  The value is strictly decreasing in q."""
    return 1 < lo <= hi and value(pre, per, lo) >= 1 >= value(pre, per, hi)


def poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# --- rational bases ---------------------------------------------------------

def greedy_rational(q: Fraction, n: int, quasi: bool) -> tuple:
    r, out = Fraction(1), []
    for _ in range(n):
        x = q * r
        d = x.numerator // x.denominator
        if quasi and x.denominator == 1:
            d -= 1
        out.append(d)
        r = x - d
    return tuple(out)


def counts_rational(q: Fraction, depth: int) -> list:
    """Number of digit prefixes whose residual 0 <= r <= cap/(q-1) at each
    level, by exact branch and bound."""
    cap = q.numerator // q.denominator
    top = Fraction(cap) / (q - 1)
    frontier, counts = [Fraction(1)], []
    for _ in range(depth):
        frontier = [q * r - c for r in frontier for c in range(cap + 1)]
        frontier = [r for r in frontier if 0 <= r <= top]
        counts.append(len(frontier))
    return counts


# --- mpmath references ------------------------------------------------------

DPS = 90


def _bisect(f, lo, hi, steps: int = 320):
    """Root of a decreasing function on [lo, hi]."""
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def kl_reference():
    """The smallest univoque base, as a decimal string: the root of
    sum t_i q^{-i} = 1 where t_i is the parity of the binary digit sum of i
    (Thue-Morse)."""
    with mpmath.workdps(DPS):
        taus = [bin(i).count("1") % 2 for i in range(1, 500)]

        def f(q):
            x, acc = 1 / q, mpmath.mpf(0)
            for t in reversed(taus):
                acc = (acc + t) * x
            return acc - 1
        return mpmath.nstr(_bisect(f, "1.7", "1.9"), DPS - 5)


def periodic_base(alpha):
    """The base q whose quasi-greedy expansion of 1 is alpha^inf."""
    with mpmath.workdps(DPS):
        r = len(alpha)

        def f(q):
            x, acc = 1 / q, mpmath.mpf(0)
            for d in reversed(alpha):
                acc = (acc + d) * x
            return acc / (1 - x ** r) - 1
        return _bisect(f, "1.0000001", max(alpha) + 1)


def counts_mp(q, depth: int) -> list:
    """counts_rational at an mpmath base; residuals within 1e-40 of a bound
    count as on it (the exact residuals there are equal to the bound)."""
    with mpmath.workdps(DPS):
        cap = int(mpmath.floor(q))
        top = cap / (q - 1)
        tol = mpmath.mpf(10) ** -40
        frontier, counts = [mpmath.mpf(1)], []
        for _ in range(depth):
            frontier = [q * r - c for r in frontier for c in range(cap + 1)]
            frontier = [r for r in frontier if -tol <= r <= top + tol]
            counts.append(len(frontier))
        return counts


def contains(lo: Fraction, hi: Fraction, text: str) -> bool:
    """lo <= x <= hi for a decimal reference x, up to its error."""
    with mpmath.workdps(DPS):
        x = mpmath.mpf(text)
        slack = mpmath.mpf(10) ** -(DPS - 15)
        return (mpmath.mpf(lo.numerator) / lo.denominator <= x + slack
                and x - slack <= mpmath.mpf(hi.numerator) / hi.denominator)
