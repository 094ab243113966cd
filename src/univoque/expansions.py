"""Greedy and quasi-greedy expansions of 1, base solving, Thue-Morse.

The number 1 is expanded in a base q > 1 (q >= 1 for greedy) as
sum_i c_i q^{-i} = 1.  Digit decisions are exact: rational bases use
Fraction arithmetic, algebraic bases use sign tests of residual
polynomials reduced modulo the defining polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import polynomials as pl
from .algebraic import (AlgebraicReal, DomainError, floor_of, refine,
                        sign_of_fraction_poly, reduce_mod)
from .words import EPSequence, ep_sequence, word


class NoBaseError(ValueError):
    """The sequence has no base q > 1 with value 1 (digit sum < 2)."""


@dataclass(frozen=True)
class ExpansionPrefix:
    digits: tuple
    depth: int
    exact: bool


def coerce_base(q):
    """Accept a Fraction/int, an AlgebraicReal, or an EPSequence (meaning
    the unique base where its value is 1)."""
    if isinstance(q, AlgebraicReal):
        return q
    if isinstance(q, EPSequence):
        return solve_base(q)
    return Fraction(q)


def value(s: EPSequence, q) -> Fraction:
    """Exact value of sum_i s_i q^{-i} for rational q > 1."""
    q = Fraction(q)
    if q <= 1:
        raise DomainError("value requires q > 1")
    p, r = len(s.preperiod), len(s.period)
    x = 1 / q
    u = Fraction(0)
    for d in reversed(s.preperiod):
        u = (u + d) * x
    w = Fraction(0)
    for d in reversed(s.period):
        w = (w + d) * x
    return u + x ** p * w / (1 - x ** r)


def poly_from_sequence(s: EPSequence) -> tuple:
    """Integer polynomial vanishing exactly where value(s, q) = 1 (q > 1).

    P(q) = q^p (q^r - 1) - (q^r - 1) U(q) - W(q) with U, W the preperiod
    and period digit polynomials.
    """
    if not any(s.preperiod) and not any(s.period):
        raise ValueError("all-zero sequence has no defining polynomial")
    p, r = len(s.preperiod), len(s.period)
    u = pl.poly(reversed(s.preperiod))          # U(q) = sum u_i q^{p-i}
    w = pl.poly(reversed(s.period))             # W(q) = sum w_i q^{r-i}
    lead = pl.sub(pl.shift_up((1,), p + r), pl.shift_up((1,), p))
    mid = pl.sub(pl.shift_up(u, r), u)
    return pl.sub(pl.sub(lead, mid), w)


def solve_base(s: EPSequence) -> AlgebraicReal:
    """The unique q > 1 with value(s, q) = 1, as a certified algebraic real.

    The bracket 1 < lo < hi has value(s, lo) > 1 > value(s, hi).  For
    q > 1 the defining polynomial is P(q) = q^p (q^r - 1) (1 - value(s, q))
    with q^p (q^r - 1) > 0, and value(s, .) has the derivative
    -sum_i i s_i q^(-i-1) < 0.  So P(lo) < 0 < P(hi) certifies that P has
    exactly one root in (lo, hi) and that the root is simple: no Sturm
    count and no square-free part are needed.  Those two signs are checked
    on P itself, in integers, so a P that disagrees with value raises.
    """
    if s.digit_sum < 2:
        raise NoBaseError("digit sum < 2: no base q > 1 exists")
    p = poly_from_sequence(s)
    m = s.max_digit
    hi = Fraction(m + 1)
    if value(s, hi) == 1:
        hi = Fraction(m + 2)
    lo = None
    t = 1
    while lo is None:
        cand = 1 + Fraction(1, 2 ** t)
        if cand < hi:
            v = value(s, cand)
            if v > 1:
                lo = cand
            elif v == 1:
                # the probe hit the root exactly; step closer to 1
                pass
        t += 1
        if t > 64 and lo is None:
            raise NoBaseError("no bracket found left of the root")
    if not (pl.scaled_value(p, lo.numerator, lo.denominator) < 0
            < pl.scaled_value(p, hi.numerator, hi.denominator)):
        raise RuntimeError("internal error: the defining polynomial does "
                           "not change sign from - to + over (%s, %s)"
                           % (lo, hi))
    return refine(AlgebraicReal(p, lo, hi), Fraction(1, 2))


# --- expansion digit machinery ---------------------------------------------


def _digit_cap(q) -> int:
    if isinstance(q, AlgebraicReal):
        n, is_int = floor_of(q)
        return n
    return int(Fraction(q))


def _greedy_rational(q: Fraction, n: int):
    r = Fraction(1)
    digits = []
    for _ in range(n):
        x = q * r
        g = x.numerator // x.denominator
        digits.append(g)
        r = x - g
    return digits


def _quasi_rational(q: Fraction, n: int):
    r = Fraction(1)
    digits = []
    for _ in range(n):
        x = q * r
        if x.denominator == 1:
            a = x.numerator - 1
        else:
            a = x.numerator // x.denominator
        digits.append(a)
        r = x - a
    return digits


class _Residual:
    """Residual q^n (1 - sum_{i<=n} c_i q^{-i}) as a polynomial in q reduced
    modulo the defining polynomial of an algebraic base."""

    def __init__(self, a: AlgebraicReal):
        self.base = a
        self.f = a.poly
        d = pl.degree(a.poly)
        self.r = [Fraction(0)] * d
        if d >= 1:
            self.r[0] = Fraction(1)
        self.is_zero = False

    def times_q(self) -> list:
        shifted = [Fraction(0)] + self.r
        return reduce_mod(shifted, self.f)

    def sign_minus(self, coeffs: list, t: int) -> int:
        c = list(coeffs)
        c[0] -= t
        if all(x == 0 for x in c):
            return 0
        return sign_of_fraction_poly(c, self.base)


def _expand_algebraic(a: AlgebraicReal, n: int, strict: bool):
    res = _Residual(a)
    cap = _digit_cap(a) + 1
    digits = []
    for _ in range(n):
        if res.is_zero:
            if strict:
                raise DomainError("residual vanished: expansion is finite")
            digits.append(0)
            continue
        x = res.times_q()
        d = 0
        while True:
            s = res.sign_minus(x, d + 1)
            if s < 0 or (strict and s == 0):
                break
            d += 1
            if d > cap:
                raise RuntimeError("digit exceeds the cap %d: the sign test "
                                   "invariant is violated" % cap)
        digits.append(d)
        res.r = list(x)
        res.r[0] -= d
        if all(c == 0 for c in res.r):
            res.is_zero = True
    return digits


def _check_depth(n: int) -> None:
    if n < 0:
        raise DomainError("depth must be >= 0, got %d" % n)


def greedy_expansion(q, n: int) -> ExpansionPrefix:
    """First n digits of the greedy expansion of 1 in base q >= 1."""
    _check_depth(n)
    base = coerce_base(q)
    if isinstance(base, Fraction):
        if base < 1:
            raise DomainError("greedy expansion requires q >= 1")
        digits = _greedy_rational(base, n)
    else:
        if sign_of_fraction_poly([Fraction(-1), Fraction(1)], base) < 0:
            raise DomainError("greedy expansion requires q >= 1")
        digits = _expand_algebraic(base, n, strict=False)
    return ExpansionPrefix(word(digits), n, True)


def quasi_greedy_expansion(q, n: int) -> ExpansionPrefix:
    """First n digits of the quasi-greedy expansion of 1; needs q > 1."""
    _check_depth(n)
    base = coerce_base(q)
    if isinstance(base, Fraction):
        if base <= 1:
            raise DomainError("quasi-greedy expansion requires q > 1")
        digits = _quasi_rational(base, n)
    else:
        if sign_of_fraction_poly([Fraction(-1), Fraction(1)], base) <= 0:
            raise DomainError("quasi-greedy expansion requires q > 1")
        digits = _expand_algebraic(base, n, strict=True)
    return ExpansionPrefix(word(digits), n, True)


def quasi_from_greedy(g) -> EPSequence:
    """Periodic quasi-greedy expansion sharing the base of the finite greedy
    word g: (g_1 ... g_{m-1} (g_m - 1))^infinity."""
    from .characterization import check_greedy_admissible

    g = word(g)
    if not g or g[-1] < 1:
        raise ValueError("greedy word must end in a nonzero digit")
    as_seq = ep_sequence(g, (0,))
    ok, witness = check_greedy_admissible(as_seq)
    if not ok:
        raise ValueError("word is not a valid finite greedy expansion "
                         "(fails the shift condition at j=%d)" % witness.j)
    per = g[:-1] + (g[-1] - 1,)
    if not any(per):
        raise NoBaseError("resulting base would be q = 1")
    return ep_sequence((), per)


# --- Thue-Morse / Komornik-Loreti -------------------------------------------


def thue_morse_prefix(n: int) -> tuple:
    """First n terms of the truncated Thue-Morse sequence (1-based), built
    by the doubling recursion t_{2^N} = 1, t_{2^N + i} = 1 - t_i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = [1]
    while len(t) < n:
        t = t + [1] + [1 - x for x in t]
    return tuple(t[:n])


# extra bits of the fixed-point filter beyond bits(d), which resolves a
# bisection midpoint, and bits(L), which absorbs the error of the tail
# power: that error grows about linearly in L
_KL_GUARD = 24


def _fixed_mul(a: int, b: int, prec: int, up: bool) -> int:
    """a * b / 2^prec rounded up or down, for a, b >= 0."""
    return -(-(a * b) >> prec) if up else (a * b) >> prec


def _fixed_pow(x: int, e: int, prec: int, up: bool) -> int:
    """x^e in fixed point (scale 2^prec) by squaring, every product rounded
    the same way, so the result is a lower (upper) bound when x is."""
    r = 1 << prec
    while e:
        if e & 1:
            r = _fixed_mul(r, x, prec, up)
        x = _fixed_mul(x, x, prec, up)
        e >>= 1
    return r


def _kl_enclosure(tau: list, n: int, d: int, prec: int) -> tuple:
    """(s_lo, s_hi, t_lo, t_hi) with s_lo <= 2^prec S <= s_hi and
    t_lo <= 2^prec T <= t_hi, where S = sum_{i<=L} tau_i q^-i and
    T = q^-L / (q - 1) at q = n/d > 1, L = len(tau).

    With x = 1/q = d/n, floor and ceil Horner in fixed point (scale
    2^prec) from floor(x 2^prec) and ceil(x 2^prec) enclose S; binary
    powering with the same rounding encloses x^L, and T = x^L d / (n - d).
    Every quantity is >= 0, so rounding each product down (up) keeps a
    lower (upper) bound.  Each Horner step widens the S enclosure by
    about q/(q - 1) + 2 units and x < 1 damps what came before, so at a
    precision well above bits(d) it stays within about
    (q/(q - 1) + 2) q/(q - 1) units: 15 for q >= 3/2.
    """
    one = 1 << prec
    x_lo = (d << prec) // n
    x_hi = -(-(d << prec) // n)
    s_lo = s_hi = 0
    for t in reversed(tau):
        s_lo = ((s_lo + t * one) * x_lo) >> prec
        s_hi = -(-((s_hi + t * one) * x_hi) >> prec)
    L = len(tau)
    t_lo = _fixed_pow(x_lo, L, prec, False) * d // (n - d)
    t_hi = -(-_fixed_pow(x_hi, L, prec, True) * d // (n - d))
    return s_lo, s_hi, t_lo, t_hi


def _kl_side(q: Fraction, tau: list) -> int:
    """+1 when the Thue-Morse value at q exceeds 1, -1 when it falls short.

    The rule, on the prefix of L terms with S = sum_{i<=L} tau_i q^-i and
    the tail bound T = q^-L / (q - 1) >= sum_{i>L} tau_i q^-i: +1 when
    S > 1, -1 when S + T < 1, else the prefix doubles and the rule runs
    again.  It is decided in integers, with q = n/d:

    - filter: `_kl_enclosure` at prec = bits(d) + bits(L) + _KL_GUARD
      decides each comparison it can;
    - fallback, for the one comparison the enclosure leaves open: n^L S is
      the integer d * scaled_value(reversed tau, n, d), so S > 1 iff it
      exceeds n^L, and S + T < 1 iff (n - d) n^L S + d^(L+1) is below
      (n - d) n^L.

    Both paths decide the same rule, so the result and the final prefix
    length do not depend on the filter.  tau is extended in place.
    """
    n, d = q.numerator, q.denominator
    while True:
        L = len(tau)
        prec = d.bit_length() + L.bit_length() + _KL_GUARD
        one = 1 << prec
        s_lo, s_hi, t_lo, t_hi = _kl_enclosure(tau, n, d, prec)
        if s_lo > one:
            return 1
        # n^L S, computed only for a comparison the filter leaves open
        exact = None
        if s_hi > one:
            exact = d * pl.scaled_value(tuple(reversed(tau)), n, d)
            if exact > n ** L:
                return 1
        if s_hi + t_hi < one:
            return -1
        if s_lo + t_lo < one:
            if exact is None:
                exact = d * pl.scaled_value(tuple(reversed(tau)), n, d)
            if (n - d) * exact + d ** (L + 1) < (n - d) * n ** L:
                return -1
        tau.extend(thue_morse_prefix(2 * L)[L:])


def kl_constant(eps, max_iter: int = 10_000) -> tuple:
    """Rational enclosure of the smallest univoque base (~1.787).

    Bisection of q -> sum tau_i q^{-i} with rigorous tail bounds.  Returns
    (lo, hi, prefix_length_used) with hi - lo <= eps.  The bracket starts
    at width 1/2 and halves each step, so eps fixes the step count; when it
    exceeds max_iter, DomainError is raised before any work.  Each step
    decides its dyadic midpoint by `_kl_side`: a fixed-point enclosure
    with directed rounding first, and one exact integer comparison only
    for an outcome the enclosure leaves open, so lo, hi and the prefix
    length are those of the exact rule.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    # fewest steps n with 2^-(n+1) <= eps; the first guess is at most 3 short
    num, den = eps.numerator, eps.denominator
    steps = max(0, den.bit_length() - num.bit_length() - 2)
    while den > num << (steps + 1):
        steps += 1
    if steps > max_iter:
        raise DomainError("eps needs %d bisection steps, above max_iter = %d"
                          % (steps, max_iter))
    lo, hi = Fraction(3, 2), Fraction(2)
    tau = list(thue_morse_prefix(32))
    for _ in range(steps):
        mid = (lo + hi) / 2
        if _kl_side(mid, tau) > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi, len(tau)
