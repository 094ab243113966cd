"""Greedy and quasi-greedy expansions of 1, base solving, Thue-Morse.

The number 1 is expanded in a base q > 1 (q >= 1 for greedy) as
sum_i c_i q^{-i} = 1.  Digit decisions are exact and go through one
residual arithmetic, AlgebraicBase, which the oracle shares.  It keeps a
residual as an integer polynomial of degree < deg f over a power of the
leading coefficient of q's defining polynomial f, whose sign comes from
sign_at.  A rational q = a/b is the degree-1 case, the root of b x - a:
its residuals are integers over b^n.  No step goes through Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import polynomials as pl
from .algebraic import AlgebraicReal, DomainError, refine, sign_at
from .characterization import check_greedy_admissible
from .words import EPSequence, ep_sequence, word


class NoBaseError(ValueError):
    """The sequence has no base q > 1 with value 1 (digit sum < 2)."""


@dataclass(frozen=True)
class ExpansionPrefix:
    digits: tuple


def require_depth(depth: int, least: int = 0) -> None:
    """Expansion and enumeration take depth >= 0; a uniqueness verdict
    needs >= 1."""
    if depth < least:
        raise DomainError("depth must be >= %d, got %d" % (least, depth))


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
    and period digit polynomials, U(q) = sum_i u_i q^(p-i) and
    W(q) = sum_i w_i q^(r-i).
    """
    if not any(s.preperiod) and not any(s.period):
        raise ValueError("all-zero sequence has no defining polynomial")
    p, r = len(s.preperiod), len(s.period)
    c = [0] * (p + r + 1)
    c[p + r] = 1                                # q^p (q^r - 1)
    c[p] -= 1
    for i, d in enumerate(reversed(s.preperiod)):
        c[i] += d                               # - (q^r - 1) U(q)
        c[i + r] -= d
    for i, d in enumerate(reversed(s.period)):
        c[i] -= d                               # - W(q)
    return pl.poly(c)


def solve_base(s: EPSequence) -> AlgebraicReal:
    """The unique q > 1 where s has value 1, as a certified algebraic real.

    For q > 1 let V(q) = sum_i s_i q^-i (the function `value`).  The
    defining polynomial is P(q) = q^p (q^r - 1) (1 - V(q)) with
    q^p (q^r - 1) > 0, and V has the derivative -sum_i i s_i q^(-i-1) < 0.
    So P(q) < 0 exactly when V(q) > 1, and the bracket is found by probing
    the sign of P itself, in integers: hi = max digit + 1 (+ 1 more when P
    vanishes there) with P(hi) > 0, then the first lo = 1 + 2^-t,
    t = 1..64, with P(lo) < 0.  These probes are the certificate:
    P(lo) < 0 < P(hi) means that P has exactly one root in (lo, hi) and
    that it is simple, so no Sturm count and no square-free part are
    needed.  A P that is not positive at hi raises RuntimeError.
    """
    if s.is_finite() and sum(s.preperiod) < 2:
        raise NoBaseError("digit sum < 2: no base q > 1 exists")
    p = poly_from_sequence(s)
    hi = s.max_digit + 1
    if pl.scaled_value(p, hi, 1) == 0:
        hi += 1
    if pl.scaled_value(p, hi, 1) <= 0:
        raise RuntimeError("internal error: the defining polynomial does "
                           "not change sign from - to + over (1, %d)" % hi)
    for t in range(1, 65):
        # 1 + 2^-t < hi always; a probe at the root itself steps closer to 1
        if pl.scaled_value(p, 2 ** t + 1, 2 ** t) < 0:
            return refine(AlgebraicReal(p, 1 + Fraction(1, 2 ** t), hi),
                          Fraction(1, 2))
    raise NoBaseError("no bracket found left of the root")


# --- residual arithmetic ----------------------------------------------------
#
# The residual after n digits is r_n = q^n (1 - sum_{i<=n} c_i q^-i), so
# r_0 = 1 and r_n = q r_{n-1} - c_n.  One class, AlgebraicBase, implements
# the operations on it at every base: cap (floor of q, by the bisection of
# floor), root() (r_0), times_q(r), minus(x, c) (x - c for an integer or a
# residual c), sign(x), and floor(x) -> (t, x == t).  A rational a/b runs
# as the root of b x - a, where every residual has degree 0 and sign_at
# reads its sign off the constant.  The greedy and quasi-greedy rules below
# and the oracle's tail-bound rule are written once over these operations.


class AlgebraicBase:
    """Residual arithmetic at an algebraic base q, a root of f = a.poly.

    A residual is a pair (n, den): the integer coefficients of a polynomial
    n of degree < d = deg f, constant first, and a positive denominator
    den, a power of the leading coefficient L of f (f is negated first
    when L < 0).  Its value is n(q) / den, so its sign is sign_at(n, a).
    Multiplying by q shifts n up by one degree and removes the top term
    t q^d by q^d = -(f - L q^d)(q) / L: one shift and one subtraction of
    t f, over the denominator den L.
    """

    def __init__(self, a: AlgebraicReal):
        self.a = a
        f = a.poly if a.poly[-1] > 0 else pl.negate(a.poly)
        self.low, self.lead = f[:-1], f[-1]

    @cached_property
    def cap(self) -> int:
        """floor(q), bisected over the integers in [floor(a.lo), ceil(a.hi)),
        which hold it as a.lo < q < a.hi."""
        return self._floor(self.times_q(self.root()), math.floor(self.a.lo),
                           math.ceil(self.a.hi))[0]

    def root(self):
        return (1,) + (0,) * (len(self.low) - 1), 1

    def times_q(self, r):
        n, den = r
        top, lead = n[-1], self.lead
        return (tuple(lead * x - top * g
                      for x, g in zip((0,) + n[:-1], self.low)),
                den * lead)

    def minus(self, x, c):
        """x - c for an integer c, or for a residual c whose denominator
        divides that of x (as r's divides that of q r)."""
        n, den = x
        if isinstance(c, int):
            return (n[0] - c * den,) + n[1:], den
        m, e = c
        if e < den:
            m = tuple(v * (den // e) for v in m)
        return tuple(u - v for u, v in zip(n, m)), den

    def sign(self, x) -> int:
        return sign_at(x[0], self.a)

    def floor(self, x) -> tuple:
        """(t, x == t) with t = floor(x), for 0 <= x < cap + 2.

        A digit's x is below cap + 1; the one candidate above that, cap + 1,
        lets the digit loop see a value that breaks the invariant."""
        return self._floor(x, 0, self.cap + 2)

    def _floor(self, x, lo: int, hi: int) -> tuple:
        """(t, x == t) with t = floor(x), for lo <= x < hi, bisected over
        the candidates lo..hi - 1 with O(log(hi - lo)) sign tests."""
        exact = None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            s = self.sign(self.minus(x, mid))
            if s < 0:
                hi = mid
            else:
                lo, exact = mid, s == 0
        if exact is None:
            exact = self.sign(self.minus(x, lo)) == 0
        return lo, exact


def base_arithmetic(q):
    """The residual arithmetic of q: a Fraction/int, an AlgebraicReal, or an
    EPSequence (meaning the unique base where its value is 1).  This is the
    one place that looks at the type of q."""
    if isinstance(q, EPSequence):
        q = solve_base(q)
    if not isinstance(q, AlgebraicReal):
        # a rational a/b is the one root of b x - a in (q - 1, q + 1)
        q = Fraction(q)
        q = AlgebraicReal((-q.numerator, q.denominator), q - 1, q + 1)
    return AlgebraicBase(q)


def q_minus_1_sign(b) -> int:
    """The sign of q - 1 at the base b."""
    return b.sign(b.minus(b.times_q(b.root()), 1))


def _expand(q, n: int, strict: bool) -> ExpansionPrefix:
    """n digits of the greedy expansion of 1 (each digit the largest with
    q r - c >= 0), or with strict=True of the quasi-greedy one (q r - c > 0).
    """
    require_depth(n)
    b = base_arithmetic(q)
    if strict and q_minus_1_sign(b) <= 0:
        raise DomainError("quasi-greedy expansion requires q > 1")
    if not strict and q_minus_1_sign(b) < 0:
        raise DomainError("greedy expansion requires q >= 1")
    times_q, floor, minus, cap = b.times_q, b.floor, b.minus, b.cap
    r = b.root()
    digits = []
    while len(digits) < n:
        x = times_q(r)
        t, exact = floor(x)
        if t > cap:
            raise RuntimeError("digit exceeds the cap %d: the sign test "
                               "invariant is violated" % cap)
        d = t - (strict and exact)
        digits.append(d)
        if exact and not strict:
            # the residual is 0, and so is every later greedy digit
            digits += [0] * (n - len(digits))
        r = minus(x, d)
    return ExpansionPrefix(word(digits))


def greedy_expansion(q, n: int) -> ExpansionPrefix:
    """First n digits of the greedy expansion of 1 in base q >= 1."""
    return _expand(q, n, strict=False)


def quasi_greedy_expansion(q, n: int) -> ExpansionPrefix:
    """First n digits of the quasi-greedy expansion of 1; needs q > 1."""
    return _expand(q, n, strict=True)


def quasi_from_greedy(g) -> EPSequence:
    """Periodic quasi-greedy expansion sharing the base of the finite greedy
    word g: (g_1 ... g_{m-1} (g_m - 1))^infinity."""
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
# dyadic cell end, and bits(L): the enclosure is a few units wide, so
# only a near-tie reaches the exact fallback
_KL_GUARD = 24


def _kl_bound(L: int, n: int, d: int, p: int, up: bool) -> tuple:
    """One side of `_kl_enclosure`: (2^p S, 2^p x^(L+1)) at x = d/n, every
    product rounded down, or up with up=True."""
    def mul(a, b):
        return -(-(a * b) >> p) if up else (a * b) >> p

    x = -(-(d << p) // n) if up else (d << p) // n
    blocks = [(0, 1 << p, x)]                   # (E_j, O_j, P_j)
    for _ in range((L + 1).bit_length() - 1):
        e, o, pw = blocks[-1]
        blocks.append((e + mul(pw, o), o + mul(pw, e), mul(pw, pw)))
    s, xa, odd = 0, 1 << p, False
    for j in reversed(range(len(blocks))):
        if (L + 1) >> j & 1:
            e, o, pw = blocks[j]
            s += mul(xa, o if odd else e)
            xa = mul(xa, pw)
            odd = not odd
    return s, xa


def _kl_enclosure(L: int, n: int, d: int, prec: int) -> tuple:
    """(s_lo, s_hi, t_lo, t_hi) with s_lo <= 2^prec S <= s_hi and
    t_lo <= 2^prec T <= t_hi, where S = sum_{i<=L} tau_i q^-i and
    T = q^-L / (q - 1) at q = n/d > 1, for tau the Thue-Morse sequence:
    tau_i = t(i) = popcount(i) mod 2.

    With x = 1/q, E_j = sum_{i<2^j} t(i) x^i, O_j = sum_{i<2^j} (1 - t(i))
    x^i and P_j = x^(2^j) start at E_0 = 0, O_0 = 1 and double by
    E_{j+1} = E_j + P_j O_j, O_{j+1} = O_j + P_j E_j, P_{j+1} = P_j^2.  The
    binary digits of L + 1, high first, split [0, L] into blocks
    [a, a + 2^j) with 2^(j+1) | a: a block adds x^a E_j when popcount(a) is
    even, x^a O_j when odd.  The last x^a is x^(L+1), T = x^(L+1) n/(n - d).
    Every quantity is >= 0, so from floor(x 2^p) (ceil) each product
    rounded down (up) keeps a lower (upper) bound.

    Width: the work runs at p = prec + g, g = bits(L) + 4, and rounds
    outward once at the end.  With r = q/(q - 1), E_j, O_j < r, P_j < 1
    and P_j is off by at most 2^j units, so the roundings of a side cost
    of the order of r L units of 2^-p, and the rounding of x at most
    dS/dx < r^2.  As 2^g >= 16 L, 2(r + 2)r units of 2^-prec bound the
    width at every L and every prec.
    """
    g = L.bit_length() + 4
    s_lo, x_lo = _kl_bound(L, n, d, prec + g, False)
    s_hi, x_hi = _kl_bound(L, n, d, prec + g, True)
    den = (n - d) << g
    return (s_lo >> g, -(-s_hi >> g),
            x_lo * n // den, -(-x_hi * n // den))


def _kl_side(q: Fraction, L: int) -> tuple:
    """(side, L'): side is +1 when the Thue-Morse value at q exceeds 1, -1
    when it falls short, and L' >= L is the prefix length that decided it.

    The rule, on the prefix of L terms with S = sum_{i<=L} tau_i q^-i and
    the tail bound T = q^-L / (q - 1) = sum_{i>L} q^-i, at least the
    Thue-Morse tail: +1 when S > 1, -1 when S + T < 1, else the prefix
    doubles and the rule runs again.  It is decided in integers, with
    q = n/d:

    - filter: `_kl_enclosure` at prec = bits(d) + bits(L) + _KL_GUARD
      decides each comparison it can, by Thue-Morse block doubling in
      O(log L) products, at most 2(r + 2)r units wide, r = q/(q - 1);
    - fallback, for the one comparison the enclosure leaves open:
      `solve_base`'s monotonicity rule on the sequences tau_L 0^inf, of
      value S, and tau_L 1^inf, of value S + T.  The polynomial of such a
      sequence (`poly_from_sequence`) is negative at q exactly when its
      value exceeds 1, so S > 1 iff the first is negative at q, and
      S + T < 1 iff the second is positive there.

    Both paths decide the same rule, so the result and the final prefix
    length do not depend on the filter.  Only the fallback needs the digits
    of the prefix.
    """
    n, d = q.numerator, q.denominator

    def poly_at_q(tail):
        s = ep_sequence(thue_morse_prefix(L), tail)
        return pl.scaled_value(poly_from_sequence(s), n, d)

    while True:
        prec = d.bit_length() + L.bit_length() + _KL_GUARD
        one = 1 << prec
        s_lo, s_hi, t_lo, t_hi = _kl_enclosure(L, n, d, prec)
        if s_lo > one or s_hi > one and poly_at_q((0,)) < 0:
            return 1, L
        if s_hi + t_hi < one or s_lo + t_lo < one and poly_at_q((1,)) > 0:
            return -1, L
        L *= 2


def _kl_guess(bits: int) -> int:
    """An uncertified guess at floor(2^bits q_KL), which `kl_constant`
    checks by the exact rule before it keeps it.

    Secant steps in fixed point on f(Q) = 2^p (S_L(Q/2^p) - 1), from the
    lower bound `_kl_bound(L, Q, 2^p, p, False)`: with L = 5p/4 + 16 the
    tail beyond the prefix is below 2^-p, and the roundings leave f a few
    L units off, its noise.  The precision doubles each round up to
    p = bits + 16; a round starts from the point the one before ended at
    and a second point the earlier round's noise below it, and stops once
    a step is within its own noise.
    """
    precs = [bits + 16]
    while precs[-1] > 64:
        precs.append((precs[-1] + 1) // 2)
    p0, q1, noise = 0, 179, 0         # 1.79, as Q / 100
    for p in reversed(precs):
        if p0:
            q1 <<= p - p0
            q0 = q1 - (noise << (p - p0))
        else:
            q0, q1 = (178 << p) // 100, (q1 << p) // 100
        one, L = 1 << p, p * 5 // 4 + 16
        noise = 1 << (L.bit_length() + 2)
        f0 = _kl_bound(L, q0, one, p, False)[0] - one
        for _ in range(12):
            f1 = _kl_bound(L, q1, one, p, False)[0] - one
            if f1 == f0:
                break
            step = f1 * (q1 - q0) // (f1 - f0)
            q0, f0, q1 = q1, f1, q1 - step
            if abs(step) <= noise:
                break
        p0 = p
    return q1 >> (p0 - bits)


# kl_constant refuses an eps whose dyadic cell lies deeper than this many
# halvings of [3/2, 2]: a cell of width 2^-(steps+1)
_KL_MAX_STEPS = 10_000


def kl_constant(eps) -> tuple:
    """Rational enclosure of the smallest univoque base (~1.787).

    Returns (lo, hi, prefix_length_used) with hi - lo <= eps: the dyadic
    cell [lo, lo + 2^-(steps+1)] of q_KL that bisecting [3/2, 2] in steps
    halvings would end on, for the fewest steps that meet eps.  Past
    _KL_MAX_STEPS, DomainError is raised before any work.

    `_kl_guess` proposes the cell, and the exact rule `_kl_side` certifies
    it: side(lo) = +1 and side(hi) = -1, where 3/2 counts as +1 and 2 as
    -1 without a test, as the bisection never visits them.  The rule is
    exact and q_KL is irrational, so side is +1 below q_KL and -1 above,
    and only the right cell passes.  A failed end moves the cell toward
    q_KL, galloping and then bisecting, so a guess k cells off costs
    O(log k) tests.  The prefix is carried as its length, from 32: each
    test starts at the length the one before ended at.

    The prefix length is the bisection's.  Let need(q) be the first L in
    32 * 2^k at which the rule decides q.  Below q_KL it decides exactly
    when S_L(q) > 1, and S_L falls as q rises and grows with L; above, it
    decides exactly when S_L + T_L < 1, which falls as q rises and does not
    grow with L.  So a test begun at L ends at max(L, need(q)), and need
    does not decrease as q nears q_KL from either side.  The bisection
    visits lo and hi (when not 3/2 or 2), and each other midpoint lies
    below lo or above hi on its own side, so it ends at max(32, need(lo),
    need(hi)); so do these tests, as every point tested lies the same way.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    # fewest steps n with 2^-(n+1) <= eps; the first guess is at most 3 short
    num, den = eps.numerator, eps.denominator
    steps = max(0, den.bit_length() - num.bit_length() - 2)
    while den > num << (steps + 1):
        steps += 1
    if steps > _KL_MAX_STEPS:
        raise DomainError("eps needs %d bisection steps, above max_iter = %d"
                          % (steps, _KL_MAX_STEPS))
    # cell ends as integer numerators over 2^(steps + 1), in [3/2, 2]
    unit = 1 << (steps + 1)
    first, last = 3 << steps, 2 * unit
    L = 32

    def side(x):
        nonlocal L
        if x <= first:
            return 1
        if x >= last:
            return -1
        s, L = _kl_side(Fraction(x, unit), L)
        return s

    lo = min(max(_kl_guess(steps + 1), first), last - 1)
    # gallop from the guess to a bracket side(lo) = +1, side(hi) = -1
    gap = 1
    if side(lo) > 0:
        while side(hi := min(lo + gap, last)) > 0:
            lo, gap = hi, 2 * gap
    else:
        hi = lo
        while side(lo := max(hi - gap, first)) < 0:
            hi, gap = lo, 2 * gap
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if side(mid) > 0:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, unit), Fraction(hi, unit), L
