"""Integer polynomials with exact rational evaluation and Sturm chains.

Polynomials are tuples of arbitrary-precision integers, constant term
first.  The zero polynomial is the empty tuple.  All arithmetic that
leaves the integers goes through fractions.Fraction; no floating point.
Sign tests at a rational point n/d stay in the integers: they use
d^deg * p(n/d), which has the sign of p(n/d).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd


def poly(coeffs) -> tuple:
    """Normalize a coefficient iterable into canonical tuple form."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: tuple) -> int:
    return len(p) - 1


def is_zero(p: tuple) -> bool:
    return len(p) == 0


def evaluate(p: tuple, x):
    """Evaluate p at x by Horner's rule. x may be int or Fraction."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def scaled_value(p: tuple, n: int, d: int) -> int:
    """d^k * p(n/d) as an exact integer, k = len(p) - 1 and d > 0.

    It has the sign of p(n/d).  For polynomials of one length at points
    over one denominator d, these values compare like the values of the
    polynomials themselves.  Horner's rule on the homogenized form
    sum p_i n^i d^(k-i) needs no Fraction and no gcd.
    """
    acc = 0
    dk = 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return acc


def derivative(p: tuple) -> tuple:
    return poly(i * c for i, c in enumerate(p) if i > 0)


def negate(p: tuple) -> tuple:
    return tuple(-c for c in p)


def add(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    return poly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n))


def sub(a: tuple, b: tuple) -> tuple:
    return add(a, negate(b))


def shift_up(p: tuple, k: int) -> tuple:
    """Multiply by x**k."""
    if is_zero(p):
        return ()
    return (0,) * k + tuple(p)


def scale(p: tuple, c) -> tuple:
    if c == 0:
        return ()
    return tuple(c * x for x in p)


def _frac_rem(a: list, b: list) -> list:
    """Remainder of a modulo b over the rationals (lists of Fractions)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        la = a[-1]
        if la == 0:
            a.pop()
            continue
        q = la / lb
        shift = len(a) - 1 - db
        for i in range(len(b)):
            a[shift + i] -= q * b[i]
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def make_primitive(coeffs) -> tuple:
    """Scale a rational-coefficient polynomial by a positive rational so the
    coefficients become coprime integers.  Sign pattern is preserved."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return ()
    den = 1
    for x in c:
        den = den * x.denominator // _int_gcd(den, x.denominator)
    ints = [int(x * den) for x in c]
    g = 0
    for x in ints:
        g = _int_gcd(g, abs(x))
    return tuple(x // g for x in ints)


def poly_gcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd of two integer polynomials, positive leading coefficient."""
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]
    while fb:
        fa, fb = fb, _frac_rem(fa, fb)
    g = make_primitive(fa)
    if g and g[-1] < 0:
        g = negate(g)
    return g


# Bounded: a long-lived process sees a new polynomial per base and per
# zero test, and an unbounded cache would keep every one of them.
_CACHE_SIZE = 256


@lru_cache(maxsize=_CACHE_SIZE)
def squarefree_part(p: tuple) -> tuple:
    """p divided by gcd(p, p'); shares exactly the distinct roots of p."""
    d = derivative(p)
    if is_zero(d):
        return p
    g = poly_gcd(p, d)
    if degree(g) == 0:
        return p
    q = [Fraction(c) for c in p]
    # exact division by g over the rationals
    db, lb = len(g) - 1, Fraction(g[-1])
    out = [Fraction(0)] * (len(q) - db)
    while len(q) - 1 >= db and q:
        la = q[-1]
        if la == 0:
            q.pop()
            continue
        c = la / lb
        out[len(q) - 1 - db] = c
        for i in range(len(g)):
            q[len(q) - 1 - db + i] -= c * g[i]
        q.pop()
    return make_primitive(out)


@lru_cache(maxsize=_CACHE_SIZE)
def sturm_chain(p: tuple) -> tuple:
    """Sturm chain of the squarefree part of p, as primitive integer polys."""
    f = squarefree_part(p)
    chain = [f, derivative(f)]
    while not is_zero(chain[-1]):
        r = _frac_rem([Fraction(c) for c in chain[-2]],
                      [Fraction(c) for c in chain[-1]])
        r = make_primitive(r)
        if is_zero(r):
            break
        chain.append(negate(r))
    return tuple(c for c in chain if not is_zero(c))


def sign_variations(chain, x) -> int:
    """Sign changes of the chain at the rational x, zeros skipped."""
    x = Fraction(x)
    prev = 0
    count = 0
    for p in chain:
        v = scaled_value(p, x.numerator, x.denominator)
        s = (v > 0) - (v < 0)
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count
