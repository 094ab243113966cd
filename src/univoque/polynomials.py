"""Integer polynomials with exact rational evaluation and Sturm chains.

Polynomials are tuples of arbitrary-precision integers, constant term
first.  The zero polynomial is the empty tuple.  One long division over
the rationals (`_divmod`, in fractions.Fraction) serves the gcd, the
square-free part and the Sturm chains; no floating point.  Sign tests at
a rational point n/d stay in the integers: they use d^deg * p(n/d), which
has the sign of p(n/d).
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


def _divmod(a, b) -> tuple:
    """Quotient and remainder of a by b != 0 over the rationals.

    a and b hold ints or Fractions, constant term first; so do the returned
    lists, and the remainder has no trailing zeros."""
    a = list(a)
    db, lb = len(b) - 1, Fraction(b[-1])
    quo = [0] * max(len(a) - db, 0)
    while len(a) > db:
        la = a.pop()
        if la:
            c = la / lb
            k = len(a) - db
            quo[k] = c
            for i in range(db):
                a[k + i] -= c * b[i]
    while a and a[-1] == 0:
        a.pop()
    return quo, a


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
    fa, fb = a, b
    while fb:
        fa, fb = fb, _divmod(fa, fb)[1]
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
    return make_primitive(_divmod(p, g)[0])


@lru_cache(maxsize=_CACHE_SIZE)
def sturm_chain(p: tuple) -> tuple:
    """Sturm chain of the squarefree part of p, as primitive integer polys."""
    f = squarefree_part(p)
    chain = [f, derivative(f)]
    while not is_zero(chain[-1]):
        r = make_primitive(_divmod(chain[-2], chain[-1])[1])
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
