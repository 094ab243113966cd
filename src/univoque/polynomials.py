"""Integer polynomials with exact evaluation and Sturm chains.

Polynomials are tuples of arbitrary-precision integers, constant term
first.  The zero polynomial is the empty tuple.  Everything stays in the
integers.  One pseudo-division (`_divmod`) serves the gcd, the square-free
part, the divisibility test and the Sturm chains.  It divides
|lead(b)|^k a, a positive multiple of a, so its remainder is a positive
multiple of the rational one; reduced to its primitive part, it keeps
every sign and small coefficients.  Sign tests at a rational point n/d
use d^deg * p(n/d), which has the sign of p(n/d).  Every function is pure
and the module keeps no state: no cache outlives a call.
"""

from __future__ import annotations

from math import gcd


def poly(coeffs) -> tuple:
    """Normalize a coefficient iterable into canonical tuple form."""
    c = tuple(coeffs)
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def degree(p: tuple) -> int:
    return len(p) - 1


def is_zero(p: tuple) -> bool:
    return len(p) == 0


def scaled_value(p: tuple, n: int, d: int) -> int:
    """d^k * p(n/d) as an exact integer, k = len(p) - 1 and d > 0.

    It has the sign of p(n/d).  For polynomials of one length at points
    over one denominator d, these values compare like the values of the
    polynomials themselves.  Horner's rule on the homogenized form
    sum p_i n^i d^(k-i) needs no Fraction and no gcd.  It runs over the
    nonzero terms alone: the Horner steps over a run of g zero
    coefficients are one power n^(g + 1), so a lacunary multiple
    (x^k - 1) P costs its few terms, not its degree.  With d = u 2^e,
    u odd, split once, the power d^j that scales the j-th coefficient from
    the top is u^j shifted left by e j: at a dyadic point (u = 1) no power
    of d is multiplied at all.
    """
    if not p:
        return 0
    e = (d & -d).bit_length() - 1
    u = d >> e
    acc = last = 0
    for j, c in enumerate(reversed(p)):
        if c:
            acc = acc * n ** (j - last) + (c * u ** j << e * j)
            last = j
    return acc * n ** (len(p) - 1 - last)


def multiply(a: tuple, b: tuple) -> tuple:
    """The product of two integer polynomials."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + len(b)] = [o + x * y for o, y in zip(out[i:], b)]
    return tuple(out)


def derivative(p: tuple) -> tuple:
    return poly(i * c for i, c in enumerate(p) if i > 0)


def negate(p: tuple) -> tuple:
    return tuple(-c for c in p)


def _divmod(a, b) -> tuple:
    """Pseudo-quotient and pseudo-remainder of l^k a by b != 0, with
    l = |lead(b)| and k = max(len(a) - deg b, 0).

    a and b hold ints, constant term first; so do the returned lists, and
    the remainder has no trailing zeros.  As l^k > 0, the remainder is a
    positive multiple of the rational one and keeps its signs."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    l, s = abs(lb), (lb > 0) - (lb < 0)
    quo = [0] * max(len(a) - db, 0)
    for k in reversed(range(len(quo))):
        t = a.pop() * s
        if l != 1:
            quo = [l * x for x in quo]
            a = [l * x for x in a]
        quo[k] = t
        if t:
            for i in range(db):
                a[k + i] -= t * b[i]
    while a and a[-1] == 0:
        a.pop()
    return quo, a


def divides(b: tuple, a: tuple) -> bool:
    """Whether b != 0 divides a over the rationals: the pseudo-remainder of
    a by b is zero."""
    return not _divmod(a, b)[1]


def primitive(c) -> tuple:
    """c divided by the gcd of its coefficients: the primitive polynomial
    that is a positive multiple of c."""
    g = gcd(*c)
    return tuple(x // g for x in c) if g else ()


def poly_gcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd of two integer polynomials, positive leading coefficient.

    A primitive remainder sequence: each pseudo-remainder is reduced to its
    primitive part, which keeps the coefficients from growing."""
    while b:
        a, b = b, primitive(_divmod(a, b)[1])
    g = primitive(a)
    if g and g[-1] < 0:
        g = negate(g)
    return g


def squarefree_part(p: tuple) -> tuple:
    """p divided by gcd(p, p'); shares exactly the distinct roots of p."""
    d = derivative(p)
    if is_zero(d):
        return p
    g = poly_gcd(p, d)
    if degree(g) == 0:
        return p
    return primitive(_divmod(p, g)[0])


def sturm_chain(p: tuple) -> tuple:
    """Sturm chain of the squarefree part of p, as primitive integer polys."""
    f = squarefree_part(p)
    chain = [f, derivative(f)]
    while chain[-1]:
        chain.append(negate(primitive(_divmod(chain[-2], chain[-1])[1])))
    return tuple(c for c in chain if c)


def sign_variations(chain, n: int, d: int) -> int:
    """Sign changes of the chain at n/d (d > 0), zeros skipped."""
    prev = 0
    count = 0
    for p in chain:
        v = scaled_value(p, n, d)
        s = (v > 0) - (v < 0)
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count
