"""The exact polynomial core, differentially against sympy: pseudo-division,
square-free parts, Sturm counts, sign_at and the floor of the base."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from univoque import algebraic, polynomials as pl
from univoque.algebraic import (AlgebraicReal, DomainError, EndpointRootError,
                                refine, sign_at, sturm_count)
from univoque.expansions import base_arithmetic

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")

coeffs = st.integers(-20, 20)
polys = st.lists(coeffs, min_size=1, max_size=8).map(pl.poly)
nonzero = polys.filter(lambda p: not pl.is_zero(p))


def _sympy(p):
    return sympy.Poly(list(reversed(p)) or [0], X, domain=sympy.QQ)


def _coeffs(p) -> list:
    """Constant-first Fractions of a sympy polynomial, zero as []."""
    return pl.poly(F(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def _monic(p) -> tuple:
    return tuple(F(c) / p[-1] for c in p)


def _scaled_value_by_powers_of_d(p, n, d):
    """d^k p(n/d) by Horner's rule with the powers of d multiplied up one by
    one: the reference for scaled_value's shifted powers of d = u 2^e."""
    acc = 0
    dk = 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return acc


@st.composite
def big_polys(draw):
    """Up to 601 coefficients of up to 80 bits, some of them 0, from a
    drawn seed: the degrees of the approximants' polynomials."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    bits = draw(st.integers(1, 80))
    return tuple(rng.choice((0, rng.randint(-2 ** bits, 2 ** bits)))
                 for _ in range(draw(st.integers(0, 601))))


@settings(max_examples=100, deadline=None)
@given(big_polys(), st.integers(-2 ** 400, 2 ** 400),
       st.integers(0, 2 ** 64).map(lambda j: 2 * j + 1), st.integers(0, 400))
@example(p=(3, -1, 4), n=-5, u=1, e=0)
@example(p=(), n=7, u=3, e=2)
@example(p=(-9,), n=7, u=1, e=5)
def test_scaled_value_matches_the_loop_over_powers_of_d(p, n, u, e):
    """d = u 2^e with u odd: d = 1, odd d (e = 0), powers of 2 (u = 1) and
    mixed d, at negative and positive numerators."""
    d = u << e
    assert pl.scaled_value(p, n, d) == _scaled_value_by_powers_of_d(p, n, d)


def _scaled_value_dense(p, n, d):
    """A Horner loop over every coefficient, with d = u 2^e split once:
    the reference for scaled_value's loop over the nonzero terms."""
    e = (d & -d).bit_length() - 1
    u = d >> e
    acc, uk, shift = 0, 1, 0
    for c in reversed(p):
        acc = acc * n + (c * uk << shift)
        uk *= u
        shift += e
    return acc


@st.composite
def lacunary_polys(draw):
    """Up to 600 coefficients of up to 80 bits, a drawn share of them 0
    (none, some, most or all), so that scaled_value skips runs of zeros at
    the top, inside and at the bottom, and dense runs too."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    share = draw(st.sampled_from((0.0, 0.3, 0.5, 0.7, 0.95, 0.99, 1.0)))
    bits = draw(st.integers(1, 80))
    return tuple(0 if rng.random() < share
                 else rng.choice((-1, 1)) * rng.randint(1, 2 ** bits)
                 for _ in range(draw(st.integers(0, 600))))


@settings(max_examples=150, deadline=None)
@given(lacunary_polys(),
       st.one_of(st.just(0), st.integers(-2 ** 300, 2 ** 300)),
       st.sampled_from((1, 3, 5, 2 ** 40 + 1)), st.integers(0, 300))
@example(p=(0, 0, 0, 5, 0, 0, -1), n=-3, u=1, e=4)
@example(p=(0, 0, 0, 5, 0, 0, -1), n=0, u=7, e=0)
@example(p=(-1, 0, 0, 1), n=7, u=3, e=2)
@example(p=(0, 0), n=7, u=1, e=0)
@example(p=(0, 0, 0, -5), n=3, u=3, e=1)
@example(p=(), n=0, u=1, e=0)
def test_scaled_value_over_terms_matches_the_dense_loop(p, n, u, e):
    """Sparse and dense p, a monomial (its only term is the top) and the
    zero polynomial; n negative, 0 and positive; d = u 2^e dyadic (u = 1),
    odd (e = 0) or mixed: the loop over the terms gives the dense loop's
    integer."""
    d = u << e
    assert pl.scaled_value(p, n, d) == _scaled_value_dense(p, n, d)


def test_the_lacunary_multiple_of_an_approximant_is_sparse():
    """(x^3 - 1) P for the approximant of 110 at N = 40 has 10 nonzero
    coefficients of 130, so scaled_value takes 10 steps on it, where P has
    85 nonzero coefficients of 127; the values differ by the factor
    x^3 - 1 alone."""
    from univoque.approximator import _gamma, _target
    from univoque.expansions import poly_from_sequence
    s, k, m = _target((1, 1, 0))
    P = poly_from_sequence(_gamma(s, k, m, 40))
    S = pl.multiply((-1, 0, 0, 1), P)
    assert (len(S), len(S) - S.count(0)) == (130, 10)
    assert (len(P), len(P) - P.count(0)) == (127, 85)
    for x in (3, 7):
        assert pl.scaled_value(S, x, 2) == \
            (x ** 3 - 8) * pl.scaled_value(P, x, 2)


def test_multiply_matches_sympy():
    for a, b in (((1, 2), (3, -1, 4)), ((-1, 0, 0, 1), (5, 0, -2)),
                 ((), (1, 1)), ((7,), (0, 0, 3))):
        want = _coeffs(sympy.Poly(_sympy(a) * _sympy(b), X, domain=sympy.QQ))
        assert pl.multiply(a, b) == tuple(int(c) for c in want)


@settings(max_examples=200, deadline=None)
@given(polys, nonzero)
def test_divmod_matches_sympy_div(a, b):
    # sympy.pdiv divides lead(b)^k a, _divmod |lead(b)|^k a
    quo, rem = pl._divmod(a, b)
    want_q, want_r = sympy.pdiv(_sympy(a), _sympy(b))
    k = max(len(a) - pl.degree(b), 0)
    sign = (1 if b[-1] > 0 else -1) ** k
    assert pl.poly(quo) == tuple(sign * c for c in _coeffs(want_q))
    assert tuple(rem) == tuple(sign * c for c in _coeffs(want_r))
    assert all(type(c) is int for c in quo + rem)
    assert pl.divides(b, a) == want_r.is_zero


def test_divmod_keeps_a_quotient_of_degree_zero_and_an_exact_remainder():
    assert pl._divmod((5, 3), (0, 0, 2)) == ([], [5, 3])
    assert pl._divmod((-1, 0, 1), (-1, 1)) == ([1, 1], [])


@settings(max_examples=200, deadline=None)
@given(nonzero, nonzero, st.integers(1, 3))
def test_squarefree_part_matches_sympy_sqf_part(p, g, k):
    # a repeated factor g^k makes the square-free part nontrivial
    for _ in range(k):
        p = _mul(p, g)
    want = _coeffs(sympy.sqf_part(_sympy(p)))
    assert _monic(pl.squarefree_part(p)) == _monic(want)


def _mul(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return pl.poly(out)


# --- Sturm counts, sign_at and the floor of the base against sympy -----------

small = st.builds(lambda low, lead: tuple(low) + (lead,),
                  st.lists(coeffs, min_size=1, max_size=3),
                  coeffs.filter(bool))


@st.composite
def squarefull(draw):
    """f1 f2^e with e in {2, 3}: a polynomial with a repeated factor."""
    f1, f2, e = draw(small), draw(small), draw(st.integers(2, 3))
    p = f1
    for _ in range(e):
        p = _mul(p, f2)
    return p


def _zz(p):
    return sympy.Poly(list(reversed(p)), X, domain=sympy.ZZ)


def _isolating_intervals(p):
    """(lo, hi, f) per distinct real root of p: sympy's isolating interval,
    widened while it is a point and moved off a neighbouring root at an
    endpoint, and the irreducible factor f with that root."""
    P = _zz(p)

    def isolates(lo, hi):
        return (P.count_roots(lo, hi) == 1 and P.eval(lo) != 0
                and P.eval(hi) != 0)

    out = []
    for (lo, hi), _ in P.intervals():
        if lo == hi:
            w = sympy.Rational(1)
            while not isolates(lo - w, lo + w):
                w /= 2
            lo, hi = lo - w, lo + w
        else:
            w = (hi - lo) / 3
            zlo, zhi = int(P.eval(lo) == 0), int(P.eval(hi) == 0)
            while not isolates(lo + zlo * w, hi - zhi * w):
                w /= 2
            lo, hi = lo + zlo * w, hi - zhi * w
        f, = [f for f, _ in P.factor_list()[1] if f.count_roots(lo, hi)]
        out.append((lo, hi, f))
    return out


def _refined(lo, hi, f, done):
    """The root of the irreducible f of degree >= 2 in (lo, hi), bisected
    by sympy until done(lo, hi).  The root is irrational, so it is not 0
    and the interval is first moved to one side of 0."""
    if lo < 0 < hi:
        lo, hi = (lo, 0) if f.count_roots(lo, 0) else (0, hi)
    while not done(lo, hi):
        lo, hi = f.refine_root(lo, hi, eps=(hi - lo) / 4)
    return lo, hi


def _sign_by_sympy(c, lo, hi, f) -> int:
    """The sign of c at the root of the irreducible f in (lo, hi): from the
    rational root when f is linear; else 0 when f divides c, and otherwise
    the sign of c on an interval that sympy refines until c has no root in
    it."""
    C = _zz(c)
    if f.degree() == 1:
        v = C.eval(-f.nth(0) / f.nth(1))
    elif C.to_field().rem(f.to_field()).is_zero:
        v = 0
    else:
        v = C.eval(_refined(lo, hi, f,
                            lambda lo, hi: not C.count_roots(lo, hi))[0])
    return int(sympy.sign(v))


def _floor_by_sympy(lo, hi, f) -> tuple:
    if f.degree() == 1:
        r = -f.nth(0) / f.nth(1)
        return int(sympy.floor(r)), bool(r.is_integer)
    lo, hi = _refined(lo, hi, f,
                      lambda lo, hi: sympy.floor(lo) == sympy.floor(hi))
    return int(sympy.floor(lo)), False


def _frac(r) -> F:
    return F(int(r.p), int(r.q))


def _q(x: F):
    return sympy.Rational(x.numerator, x.denominator)


rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 6))


def _sign_after_zero_test(c, a) -> int:
    """sign_at(c, a) with the enclosure held undecided until an exact path
    has run, so that every c reaches one: the exact zero test, either at
    its divisibility exit (the box's polynomial divides c) or at its gcd
    with c, or a step that ends on the root as a point, where one
    evaluation of c is the exact value.  A zero the test misses fails
    after 200 more enclosures instead of bisecting forever; a nonzero value
    took one in each of 4,616 random cases."""
    tested, after, parts = [], [], []
    real_gcd, real_divides, real_enclose, real_step = (
        pl.poly_gcd, pl.divides, algebraic._enclose, algebraic._step)

    def gcd(u, v):
        if v == c:
            tested.append(1)
        return real_gcd(u, v)

    def divides(u, v):
        if v == c:
            tested.append(1)
        return real_divides(u, v)

    def held_enclose(*cell):
        # widened strictly past 0, to hold it open or closed, until the
        # test; a cell around 0 is enclosed in two parts, by nested calls,
        # which count as one enclosure
        parts.append(1)
        try:
            low, high = real_enclose(*cell)
        finally:
            parts.pop()
        if parts:
            return low, high
        if not tested:
            return min(low, -1), max(high, 1)
        after.append(1)
        assert len(after) < 200, "no sign after the zero test"
        return low, high

    def step(box):
        box = real_step(box)
        if box.lo == box.hi:
            tested.append(1)
        return box

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pl, "poly_gcd", gcd)
        mp.setattr(pl, "divides", divides)
        mp.setattr(algebraic, "_enclose", held_enclose)
        mp.setattr(algebraic, "_step", step)
        # from the whole interval, not from a proposed cell or point
        mp.setattr(algebraic, "_propose", lambda box: box)
        algebraic._REFINED.clear()
        s = sign_at(c, a)
    assert tested
    return s


@settings(max_examples=150, deadline=None)
@given(squarefull(), rationals, rationals.filter(lambda w: w > 0))
def test_sturm_count_matches_sympy_count_roots(p, lo, width):
    hi = lo + width
    P = _zz(p)
    # count_roots counts the closed interval, sturm_count the open one
    assume(P.eval(sympy.Rational(lo.numerator, lo.denominator)) != 0)
    assume(P.eval(sympy.Rational(hi.numerator, hi.denominator)) != 0)
    assert sturm_count(p, lo, hi) == P.count_roots(
        sympy.Rational(lo.numerator, lo.denominator),
        sympy.Rational(hi.numerator, hi.denominator))


@settings(max_examples=40, deadline=None)
@given(squarefull(), small, st.integers(1, 2))
# x (3x + 1)^2: at -1/3 the box steps on the square-free part x (3x + 1),
# which divides c = x (3x + 1), so the zero test ends at its divisibility
# exit, before any gcd
@example(p=(0, 1, 6, 9), h=(0, 1), e=1)
def test_sign_at_and_the_cap_match_sympy(p, h, e):
    """At each real root of a square-full p: c = h g^e for every
    irreducible factor g of p, and c = h.  A factor g with the root and
    e = 2 puts the root into gcd(p, c) with even multiplicity, which must
    still give 0; a factor without it leaves a gcd whose roots all lie
    outside the interval, which must give a nonzero sign.  Every case
    reaches the exact zero test or a step that ends on the root as a
    point."""
    roots = _isolating_intervals(p)
    assume(roots)
    factors = [f for f, _ in _zz(p).factor_list()[1]]
    cs = [h]
    for g in factors:
        c = h
        for _ in range(e):
            c = _mul(c, tuple(int(x) for x in reversed(g.all_coeffs())))
        cs.append(c)
    for lo, hi, f in roots:
        a = AlgebraicReal(p, _frac(lo), _frac(hi))
        for c in cs:
            want = _sign_by_sympy(c, lo, hi, f)
            assert _sign_after_zero_test(c, a) == want
        t, exact = _floor_by_sympy(lo, hi, f)
        b = base_arithmetic(a)
        q = b.times_q(b.root())
        assert (b.cap, b.sign(b.minus(q, b.cap)) == 0) == (t, exact)
        if t >= 0:
            assert b.floor(q) == (t, exact)


# --- hand-built intervals with a root at an end ------------------------------

@st.composite
def end_root_intervals(draw):
    """(p, lo, hi): p = (x - r)^k g with the root r at one end of (lo, hi),
    and any number of g's roots inside."""
    r, width = draw(rationals), draw(rationals.filter(lambda w: w > 0))
    p = draw(small)
    for _ in range(draw(st.integers(1, 3))):
        p = _mul(p, (-r.numerator, r.denominator))
    return (p, r, r + width) if draw(st.booleans()) else (p, r - width, r)


def _in_open(f, u, v, lo, hi) -> bool:
    """Whether the root of the irreducible f in sympy's isolating interval
    (u, v) lies in (lo, hi).  A root of degree >= 2 is irrational, so
    refining moves lo and hi out of (u, v)."""
    if f.degree() == 1:
        return lo < -f.nth(0) / f.nth(1) < hi
    u, v = _refined(u, v, f, lambda u, v: not (u < lo < v or u < hi < v))
    return lo <= u and v <= hi


@settings(max_examples=100, deadline=None)
@given(end_root_intervals(), small, st.integers(1, 40))
def test_a_root_at_an_end_is_refused_or_the_true_root_answered(case, c,
                                                                bits):
    """sign_at and refine on a hand-built interval with a root at an end
    either raise or answer for the one distinct root inside: the sign of c
    there, and an interval around it, both by sympy."""
    p, lo, hi = case
    a = AlgebraicReal(p, lo, hi)
    inside = [(u, v, f) for f, _ in _zz(p).factor_list()[1]
              for (u, v), _ in f.intervals()
              if _in_open(f, u, v, _q(lo), _q(hi))]
    try:
        s = sign_at(c, a)
    except (EndpointRootError, DomainError):
        pass
    else:
        (u, v, f), = inside
        assert s == _sign_by_sympy(c, u, v, f)
    try:
        b = refine(a, (hi - lo) / 2 ** bits)
    except (EndpointRootError, DomainError):
        pass
    else:
        (u, v, f), = inside
        assert _in_open(f, u, v, _q(b.lo), _q(b.hi))
