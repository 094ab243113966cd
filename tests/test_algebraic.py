"""Sturm counting, interval refinement and exact sign determination."""

import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from univoque import algebraic
from univoque.algebraic import (AlgebraicReal, DomainError, EndpointRootError,
                                algebraic_real, refine, sign_at, sturm_count)
from univoque.expansions import base_arithmetic, solve_base
from univoque import polynomials as pl
from univoque.words import ep_sequence

GOLDEN = (-1, -1, 1)        # q^2 - q - 1
TRIB = (-1, -1, -1, 1)      # q^3 - q^2 - q - 1


def _ends(a):
    return a.lo, a.hi


def _horner(p, x):
    """p(x) by Horner's rule in Fractions: the reference for scaled_value."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def test_sturm_count_examples():
    assert sturm_count(GOLDEN, F(1), F(2)) == 1
    assert sturm_count((-3, 1), F(1), F(2)) == 0
    assert sturm_count((2, -3, 1), F(3, 2), F(5, 2)) == 1


def test_sturm_counts_distinct_roots_of_squareful_poly():
    # (q-2)^2 (q-3): distinct roots 2 and 3
    p = pl.poly([-12, 16, -7, 1])
    assert sturm_count(p, F(1), F(4)) == 2
    assert sturm_count(p, F(5, 2), F(4)) == 1


def test_sturm_count_with_degree_gaps_and_negative_leads():
    """Remainder sequences that drop more than one degree at a step, with
    a negative leading coefficient: the pseudo-division must scale by
    |lead|^k, as a signed lead^k with k odd flips the remainder's sign."""
    assert sturm_count((-1, 1, 0, 0, 1), F(-3, 2), F(13, 2)) == 2
    assert sturm_count((1, 2, 0, 0, -1), F(-8, 3), F(4, 3)) == 1


def test_sturm_endpoint_root_is_refused():
    with pytest.raises(EndpointRootError):
        sturm_count((2, -3, 1), F(2), F(3))


def test_refine_examples():
    a = algebraic_real(GOLDEN, 1, 2)
    r = refine(a, F(1, 100))
    assert r.hi - r.lo <= F(1, 100)
    assert r.lo < F(1618, 1000) < r.hi
    assert sturm_count(r.poly, r.lo, r.hi) == 1

    two = algebraic_real((-2, 1), F(3, 2), F(5, 2))
    r2 = refine(two, F(1, 1000))
    assert r2.lo < 2 < r2.hi

    t = refine(algebraic_real(TRIB, 1, 2), F(1, 10 ** 6))
    # bisection oracle: 1.839286755...
    assert t.lo < F(1839287, 1000000) < t.hi + F(1, 10**6)
    assert t.lo < F(18392868, 10000000) < t.hi


@pytest.mark.parametrize("p, lo, hi, error", [
    # x(x - 1): the root inside is 1, but even the square-free part
    # vanishes at the end 0, so no step could narrow to 1
    ((0, -1, 1), 0, F(3, 2), EndpointRootError),
    # (x - 1)(x - 2): two roots inside, and no sign change between
    ((2, -3, 1), 0, 3, DomainError),
], ids=["root-at-an-end", "no-sign-change"])
def test_an_interval_no_step_can_narrow_to_its_root_is_refused(p, lo, hi,
                                                                error):
    a = AlgebraicReal(p, F(lo), F(hi))
    with pytest.raises(error):
        refine(a, F(1, 2 ** 20))
    with pytest.raises(error):
        sign_at((-1, 2), a)
    assert a not in algebraic._REFINED


def test_refine_rejects_bad_eps():
    a = algebraic_real(GOLDEN, 1, 2)
    with pytest.raises(DomainError):
        refine(a, 0)


def test_sign_at_examples():
    a = algebraic_real(GOLDEN, 1, 2)
    assert sign_at(GOLDEN, a) == 0
    assert sign_at((-1, 1), a) == 1
    two = algebraic_real((-2, 1), F(3, 2), F(5, 2))
    assert sign_at(TRIB, two) == 1   # 8 - 4 - 2 - 1 = 1


def test_sign_at_detects_zero_through_shared_factor():
    # c = (q^2 - q - 1)(q + 5) still vanishes at the golden ratio
    c = (-5, -6, 4, 1)
    a = algebraic_real(GOLDEN, 1, 2)
    assert sign_at(c, a) == 0
    # sqrt 2 as a double root of (q^2 - 2)^2
    a = algebraic_real((4, 0, -4, 0, 1), 1, 2)
    assert sign_at((-2, 0, 1), a) == 0
    assert sign_at((-6, -2, 3, 1), a) == 0      # (q^2 - 2)(q + 3)
    assert sign_at((5, 0, -4, 0, 1), a) == 1    # (q^2 - 2)^2 + 1
    assert sign_at((-3, 2), a) == -1            # 2 sqrt 2 - 3


def test_sign_at_rational_root_at_a_bisection_midpoint():
    # (2q - 3)(q - 5): the root 3/2 is the midpoint of (1, 2)
    a = algebraic_real((15, -13, 2), 1, 2)
    assert sign_at((-3, 2), a) == 0
    assert sign_at((-9, 0, 4), a) == 0          # (2q - 3)(2q + 3)
    assert sign_at((-1, 1), a) == 1
    assert sign_at((-7, 4), a) == -1


def test_sign_at_roots_at_or_left_of_zero():
    a = algebraic_real((-2, 0, 1), -2, -1)      # -sqrt 2
    assert [sign_at(c, a) for c in ((1, 1), (3, 2), (-2, 0, 1), (0, 1))] \
        == [-1, 1, 0, -1]
    a = algebraic_real(GOLDEN, -1, F(1, 2))     # (1 - sqrt 5) / 2 = -0.618..
    assert [sign_at(c, a) for c in ((1, 2), (3, 5), (2, 3), GOLDEN)] \
        == [-1, -1, 1, 0]
    a = algebraic_real((0, -1, 0, 1), F(-1, 2), F(1, 2))    # the root 0
    assert [sign_at(c, a) for c in ((5, 1), (0, 3), (-1, 7), (0, 0, -1))] \
        == [1, 0, -1, 0]


def _fib_near_miss(k):
    """(n, d, side): n/d = F(k+1)/F(k) within 1/d^2 of the golden ratio, and
    by Cassini's identity side = n^2 - n d - d^2 = +-1 says on which side
    of it n/d lies."""
    d, n = 1, 1
    for _ in range(k - 1):
        d, n = n, n + d
    side = n * n - n * d - d * d
    assert abs(side) == 1
    return n, d, side


def test_sign_at_near_miss_on_both_sides_of_golden_ratio(monkeypatch):
    # a zero test is one gcd with the base polynomial; the square-free part
    # of a nonconstant gcd takes a second gcd, with its derivative
    gcd_calls = []
    real_gcd = pl.poly_gcd
    monkeypatch.setattr(pl, "poly_gcd",
                        lambda f, g: gcd_calls.append(f) or real_gcd(f, g))
    for k in range(100, 161):
        n, d, side = _fib_near_miss(k)
        # |phi - n/d| < 1/d^2 < 2^-120
        assert d.bit_length() > 60
        for lo in (F(1), F(3, 2)):
            a = algebraic_real(GOLDEN, lo, 2)
            gcd_calls.clear()
            assert sign_at((-n, d), a) == -side
            assert gcd_calls.count(a.poly) <= 1
            assert (a.lo, a.hi) == (lo, 2)
            # a factor q - 5 shared with the base polynomial vanishes
            # outside the interval, so the gcd it leaves is no zero at the
            # root
            b = algebraic_real(_mul(GOLDEN, (-5, 1)), lo, 2)
            gcd_calls.clear()
            assert sign_at(_mul((-n, d), (-5, 1)), b) == side
            assert gcd_calls.count(b.poly) <= 1


def test_a_nonzero_zero_test_lets_the_steps_go_on(monkeypatch):
    """An enclosure kept ambiguous until the zero test has run and the
    interval is narrower than 2^-(b + 40): the zero test runs once, finds
    no common root, and the steps go on until the enclosure decides the
    sign.  (A QIR step can pass 2^-(b + 32) and 2^-(b + 40) at once, so
    the width alone would not hold the enclosure open past the test.)"""
    events = []
    real_gcd, real_step = pl.poly_gcd, algebraic._step
    monkeypatch.setattr(pl, "poly_gcd", lambda f, g: events.append("gcd")
                        or real_gcd(f, g))
    monkeypatch.setattr(algebraic, "_step", lambda box: events.append("step")
                        or real_step(box))
    real_filter = algebraic._filter
    for k in (150, 151):
        n, d, side = _fib_near_miss(k)
        b = max(n, d).bit_length()
        monkeypatch.setattr(
            algebraic, "_filter", lambda c, lo, hi, den: 0
            if "gcd" not in events or (hi - lo) << (b + 40) > den
            else real_filter(c, lo, hi, den))
        algebraic._REFINED.clear()
        events.clear()
        assert sign_at((-n, d), algebraic_real(GOLDEN, 1, 2)) == -side
        assert events.count("gcd") == 1
        assert "step" in events[events.index("gcd"):]


def test_sign_at_stable_under_refine():
    a = algebraic_real(TRIB, 1, 2)
    c = (-7, 1, 1)
    s = sign_at(c, a)
    for eps in (F(1, 10), F(1, 1000), F(1, 10 ** 9)):
        assert sign_at(c, refine(a, eps)) == s


def _floor_of_q(a):
    """(floor(q), q == floor(q)) at the root a, from the digit floor of its
    residual arithmetic, which must agree with its cap."""
    b = base_arithmetic(a)
    t, exact = b.floor(b.times_q(b.root()))
    assert t == b.cap
    return t, exact


def test_cap_examples():
    assert _floor_of_q(algebraic_real(GOLDEN, 1, 2)) == (1, False)
    assert _floor_of_q(algebraic_real((-2, 1), F(3, 2), F(5, 2))) == (2, True)
    assert _floor_of_q(algebraic_real(TRIB, 1, 2)) == (1, False)


def _isolate_roots(p, lo, hi, parts=64):
    """Brute subdivision of (lo, hi) into Sturm-isolated intervals."""
    out = []
    step = F(hi - lo, parts)
    a = F(lo)
    for _ in range(parts):
        b = a + step
        if _horner(p, a) != 0 and _horner(p, b) != 0:
            if sturm_count(p, a, b) == 1:
                out.append((a, b))
        a = b
    return out


def test_sign_at_agrees_with_high_precision_numerics():
    rng = random.Random(20260824)
    mpmath.mp.dps = 60
    checked = 0
    while checked < 40:
        deg = rng.randint(2, 5)
        p = pl.poly([rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 6)])
        if pl.degree(p) < 2 or pl.degree(pl.squarefree_part(p)) != pl.degree(p):
            continue
        for lo, hi in _isolate_roots(p, F(1), F(3)):
            a = AlgebraicReal(p, lo, hi)
            # 50+ digit root by plain bisection on the sign change
            x0, x1 = mpmath.mpf(lo.numerator) / lo.denominator, \
                mpmath.mpf(hi.numerator) / hi.denominator
            f = lambda x: mpmath.polyval(list(reversed(p)), x)
            if f(x0) * f(x1) > 0:
                continue
            for _ in range(250):
                xm = (x0 + x1) / 2
                if f(x0) * f(xm) <= 0:
                    x1 = xm
                else:
                    x0 = xm
            root = (x0 + x1) / 2
            c = pl.poly([rng.randint(-5, 5) for _ in range(4)])
            if pl.is_zero(c):
                continue
            v = mpmath.polyval(list(reversed(c)), root)
            if abs(v) < mpmath.mpf(10) ** -40:
                continue  # numerically indecisive
            assert sign_at(c, a) == (1 if v > 0 else -1)
            checked += 1


def test_refined_intervals_always_isolate():
    rng = random.Random(7)
    for _ in range(20):
        p = pl.poly([rng.randint(-4, 4) for _ in range(3)] + [rng.randint(1, 4)])
        for lo, hi in _isolate_roots(p, F(1), F(3), parts=16):
            a = AlgebraicReal(p, lo, hi)
            r = refine(a, F(1, 10 ** 6))
            assert sturm_count(r.poly, r.lo, r.hi) == 1


def test_scaled_value_matches_fraction_horner():
    rng = random.Random(11)
    for _ in range(200):
        p = tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 9)))
        n, d = rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)
        assert pl.scaled_value(p, n, d) == \
            d ** (len(p) - 1) * _horner(p, F(n, d))


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return pl.poly(out)


def _root_300_digits(a):
    """The root of a by Newton's method at 320 digits, from a 2^-40 start."""
    sf = pl.squarefree_part(a.poly)
    r = refine(a, F(1, 2 ** 40))
    coeffs = list(reversed(sf))
    dcoeffs = list(reversed(pl.derivative(sf)))
    with mpmath.workdps(320):
        x = mpmath.mpf((r.lo + r.hi).numerator) / (r.lo + r.hi).denominator / 2
        for _ in range(8):
            x -= mpmath.polyval(coeffs, x) / mpmath.polyval(dcoeffs, x)
        return x


@settings(max_examples=80, deadline=None)
@given(w=st.lists(st.integers(0, 3), min_size=1, max_size=6)
       .filter(lambda w: sum(w) >= 2),
       c=st.lists(st.integers(-30, 30), min_size=1, max_size=9),
       through_base=st.booleans())
def test_sign_at_matches_300_digit_numerics(w, c, through_base):
    """Random c of degree <= 8 at the base of w 0^inf; with through_base the
    defining polynomial is multiplied in, so c vanishes at the base."""
    a = solve_base(ep_sequence(tuple(w), (0,)))
    c = pl.poly(c)
    if through_base and c:
        c = _mul(c, pl.squarefree_part(a.poly))
    root = _root_300_digits(a)
    with mpmath.workdps(320):
        v = mpmath.polyval(list(reversed(c)), root) if c else mpmath.mpf(0)
        # a nonzero value of such a c at such a base is far above 10^-250
        expected = 0 if abs(v) < mpmath.mpf(10) ** -250 else \
            (1 if v > 0 else -1)
    if through_base:
        assert expected == 0
    assert sign_at(c, a) == expected


def test_sign_at_memo_keeps_bases_and_stays_bounded():
    a = solve_base(ep_sequence((2, 1, 1), (0,)))
    lo, hi = a.lo, a.hi
    cs = [(-3, 1), (-1, -1, 1), (5, -2, -1, 1), (-28, 10, 1)]
    first = [sign_at(c, a) for c in cs]
    assert [sign_at(c, a) for c in cs] == first
    assert (a.lo, a.hi) == (lo, hi)
    algebraic._REFINED.clear()
    assert [sign_at(c, AlgebraicReal(a.poly, lo, hi)) for c in cs] == first
    for n in range(2, 2 + 10 * algebraic._REFINED_MAX):
        b = AlgebraicReal((-n, 1), n - F(1, 2), n + F(1, 2))
        assert sign_at((-1, 1), b) == 1
        assert len(algebraic._REFINED) <= algebraic._REFINED_MAX


@settings(max_examples=60, deadline=None)
@given(pre=st.lists(st.integers(0, 3), max_size=6),
       per=st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_solve_base_interval_passes_the_sturm_cross_check(pre, per):
    """solve_base certifies its root by monotonicity; a Sturm count on its
    interval must agree, and bisecting P itself must give the intervals
    that bisecting its square-free part gives."""
    s = ep_sequence(tuple(pre), tuple(per))
    assume(not s.is_finite() or sum(s.preperiod) >= 2)
    a = solve_base(s)
    assert sturm_count(a.poly, a.lo, a.hi) == 1
    sf = AlgebraicReal(pl.squarefree_part(a.poly), a.lo, a.hi)
    eps = F(1, 2 ** 200)
    assert _ends(refine(a, eps)) == _ends(refine(sf, eps))


def _pell_near_misses(k):
    """n/d within 1/d^2 of sqrt 2, n^2 - 2 d^2 = +-1 saying on which side."""
    n, d = 1, 1
    for _ in range(k):
        n, d = n + 2 * d, n + d
    return n, d, n * n - 2 * d * d


@pytest.mark.parametrize("power", [1, 3, 5])
def test_odd_multiplicity_base_bisects_its_own_polynomial(power, monkeypatch):
    """(q^2 - 2)^power changes sign at sqrt 2 for odd powers, so refine,
    sign_at and the cap bisect it directly and match q^2 - 2."""
    p = (1,)
    for _ in range(power):
        p = _mul(p, (-2, 0, 1))
    a, b = AlgebraicReal(p, 1, 2), AlgebraicReal((-2, 0, 1), 1, 2)
    sf_args = []
    real_sf = pl.squarefree_part
    monkeypatch.setattr(pl, "squarefree_part",
                        lambda f: sf_args.append(f) or real_sf(f))
    for eps in (F(1, 3), F(1, 1000), F(1, 2 ** 200)):
        assert _ends(refine(a, eps)) == _ends(refine(b, eps))
    assert _floor_of_q(a) == _floor_of_q(b) == (1, False)
    assert sf_args == []
    algebraic._REFINED.clear()
    n, d, side = _pell_near_misses(90)
    assert d.bit_length() > 100
    cs = [(-1, 1), (-3, 2), (-7, 5), (-17, 12), (-n, d), (-2, 0, 1),
          (-6, -2, 3, 1), (2, 0, -1)]
    signs = [sign_at(c, a) for c in cs]
    assert signs == [sign_at(c, b) for c in cs]
    assert signs[:5] == [1, -1, 1, -1, -side]
    assert signs[5:] == [0, 0, 0]


def test_even_multiplicity_base_falls_back_to_the_squarefree_part(
        monkeypatch):
    sf_args = []
    real_sf = pl.squarefree_part
    monkeypatch.setattr(pl, "squarefree_part",
                        lambda f: sf_args.append(f) or real_sf(f))
    a = AlgebraicReal((4, 0, -4, 0, 1), 1, 2)           # (q^2 - 2)^2
    b = AlgebraicReal((-2, 0, 1), 1, 2)
    assert _ends(refine(a, F(1, 2 ** 64))) == _ends(refine(b, F(1, 2 ** 64)))
    assert sf_args == [a.poly]


def _bisection_refine(a, eps):
    """The one-bit-per-step refinement `refine` must reproduce: bisect a's
    own interval, from scratch, until it is no wider than eps."""
    eps = F(eps)
    if a.hi - a.lo <= eps:
        return a
    den = a.lo.denominator * a.hi.denominator
    lo = a.lo.numerator * a.hi.denominator
    hi = a.hi.numerator * a.lo.denominator
    f = a.poly
    if pl.scaled_value(f, lo, den) * pl.scaled_value(f, hi, den) >= 0:
        f = pl.squarefree_part(f)
    s = pl.scaled_value(f, lo, den) > 0
    while (hi - lo) * eps.denominator > eps.numerator * den:
        mid = lo + hi
        v = pl.scaled_value(f, mid, 2 * den)
        if v == 0:
            lo, hi, den = 5 * lo + 3 * hi, 3 * lo + 5 * hi, 8 * den
        elif (v > 0) != s:
            lo, hi, den = 2 * lo, mid, 2 * den
        else:
            lo, hi, den = mid, 2 * hi, 2 * den
    return AlgebraicReal(a.poly, F(lo, den), F(hi, den))


@settings(max_examples=60, deadline=None)
@given(pre=st.lists(st.integers(0, 3), max_size=8),
       per=st.lists(st.integers(0, 3), min_size=1, max_size=8),
       bits=st.lists(st.integers(1, 400), min_size=1, max_size=5),
       den=st.integers(1, 1000))
def test_refine_matches_plain_bisection_on_sequence_bases(pre, per, bits,
                                                          den):
    """QIR's grid-ancestor answer is the bisection interval, call after
    call on one root, whatever cells earlier calls left in the memo."""
    s = ep_sequence(tuple(pre), tuple(per))
    assume(not s.is_finite() or sum(s.preperiod) >= 2)
    a = solve_base(s)
    for b in bits:
        eps = F(1, 2 ** b * den)
        assert refine(a, eps) == _bisection_refine(a, eps)


REFINE_CASES = [
    ((-3, 2), 1, 2),                   # 3/2 is the first midpoint
    ((-15, 7, 2), 1, 2),               # (2x - 3)(x + 5)
    ((0, 0, 0, 0, -3, 2), 1, 2),       # (2x - 3) x^4: the secant misses
    ((4, 0, -4, 0, 1), 1, 2),          # (x^2 - 2)^2: no sign change
    ((-2, 0, 1), -2, -1),              # left of 0
    ((-2, 0, 1), F(1, 3), F(5, 3)),    # non-dyadic endpoints
]


@pytest.mark.parametrize("p, lo, hi", REFINE_CASES)
def test_refine_matches_plain_bisection_on_fixed_roots(p, lo, hi):
    a = algebraic_real(p, lo, hi)
    for order in ((1, 3, 10, 64, 300), (300, 64, 10, 3, 1)):
        algebraic._REFINED.clear()
        for b in order:
            for eps in (F(1, 2 ** b), F(2, 3 * 2 ** b)):
                assert refine(a, eps) == _bisection_refine(a, eps)


def test_dyadic_root_keeps_the_thin_bisection_interval():
    a = algebraic_real((-3, 2), 1, 2)
    r = refine(a, F(1, 2 ** 20))
    assert r.lo < F(3, 2) < r.hi
    assert (F(3, 2) - r.lo) == (r.hi - F(3, 2))
    assert r == _bisection_refine(a, F(1, 2 ** 20))


def _point(box):
    """The rational root a point box holds; None for a cell."""
    return F(box.lo, box.den) if box.lo == box.hi else None


def test_a_root_found_at_a_grid_point_ends_the_qir_steps(monkeypatch):
    """(x - p)(x + 5) with p = 1 + 683/1024: once a QIR step evaluates at
    p, the memo box is that point, and no step follows, in this call or
    the next."""
    steps = []
    real = algebraic._qir
    monkeypatch.setattr(algebraic, "_qir",
                        lambda box: steps.append(real(box)) or steps[-1])
    p = 1 + F(683, 1024)
    a = algebraic_real(_mul((-p.numerator, p.denominator), (5, 1)), 1, 2)
    algebraic._REFINED.clear()
    eps = F(1, 2 ** 40)
    assert refine(a, eps) == _bisection_refine(a, eps)
    assert _point(algebraic._REFINED[a]) == p
    # the step that found p was the last, and the only one to find a point
    points = [box for box in steps if box and _point(box) is not None]
    assert points == [steps[-1]] == [algebraic._REFINED[a]]
    steps.clear()
    for eps in (F(1, 2 ** 41), F(1, 2 ** 300), F(1, 4)):
        assert refine(a, eps) == _bisection_refine(a, eps)
    assert steps == []


def test_refine_reads_a_cell_that_sign_at_left_without_new_sign_tests(
        monkeypatch):
    """sign_at and refine narrow one memo box by one step rule, so a width
    the box already meets costs refine no evaluation."""
    a = algebraic_real(GOLDEN, 1, 2)
    algebraic._REFINED.clear()
    n, d, side = _fib_near_miss(150)
    assert sign_at((-n, d), a) == -side
    box = algebraic._REFINED[a]
    width = F(box.hi - box.lo, box.den)
    assert width < F(1, 2 ** 200)
    expected = {eps: _bisection_refine(a, eps)
                for eps in (width, 3 * width, F(1, 2 ** 100))}
    calls = []
    real = pl.scaled_value
    monkeypatch.setattr(pl, "scaled_value",
                        lambda *args: calls.append(args) or real(*args))
    for eps, r in expected.items():
        assert refine(a, eps) == r
    assert calls == []


def test_a_root_found_by_sign_at_stops_the_qir_steps_of_the_next_call(
        monkeypatch):
    """(2q - 3)(q - 5): the first QIR step evaluates its root 3/2, and the
    memo box is that point, where one evaluation is exact: later sign
    tests take no step and no zero test."""
    # built first: its Sturm count takes a gcd that is not a zero test
    a = algebraic_real((15, -13, 2), 1, 2)
    steps, gcd_calls = [], []
    real = algebraic._qir
    monkeypatch.setattr(algebraic, "_qir",
                        lambda box: steps.append(real(box)) or steps[-1])
    real_gcd = pl.poly_gcd
    monkeypatch.setattr(pl, "poly_gcd",
                        lambda f, g: gcd_calls.append(g) or real_gcd(f, g))
    algebraic._REFINED.clear()
    assert sign_at((-3, 2), a) == 0
    assert steps == [algebraic._REFINED[a]]
    assert _point(algebraic._REFINED[a]) == F(3, 2)
    steps.clear()
    assert sign_at((-9, 0, 4), a) == 0
    assert sign_at((-7, 4), a) == -1
    assert sign_at((-3 ** 11,) + (0,) * 10 + (2 ** 11,), a) == 0
    assert steps == [] and gcd_calls == []


def test_a_sign_at_a_point_box_is_one_evaluation(monkeypatch):
    """Once the memo holds the point 3/2 of (2q - 3)(q - 5), the sign of c
    there is c's value at that point, not an enclosure of it."""
    a = algebraic_real((15, -13, 2), 1, 2)
    algebraic._REFINED.clear()
    assert sign_at((-3, 2), a) == 0
    assert _point(algebraic._REFINED[a]) == F(3, 2)
    calls = []
    real = pl.scaled_value
    monkeypatch.setattr(pl, "scaled_value",
                        lambda *args: calls.append(args) or real(*args))
    assert sign_at((-7, 4), a) == -1
    assert calls == [((-7, 4), 6, 4)]


def test_a_midpoint_root_found_by_bisection_is_kept_as_a_point(monkeypatch):
    """(2x - 3) x^4 on (1, 2): the first secant misses, the bisection that
    follows evaluates the root 3/2 at its midpoint, and the memo box is
    that point, so no QIR step follows."""
    steps = []
    real = algebraic._qir
    monkeypatch.setattr(algebraic, "_qir",
                        lambda box: steps.append(real(box)) or steps[-1])
    a = algebraic_real((0, 0, 0, 0, -3, 2), 1, 2)
    algebraic._REFINED.clear()
    eps = F(1, 2 ** 40)
    assert refine(a, eps) == _bisection_refine(a, eps)
    assert steps == [None]
    assert _point(algebraic._REFINED[a]) == F(3, 2)
    assert refine(a, eps / 5) == _bisection_refine(a, eps / 5)
    assert steps == [None]


@pytest.mark.parametrize("p, lo, hi", REFINE_CASES + [(TRIB, 1, 2)])
def test_refine_after_any_history_equals_a_fresh_bisection(p, lo, hi):
    """Decreasing eps, then increasing eps, then sign tests that leave
    their own cells in the memo: each answer is the fresh reference."""
    a = algebraic_real(p, lo, hi)
    algebraic._REFINED.clear()
    down = [F(1, 2 ** b) for b in (2, 7, 40, 41, 200)]
    for eps in down + down[::-1]:
        assert refine(a, eps) == _bisection_refine(a, eps)
    for c in ((-1, 1), (-7, 5), (-17, 12), (-3, 2), (-2, 0, 1)):
        sign_at(c, a)
        for eps in (F(1, 8), F(1, 3 * 2 ** 100), F(1, 2 ** 300)):
            got = refine(a, eps)
            algebraic._REFINED.clear()
            assert got == _bisection_refine(a, eps)
            sign_at(c, a)


def test_refine_answers_from_the_memo_without_new_sign_tests(monkeypatch):
    """Coarser widths at a root refined deep, and a repeated width at the
    dyadic root 3/2 of (2q - 3)(q - 5), which the memo keeps as a point:
    no evaluation, and a cold call at the point makes a handful."""
    a = solve_base(ep_sequence((), (1, 1, 0)))
    b = algebraic_real((15, -13, 2), 1, 2)
    eps = F(1, 2 ** 1000)
    expected = _bisection_refine(b, eps)
    algebraic._REFINED.clear()
    deep = refine(a, F(1, 2 ** 300))
    calls = []
    real = pl.scaled_value
    monkeypatch.setattr(pl, "scaled_value",
                        lambda *args: calls.append(args) or real(*args))
    assert refine(b, eps) == expected
    assert len(calls) <= 10
    calls.clear()
    for k in (290, 100, 5):
        r = refine(a, F(1, 2 ** k))
        assert r.lo <= deep.lo and deep.hi <= r.hi
    assert refine(b, eps) == expected
    assert calls == []
