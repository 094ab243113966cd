"""Polynomial division and square-free parts, differentially against sympy."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from univoque import polynomials as pl

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


@settings(max_examples=200, deadline=None)
@given(polys, nonzero)
def test_divmod_matches_sympy_div(a, b):
    quo, rem = pl._divmod(a, b)
    want_q, want_r = sympy.div(_sympy(a), _sympy(b))
    assert pl.poly(quo) == _coeffs(want_q)
    assert tuple(rem) == _coeffs(want_r)


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
