"""Greedy / quasi-greedy algorithms, base solving, Thue-Morse enclosure."""

import json
import math
import random
from fractions import Fraction as F
from math import lcm

import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from univoque import algebraic, expansions
from univoque import polynomials as pl
from univoque.algebraic import (AlgebraicReal, DomainError, algebraic_real,
                                refine, sign_at)
from univoque.characterization import check_greedy_admissible
from univoque.cli import main
from univoque.expansions import (NoBaseError, greedy_expansion, kl_constant,
                                 poly_from_sequence, quasi_from_greedy,
                                 quasi_greedy_expansion, solve_base,
                                 thue_morse_prefix, value)
from univoque.words import ep_sequence

S10 = ep_sequence((), (1, 0))
S110 = ep_sequence((), (1, 1, 0))


def test_value_examples():
    assert value(S10, 2) == F(2, 3)
    assert value(ep_sequence((2,), (0,)), 2) == 1
    assert value(S110, 2) == F(6, 7)
    with pytest.raises(DomainError):
        value(S10, 1)


def test_value_matches_direct_partial_sums():
    rng = random.Random(3)
    for _ in range(25):
        s = ep_sequence([rng.randint(0, 2) for _ in range(rng.randint(0, 3))],
                        [rng.randint(0, 2) for _ in range(rng.randint(1, 4))])
        q = F(rng.randint(5, 40), rng.randint(1, 4))
        if q <= 1:
            continue
        n = 400
        partial = sum(s.digit(i) * q ** -i for i in range(1, n + 1))
        tail = s.max_digit * q ** -n / (q - 1)
        assert partial <= value(s, q) <= partial + tail


def test_poly_from_sequence_examples():
    assert poly_from_sequence(S10) == (-1, -1, 1)
    assert poly_from_sequence(S110) == (-1, -1, -1, 1)
    assert poly_from_sequence(ep_sequence((2,), (0,))) == (2, -3, 1)
    with pytest.raises(ValueError):
        poly_from_sequence(ep_sequence((), (0,)))


def test_solve_base_examples():
    two = solve_base(ep_sequence((2,), (0,)))
    assert two.lo < 2 < two.hi
    golden = refine(solve_base(S10), F(1, 10 ** 7))
    assert float(golden.lo) == pytest.approx(1.6180339887, abs=1e-6)
    trib = solve_base(S110)
    assert float(refine(trib, F(1, 10 ** 7)).lo) == pytest.approx(
        1.8392867552, abs=1e-6)


def test_solve_base_files_its_box_under_the_base_it_returns(monkeypatch):
    """The bracket (3/2, 4) is cut to (27/8, 59/16); the memo keeps the
    box under that returned base too, where the next floor at it looks, and
    a second solve finds both: one `_box` in all."""
    built = []
    real = algebraic._box
    monkeypatch.setattr(algebraic, "_box",
                        lambda a, *f: built.append(a) or real(a, *f))
    algebraic._REFINED.clear()
    s = ep_sequence((3, 2, 1, 3), (0,))
    a = solve_base(s)
    assert (a.lo, a.hi) == (F(27, 8), F(59, 16))
    assert a in algebraic._REFINED
    sign_at((-7, 2), a)
    assert solve_base(s) == a
    assert len(built) == 1


@pytest.mark.parametrize("alpha, n", [((1, 1, 0), 20), ((2, 1, 0), 7),
                                      ((1,), 12)])
def test_a_lacunary_base_is_solve_base_stepping_on_its_multiple(alpha, n):
    """For gamma_N the base is the same AlgebraicReal, and its box steps on
    (x^k - 1) P."""
    from univoque.approximator import _gamma, _target
    s, k, m = _target(alpha)
    gamma = _gamma(s, k, m, n)
    algebraic._REFINED.clear()
    a = expansions.solve_lacunary_base(gamma, k)
    assert a == solve_base(gamma)
    algebraic._REFINED.clear()
    expansions.solve_lacunary_base(gamma, k)
    assert algebraic._REFINED[a].f == \
        pl.multiply((-1,) + (0,) * (k - 1) + (1,), a.poly)


def test_solve_base_needs_digit_sum_two():
    with pytest.raises(NoBaseError):
        solve_base(ep_sequence((1,), (0,)))


def test_solve_base_all_max_digit_sequence():
    # (2)^inf solves exactly at q = 3
    a = solve_base(ep_sequence((), (2,)))
    assert sign_at((-3, 1), a) == 0


sequences = st.builds(ep_sequence, st.lists(st.integers(0, 3), max_size=4),
                      st.lists(st.integers(0, 3), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(sequences, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
def test_poly_from_sequence_is_one_minus_value_times_a_positive_factor(
        s, n, d):
    assume(any(s.preperiod) or any(s.period))
    q = 1 + F(n, d)
    p, r = len(s.preperiod), len(s.period)
    P = poly_from_sequence(s)
    assert F(pl.scaled_value(P, q.numerator, q.denominator),
             q.denominator ** (len(P) - 1)) == \
        q ** p * (q ** r - 1) * (1 - value(s, q))


def _value_bracket(s):
    """The reference bracket, probed with value: hi = max digit + 1 (+ 1
    when value is 1 there), lo the first 1 + 2^-t with value above 1."""
    hi = F(s.max_digit + 1)
    if value(s, hi) == 1:
        hi += 1
    for t in range(1, 65):
        if value(s, 1 + F(1, 2 ** t)) > 1:
            return 1 + F(1, 2 ** t), hi


@settings(max_examples=150, deadline=None)
@given(sequences)
def test_solve_base_bracket_matches_the_value_probes(s):
    assume(not s.is_finite() or sum(s.preperiod) >= 2)
    lo, hi = _value_bracket(s)
    want = refine(AlgebraicReal(poly_from_sequence(s), lo, hi), F(1, 2))
    assert solve_base(s) == want


def test_greedy_examples():
    assert greedy_expansion(1, 4).digits == (1, 0, 0, 0)
    assert greedy_expansion(2, 3).digits == (2, 0, 0)
    assert greedy_expansion(S10, 4).digits == (1, 1, 0, 0)
    assert greedy_expansion(S110, 5).digits == (1, 1, 1, 0, 0)
    out = CliRunner().invoke(main, ["expand", "seq:(110)", "--depth", "5",
                                    "--json"]).stdout
    assert json.loads(out)["exact"] is True


def test_quasi_greedy_examples():
    assert quasi_greedy_expansion(2, 4).digits == (1, 1, 1, 1)
    assert quasi_greedy_expansion(S10, 4).digits == (1, 0, 1, 0)
    assert quasi_greedy_expansion(S110, 6).digits == (1, 1, 0, 1, 1, 0)
    with pytest.raises(DomainError):
        quasi_greedy_expansion(1, 4)


def test_greedy_dominates_quasi_greedy():
    rng = random.Random(11)
    bases = [F(3, 2), F(2), F(5, 2), F(3)] + \
        [F(rng.randint(11, 40), 10) for _ in range(10)]
    for q in bases:
        g = greedy_expansion(q, 60).digits
        a = quasi_greedy_expansion(q, 60).digits
        assert a <= g


def test_partial_sum_bounds_rational():
    rng = random.Random(13)
    for _ in range(20):
        q = F(rng.randint(101, 400), 100)
        g = greedy_expansion(q, 40).digits
        a = quasi_greedy_expansion(q, 40).digits
        gs = as_ = F(0)
        for i in range(40):
            gs += g[i] * q ** -(i + 1)
            as_ += a[i] * q ** -(i + 1)
            assert gs <= 1
            assert as_ < 1


def test_quasi_from_greedy_examples():
    assert quasi_from_greedy((1, 1, 1)) == S110
    assert quasi_from_greedy((1, 1)) == S10
    assert quasi_from_greedy((2,)) == ep_sequence((), (1,))
    with pytest.raises(ValueError):
        quasi_from_greedy((1, 0))       # ends in zero
    with pytest.raises(ValueError):
        quasi_from_greedy((1, 2))       # fails the shift condition
    with pytest.raises(NoBaseError):
        quasi_from_greedy((1,))         # would give base 1


def _random_admissible_greedy_words(count, rng, max_len=7, max_digit=3):
    found = []
    while len(found) < count:
        n = rng.randint(1, max_len)
        w = tuple(rng.randint(0, max_digit) for _ in range(n))
        if sum(w) < 2 or w[-1] < 1:
            continue
        ok, _ = check_greedy_admissible(ep_sequence(w, (0,)))
        if ok and w not in found:
            found.append(w)
    return found


def test_round_trip_greedy_words():
    rng = random.Random(5)
    for w in _random_admissible_greedy_words(15, rng):
        base = solve_base(ep_sequence(w, (0,)))
        got = greedy_expansion(base, len(w) + 20).digits
        assert got == w + (0,) * 20


def test_greedy_quasi_pair_relation():
    rng = random.Random(6)
    for w in _random_admissible_greedy_words(15, rng):
        m = len(w)
        qg = quasi_from_greedy(w)
        base_g = solve_base(ep_sequence(w, (0,)))
        base_q = solve_base(qg)
        # same base: each defining polynomial vanishes at the other's root
        assert sign_at(base_q.poly, base_g) == 0
        assert sign_at(base_g.poly, base_q) == 0
        expect = tuple(qg.digit(i) for i in range(1, 3 * m + 1))
        assert quasi_greedy_expansion(base_g, 3 * m).digits == expect
        assert len(qg.preperiod) + len(qg.period) <= m


def test_value_strictly_decreasing_in_q():
    rng = random.Random(8)
    for _ in range(25):
        s = ep_sequence([rng.randint(0, 2) for _ in range(rng.randint(0, 3))],
                        [rng.randint(0, 2) for _ in range(rng.randint(1, 4))])
        if s.max_digit == 0:
            continue
        q1 = 1 + F(rng.randint(1, 200), 100)
        q2 = q1 + F(rng.randint(1, 100), 100)
        assert value(s, q1) > value(s, q2)


def test_thue_morse_prefix():
    assert thue_morse_prefix(2) == (1, 1)
    assert thue_morse_prefix(8) == (1, 1, 0, 1, 0, 0, 1, 1)
    assert thue_morse_prefix(16) == tuple(
        int(c) for c in "1101001100101101")
    # agrees with the bit-parity closed form
    t = thue_morse_prefix(256)
    assert all(t[i - 1] == bin(i).count("1") % 2 for i in range(1, 257))


def test_kl_constant_enclosures():
    lo, hi, _ = kl_constant(F(1, 100))
    assert hi - lo <= F(1, 100)
    assert lo < F(1787, 1000) < hi
    lo8, hi8, _ = kl_constant(F(1, 10 ** 8))
    assert hi8 - lo8 <= F(1, 10 ** 8)
    assert lo8 < F(178723165, 10 ** 8) + F(1, 10**8)
    assert hi8 > F(178723165, 10 ** 8)
    # nesting across accuracies
    assert lo <= lo8 and hi8 <= hi


def test_kl_constant_counts_its_bisection_steps_up_front(monkeypatch):
    assert kl_constant(F(1, 2)) == (F(3, 2), F(2), 32)
    monkeypatch.setattr(expansions, "_KL_MAX_STEPS", 10)
    lo, hi, _ = kl_constant(F(1, 2 ** 11))
    assert hi - lo == F(1, 2 ** 11)
    with pytest.raises(DomainError, match="11 bisection steps.*max_iter = 10"):
        kl_constant(F(1, 2 ** 11) - F(1, 10 ** 9))


def _kl_bisect_ref(eps):
    """The bisection `kl_constant` replaced: halve [3/2, 2] once per step,
    deciding each dyadic midpoint by `_kl_side` from the length the step
    before ended at."""
    eps = F(eps)
    steps = 0
    while F(1, 2 ** (steps + 1)) > eps:
        steps += 1
    unit = 1 << (steps + 1)
    lo, hi = 3 << steps, 2 * unit
    length = 32
    for _ in range(steps):
        mid = (lo + hi) >> 1
        side, length = expansions._kl_side(F(mid, unit), length)
        if side > 0:
            lo = mid
        else:
            hi = mid
    return F(lo, unit), F(hi, unit), length


def test_kl_constant_is_the_bisections_cell():
    """Ends 3/2 and 2 at 0-2 steps, every dyadic eps to 2^-300 and just
    below it, and 200 random eps of up to 400 bits."""
    rng = random.Random(17)
    eps = [F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 8)]
    eps += [F(1, 2 ** k) * f for k in range(301)
            for f in (1, 1 - F(1, 10 ** 9))]
    eps += [F(rng.randrange(1, 2 ** 40), 2 ** rng.randrange(41, 441))
            for _ in range(200)]
    for e in eps:
        assert kl_constant(e) == _kl_bisect_ref(e), e


@pytest.mark.parametrize("eps", [F(1, 2 ** 60), F(1, 10 ** 30), F(1, 8)])
def test_kl_constant_certifies_a_wrong_guess(monkeypatch, eps):
    """A guess k cells off costs at most 2 log2(k) + 6 tests of `_kl_side`,
    and the result is the bisection's, from either clamp end too."""
    want = _kl_bisect_ref(eps)
    unit = want[1].denominator
    cell = want[0].numerator * (unit // want[0].denominator)
    first, last = 3 * unit // 2, 2 * unit - 1
    side, calls = expansions._kl_side, []
    monkeypatch.setattr(expansions, "_kl_side",
                        lambda q, n: calls.append(q) or side(q, n))
    for guess in ([cell + k for k in (0, 1, -1, 37, -37, 10 ** 6, -10 ** 6)]
                  + [first, last, 0, 8 * unit]):
        monkeypatch.setattr(expansions, "_kl_guess", lambda bits: guess)
        calls.clear()
        assert kl_constant(eps) == want
        offset = abs(min(max(guess, first), last) - cell)
        assert len(calls) <= (2 if offset == 0 else
                              2 * math.log2(offset) + 6), guess


def _kl_side_ref(q, length):
    """The bisection rule in Fraction arithmetic: Horner over the prefix
    of L terms, +1 when the sum exceeds 1, -1 when the sum plus the tail
    bound q^-L / (q - 1) falls below 1, else the prefix doubles.  Returns
    the side and the final L."""
    tau = list(thue_morse_prefix(length))
    while True:
        n = len(tau)
        x = 1 / q
        s = F(0)
        for d in reversed(tau):
            s = (s + d) * x
        if s > 1:
            return 1, n
        if s + x ** n / (q - 1) < 1:
            return -1, n
        tau.extend(thue_morse_prefix(2 * n)[n:])


def _kl_sides(q, length):
    """(side, final prefix length) from the library and the reference."""
    return expansions._kl_side(q, length), _kl_side_ref(q, length)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 160), j=st.integers(1, 2 ** 160),
       length=st.sampled_from([32, 64, 128, 256, 512, 1024]))
def test_kl_side_matches_the_fraction_rule_at_dyadic_points(k, j, length):
    q = F(3, 2) + F(j % (2 ** (k - 1) - 1) + 1, 2 ** k)
    assert F(3, 2) < q < 2
    got, want = _kl_sides(q, length)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 120), j=st.integers(1, 2 ** 120),
       length=st.sampled_from([1, 2, 5, 32, 100, 256]),
       prec=st.integers(4, 300))
def test_kl_enclosure_bounds_the_sum_and_the_tail(k, j, length, prec):
    q = 1 + F(j % (2 ** (k + 1)) + 1, 2 ** k)
    n, d = q.numerator, q.denominator
    tau = thue_morse_prefix(length)
    s = sum(t * q ** -i for i, t in enumerate(tau, 1)) * 2 ** prec
    tail = q ** -length / (q - 1) * 2 ** prec
    s_lo, s_hi, t_lo, t_hi = expansions._kl_enclosure(length, n, d, prec)
    assert s_lo <= s <= s_hi and t_lo <= tail <= t_hi
    if prec >= d.bit_length() + 4:
        # each Horner step adds at most about q/(q-1) + 2 units, and the
        # ceiling of 1/q, still below 1, damps what came before
        r = q / (q - 1)
        assert s_hi - s_lo <= 2 * (r + 2) * r


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 120), j=st.integers(1, 2 ** 120),
       length=st.one_of(st.integers(0, 12).map(lambda e: 2 ** e),
                        st.integers(1, 2 ** 12)),
       prec=st.integers(4, 300))
def test_kl_enclosure_holds_the_exact_integers_at_long_prefixes(k, j, length,
                                                                 prec):
    """Against n^L S = d scaled_value(reversed tau, n, d) and
    n^L (n - d) T = d^(L+1), in integers, for L up to 2^12."""
    q = 1 + F(j % (2 ** (k + 1)) + 1, 2 ** k)
    n, d = q.numerator, q.denominator
    tau = thue_morse_prefix(length)
    s_lo, s_hi, t_lo, t_hi = expansions._kl_enclosure(length, n, d, prec)
    nl = n ** length
    s = d * pl.scaled_value(tuple(reversed(tau)), n, d) << prec
    assert s_lo * nl <= s <= s_hi * nl
    tail = d ** (length + 1) << prec
    assert t_lo * nl * (n - d) <= tail <= t_hi * nl * (n - d)
    r = q / (q - 1)
    assert s_hi - s_lo <= 2 * (r + 2) * r


KL_FINE = kl_constant(F(1, 2 ** 400))[0]


@pytest.mark.parametrize("length", [32, 64, 128, 256])
def test_kl_side_extends_its_prefix_like_the_fraction_rule(length):
    # within about q^-L of the constant the tail bound is not decisive
    e = length * 84 // 100 + 4
    extended = 0
    for r in (-3, -1, 1, 2):
        q = KL_FINE + F(r, 2 ** e)
        got, want = _kl_sides(q, length)
        assert got == want
        extended += got[1] > length
    assert extended >= 3


@pytest.mark.parametrize("length", [32, 64, 256])
def test_kl_side_fallback_decides_every_case_alone(monkeypatch, length):
    """With a filter of a few bits, the exact integer comparisons decide;
    the result must not depend on the precision."""
    calls = []
    scaled_value = pl.scaled_value
    monkeypatch.setattr(pl, "scaled_value",
                        lambda *a: calls.append(1) or scaled_value(*a))
    rng = random.Random(length)
    for _ in range(12):
        k = rng.randrange(8, 120)
        q = F(3, 2) + F(rng.randrange(1, 2 ** (k - 1)), 2 ** k)
        if rng.random() < 0.5:
            q = KL_FINE + F(rng.choice((-1, 1)), 2 ** (length * 84 // 100 + 4))
        monkeypatch.setattr(expansions, "_KL_GUARD",
                            3 - q.denominator.bit_length())
        got, want = _kl_sides(q, length)
        assert got == want
    assert len(calls) >= 6


def test_expansions_refuse_a_negative_depth():
    for fn in (greedy_expansion, quasi_greedy_expansion):
        assert fn(S110, 0).digits == ()
        with pytest.raises(DomainError, match="depth must be >= 0"):
            fn(S110, -1)


def test_solve_base_refuses_a_polynomial_without_its_sign_change(
        monkeypatch):
    s = ep_sequence((2, 1), (0,))
    p = poly_from_sequence(s)
    monkeypatch.setattr(expansions, "poly_from_sequence",
                        lambda s: tuple(-c for c in p))
    with pytest.raises(RuntimeError, match="does not change sign"):
        solve_base(s)


def test_algebraic_expansion_refuses_a_digit_above_the_cap(monkeypatch):
    """A floor that answers cap + 1, and a residual shifted far above the
    cap, which the real floor clips to cap + 1: either way the digit loop
    refuses the digit."""
    base = solve_base(ep_sequence((1, 1), (0,)))
    b = expansions.base_arithmetic(base)
    cap, real = b.cap, expansions.floor_at
    monkeypatch.setattr(expansions, "base_arithmetic", lambda q: b)
    with monkeypatch.context() as mp:
        mp.setattr(expansions, "floor_at", lambda *args: (cap + 1, False))
        with pytest.raises(RuntimeError, match="exceeds the cap"):
            greedy_expansion(base, 5)
    monkeypatch.setattr(
        expansions, "floor_at", lambda c, s, a, lo, hi:
        real((c[0] + 99 * s,) + c[1:], s, a, lo, hi))
    with pytest.raises(RuntimeError, match="exceeds the cap"):
        greedy_expansion(base, 5)


# --- the residual arithmetic against the Fraction reference -----------------


def _reduce_mod(coeffs, f):
    """The reference reduction: Fraction long division by the integer
    polynomial f, returning deg f Fractions."""
    d = pl.degree(f)
    r = [F(c) for c in coeffs]
    while len(r) > d:
        top = r.pop()
        shift = len(r) - d
        for i in range(d):
            r[shift + i] -= top / f[-1] * f[i]
    return r + [F(0)] * (d - len(r))


def _reference_digits(a, n: int, strict: bool):
    """Digits and residuals of the reference algorithm: Fraction residuals
    reduced modulo a.poly, each digit d the largest with x - d >= 0
    (x - d > 0 when strict), found by counting up one sign test at a time."""
    def sign(c):
        # a positive integer multiple of c has its sign
        den = lcm(*(x.denominator for x in c))
        return sign_at([int(x * den) for x in c], a)

    r = [F(1)] + [F(0)] * (pl.degree(a.poly) - 1)
    digits, residuals = [], []
    for _ in range(n):
        x = _reduce_mod([F(0)] + r, a.poly)
        d = 0
        while sign([x[0] - d - 1] + x[1:]) >= strict:
            d += 1
        r = [x[0] - d] + x[1:]
        digits.append(d)
        residuals.append(r)
    return digits, residuals


@st.composite
def _algebraic_bases(draw):
    """A seq: base (monic), or the root > 1 of L x^k - sum a_i x^i with
    L >= 2 and sum a_i > L: one sign change, so one positive root, and it
    exceeds 1; drawn negated half the time (negative leading coefficient)."""
    if draw(st.booleans()):
        pre = draw(st.lists(st.integers(0, 3), max_size=3))
        per = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        s = ep_sequence(pre, per)
        assume(not s.is_finite() or sum(s.preperiod) >= 2)
        return solve_base(s)
    lead = draw(st.integers(2, 5))
    low = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    assume(sum(low) > lead)
    f = [-c for c in low] + [lead]
    if draw(st.booleans()):
        f = [-c for c in f]
    return algebraic_real(f, 1, 2 + max(low))


@settings(max_examples=60, deadline=None)
@given(_algebraic_bases(), st.booleans())
def test_residuals_match_the_fraction_reference(a, strict):
    n = 12
    digits, residuals = _reference_digits(a, n, strict)
    expand = quasi_greedy_expansion if strict else greedy_expansion
    assert expand(a, n).digits == tuple(digits)
    b = expansions.AlgebraicBase(a)
    lead = abs(a.poly[-1])
    r = b.root()
    for i, (d, want) in enumerate(zip(digits, residuals), 1):
        r = b.minus(b.times_q(r), d)
        num, den = r
        assert den == lead ** i
        assert [F(c, den) for c in num] == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 400), st.integers(1, 100), st.booleans())
def test_rational_residuals_match_the_fraction_reference(a, b, strict):
    q = F(a, b)
    assume(q > 1)
    n = 40
    expand = quasi_greedy_expansion if strict else greedy_expansion
    digits = expand(q, n).digits
    base = expansions.base_arithmetic(q)
    want, r = F(1), base.root()
    for i, d in enumerate(digits, 1):
        # the reference: Fraction residuals, the digit floor(q r) - 1 when
        # q r is an integer and the expansion is quasi-greedy
        x = q * want
        assert d == x.numerator // x.denominator - (strict and
                                                    x.denominator == 1)
        want = x - d
        r = base.minus(base.times_q(r), d)
        # a rational runs as the degree-1 root of b x - a: every residual
        # is a constant over b^i
        (num,), den = r
        assert den == q.denominator ** i and F(num, den) == want


# --- the floor: one loop of enclosures, steps and one zero test ------------


def _clipped(x: F, lo: int, hi: int) -> tuple:
    """(t, x == t) for t = floor(x) clipped to lo - 1..hi - 1, where lo - 1
    is never exact: the Fraction reference of `floor_at`."""
    t = min(max(math.floor(x), lo - 1), hi - 1)
    return t, t >= lo and x == t


def _at(c, x):
    return sum(F(v) * x ** i for i, v in enumerate(c))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.integers(1, 60), st.integers(0, 3),
       st.integers(-3, 8), st.integers(1, 6), st.integers(1, 60), st.data())
def test_floor_at_and_cap_match_fraction_floors_at_rational_bases(
        p, q, k, lo, width, s, data):
    """At a rational base v = p/q: the cap, the floor of v itself and the
    digit floor of a residual over q^k, drawn as an exact integer or as
    any value up to cap + 4; and floor_at of c / s over lo..lo + width,
    for c a polynomial of degree <= 3 at v, drawn with c(v) = T s for T
    from below lo to above hi, or at any value.  Each against Fraction
    floors."""
    v = F(p, q)
    b = expansions.base_arithmetic(v)
    cap = p // q
    assert b.cap == cap
    assert b.floor(b.times_q(b.root())) == (cap, v == cap)
    den = q ** k
    if data.draw(st.booleans()):
        num = data.draw(st.integers(0, cap + 4)) * den
    else:
        num = data.draw(st.integers(0, (cap + 4) * den))
    t, exact = b.floor(((num,), den))
    assert (t, exact) == _clipped(F(num, den), 0, cap + 2)
    if num >= (cap + 2) * den:
        assert t > cap
    hi = lo + width
    c = data.draw(st.lists(st.integers(-50, 50), max_size=3))
    if data.draw(st.booleans()):
        # c(v) = T s: a multiple of v's polynomial, plus T s
        c = list(_mul(c, (-v.numerator, v.denominator))) or [0]
        c[0] += data.draw(st.integers(lo - 2, hi + 1)) * s
    assert algebraic.floor_at(c, s, b.a, lo, hi) == \
        _clipped(_at(c, v) / s, lo, hi)


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return pl.poly(out)


@st.composite
def _greedy_words(draw):
    """A word w with w 0^inf a greedy expansion of 1 (digit sum >= 2)."""
    w = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=6)))
    assume(sum(w) >= 2 and w[-1] >= 1)
    assume(check_greedy_admissible(ep_sequence(w, (0,)))[0])
    return w


def _root_60_digits(a):
    """The root of a (a sign change of a.poly over its interval) by 220
    bisections at 60 digits."""
    coeffs = list(reversed(a.poly))
    with mpmath.workdps(60):
        lo = mpmath.mpf(a.lo.numerator) / a.lo.denominator
        hi = mpmath.mpf(a.hi.numerator) / a.hi.denominator
        negative_lo = mpmath.polyval(coeffs, lo) < 0
        for _ in range(220):
            mid = (lo + hi) / 2
            if (mpmath.polyval(coeffs, mid) < 0) == negative_lo:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


@settings(max_examples=40, deadline=None)
@given(_greedy_words(), st.booleans())
def test_floors_at_seq_bases_match_the_paper_and_60_digit_numerics(w, strict):
    """At the base of w 0^inf: the greedy digits are w 0^inf and the
    quasi-greedy ones the word of quasi_from_greedy(w).  Every floor the
    digit loop takes, the cap's included, is floor(c(q) / s) at 60 digits,
    and it is exact just when c - t s is divisible by the irreducible factor
    of a.poly with the root q (by sympy's rem)."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    a = solve_base(ep_sequence(w, (0,)))
    n = 3 * len(w) + 3
    if strict:
        want = (quasi_from_greedy(w).period * n)[:n]
    else:
        want = (w + (0,) * n)[:n]
    floors = []
    real = expansions.floor_at
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expansions, "floor_at", lambda *args: floors.append(
            (args, real(*args))) or floors[-1][1])
        expand = quasi_greedy_expansion if strict else greedy_expansion
        assert expand(a, n).digits == want
    assert any(exact for _, (_, exact) in floors)
    g, = [g for g, _ in sympy.factor_list(sympy.Poly(
        list(reversed(a.poly)), x))[1] if g.count_roots(a.lo, a.hi)]
    root = _root_60_digits(a)
    for (c, s, _, lo, hi), (t, exact) in floors:
        c = pl.poly(c)
        with mpmath.workdps(60):
            value = mpmath.polyval(list(reversed(c)), root) / s
            near = int(mpmath.nint(value))
            gap = abs(value - near)
        d = pl.poly(((c or (0,))[0] - near * s,) + c[1:])
        vanishes = sympy.rem(sympy.Poly(list(reversed(d)) or [0], x),
                             g).is_zero
        # a nonzero c(q) - T s at such a base is far above 10^-40
        assert vanishes == (gap < mpmath.mpf(10) ** -40)
        floor = near if vanishes else int(mpmath.floor(value))
        assert (t, exact) == (min(max(floor, lo - 1), hi - 1),
                              vanishes and lo <= floor < hi)


@pytest.mark.parametrize("w", [(1, 1), (2, 1), (1, 1, 1), (2, 0, 1),
                               (1, 1, 0, 1), (3, 2, 1, 3)])
def test_a_floor_encloses_each_box_once(monkeypatch, w):
    """During an expansion at a seq:w(0) base, on a cold memo, each
    floor_at call (sign_at's included) takes at most one enclosure per
    step it takes, plus one: no enclosure is taken twice over one box."""
    a = solve_base(ep_sequence(w, (0,)))
    calls = []
    real = (algebraic.floor_at, algebraic._enclose, algebraic._step)

    def floor_at(*args):
        calls.append([0, 0])
        return real[0](*args)

    def enclose(*args):
        calls[-1][0] += 1
        return real[1](*args)

    def step(box):
        calls[-1][1] += 1
        return real[2](box)

    for module in (algebraic, expansions):
        monkeypatch.setattr(module, "floor_at", floor_at)
    monkeypatch.setattr(algebraic, "_enclose", enclose)
    monkeypatch.setattr(algebraic, "_step", step)
    # boxes start from the whole interval, so that the expansions take steps
    monkeypatch.setattr(algebraic, "_propose", lambda box: box)
    algebraic._REFINED.clear()
    greedy_expansion(a, 40)
    quasi_greedy_expansion(a, 40)
    assert sum(steps for _, steps in calls) > 0
    assert all(encloses <= steps + 1 for encloses, steps in calls)


def test_a_rational_base_takes_no_sign_test_per_digit(monkeypatch):
    """Each digit at a rational base is one floor division: the q - 1 test
    is the only sign test of an expansion."""
    calls = []
    real = expansions.sign_at
    monkeypatch.setattr(expansions, "sign_at",
                        lambda c, a: calls.append(c) or real(c, a))
    for q in (F(151, 100), F(3), F(7, 2)):
        for expand in (greedy_expansion, quasi_greedy_expansion):
            calls.clear()
            assert len(expand(q, 60).digits) == 60
            assert len(calls) == 1


def test_a_repeated_exact_zero_takes_one_gcd(monkeypatch):
    """At seq:21(0), q = 1 + sqrt 2 is a root of (q - 1)(q^2 - 2q - 1), and
    the quasi-greedy expansion (2 0)^inf meets a residual that vanishes at
    q every second digit.  Only the first zero test takes gcds; it keeps
    the vanishing factor as the box's polynomial, which divides every
    later such residual."""
    a = solve_base(ep_sequence((2, 1), (0,)))
    events = []
    real_gcd, real_divides = pl.poly_gcd, pl.divides
    monkeypatch.setattr(pl, "poly_gcd", lambda f, g: events.append("gcd")
                        or real_gcd(f, g))
    monkeypatch.setattr(pl, "divides", lambda f, g: events.append("zero")
                        or real_divides(f, g))
    algebraic._REFINED.clear()
    assert quasi_greedy_expansion(a, 30).digits == (2, 0) * 15
    tests = [i for i, e in enumerate(events) if e == "zero"]
    gcds = [i for i, e in enumerate(events) if e == "gcd"]
    assert len(tests) >= 10 and gcds
    assert all(tests[0] < i < tests[1] for i in gcds)
    assert algebraic._REFINED[a].f == (-1, -2, 1)


def test_an_exact_integer_that_no_enclosure_decides_takes_the_zero_test(
        monkeypatch):
    """At seq:21(0), n = k + q^2 - 2q - 1 is the integer k at q, but no
    enclosure over a cell is a point, so the zero test says x == k, one
    per floor.  At k = 0 the enclosure reaches below 0, and the threshold
    left is 0."""
    b = expansions.base_arithmetic(ep_sequence((2, 1), (0,)))
    tests = []
    real = pl.divides
    monkeypatch.setattr(pl, "divides",
                        lambda f, g: tests.append(g) or real(f, g))
    algebraic._REFINED.clear()
    assert b.cap == 2
    tests.clear()
    want = [(k, True) for k in range(4)]
    assert [b.floor(((k - 1, -2, 1), 1)) for k in range(4)] == want
    assert tests == [(-1, -2, 1)] * 4
