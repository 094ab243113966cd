"""Seeded command lists for the benchmark workloads, and their output checks.

A workload is one round of CLI commands drawn from a seed.  The sizes that
drive the cost (word length, N, depth, eps, period) sit on a fixed grid and
the seed moves each by a small offset, or picks the word inside a stratum,
so different seeds give different inputs of comparable total cost.  Every
command carries its input-size attributes and the answer expected from the
paper's identities (see reference.py), computed before any timing starts.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import reference as ref

# target words of closure points outside the univoque set (quasi-greedy
# expansions alpha^inf); 110 is the tribonacci base
TARGETS = ((1, 1, 0), (1, 1, 1, 0), (1, 1, 1, 1, 0), (1, 1, 0, 1, 0, 0))


def _cmd(kind, args, attrs, expect):
    return {"kind": kind, "args": list(args) + ["--json"], "attrs": attrs,
            "expect": expect}


def _grid(rng, lo: int, hi: int, n: int, jitter: int) -> list:
    """n evenly spaced integers from lo to hi, each moved by a seeded offset
    of at most jitter."""
    step = (hi - lo) / (n - 1) if n > 1 else 0
    return [round(lo + i * step) + rng.randint(-jitter, jitter)
            for i in range(n)]


def _stratified(rng, pool: list, n: int, key) -> list:
    """One item from each of n equal slices of the pool sorted by key."""
    pool = sorted(pool, key=key)
    edges = [len(pool) * i // n for i in range(n + 1)]
    return [rng.choice(pool[edges[i]:edges[i + 1]]) for i in range(n)]


# --- algebraic-digits -------------------------------------------------------

WORDS_PER_LENGTH = {1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 2, 7: 1}


def algebraic_digits(rng) -> list:
    """Greedy depth-100 and quasi-greedy depth-3m expansions at the bases
    whose greedy expansion is w 0^inf (criterion 5's words)."""
    out = []
    for length, n in WORDS_PER_LENGTH.items():
        # the leading digit (the digit cap) and the digit sum drive the
        # number of sign tests per digit
        for w in _stratified(rng, ref.greedy_words(length), n,
                             key=lambda w: (w[0], sum(w), w)):
            base = "seq:" + ref.seq_text(w, (0,))
            attrs = {"degree": length + 1, "word_length": length}
            out.append(_cmd(
                "expand", ["expand", base, "--depth", "100"],
                dict(attrs, depth=100),
                {"code": 0, "digits": ref.fmt(ref.digits(w, (0,), 100))}))
            depth = 3 * length
            quasi = ref.digits((), ref.quasi_of_greedy(w), depth)
            out.append(_cmd(
                "expand", ["expand", base, "--mode", "quasi", "--depth",
                           str(depth)],
                dict(attrs, depth=depth),
                {"code": 0, "digits": ref.fmt(quasi)}))
    return out


# --- approximants -----------------------------------------------------------

# N grid per target, chosen so that kN spans about 18-90 digits
N_RANGES = {(1, 1, 0): (14, 30), (1, 1, 1, 0): (9, 20),
            (1, 1, 1, 1, 0): (6, 14), (1, 1, 0, 1, 0, 0): (3, 10)}
APPROX_PER_TARGET = 3


def approximants(rng) -> list:
    """approximate ALPHA --from N --to N+1 over the closure targets."""
    out = []
    for alpha, (lo, hi) in N_RANGES.items():
        k, m = len(alpha), ref.minimal_m(alpha)
        for n in _grid(rng, lo, hi, APPROX_PER_TARGET, 1):
            out.append(_cmd(
                "approximate",
                ["approximate", ref.fmt(alpha), "--from", str(n), "--to",
                 str(n + 1)],
                {"k": k, "N": n, "N_to": n + 1, "kN_2m": k * (n + 1) + 2 * m,
                 "degree": k * (n + 1) + 2 * m, "period_length": 2 * m},
                {"code": 0, "alpha": list(alpha), "from": n, "to": n + 1}))
    return out


def _check_approximate(cmd, payload) -> str | None:
    e = cmd["expect"]
    alpha = tuple(e["alpha"])
    records = payload["records"]
    if [r["N"] for r in records] != list(range(e["from"], e["to"] + 1)):
        return "wrong N range"
    prev_gap = None
    for r in records:
        m = r["m"]
        if r["k"] != len(alpha) or m < len(alpha) or \
                not ref.block_condition(alpha, m):
            return "bad k or m at N=%d" % r["N"]
        pre, per = ref.gamma(alpha, r["N"], m)
        got = ref.parse_seq(r["gamma"])
        span = max(len(pre), len(got[0])) + len(per) * len(got[1])
        if ref.digits(*got, span) != ref.digits(pre, per, span):
            return "gamma differs from the construction at N=%d" % r["N"]
        if r["certificate_verdict"] != "univoque" or \
                not ref.is_univoque(pre, per):
            return "gamma not univoque at N=%d" % r["N"]
        lo, hi = (Fraction(x) for x in r["base_interval"])
        tlo, thi = (Fraction(x) for x in r["target_interval"])
        if not ref.brackets(pre, per, lo, hi):
            return "base interval misses q_N at N=%d" % r["N"]
        if not ref.brackets((), alpha, tlo, thi):
            return "target interval misses q at N=%d" % r["N"]
        if ref.poly_eval(r["polynomial"], lo) * \
                ref.poly_eval(r["polynomial"], hi) > 0:
            return "polynomial has no sign change at N=%d" % r["N"]
        gap = Fraction(r["gap"])
        if not 0 < gap or gap != thi - lo:
            return "gap is not target.hi - base.lo at N=%d" % r["N"]
        if prev_gap is not None and not gap < prev_gap:
            return "gaps do not decrease at N=%d" % r["N"]
        prev_gap = gap
    return None


# --- oracle-algebraic -------------------------------------------------------

# depth grids (lo, hi, count) of the branching frontiers, and of the
# univoque approximant bases given as (alpha, N)
ORACLE_BRANCHING = {(1, 0): (26, 50, 3), (1, 1, 0): (60, 150, 3),
                    (1, 1, 1, 0): (60, 150, 3)}
ORACLE_APPROX = {((1, 1, 0), 2): (30, 36, 2)}


def oracle_algebraic(rng) -> list:
    """oracle --counts at branching frontiers and at approximant bases."""
    out = []
    for alpha, grid in ORACLE_BRANCHING.items():
        q = ref.periodic_base(alpha)
        for depth in _grid(rng, *grid, 1):
            if alpha == (1, 0):
                counts = [n + 1 for n in range(1, depth + 1)]
            else:
                counts = ref.counts_mp(q, depth)
            out.append(_cmd(
                "oracle", ["oracle", "seq:" + ref.seq_text((), alpha),
                           "--depth", str(depth), "--counts"],
                {"depth": depth, "degree": len(alpha), "period_length":
                 len(alpha), "cap": max(alpha)},
                {"code": 1, "counts": counts}))
    for (alpha, n), grid in ORACLE_APPROX.items():
        pre, per = ref.gamma(alpha, n, ref.minimal_m(alpha))
        for depth in _grid(rng, *grid, 1):
            out.append(_cmd(
                "oracle", ["oracle", "seq:" + ref.seq_text(pre, per),
                           "--depth", str(depth), "--counts"],
                {"depth": depth, "degree": len(pre) + len(per), "N": n,
                 "period_length": len(per), "cap": max(alpha)},
                {"code": 0, "counts": [1] * depth}))
    return out


# --- rational-lexical -------------------------------------------------------

CHECK_N = (60, 300)
KL_EXPONENTS = (10, 54)
KL_PER_ROUND = 6
# the check each gamma_N and each sequence leaving the closure gets, by target
GAMMA_WHICH = ("univoque", "closure", "greedy", "quasi")
NEG_WHICH = ("univoque", "closure", "univoque", "closure")
RATIONAL_PER_ROUND = 4


def _checks(rng) -> list:
    """check --which ... on approximant sequences, their targets, and
    sequences that leave the closure."""
    out = []
    grid = _grid(rng, *CHECK_N, len(TARGETS), 5)
    for i, (alpha, n) in enumerate(zip(TARGETS, grid)):
        pre, per = ref.gamma(alpha, n, ref.minimal_m(alpha))
        cases = [
            # gamma_N is univoque, hence also in the closure, greedy and
            # quasi-greedy admissible
            (pre, per, GAMMA_WHICH[i], True, "univoque"),
            # a tail of ones eventually exceeds every shift bound
            (tuple(alpha) * n, (1,), NEG_WHICH[i], False, "inadmissible"),
            # the target is a closure point that is not univoque
            ((), alpha, "univoque", False, "closure_only"),
            ((), alpha, "closure", True, "closure_only"),
        ]
        for cpre, cper, which, ok, verdict in cases:
            expect = {"code": 0 if ok else 1, "pass": ok}
            if which in ("univoque", "closure"):
                expect["verdict"] = verdict
            out.append(_cmd(
                "check", ["check", ref.seq_text(cpre, cper), "--which", which],
                {"period_length": len(cper), "preperiod_length": len(cpre),
                 "N": n if cpre else 0}, expect))
    # the golden ratio: (10) is quasi-greedy but outside the closure
    out.append(_cmd("check", ["check", "(10)", "--which", "closure"],
                    {"period_length": 2, "preperiod_length": 0},
                    {"code": 1, "pass": False, "verdict": "inadmissible"}))
    # a finite greedy expansion w 0^inf is greedy-admissible but never
    # univoque: the complement of its zero tail is b^inf, not below it
    w_fail, w_pass = rng.sample(ref.greedy_words(6), 2)
    out.append(_cmd("check", ["check", ref.seq_text(w_fail, (0,)), "--which",
                              "univoque"],
                    {"period_length": 1, "preperiod_length": 6},
                    {"code": 1, "pass": False, "verdict": "inadmissible"}))
    out.append(_cmd("check", ["check", ref.seq_text(w_pass, (0,)), "--which",
                              "greedy"],
                    {"period_length": 1, "preperiod_length": 6},
                    {"code": 0, "pass": True}))
    return out


def _kl(rng, kl_ref) -> list:
    out = []
    for e in _grid(rng, *KL_EXPONENTS, KL_PER_ROUND, 1):
        eps = "1e-%d" % e
        out.append(_cmd("kl", ["kl", "--eps", eps],
                        {"eps_bits": Fraction(1, 10 ** e).denominator
                         .bit_length()},
                        {"code": 0, "eps": eps, "ref": kl_ref}))
    return out


def _rational(rng) -> list:
    """Greedy/quasi-greedy expand and oracle at bases p/100 (criterion 8)."""
    out = []
    for p in _grid(rng, 160, 390, RATIONAL_PER_ROUND, 9):
        q = Fraction(p, 100)
        base = "%d/100" % p
        quasi = rng.random() < 0.5
        depth = rng.randrange(200, 400)
        args = ["expand", base, "--depth", str(depth)]
        if quasi:
            args += ["--mode", "quasi"]
        out.append(_cmd("expand", args, {"depth": depth, "degree": 1},
                        {"code": 0, "digits": ref.fmt(
                            ref.greedy_rational(q, depth, quasi))}))
        depth = rng.randrange(14, 18)
        counts = ref.counts_rational(q, depth)
        out.append(_cmd("oracle", ["oracle", base, "--depth", str(depth),
                                   "--counts"],
                        {"depth": depth, "degree": 1, "cap": p // 100},
                        {"code": 0 if all(c == 1 for c in counts) else 1,
                         "counts": counts}))
    return out


def rational_lexical(rng) -> list:
    kl_ref = ref.kl_reference()
    return _checks(rng) + _kl(rng, kl_ref) + _rational(rng)


WORKLOADS = {
    "algebraic-digits": algebraic_digits,
    "approximants": approximants,
    "oracle-algebraic": oracle_algebraic,
    "rational-lexical": rational_lexical,
}


def generate(name: str, seed: int) -> list:
    """The workload's round: its commands in a seeded order."""
    rng = random.Random("%s/%d" % (name, seed))
    cmds = WORKLOADS[name](rng)
    rng.shuffle(cmds)
    return cmds


# --- output checks ----------------------------------------------------------

def check(cmd, code, stdout: str) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    e = cmd["expect"]
    if code != e["code"]:
        return "exit code %r, expected %d" % (code, e["code"])
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    kind = cmd["kind"]
    if kind == "expand":
        return None if payload.get("digits") == e["digits"] else \
            "wrong digits"
    if kind == "oracle":
        if payload.get("counts") != e["counts"] or not payload["exhaustive"]:
            return "wrong counts"
        return None
    if kind == "check":
        if payload.get("pass") is not e["pass"]:
            return "wrong verdict"
        if "verdict" in e and payload.get("verdict") != e["verdict"]:
            return "wrong verdict"
        return None
    if kind == "kl":
        lo, hi = (Fraction(x) for x in payload["interval"])
        if not lo < hi or hi - lo > Fraction(e["eps"]):
            return "interval wider than eps"
        if not ref.contains(lo, hi, e["ref"]):
            return "interval misses the constant"
        return None
    if kind == "approximate":
        return _check_approximate(cmd, payload)
    return "unknown command kind"
