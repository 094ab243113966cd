"""Brute-force enumeration of all expansions of 1, as an independent oracle.

Branch-and-bound over digit prefixes: a prefix c_1..c_n is viable iff the
scaled residual r_n = q^n (1 - sum c_i q^{-i}) can still be completed,
i.e. 0 <= r_n <= M / (q - 1) with M the digit cap.  The residuals use the
one residual arithmetic of `expansions` (AlgebraicBase; a rational is its
degree-1 case), so everything is decided exactly; the rule itself is this
module's own, not the greedy floor rule.  A base is a rational, an
AlgebraicReal or an eventually periodic sequence, as for `expansions`.

The children of a prefix depend only on its residual, and at a Pisot base
the residuals in a bounded interval form a finite set (Garsia 1962), so
many prefixes share one.  `enumerate_expansions` keeps each residual's
children in one memo per call, cleared when it holds `level_cap`
residuals, so the sign tests run once per distinct residual.  It holds a
level as runs: maximal blocks of adjacent prefixes, in lexicographic order,
with one residual, each with its multiplicity and, only when the levels
are listed, its digit tuples.  So a counted level costs one step per run,
not per prefix: 2,000 levels at the tribonacci base hold 668,333 prefixes
in 3,998 runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebraic import DomainError
from .expansions import base_arithmetic, q_minus_1_sign, require_depth

# the default bound on the prefixes kept per level
LEVEL_CAP = 100_000


@dataclass(frozen=True)
class PrefixTree:
    depth: int
    levels: tuple          # per level: tuple of digit-prefix tuples, or None
    counts: tuple          # per level: number of viable prefixes
    exhaustive: bool


def _base(base, level_cap: int):
    b = base_arithmetic(base)
    if q_minus_1_sign(b) <= 0:
        raise DomainError("oracle requires q > 1")
    if b.cap + 1 > level_cap:
        raise DomainError("each prefix has %d candidate digits, above the "
                          "level cap %d" % (b.cap + 1, level_cap))
    return b


def _below_tail(b, r, qr) -> bool:
    """r <= M/(q - 1), M = b.cap: digits <= M can still complete r.  With
    q > 1 this reads q r - r - M <= 0."""
    return b.sign(b.minus(b.minus(qr, r), b.cap)) <= 0


def _children(b, x):
    """(c, q r) for the viable children r = x - c of a prefix whose residual
    times q is x, largest digit first (`greedy_via_oracle` takes the first;
    `enumerate_expansions` keeps them all, smallest digit first).  x - c
    grows as c falls, so every digit below the first child with x - c >= 0
    passes that test too, and the first child above the tail bound ends the
    list."""
    minus, sign, times_q = b.minus, b.sign, b.times_q
    nonneg = False
    for c in range(b.cap, -1, -1):
        r = minus(x, c)
        nonneg = nonneg or sign(r) >= 0
        if nonneg:
            qr = times_q(r)
            if not _below_tail(b, r, qr):
                return
            yield c, qr


def enumerate_expansions(base, depth: int, level_cap: int = LEVEL_CAP,
                         counts_only: bool = False) -> PrefixTree:
    """All viable digit prefixes of expansions of 1, level by level.

    Each level is a list of runs [x, m, prefixes]: a maximal block of m
    consecutive prefixes, in lexicographic order, whose residuals times q
    all equal x, with their digit tuples (None when only counts are kept).
    A run's k children are found once.  Taking each child's digit in turn,
    smallest first, keeps the order when m = 1 or k = 1; otherwise the run
    splits parent-major, into m * k runs of one prefix each.  A new run that meets a run with the same x merges with it.  A
    level of more than `level_cap` prefixes keeps the first `level_cap`,
    cut by the running sum of m, inside a run if need be."""
    require_depth(depth)
    b = _base(base, level_cap)
    frontier = [[b.times_q(b.root()), 1, None if counts_only else [()]]]
    memo = {}
    levels, counts = [], []
    exhaustive = True
    for _ in range(depth):
        nxt, last, total = [], None, 0
        for x, m, prefixes in frontier:
            children = memo.get(x)
            if children is None:
                if len(memo) >= level_cap:
                    memo.clear()
                children = memo[x] = list(_children(b, x))[::-1]
            if m == 1 or len(children) == 1:
                blocks = ((m, prefixes),)
            elif prefixes is None:
                blocks = ((1, None),) * m
            else:
                blocks = [(1, [p]) for p in prefixes]
            for n, ps in blocks:
                total += n * len(children)
                for c, qr in children:
                    if last is not None and last[0] == qr:
                        last[1] += n
                        if ps is not None:
                            last[2] += [p + (c,) for p in ps]
                    else:
                        last = [qr, n, None if ps is None
                                else [p + (c,) for p in ps]]
                        nxt.append(last)
        if total > level_cap:
            exhaustive = False
            keep = level_cap
            for i, run in enumerate(nxt):
                if run[1] >= keep:
                    run[1] = keep
                    if run[2] is not None:
                        del run[2][keep:]
                    del nxt[i + 1:]
                    break
                keep -= run[1]
            total = level_cap
        frontier = nxt
        counts.append(total)
        levels.append(None if counts_only
                      else tuple(p for _, _, ps in frontier for p in ps))
    return PrefixTree(depth, tuple(levels), tuple(counts), exhaustive)


def unique_prefix(tree: PrefixTree) -> bool:
    """True iff exactly one viable prefix survives at every level of an
    exhaustive tree: a depth-bounded necessary condition for univoqueness
    (sound refutation).  A tree of depth 0 has no level to check and would
    pass vacuously, so it is refused."""
    require_depth(tree.depth, 1)
    return tree.exhaustive and all(c == 1 for c in tree.counts)


def certify_unique_prefix(base, depth: int) -> bool:
    """`unique_prefix` of the viable prefixes of depth >= 1."""
    require_depth(depth, 1)
    return unique_prefix(enumerate_expansions(base, depth, counts_only=True))


def greedy_via_oracle(base, depth: int) -> tuple:
    """Lexicographically largest viable prefix, following the largest
    viable digit level by level."""
    b = _base(base, LEVEL_CAP)
    x = b.times_q(b.root())
    digits = []
    for _ in range(depth):
        child = next(_children(b, x), None)
        if child is None:
            raise RuntimeError("no viable digit: invariant violated")
        c, x = child
        digits.append(c)
    return tuple(digits)
