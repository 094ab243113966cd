"""Command-line interface.

All numeric output is exact (rationals as "num/den", intervals as string
pairs); decimal renderings are attached for readability only.  Exit codes:
0 success / check passed, 1 semantic failure (check failed, not unique,
target outside the closure), 2 usage, parse or domain errors.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction

import click

from . import approximator, characterization, expansions, oracle
from .algebraic import algebraic_real
from .characterization import NotInClosureError
from .words import ParseError, format_word, parse_sequence, parse_word


def _max_work(default: int) -> int:
    """UVQ_MAX_WORK, a positive integer clamped to default, else default
    when unset; any other value is a usage error."""
    raw = os.environ.get("UVQ_MAX_WORK")
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError("UVQ_MAX_WORK must be a positive integer, got %r"
                         % raw)
    return min(default, cap)


# the most decimal digits int() reads or prints by default
# (sys.int_info.default_max_str_digits)
_MAX_DIGITS = 4300


def _frac(text: str) -> Fraction:
    try:
        # Fraction builds 10^exp in full: refuse |exp| > 4,300 as int() does
        if ("e" in text or "E" in text) and \
                abs(int(re.split("[eE]", text)[-1])) > _MAX_DIGITS:
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("invalid rational: %r" % text)


_POLY_RE = re.compile(
    r"^poly:\s*(-?\d+(?:\s*,\s*-?\d+)*)\s+in\s+\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)$")


def parse_base(text: str):
    """Base grammar: a rational/decimal literal, "poly:c0,c1,... in (lo,hi)"
    with constant-first coefficients, or "seq:<sequence>"."""
    text = text.strip()
    if text.startswith("seq:"):
        return parse_sequence(text[4:])
    m = _POLY_RE.match(text)
    if m:
        coeffs = [int(t) for t in m.group(1).split(",")]
        lo, hi = _frac(m.group(2)), _frac(m.group(3))
        try:
            return algebraic_real(coeffs, lo, hi)
        except Exception as exc:
            raise ParseError("invalid polynomial root: %s" % exc)
    if text.startswith("poly:"):
        raise ParseError("polynomial base must look like "
                         "'poly:1,-1,-1 in (1,2)'")
    q = _frac(text)
    # a greedy digit up to floor(q) is printed in decimal
    if q >= 10 ** _MAX_DIGITS:
        raise ParseError("base %r has an integer part of more than %d "
                         "digits" % (text, _MAX_DIGITS))
    return q


def _fmt_frac(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _emit(payload: dict, as_json: bool):
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True))
        return
    for key, val in payload.items():
        if key == "command":
            continue
        click.echo("%s: %s" % (key, _plain(val)))


def _plain(val):
    if isinstance(val, (list, tuple)):
        return "[" + ", ".join(str(_plain(v)) for v in val) + "]"
    if isinstance(val, dict):
        return json.dumps(val, sort_keys=True)
    return val


class _Main(click.Group):
    """The one error map of every command: a NotInClosureError exits 1,
    any other ValueError (parse, domain, usage) and click's own usage
    errors (an unknown command or option, before the command or after it,
    a missing or invalid argument) exit 2, each with a one-line message on
    stderr.  A bare `univoque` still prints the help."""

    def parse_args(self, ctx, args):
        if not args:
            # the help, raised as a UsageError by click 8.2 and later
            return super().parse_args(ctx, args)
        return _one_line_errors(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return _one_line_errors(super().invoke, ctx)


def _one_line_errors(run, *args):
    """run(*args), with its errors printed and mapped as `_Main` says."""
    try:
        return run(*args)
    except click.UsageError as exc:
        # click's own messages may span lines, e.g. a list of choices
        click.echo("error: %s" % " ".join(exc.format_message().split()),
                   err=True)
        sys.exit(2)
    except ValueError as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(1 if isinstance(exc, NotInClosureError) else 2)


@click.group(cls=_Main)
def main():
    """Exact toolkit for expansions of 1 in real bases q > 1."""


@main.command()
@click.argument("base")
@click.option("--mode", type=click.Choice(["greedy", "quasi"]),
              default="greedy", show_default=True)
@click.option("--depth", type=int, default=20, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def expand(base, mode, depth, as_json):
    """Greedy or quasi-greedy digit prefix of the expansion of 1."""
    fn = (expansions.greedy_expansion if mode == "greedy"
          else expansions.quasi_greedy_expansion)
    prefix = fn(parse_base(base), depth)
    _emit({"command": "expand", "base": base, "mode": mode, "depth": depth,
           "digits": format_word(prefix.digits), "exact": True},
          as_json)


@main.command()
@click.argument("seq")
@click.option("--which",
              type=click.Choice(["univoque", "closure", "greedy", "quasi"]),
              required=True)
@click.option("--json", "as_json", is_flag=True)
def check(seq, which, as_json):
    """Lexicographic admissibility / univoqueness checks on a sequence."""
    s = parse_sequence(seq)
    payload = {"command": "check", "sequence": str(s),
               "which": which}
    if which in ("univoque", "closure"):
        cert = characterization.classify(s)
        ok = cert.is_univoque if which == "univoque" else cert.in_closure
        payload.update(cert.as_dict())
    elif which == "greedy":
        ok, witness = characterization.check_greedy_admissible(s)
        payload["witnesses"] = [] if ok else [witness.as_dict()]
    else:
        ok = characterization.check_quasi_greedy_admissible(s)
    payload["pass"] = bool(ok)
    _emit(payload, as_json)
    sys.exit(0 if ok else 1)


@main.command()
@click.argument("alpha")
@click.option("--from", "n_from", type=int, default=None,
              help="first N (default: the minimal legal N)")
@click.option("--to", "n_to", type=int, default=None,
              help="last N (default: same as --from)")
@click.option("--json", "as_json", is_flag=True)
def approximate(alpha, n_from, n_to, as_json):
    """Certified algebraic univoque approximants of the base whose
    quasi-greedy expansion is (ALPHA)^infinity."""
    records = approximator.approximate(parse_word(alpha), n_from, n_to)
    payload = {"command": "approximate", "alpha": alpha,
               "from": records[0].N, "to": records[-1].N,
               "records": [r.as_dict() for r in records]}
    _emit(payload, as_json)


@main.command()
@click.option("--eps", default="1/1000", show_default=True,
              help="enclosure width, a rational or decimal string")
@click.option("--json", "as_json", is_flag=True)
def kl(eps, as_json):
    """Enclosure of the smallest univoque base (~1.787)."""
    lo, hi, n_used = expansions.kl_constant(_frac(eps))
    _emit({"command": "kl", "eps": eps,
           "interval": [_fmt_frac(lo), _fmt_frac(hi)],
           "decimal": [float(lo), float(hi)],
           "prefix_length": n_used}, as_json)


@main.command("oracle")
@click.argument("base")
@click.option("--depth", type=int, default=10, show_default=True)
@click.option("--counts", is_flag=True, help="report viable counts only")
@click.option("--json", "as_json", is_flag=True)
def oracle_cmd(base, depth, counts, as_json):
    """Enumerate all viable expansion prefixes of 1 (brute force)."""
    # the verdict needs a level; refused before the base is parsed
    expansions.require_depth(depth, 1)
    tree = oracle.enumerate_expansions(parse_base(base), depth,
                                       level_cap=_max_work(oracle.LEVEL_CAP),
                                       counts_only=counts)
    unique = oracle.unique_prefix(tree)
    payload = {"command": "oracle", "base": base, "depth": depth,
               "counts": list(tree.counts), "exhaustive": tree.exhaustive,
               "unique_prefix": unique}
    if not counts:
        payload["levels"] = [[format_word(p) for p in lvl]
                             for lvl in tree.levels]
    _emit(payload, as_json)
    sys.exit(0 if unique else 1)


@main.command()
@click.argument("seq")
@click.option("--json", "as_json", is_flag=True)
def solve(seq, as_json):
    """Defining polynomial and isolating interval of the base whose value
    at the given sequence is 1."""
    s = parse_sequence(seq)
    a = expansions.solve_base(s)
    _emit({"command": "solve", "sequence": str(s),
           "polynomial": list(a.poly),
           "interval": [_fmt_frac(a.lo), _fmt_frac(a.hi)],
           "decimal": [float(a.lo), float(a.hi)]}, as_json)


if __name__ == "__main__":
    main()
