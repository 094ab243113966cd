"""Record the golden CLI corpus: `--json` stdout, stderr and exit code per
command.

Run from the repository root, on the commit whose output is the reference:

    PYTHONPATH=src python tests/golden/record.py

Each command runs in a fresh `python -m univoque.cli` process; the result is
written to tests/golden/cli.json and checked by tests/test_golden.py.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

README = [
    ["expand", "2", "--mode", "greedy", "--depth", "5"],
    ["expand", "seq:(110)", "--mode", "quasi", "--depth", "9"],
    ["expand", "poly:-1,-1,1 in (1,2)", "--depth", "8"],
    ["check", "(110)", "--which", "closure"],
    ["check", "110110(11010010)", "--which", "univoque"],
    ["approximate", "110", "--from", "2", "--to", "5"],
    ["kl", "--eps", "1e-8"],
    ["oracle", "seq:(110)", "--depth", "6", "--counts"],
    ["solve", "(110)"],
]

# algebraic bases that reach the exact sign test in different ways:
# non-dyadic endpoints, a repeated root, an interval left of 0
EXPAND_BASES = [
    "seq:3021(0)",
    "seq:110110(11010010)",
    "poly:-2,0,1 in (1/3,5/3)",
    "poly:4,0,-4,0,1 in (1,2)",
    "poly:-2,0,1 in (-2,-1)",
]

GAMMA_110100_80 = "110100" * 80 + "(1101001100101100)"
# gamma_520 for the target (110), canonical preperiod 1,558, and two
# neighbours: shift windows of over 3,000 digits; (1) fails 21 at j = 3,
# (0) fails 22 and 24 only at the last shift
GAMMA_110_520 = "110" * 520 + "(11010010)"
NEIGHBOURS_110_520 = ["110" * 520 + "(1)", "110" * 520 + "(0)"]

COMMANDS = README + [
    ["expand", base, "--mode", mode, "--depth", "40"]
    for base in EXPAND_BASES for mode in ("greedy", "quasi")
] + [
    ["oracle", "seq:(110)", "--depth", "12", "--counts"],
    ["oracle", "seq:110110(11010010)", "--depth", "12", "--counts"],
    ["oracle", "poly:-2,0,1 in (1/3,5/3)", "--depth", "10", "--counts"],
    ["expand", "poly:-2,1 in (3/2,5/2)", "--mode", "greedy", "--depth", "10"],
    ["expand", "poly:-2,1 in (3/2,5/2)", "--mode", "quasi", "--depth", "10"],
] + [
    # the bisection count and the Thue-Morse prefix length it needed
    ["kl", "--eps", "1e-30"],
    ["kl", "--eps", "1e-54"],
    ["kl", "--eps", "1e-60"],
    ["kl", "--eps", "1e-100"],
    # a non-dyadic eps
    ["kl", "--eps", "7/1000"],
    # deep enclosures: prefixes of 2,048 and 4,096 terms
    ["kl", "--eps", "1e-300"],
    ["kl", "--eps", "1e-1000"],
] + [
    # gamma_80 for the target (110100): preperiod 480, period 16
    ["check", GAMMA_110100_80, "--which", which]
    for which in ("univoque", "closure", "greedy", "quasi")
] + [
    # witnesses for all of conditions 21, 22, 23 and 24
    ["check", "(1001)", "--which", "univoque"],
    ["check", "100(1)", "--which", "closure"],
    # digits above 9, written in brackets
    ["check", "[12,3]([3,12])", "--which", "univoque"],
    ["check", "([10,0,0,10])", "--which", "closure"],
    ["check", "[12,3]([3,12])", "--which", "greedy"],
] + [
    # failing greedy checks: a digit above the first (witness at j = 1)
    # and a shift equal to the sequence
    ["check", "12(0)", "--which", "greedy"],
    ["check", "(10)", "--which", "greedy"],
    # failing quasi checks: two shifts above the sequence, a finite one
    ["check", "1(2)", "--which", "quasi"],
    ["check", "100(1)", "--which", "quasi"],
    ["check", "11(0)", "--which", "quasi"],
] + [
    # residual denominators: a non-monic polynomial, a negative leading
    # coefficient, a non-monic quadratic, and the same base as a rational
    cmd
    for base in ("poly:-3,2 in (1,2)", "poly:3,-2 in (1,2)",
                 "poly:-7,-1,4 in (1,2)", "3/2")
    for cmd in (["expand", base, "--mode", "greedy", "--depth", "40"],
                ["expand", base, "--mode", "quasi", "--depth", "40"],
                ["oracle", base, "--depth", "10", "--counts"])
] + [
    # error paths: each ends in exit 1 or 2 with a one-line message
    ["expand", "not-a-base"],
    ["expand", "1", "--mode", "quasi"],
    ["expand", "poly:-1,1 in (1,2)"],
    ["kl", "--eps", "0"],
    ["check", "1101", "--which", "closure"],
    ["approximate", "10"],
    ["approximate", "10", "--from", "2"],
    ["approximate", "110", "--from", "0"],
    ["approximate", "110", "--from", "3", "--to", "2"],
    ["oracle", "100000000", "--depth", "1", "--counts"],
    ["oracle", "seq:(110)", "--depth", "0"],
    ["solve", "(0)"],
] + [
    # approximate over more targets: longer periods, a non-primitive word,
    # digits above 1 and above 9, and the error paths of the target check
    ["approximate", "1110", "--from", "2", "--to", "6"],
    ["approximate", "11110", "--from", "2", "--to", "4"],
    ["approximate", "110100", "--from", "3", "--to", "5"],
    ["approximate", "110110"],
    ["approximate", "1"],
    ["approximate", "2", "--from", "1", "--to", "3"],
    ["approximate", "210", "--from", "2", "--to", "3"],
    ["approximate", "[10,3,0]", "--from", "2", "--to", "3"],
    ["approximate", "100"],
    ["approximate", "100", "--from", "2"],
    ["approximate", "110", "--from", "1"],
] + [
    # gap bounds that need deep refinement of both roots
    ["approximate", "110", "--from", "38", "--to", "40"],
    ["approximate", "1110", "--from", "28", "--to", "30"],
    ["approximate", "110100", "--from", "13", "--to", "15"],
] + [
    # full level listings: the order of the prefixes within each level
    ["oracle", "seq:(10)", "--depth", "30"],
    ["oracle", "3/2", "--depth", "12"],
    # Pisot bases, where few residuals recur across many prefixes, and
    # 151/100, where no residual recurs
    ["oracle", "seq:(110)", "--depth", "150", "--counts"],
    ["oracle", "seq:(1110)", "--depth", "150", "--counts"],
    ["oracle", "151/100", "--depth", "16", "--counts"],
    ["oracle", "seq:110110(11010010)", "--depth", "36", "--counts"],
] + [
    ["check", seq, "--which", which]
    for seq in [GAMMA_110_520] + NEIGHBOURS_110_520
    for which in ("univoque", "closure", "greedy", "quasi")
] + [
    # a deeper golden-ratio listing: blocks of adjacent prefixes that share
    # a residual with one viable digit
    ["oracle", "seq:(10)", "--depth", "40"],
    # pairs of adjacent prefixes that share a residual with two viable
    # digits (levels 8 and 11): each prefix's children before the next's
    ["oracle", "seq:(121)", "--depth", "12"],
    # deep counts: few residuals over long runs of prefixes, and an
    # integer base whose level counts keep growing
    ["oracle", "seq:(110)", "--depth", "600", "--counts"],
    ["oracle", "2", "--depth", "300", "--counts"],
]


def record(argv):
    proc = subprocess.run([sys.executable, "-m", "univoque.cli"] + argv
                          + ["--json"], capture_output=True, text=True,
                          check=False)
    return {"argv": argv + ["--json"], "exit": proc.returncode,
            "stdout": proc.stdout, "stderr": proc.stderr}


def main():
    corpus = [record(argv) for argv in COMMANDS]
    with open(os.path.join(HERE, "cli.json"), "w") as f:
        json.dump(corpus, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
