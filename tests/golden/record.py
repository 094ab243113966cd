"""Record the golden CLI corpus: `--json` stdout and exit code per command.

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
    # residual denominators: a non-monic polynomial, a negative leading
    # coefficient, a non-monic quadratic, and the same base as a rational
    cmd
    for base in ("poly:-3,2 in (1,2)", "poly:3,-2 in (1,2)",
                 "poly:-7,-1,4 in (1,2)", "3/2")
    for cmd in (["expand", base, "--mode", "greedy", "--depth", "40"],
                ["expand", base, "--mode", "quasi", "--depth", "40"],
                ["oracle", base, "--depth", "10", "--counts"])
]


def record(argv):
    proc = subprocess.run([sys.executable, "-m", "univoque.cli"] + argv
                          + ["--json"], capture_output=True, text=True,
                          check=False)
    return {"argv": argv + ["--json"], "exit": proc.returncode,
            "stdout": proc.stdout}


def main():
    corpus = [record(argv) for argv in COMMANDS]
    with open(os.path.join(HERE, "cli.json"), "w") as f:
        json.dump(corpus, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
