"""Byte-identical CLI output on the golden corpus (tests/golden/cli.json).

The corpus holds the `--json` stdout, stderr and exit code of each command,
as recorded by tests/golden/record.py.
"""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from univoque.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN, "cli.json")) as f:
    CORPUS = json.load(f)


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"])
                                              for c in CORPUS])
def test_golden_cli_output(case):
    r = CliRunner().invoke(main, case["argv"])
    assert r.exit_code == case["exit"]
    assert r.stdout == case["stdout"]
    assert r.stderr == case["stderr"]


def test_corpus_holds_every_recorded_command():
    """A command added to record.py must be re-recorded into cli.json."""
    spec = importlib.util.spec_from_file_location(
        "golden_record", os.path.join(GOLDEN, "record.py"))
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    assert [c["argv"] for c in CORPUS] == \
        [argv + ["--json"] for argv in record.COMMANDS]


def _fresh(*argv, code=0):
    """(stdout, seconds) of one `python -m univoque.cli` process, which must
    end with the given exit code."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "univoque.cli", *argv],
                          capture_output=True, env=env)
    elapsed = time.monotonic() - t0
    assert proc.returncode == code, proc.stderr
    return proc.stdout, elapsed


# sha256 of the stdout of `approximate 110 --from 2 --to 80 --json`, as the
# one-bit-per-step bisection in `refine` printed it
APPROXIMATE_110_TO_80 = \
    "75bb2e1f6b6831f3830640df1f5855ce3713d0f361109b5c472990f9f9bffdbe"


def test_deep_approximants_are_unchanged_and_fast():
    """N = 80 refines q_N, a root of degree 246, to a gap near 2^-216, in a
    fresh process: the output is byte-identical and takes under 4 s."""
    out, elapsed = _fresh("approximate", "110", "--from", "2", "--to", "80",
                          "--json")
    assert hashlib.sha256(out).hexdigest() == APPROXIMATE_110_TO_80
    assert elapsed < 4.0


# sha256 of the stdout of `approximate 110 --from 2 --to 160 --json`, as the
# steps on the lacunary multiple (x^3 - 1) P of each q_N printed it
APPROXIMATE_110_TO_160 = \
    "4bc56fe759a12d5f029448c3e150bb1b057aed6e286ee2fa0b3714bee6b10d0d"


def test_deeper_approximants_are_unchanged_and_fast():
    """N = 160, a root of degree 486, to a gap near 2^-427, in a fresh
    process: the output is byte-identical and takes under 2 s."""
    out, elapsed = _fresh("approximate", "110", "--from", "2", "--to", "160",
                          "--json")
    assert hashlib.sha256(out).hexdigest() == APPROXIMATE_110_TO_160
    assert elapsed < 2.0


# sha256 of the stdout of `kl --eps 1e-300 --json`, as the enclosure by one
# Horner step per prefix term printed it
KL_1E_300 = \
    "af5ce9ff2e053a46c8047ebc0dce280caa01d309365d6370e27cd60634248ff3"


def test_deep_kl_is_unchanged_and_fast():
    """eps = 1e-300 takes 996 bisection steps and ends on a Thue-Morse
    prefix of 2,048 terms, in a fresh process: the output is byte-identical
    and takes under 1.5 s."""
    out, elapsed = _fresh("kl", "--eps", "1e-300", "--json")
    assert hashlib.sha256(out).hexdigest() == KL_1E_300
    assert elapsed < 1.5


# sha256 of the stdout of `check <gamma_20000 for (110)> --which univoque
# --json`, as one slice comparison per shift printed it
CHECK_GAMMA_110_20000 = \
    "33f1590036f0f68471dc82dce4ad31a31fdb3c9fa0e7e7ff994820f84cb1f0cb"


def test_check_of_a_60000_digit_sequence_is_unchanged_and_fast():
    """A 60,010-character argument with 60,006 distinct shifts: univoque
    (exit 0), byte-identical, and under 2 s in a fresh process."""
    out, elapsed = _fresh("check", "110" * 20000 + "(11010010)",
                          "--which", "univoque", "--json")
    assert hashlib.sha256(out).hexdigest() == CHECK_GAMMA_110_20000
    assert elapsed < 2.0


# sha256 of the stdout of `oracle seq:(110) --depth 2000 --counts --json`,
# as the loop over every prefix of a level printed it
ORACLE_110_2000 = \
    "d508c5669f30a29a2e084a2da2ad4ea1f5386208d9ebd6b84f0c92cbd43f8e98"


def test_deep_oracle_counts_are_unchanged_and_fast():
    """2,000 levels at the tribonacci base, 668,333 prefixes in all that
    share a few residuals: not unique (exit 1), byte-identical, and under
    1.5 s in a fresh process."""
    out, elapsed = _fresh("oracle", "seq:(110)", "--depth", "2000",
                          "--counts", "--json", code=1)
    assert hashlib.sha256(out).hexdigest() == ORACLE_110_2000
    assert elapsed < 1.5


def test_check_of_a_preperiod_that_repeats_a_20000_digit_period_is_fast():
    """w(w) with w a seeded 20,000-digit binary word led by 1: the whole
    preperiod moves into the period, so the canonical form is (w); in a
    fresh process, under 1.5 s."""
    rng = random.Random(20000)
    w = "1" + "".join(rng.choice("01") for _ in range(19999))
    out, elapsed = _fresh("check", "%s(%s)" % (w, w), "--which", "closure",
                          "--json", code=1)
    assert json.loads(out)["sequence"] == "(%s)" % w
    assert elapsed < 1.5
