"""Byte-identical CLI output on the golden corpus (tests/golden/cli.json).

The corpus holds the `--json` stdout, stderr and exit code of each command,
as recorded by tests/golden/record.py.
"""

import json
import os

import pytest
from click.testing import CliRunner

from univoque.cli import main

with open(os.path.join(os.path.dirname(__file__), "golden", "cli.json")) as f:
    CORPUS = json.load(f)


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"])
                                              for c in CORPUS])
def test_golden_cli_output(case):
    r = CliRunner().invoke(main, case["argv"])
    assert r.exit_code == case["exit"]
    assert r.stdout == case["stdout"]
    assert r.stderr == case["stderr"]
