"""Byte-identical CLI output on the golden corpus (tests/golden/cli.json).

The corpus holds the `--json` stdout, stderr and exit code of each command,
as recorded by tests/golden/record.py.
"""

import importlib.util
import json
import os

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
