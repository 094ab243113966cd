"""The README's library example runs against the package root, and its
command-line examples are in the golden corpus."""

import importlib.util
import re
import shlex
from pathlib import Path

import univoque

README = Path(__file__).resolve().parent.parent / "README.md"
RECORD = Path(__file__).resolve().parent / "golden" / "record.py"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    exec(compile(_library_example(), str(README), "exec"), {})


def test_package_root_exports_the_readme_names():
    imported = re.search(r"from univoque import \((.*?)\)",
                         _library_example(), re.S).group(1)
    names = sorted(n.strip() for n in imported.split(",") if n.strip())
    assert sorted(univoque.__all__) == names


def test_readme_command_lines_are_the_golden_readme_commands():
    """The `univoque ...` lines of the command-line block, without
    `--json`, are tests/golden/record.py's README list, in order."""
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    argvs = [[a for a in shlex.split(line)[1:] if a != "--json"]
             for line in block.splitlines() if line.startswith("univoque ")]
    spec = importlib.util.spec_from_file_location("golden_record", RECORD)
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    assert argvs == record.README
