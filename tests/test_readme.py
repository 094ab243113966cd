"""The README's library example runs against the package root."""

import re
from pathlib import Path

import univoque

README = Path(__file__).resolve().parent.parent / "README.md"


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
