"""The README's library example runs as documented."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first fenced ``python`` block under ``## Library example``."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    source = library_example()
    assert "assert " in source  # the example checks its own results
    exec(compile(source, f"{README}:Library example", "exec"), {})
