"""The README's library example runs as written.

The `python` block under "Library example" is read out of README.md and
executed, so the documented API cannot drift from the package silently.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example(text: str) -> str:
    """The first `python` block after the "Library example" heading."""
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(compile(library_example(README.read_text()), str(README), "exec"), {})
