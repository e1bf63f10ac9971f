"""Every name a module of the package imports is used in that module.

An import that no name in its module reads is a leftover of code that was
removed.  `__init__.py` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "troplin"


def unused_imports(package: Path) -> list[str]:
    """`module:line name` for each imported name its module never reads."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported, used = [], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [(a.asname or a.name, node.lineno) for a in node.names]
            elif isinstance(node, ast.Name):
                used.add(node.id)
        found += [f"{path.name}:{line} {name}" for name, line in imported if name not in used]
    return found


def test_every_import_is_used():
    assert unused_imports(PACKAGE) == []


def test_an_unused_import_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "import os.path\n"
        "import json as j\n"
        "from math import gcd, lcm\n"
        "from typing import Collection\n"
        "\n"
        "\n"
        "def f(x: Collection) -> int:\n"
        "    return gcd(*x) + len(j.dumps(x))\n"
    )
    (tmp_path / "__init__.py").write_text("from .mod import f\n")
    assert unused_imports(tmp_path) == ["mod.py:3 os", "mod.py:5 lcm"]
