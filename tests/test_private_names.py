"""Every private function and method of the package has a caller in it.

A `_`-prefixed def (dunders aside) that no name or attribute in
`src/troplin` refers to outside its own body is dead code: tests alone
may not keep it alive.  Imports do not count as references.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "troplin"


def unreferenced_private_defs(package: Path) -> list[str]:
    """`module:line name` for each private def with no reference outside it."""
    defs, uses = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defs.append((name, path.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                uses.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path.name, node.lineno))
    return [
        f"{module}:{first} {name}"
        for name, module, first, last in defs
        if not any(
            used == name and not (where == module and first <= line <= last)
            for used, where, line in uses
        )
    ]


def test_every_private_def_is_referenced_in_the_package():
    assert unreferenced_private_defs(PACKAGE) == []


def test_a_private_def_called_only_from_itself_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def _dead(n):\n"
        "    return _dead(n - 1) if n else 0\n"
        "\n"
        "\n"
        "def _used():\n"
        "    return 1\n"
        "\n"
        "\n"
        "class A:\n"
        "    def _method(self):\n"
        "        return _used()\n"
        "\n"
        "    def __repr__(self):\n"
        "        return ''\n"
    )
    (tmp_path / "other.py").write_text("from .mod import _method\n")
    assert unreferenced_private_defs(tmp_path) == ["mod.py:1 _dead", "mod.py:10 _method"]
