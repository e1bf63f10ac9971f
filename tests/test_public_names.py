"""Every public function and method of the package has a caller in it, is
exported from `troplin/__init__.py`, or is on the allowlist with its reason.

A public def, a module's function or a class's method, that no name or
attribute in `src/troplin` refers to outside its own body, and that the
package does not export, is kept alive by tests alone.  The allowlist names
the ones kept on purpose, and a name leaves it once it gains a caller or is
gone.  Imports do not count as references.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "troplin"

LIBRARY = "library API"
TRACED = "wrapped by `perfbench/run.py --trace 1`"
ALLOWED = {
    "Matroid.closure": LIBRARY,
    "Matroid.is_independent": LIBRARY,
    "Polyhedron.contains": LIBRARY,
    "Polyhedron.hrep": TRACED,
    "Polytrope.contains": LIBRARY,
    "ValuatedMatroid.circuit_valuation": LIBRARY,
    "WeightedComplex.all_cells": LIBRARY,
    "WeightedComplex.support_contains": TRACED,
    "chain_family_to_json": LIBRARY,
    "lp_feasible": TRACED,
    "valuated_to_json": LIBRARY,
}


def exported(package: Path) -> set[str]:
    """The names `__init__.py` imports from the package's modules."""
    tree = ast.parse((package / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    return {a.asname or a.name for node in imports for a in node.names}


def uncalled_public_defs(package: Path) -> list[str]:
    """The qualified name of each public module function or method that the
    package neither exports nor refers to outside its body, sorted."""
    defs, uses = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        members = [("", node) for node in tree.body]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                members += [(f"{cls.name}.", node) for node in cls.body]
        for prefix, node in members:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                name = node.name
                defs.append((name, prefix + name, path.name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path.name, node.lineno))
    public = exported(package)
    return sorted(
        qualname
        for name, qualname, module, first, last in defs
        if qualname not in public
        and not any(
            used == name and not (where == module and first <= line <= last)
            for used, where, line in uses
        )
    )


def test_every_uncalled_public_def_is_exported_or_allowed():
    assert uncalled_public_defs(PACKAGE) == sorted(ALLOWED)


def test_an_uncalled_public_def_is_found(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import exported\n")
    (tmp_path / "mod.py").write_text(
        "def exported():\n"
        "    return 0\n"
        "\n"
        "\n"
        "def dead(n):\n"
        "    return dead(n - 1) if n else used()\n"
        "\n"
        "\n"
        "def used():\n"
        "    return 1\n"
        "\n"
        "\n"
        "class A:\n"
        "    def method(self):\n"
        "        def inner():\n"
        "            return 2\n"
        "\n"
        "        return inner()\n"
        "\n"
        "    def _private(self):\n"
        "        return 3\n"
        "\n"
        "    def __repr__(self):\n"
        "        return ''\n"
    )
    (tmp_path / "other.py").write_text("from .mod import method\n")
    assert uncalled_public_defs(tmp_path) == ["A.method", "dead"]
