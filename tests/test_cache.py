"""The package caches attributes with `troplin.cache.cached_property`.

`functools.cached_property` takes a lock on every first read on CPython
3.11, so no module of the package may import or name it.
"""

import ast
from pathlib import Path

from troplin.cache import cached_property
from troplin.polyhedra import Polyhedron

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "troplin"


def functools_cached_properties(package: Path) -> list[str]:
    """`module:line` for each import or attribute read of
    `functools.cached_property`."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                hit = any(a.name == "cached_property" for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                hit = node.value.id == "functools" and node.attr == "cached_property"
            else:
                continue
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_uses_functools_cached_property():
    assert functools_cached_properties(PACKAGE) == []


def test_a_functools_cached_property_is_found(tmp_path):
    (tmp_path / "a.py").write_text("from functools import cache, cached_property\n")
    (tmp_path / "b.py").write_text(
        "import functools\n"
        "\n"
        "\n"
        "class A:\n"
        "    @functools.cached_property\n"
        "    def x(self):\n"
        "        return functools.reduce(max, [1])\n"
    )
    (tmp_path / "c.py").write_text("from .cache import cached_property\n")
    assert functools_cached_properties(tmp_path) == ["a.py:1", "b.py:5"]


def test_the_value_is_computed_once_and_kept_in_the_instance_dict():
    calls = []

    class A:
        @cached_property
        def x(self):
            """The doc."""
            calls.append(self)
            return len(calls)

    a, b = A(), A()
    assert (a.x, a.x, b.x, a.x) == (1, 1, 2, 1)
    assert vars(a) == {"x": 1} and len(calls) == 2
    # the descriptor keeps its function, and set values win over it
    assert isinstance(A.x, cached_property) and A.x.func.__doc__ == A.x.__doc__ == "The doc."
    a.x = 5
    assert a.x == 5 and len(calls) == 2
    assert Polyhedron.__dict__["hrep"].func.__name__ == "hrep"
