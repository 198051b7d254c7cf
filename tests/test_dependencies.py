"""numpy is the only numerical dependency: every module of the package
imports from the standard library, numpy and the package itself alone."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "pavelab").glob("*.py"))
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "pavelab"}


def imported_roots(source: str) -> set:
    """The top-level names of every module that `source` imports; a
    relative import is the package's own."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("pavelab" if node.level else node.module.split(".")[0])
    return roots


def test_sources_found():
    assert {"algebra.py", "paving.py", "__init__.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_stdlib_numpy_or_pavelab(path):
    assert sorted(imported_roots(path.read_text()) - ALLOWED) == []


def test_outside_import_is_caught():
    source = ("import math\nfrom . import algebra\nimport numpy.linalg\n"
              "def f():\n    from scipy import linalg\n    import hypothesis.strategies\n")
    assert sorted(imported_roots(source) - ALLOWED) == ["hypothesis", "scipy"]
