"""The package has no runtime dependencies: every import in src/hopfkit is
hopfkit itself or the standard library.  sympy and hypothesis are for
tests only.  Every import sits at module level, so a module's
dependencies are read from its head and no call pays for an import."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hopfkit"


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_hopfkit_or_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = sorted({root for root in imported_roots(tree)
                      if root != "hopfkit" and root not in sys.stdlib_module_names})
    assert not foreign, f"{path.name} imports {foreign}"


def test_the_walk_sees_every_module():
    names = {p.name for p in SRC.glob("*.py")}
    assert {"__init__.py", "pairing.py", "scalars.py"} <= names


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def local_imports(tree):
    """"<scope>:<line>" of every import inside a function or class body."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if scope and isinstance(child, (ast.Import, ast.ImportFrom)):
                out.append(f"{scope}:{child.lineno}")
            walk(child, child.name if isinstance(child, SCOPES) else scope)
    walk(tree, None)
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not local_imports(tree), f"{path.name}: {local_imports(tree)}"


def test_the_scan_finds_imports_in_functions_and_classes():
    source = (
        "import os\n"
        "if os:\n"
        "    import sys\n"
        "def f():\n"
        "    if True:\n"
        "        from os import path\n"
        "class A:\n"
        "    import json\n"
        "    def m(self):\n"
        "        import re\n")
    assert local_imports(ast.parse(source)) == ["f:6", "A:8", "m:10"]
