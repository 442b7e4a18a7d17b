"""The package has no runtime dependencies: every import in src/hopfkit is
hopfkit itself or the standard library.  sympy and hypothesis are for
tests only.  Every import sits at module level, so a module's
dependencies are read from its head and no call pays for an import.
Importing the package and its CLI loads neither dataclasses nor
inspect."""

import ast
import os
import pathlib
import subprocess
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


# heavy standard-library modules the package does not need: dataclasses
# pulls in inspect, which costs a cold process most of its import time
UNWANTED = ("dataclasses", "inspect")


def test_importing_the_package_loads_no_unwanted_module():
    # -S: no site, so nothing but the package itself is imported
    probe = ("import sys, hopfkit, hopfkit.cli\n"
             f"print(sorted(set({UNWANTED!r}) & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]", f"hopfkit loads {out.strip()}"


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
