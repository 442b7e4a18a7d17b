"""The package has no runtime dependencies: every import in src/hopfkit is
hopfkit itself or the standard library.  sympy and hypothesis are for
tests only."""

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
