"""Every function, method and class in src/hopfkit is reached from
src/hopfkit itself: its name appears there, outside its own definition,
as a Name, an Attribute or a string constant.  Code that only tests reach
is deleted rather than kept, and a test that needs such a helper as an
oracle builds it locally.  Dunders and the names in hopfkit.__all__ are
the public surface and are exempt, as is the short allowlist below."""

import ast
import pathlib
from collections import Counter

import hopfkit

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hopfkit"

# kept API with no caller in the package: the raw-word constructor of a
# Presentation, the failing entries and the dict form of a report (the
# CLI prints to_json, its text), and the single-pair entry of the
# pairing oracle (the oracle grid reads whole rows)
ALLOWED = {"Presentation.element", "CheckReport.failures",
           "CheckReport.to_dict", "PairEngine.pair_recursive"}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """(qualified name, node) of every def and class, nested ones too."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                qual = prefix + child.name
                yield qual, child
                yield from walk(child, qual + ".")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def references(node):
    """Names, attributes and string constants anywhere under node."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def unreferenced(trees):
    """Qualified names of the definitions nothing else refers to: every
    reference to the name lies inside the definition itself."""
    total = sum((references(tree) for tree in trees.values()), Counter())
    out = []
    for path, tree in trees.items():
        for qual, node in definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name in hopfkit.__all__ or qual in ALLOWED):
                continue
            if total[name] == references(node)[name]:
                out.append(f"{path}: {qual}")
    return out


def parse_package():
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def test_every_definition_is_reached_from_the_package():
    dead = unreferenced(parse_package())
    assert not dead, "defined but never referenced in src/hopfkit:\n" + "\n".join(dead)


def test_the_scan_finds_an_unreferenced_method():
    source = (
        "class A:\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def recursive(self):\n"
        "        return self.recursive()\n"
        "def caller():\n"
        "    return A().used(), getattr(A, 'by_name')\n"
        "def by_name():\n"
        "    pass\n")
    dead = unreferenced({"m.py": ast.parse(source)})
    assert dead == ["m.py: A.recursive", "m.py: caller"]


def test_the_allowlist_names_live_definitions():
    found = {qual for tree in parse_package().values()
             for qual, _ in definitions(tree)}
    assert ALLOWED <= found
