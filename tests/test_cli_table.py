"""The command line holds the suite table and no check logic: a report is
built by the module that owns its checks, and cli.py only merges reports.
So the one CheckReport that cli.py constructs is the merged one, inside
_merge."""

import ast
import pathlib

CLI = pathlib.Path(__file__).resolve().parent.parent / "src" / "hopfkit" / "cli.py"


def report_builders(tree):
    """Names of the functions whose bodies call CheckReport(...)."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "CheckReport"):
                out.append(scope)
            walk(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)
    walk(tree, None)
    return out


def test_cli_builds_a_report_only_in_merge():
    tree = ast.parse(CLI.read_text(), filename=str(CLI))
    assert report_builders(tree) == ["_merge"]


def test_the_scan_finds_a_report_built_in_any_scope():
    source = (
        "def _merge():\n"
        "    return CheckReport('m')\n"
        "def _suite():\n"
        "    rep = CheckReport('s')\n"
        "SUITES = {'x': lambda cfg: CheckReport('x')}\n")
    assert report_builders(ast.parse(source)) == ["_merge", "_suite", None]
