"""Library code that only tests reach does not stay in the package.

Every public, undecorated top-level function or class of ``src/brdfnqm``
must be named somewhere in the package or in ``perfbench/``; the tests do
not count. A name that waits on planned work is allowed here, with the
ROADMAP item that decides it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "io_to_halfdiff_arrays",  # ROADMAP item 1: the renderer's per-pixel lookups
    "balance_by_jod",  # ROADMAP item 2: wired into `augment` or deleted by measurement
    "fit_label_proxy",  # ROADMAP item 2, with balance_by_jod
}


def _names_used(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_definition_is_reached_outside_the_tests():
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "brdfnqm").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= _names_used(tree)
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and not node.decorator_list
            ):
                defined[node.name] = f"{path.name}:{node.lineno}"
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _names_used(ast.parse(path.read_text(), filename=str(path)))
    unreached = {name: where for name, where in defined.items() if name not in used}
    assert set(unreached) == ALLOWED, unreached
