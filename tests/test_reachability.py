"""Library code that only tests reach does not stay in the package.

Every public, undecorated top-level function or class of ``src/brdfnqm``
must be named somewhere in the package or in ``perfbench/``; the tests do
not count. A name that waits on planned work is allowed here, with the
ROADMAP item that decides it.

The benchmark's per-layer timings name package functions by string, so a
renamed or deleted function would silently read 0 there; every timed span
must name a live public function, or be listed as retired with its reason.
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


# span name prefixes that the benchmark's tracer derives from the arguments
SPAN_FUNCTIONS = {"nn.forward_": "nn.forward", "synth.distort.": "synth.distort"}
RETIRED_SPANS = {
    # folded into nn.input_matrix's one batched pass, which the benchmark does not list
    "nn.pair_to_input",
}


def _public_functions(module: str) -> set[str]:
    tree = ast.parse((ROOT / "src" / "brdfnqm" / f"{module}.py").read_text())
    return {n.name for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}


def test_every_timed_span_names_a_live_function():
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    timed = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TIMED_FUNCTIONS" for t in node.targets)
    )
    spans = {span for span, _, _, _ in timed}
    assert RETIRED_SPANS <= spans
    dead = set()
    for span in spans:
        function = next((f for prefix, f in SPAN_FUNCTIONS.items() if span.startswith(prefix)), span)
        module, _, name = function.partition(".")
        if name not in _public_functions(module):
            dead.add(span)
    assert dead == RETIRED_SPANS
