"""Modules import one another in one direction only.

The layers, lowest first: errors, graphs, curvature, chains, then
comparison and generators side by side, verify, and cli. A ``from .x
import`` may only name a module in a lower layer, so comparison and
generators, which share a layer, do not import each other. ``__init__``
re-exports everything and is not a layer.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "curvegraph"
LAYER = {
    "errors": 0,
    "graphs": 1,
    "curvature": 2,
    "chains": 3,
    "comparison": 4,
    "generators": 4,
    "verify": 5,
    "cli": 6,
}


def _relative_imports(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_point_down(module):
    for target in _relative_imports(module):
        assert target in LAYER, f"{module} imports unknown module {target!r}"
        assert LAYER[target] < LAYER[module], f"{module} imports {target}, not below it"
