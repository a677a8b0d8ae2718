"""Modules import one another in one direction only.

The layers, lowest first: errors, graphs, curvature, chains, then
comparison and generators side by side, verify, and cli. A ``from .x
import`` may only name a module in a lower layer, so comparison and
generators, which share a layer, do not import each other; a ``from .
import x, y`` names x and y. ``__init__`` is not a layer: the names it
imports and the names of its lazy-name table are the package's public
surface, and every one of them must have a caller outside the tests.
"""

import ast
from pathlib import Path

import pytest

import curvegraph

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "curvegraph"
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
        target
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for target in ([node.module] if node.module else [a.name for a in node.names])
    ]


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_point_down(module):
    for target in _relative_imports(module):
        assert target in LAYER, f"{module} imports unknown module {target!r}"
        assert LAYER[target] < LAYER[module], f"{module} imports {target}, not below it"


# the tests' reference for graph_to_json, which must print json.dumps of it
TEST_ONLY_NAMES = {"graph_to_json_dict"}


def _loaded_names(path):
    """Names the code in path loads, bare or as an attribute; a name that
    appears only inside a string does not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _public_names():
    """The names ``__init__`` imports and the keys of its lazy-name table."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    public = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    (table,) = [
        node.value
        for node in init.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["_LAZY_NAMES"]
    ]
    return public | {key.value for key in table.keys}


def test_every_public_name_has_a_caller():
    public = _public_names()
    assert len(public) == 72, "the surface is the 39 eager imports and the 33 lazy names"
    paths = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    loaded = set().union(*map(_loaded_names, paths))
    unused = sorted(public - loaded - TEST_ONLY_NAMES)
    assert not unused, f"public names no code outside the tests loads: {unused}"


def test_every_public_name_is_served_and_listed():
    public = _public_names()
    assert public <= set(dir(curvegraph))
    assert [name for name in sorted(public) if not hasattr(curvegraph, name)] == []
