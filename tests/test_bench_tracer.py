"""The benchmark's tracer still finds, wraps and restores every function it names.

`bench/tracer.py` patches curvegraph functions by name. A refactor that moves
or renames one of them should fail here rather than in `bench/run.py --trace 1`.
The same spans guard that each command decomposes a graph once per root, that
a root at the first vertex reuses validation's search, that an adjacent pair
runs no BFS, and that a farther pair's BFS work does not grow
with the graph around it.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from curvegraph import cli, curvature, graphs, make_figure1, ollivier_pair, validate_graph
from curvegraph.graphs import graph_to_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER_PATH = ROOT / "bench" / "tracer.py"


def _load_tracer():
    # executed from source, so no bytecode cache is written next to it
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


tracer = _load_tracer()


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.split(".")[0] == "curvegraph"
        for attr, value in vars(module).items()
    }


def test_every_traced_name_exists():
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"curvegraph.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"curvegraph.{layer}.{name}"


def test_tracer_restores_every_patched_attribute():
    before = _bindings()
    with tracer.Tracer() as trace:
        during = _bindings()
        assert cli.run(["verify", "--seed", "7", "--instances", "1"]) == 0
    assert any(during[key] is not value for key, value in before.items())
    assert {span[0] for span in trace.spans} >= {"run", "run_verification", "associated_bdc"}
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


@pytest.mark.parametrize(
    "argv, passes",
    [
        (["curvature", "{g}", "--root", "w"], 1),
        (["sphere-curv", "{g}", "--root", "w"], 1),
        (["bdc", "{g}", "--root", "w"], 1),
        (["compare", "{g}", "{g}", "--root1", "w", "--root2", "w"], 2),
    ],
    ids=["curvature", "sphere-curv", "bdc", "compare"],
)
def test_one_rooted_pass_per_root(capsys, tmp_path, argv, passes):
    path = tmp_path / "figure1.json"
    path.write_text(graph_to_json(make_figure1()))
    with tracer.Tracer() as trace:
        assert cli.run([str(path) if arg == "{g}" else arg for arg in argv]) == 0
    capsys.readouterr()
    assert [span[0] for span in trace.spans].count("rooted_decomposition") == passes


@pytest.mark.parametrize(
    "name", ["inner_curvature", "outer_curvature", "average_curvature", "curvature_profile"]
)
def test_the_rooted_curvatures_are_one_object_in_graphs_and_curvature(name):
    # they live in graphs and curvature imports them back; the tracer looks
    # two of them up under curvature and wraps every binding of that object
    assert getattr(curvature, name) is getattr(graphs, name)


def test_the_curvature_command_records_its_profile_span(capsys, tmp_path):
    # curvature.profile_s times curvature_profile wherever a command calls it
    # from: a binding the tracer misses would read 0 and show nothing
    path = tmp_path / "figure1.json"
    path.write_text(graph_to_json(make_figure1()))
    with tracer.Tracer() as trace:
        assert cli.run(["curvature", str(path), "--root", "w"]) == 0
    capsys.readouterr()
    assert [span[0] for span in trace.spans].count("curvature_profile") == 1
    assert trace.metrics()["curvature.profile_s"] > 0


@pytest.mark.parametrize("root, searches", [("w", 1), ("x", 2)], ids=["first", "other"])
def test_a_root_at_the_first_vertex_reuses_the_connectivity_search(
    capsys, tmp_path, root, searches
):
    # validation searches from the first vertex in label order, "w"; a
    # decomposition around it reuses that map, around any other root it
    # makes its own
    path = tmp_path / "figure1.json"
    path.write_text(graph_to_json(make_figure1()))
    with tracer.Tracer() as trace:
        assert cli.run(["curvature", str(path), "--root", root]) == 0
    capsys.readouterr()
    assert [span[0] for span in trace.spans].count("distance_map") == searches


def _grid(side):
    vertices = [(i * side + j, 1) for i in range(side) for j in range(side)]
    edges = [(v, v + 1, 1) for v, _ in vertices if v % side + 1 < side]
    edges += [(v, v + side, 1) for v, _ in vertices if v + side < side * side]
    return validate_graph(vertices, edges)


def _pair_bfs_work(side, x, y):
    g = _grid(side)
    with tracer.Tracer() as trace:
        ollivier_pair(g, x[0] * side + x[1], y[0] * side + y[1])
    spans = [span for span in trace.spans if span[0] == "distance_map"]
    return len(spans), sum(span[4] for span in spans)


@pytest.mark.parametrize(
    "side, x, y, searched",
    [(10, (4, 4), (4, 5), False), (14, (5, 5), (5, 7), True)],
    ids=["edge", "distance-2"],
)
def test_pair_metric_is_local(side, x, y, searched):
    # the same pair on a side x side grid and on a 30x30 grid: the BFS from
    # x ends with the level that holds y and the one from y is cut at d, so
    # the edge's two searches return the closed neighbourhoods of x and y,
    # 5 vertices each, and the distance-2 pair's stay inside both grids
    calls, vertices = _pair_bfs_work(side, x, y)
    assert (calls, vertices) == _pair_bfs_work(30, x, y)
    if searched:
        assert calls > 0 and vertices > 0
    else:
        assert calls <= 2 and vertices <= 10


def test_tracer_runs_and_restores_modules_that_first_load_inside_it(tmp_path):
    # validate runs only errors and graphs, so the other modules first run
    # while Tracer.__enter__ walks sys.modules; none of them may keep a
    # wrapper bound once the tracer exits
    path = tmp_path / "figure1.json"
    path.write_text(graph_to_json(make_figure1()))
    code = f"""
import io, sys
from contextlib import redirect_stdout
sys.path.insert(0, {str(TRACER_PATH.parent)!r})
import tracer
from curvegraph import cli

with redirect_stdout(io.StringIO()):
    assert cli.run(["validate", {str(path)!r}]) == 0
    with tracer.Tracer() as trace:
        assert cli.run(["compare", {str(path)!r}, {str(path)!r}, "--root1", "w", "--root2", "w"]) == 0
print(sorted({{span[0] for span in trace.spans}}))
print(sorted(
    f"{{name}}.{{attr}}"
    for name, module in sys.modules.items()
    if name.split(".")[0] == "curvegraph"
    for attr, value in vars(module).items()
    if getattr(value, "__module__", None) == "tracer"
))
"""
    done = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    spans, left_bound = map(ast.literal_eval, done.stdout.splitlines())
    assert {"run", "stronger_curvature_growth", "volume_comparison"} <= set(spans)
    assert left_bound == []
