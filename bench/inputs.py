"""Seeded input generators for the benchmark workloads.

The program receives only the files written here; it generates nothing
itself. Every workload has a main input, sized so that its own commands
spend their time in one layer, and a small companion graph on which the
other command kinds run. The shape of each graph (vertex count, edges,
horizon) is fixed; the seed draws the rational measures and weights and,
for the layered graphs, which vertices the edges join.

Regenerate every workload's inputs for one seed, where run.py reads them
(bench/.work/<workload>-<seed>/), with

    python3 bench/inputs.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction

from oracles import Graph, chain_of, chain_to_json, fmt_rational

# Sizes of the main inputs. README.md explains each choice.
GRID_SIDE = 14
HUB_LEAVES = 64
LAYERS = 300
LAYER_WIDTH = 14
LAYER_EXTRA = 10  # extra edges per layer, half to the sphere below, half inside it
SMALL_LAYERS = 4
SMALL_WIDTH = 3
MAX_NUM = 9
MAX_DEN = 9

WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
WORKLOADS = ("grid", "hubs", "verify", "rooted-large")
# The metrics of each workload's own commands. These run on its main graph;
# every other command kind runs on its small companion graph.
OWN = {
    "grid": ("ollivier_all_s", "sphere_curv_s"),
    "hubs": ("ollivier_pair_s",),
    "verify": ("verify_s",),
    "rooted-large": ("validate_s", "curvature_s", "compare_s"),
}


def graph_for(workload: str, metric: str) -> str:
    """The name of the graph the command of `metric` runs on."""
    return "main" if metric in OWN[workload] else "small"


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, MAX_NUM), rng.randint(1, MAX_DEN))


def grid(rng: random.Random, side: int) -> Graph:
    """side x side grid; vertex i * side + j, corner 0."""
    n = side * side
    measure = {v: _rational(rng) for v in range(n)}
    edges = []
    for v in range(n):
        if v % side + 1 < side:
            edges.append((v, v + 1, _rational(rng)))
        if v + side < n:
            edges.append((v, v + side, _rational(rng)))
    return Graph(measure, edges)


def hubs(rng: random.Random, leaves: int) -> Graph:
    """Adjacent hubs 0 and 1, each with its own leaves: a tree."""
    measure = {v: _rational(rng) for v in range(2 + 2 * leaves)}
    edges = [(0, 1, _rational(rng))]
    for k in range(leaves):
        edges.append((0, 2 + k, _rational(rng)))
        edges.append((1, 2 + leaves + k, _rational(rng)))
    return Graph(measure, edges)


def _add_new(pairs: set, pick, count: int) -> None:
    """Add `count` pairs drawn by `pick` that `pairs` does not hold yet."""
    added = 0
    while added < count:
        pair = pick()
        if pair not in pairs:
            pairs.add(pair)
            added += 1


def layered(rng: random.Random, layers: int, width: int, extra: int) -> Graph:
    """Root 0 and `layers` spheres of `width` vertices each.

    Every vertex has one parent in the sphere below; each sphere past the
    first also gets extra/2 more edges downward and extra/2 inside it. So
    sphere r around 0 is exactly layer r, and the edge count is fixed.
    """
    def layer(k):
        return [0] if k == 0 else list(range(1 + (k - 1) * width, 1 + k * width))

    measure = {v: _rational(rng) for v in range(1 + layers * width)}
    pairs = set()
    for k in range(1, layers + 1):
        below, here = layer(k - 1), layer(k)
        for v in here:
            pairs.add((rng.choice(below), v))
        if k > 1:
            _add_new(pairs, lambda: (rng.choice(below), rng.choice(here)), extra // 2)
            _add_new(pairs, lambda: tuple(sorted(rng.sample(here, 2))), extra - extra // 2)
    return Graph(measure, [(u, v, _rational(rng)) for u, v in sorted(pairs)])


def graph_to_json(g: Graph) -> str:
    doc = {
        "vertices": [{"id": v, "m": fmt_rational(m)} for v, m in sorted(g.measure.items())],
        "edges": [{"u": u, "v": v, "b": fmt_rational(b)}
                  for (u, v), b in sorted(g.edge_set().items())],
    }
    return json.dumps(doc) + "\n"


def make_inputs(workload: str, seed: int) -> dict:
    """Named graphs of one workload: its main graph, if any, and `small`."""
    rng = random.Random(f"{workload}:{seed}")
    graphs = {"small": layered(rng, SMALL_LAYERS, SMALL_WIDTH, 2)}
    if workload == "grid":
        graphs["main"] = grid(rng, GRID_SIDE)
    elif workload == "hubs":
        graphs["main"] = hubs(rng, HUB_LEAVES)
    elif workload == "rooted-large":
        graphs["main"] = layered(rng, LAYERS, LAYER_WIDTH, LAYER_EXTRA)
    elif workload != "verify":
        raise ValueError(f"unknown workload {workload!r}")
    return graphs


def write_inputs(workload: str, seed: int):
    """Write the workload's graphs for `seed`, and the chain around vertex 0,
    computed here, of the graph `compare` runs on. Returns the graphs and
    file name -> path; the chain's name is `chain`."""
    graphs = make_inputs(workload, seed)
    texts = {name: graph_to_json(g) for name, g in graphs.items()}
    texts["chain"] = chain_to_json(*chain_of(graphs[graph_for(workload, "compare_s")], 0))
    outdir = os.path.join(WORK, f"{workload}-{seed}")
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for name, text in texts.items():
        paths[name] = os.path.join(outdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            handle.write(text)
    return graphs, paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for workload in WORKLOADS:
        for path in write_inputs(workload, args.seed)[1].values():
            print(path)


if __name__ == "__main__":
    main()
