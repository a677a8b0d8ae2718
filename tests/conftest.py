"""Shared fixtures, hypothesis strategies and graph enumerations."""

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import strategies as st

from curvegraph import (
    make_figure1,
    rooted_decomposition,
    validate_graph,
)
from curvegraph.chains import BirthDeathChain


@pytest.fixture
def figure1():
    return make_figure1()


@pytest.fixture
def figure1_decomp(figure1):
    return rooted_decomposition(figure1, "w")


def bfs_oracle(g, source):
    """Distance map computed with frontier sets, independent of the library's."""
    seen = {source: 0}
    frontier = [source]
    step = 0
    while frontier:
        step += 1
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if v not in seen:
                    seen[v] = step
                    nxt.append(v)
        frontier = nxt
    return seen


@st.composite
def rationals(draw, max_num=9, max_den=9):
    return Fraction(
        draw(st.integers(min_value=1, max_value=max_num)),
        draw(st.integers(min_value=1, max_value=max_den)),
    )


# large pairwise coprime denominators: Mersenne primes and two common moduli
BIG_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 10**9 + 7, 998244353)


@st.composite
def big_rationals(draw):
    return Fraction(
        draw(st.integers(min_value=1, max_value=10**30)), draw(st.sampled_from(BIG_PRIMES))
    )


@st.composite
def graphs_with_root(draw, max_vertices=8, values=rationals()):
    """Connected graph on 0..n-1: a random tree plus a few extra edges, with
    measures and weights drawn from ``values``."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    vertex_records = [(v, draw(values)) for v in range(n)]
    edges = {}
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges[(u, v)] = draw(values)
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=n,
        )
    )
    for u, v in extras:
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if pair not in edges:
            edges[pair] = draw(values)
    edge_records = [(u, v, w) for (u, v), w in sorted(edges.items())]
    g = validate_graph(vertex_records, edge_records)
    root = draw(st.integers(min_value=0, max_value=n - 1))
    return g, root


@st.composite
def chains(draw, min_horizon=2, max_horizon=6, values=rationals()):
    horizon = draw(st.integers(min_value=min_horizon, max_value=max_horizon))
    measures = tuple(draw(values) for _ in range(horizon + 1))
    weights = tuple(draw(values) for _ in range(horizon))
    return BirthDeathChain(measures=measures, weights=weights)


def _canonical_form(n, edges):
    """The least sorted edge list over relabellings that number the vertices
    in order of degree: isomorphic graphs, and only they, share it."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    groups = [[v for v in range(n) if degree[v] == k] for k in sorted(set(degree))]
    best = None
    for blocks in product(*(permutations(group) for group in groups)):
        label = {v: i for i, v in enumerate(v for block in blocks for v in block)}
        form = tuple(sorted(tuple(sorted((label[u], label[v]))) for u, v in edges))
        if best is None or form < best:
            best = form
    return best


def connected_graphs(max_n):
    """(n, edges) for every connected graph on 1..max_n vertices, one per
    isomorphism class. Every connected graph on n vertices has a vertex whose
    removal leaves it connected, so it is a graph on n - 1 vertices with one
    vertex joined to a nonempty subset; each such extension of every class is
    tried and kept once per canonical form."""
    layer = [(1, [])]
    found = list(layer)
    for n in range(2, max_n + 1):
        seen = set()
        grown = []
        for _, edges in layer:
            for mask in range(1, 1 << (n - 1)):
                bigger = edges + [(u, n - 1) for u in range(n - 1) if mask >> u & 1]
                form = _canonical_form(n, bigger)
                if form not in seen:
                    seen.add(form)
                    grown.append((n, bigger))
        layer = grown
        found += layer
    return found
