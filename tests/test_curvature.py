"""Inner/outer, averaged, Ollivier pair, and sphere curvatures."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvegraph import (
    BadRadiusOrder,
    CurvegraphError,
    HorizonExceeded,
    SameVertex,
    WeightedGraph,
    average_curvature,
    bdc_ollivier_closed_form,
    curvature_profile,
    inner_curvature,
    inner_outer,
    make_example_gprime,
    make_figure1,
    make_unweighted_chain,
    ollivier_pair,
    ollivier_pair_bruteforce,
    outer_curvature,
    rooted_decomposition,
    sphere_boundary,
    sphere_curvature,
    validate_graph,
    verify_witness,
)
from curvegraph.chains import associated_bdc, bdc_as_graph
from curvegraph.curvature import _pair_support

from conftest import bfs_oracle, chains, graphs_with_root, rationals


# --- inner / outer ---


def test_figure1_inner_outer(figure1_decomp):
    assert outer_curvature(figure1_decomp, "x") == 2
    assert inner_curvature(figure1_decomp, "y'") == 1
    assert inner_curvature(figure1_decomp, "w") == 0
    assert inner_outer(figure1_decomp, "y") == (1, 1)


def test_outer_curvature_outermost_raises(figure1_decomp):
    with pytest.raises(HorizonExceeded):
        outer_curvature(figure1_decomp, "z")


def test_gprime_curvature_formulas():
    gp = make_example_gprime(10)
    for r in range(1, 10):
        assert gp.outer_curvature(r) == Fraction(1, (r + 1) ** 3)
        assert gp.inner_curvature(r) == Fraction(1, r * r * (r + 1))


def test_same_sphere_edges_count_for_neither():
    g = validate_graph(
        [("o", 1), ("a", 1), ("b", 1), ("c", 1)],
        [("o", "a", 1), ("o", "b", 1), ("a", "b", 5), ("a", "c", 1)],
    )
    d = rooted_decomposition(g, "o")
    # the weight-5 sideways edge a-b is invisible to both directions
    assert inner_outer(d, "a") == (1, 1)
    assert inner_outer(d, "b") == (1, 0)


# --- averages and the profile ---


def test_figure1_average_inner_at_two(figure1_decomp):
    assert average_curvature(figure1_decomp, 2, "inner") == 1


def test_chain_averages_are_one():
    g = bdc_as_graph(make_unweighted_chain(5))
    d = rooted_decomposition(g, 0)
    for r in range(1, 5):
        assert average_curvature(d, r, "inner") == 1
        assert average_curvature(d, r, "outer") == 1


def test_average_curvature_range_checks(figure1_decomp):
    with pytest.raises(HorizonExceeded):
        average_curvature(figure1_decomp, 3, "outer")
    with pytest.raises(ValueError):
        average_curvature(figure1_decomp, 1, "sideways")


def test_figure1_profile(figure1_decomp):
    prof = curvature_profile(figure1_decomp)
    assert prof.root == "w"
    assert prof.per_vertex["y'"] == (1, 1)
    assert prof.per_vertex["z"] == (1, None)


@settings(derandomize=True, deadline=None)
@given(graphs_with_root())
def test_profile_boundary_identity(gr):
    g, root = gr
    d = rooted_decomposition(g, root)
    prof = curvature_profile(d)
    assert prof.per_vertex[root][0] == 0  # k_minus vanishes at the root
    # every vertex against its edge sums, over an independent BFS
    dist = bfs_oracle(g, root)
    horizon = max(dist.values())
    for x in g.vertices:
        r = dist[x]
        inward = sum((w for y, w in g.neighbors(x) if dist[y] == r - 1), Fraction(0))
        outward = sum((w for y, w in g.neighbors(x) if dist[y] == r + 1), Fraction(0))
        k_plus = outward / g.measure[x] if r < horizon else None
        assert prof.per_vertex[x] == (inward / g.measure[x], k_plus)
    # the outward weights of sphere r add up to its boundary weight
    for r in range(horizon):
        total = sum(prof.per_vertex[x][1] * g.measure[x] for x in d.sphere(r))
        assert total == sphere_boundary(d, r)


# --- Ollivier pairs ---


def test_two_vertex_pair_curvature():
    g = validate_graph([("a", 1), ("b", 1)], [("a", "b", 1)])
    assert ollivier_pair(g, "a", "b").value == 2


def test_figure1_paper_pairs(figure1):
    first = ollivier_pair(figure1, "x", "y")
    assert first.value == -1
    assert first.witness == {"w": -1, "x": 0, "y": 1, "y'": -1, "z": 2}
    second = ollivier_pair(figure1, "x'", "y'")
    assert second.value == 1
    assert second.witness == {"w": -1, "x": 0, "x'": 0, "y'": 1, "z'": 2}
    verify_witness(figure1, first)
    verify_witness(figure1, second)


def test_chain_pair_values():
    g = bdc_as_graph(make_unweighted_chain(6))
    assert ollivier_pair(g, 0, 1).value == 1
    for r in range(2, 6):
        assert ollivier_pair(g, r - 1, r).value == 0


def test_pair_rejects_same_vertex(figure1):
    with pytest.raises(SameVertex):
        ollivier_pair(figure1, "x", "x")


def test_pair_works_at_distance_two(figure1):
    res = ollivier_pair(figure1, "x", "x'")
    assert res.distance == 2
    verify_witness(figure1, res)
    brute = ollivier_pair_bruteforce(figure1, "x", "x'")
    assert res.value == brute.value


def test_scale_invariance_of_pair_curvature(figure1, figure1_decomp):
    scale = Fraction(7, 3)
    scaled = validate_graph(
        [(v, figure1.measure[v] * scale) for v in figure1.vertices],
        [(u, v, w * scale) for u, v, w in figure1.edges],
    )
    for u, v, _ in figure1.edges:
        assert ollivier_pair(scaled, u, v).value == ollivier_pair(figure1, u, v).value
    d2 = rooted_decomposition(scaled, "w")
    for x in figure1.vertices:
        assert inner_curvature(d2, x) == inner_curvature(figure1_decomp, x)
    for r in range(3):
        assert average_curvature(d2, r, "outer") == average_curvature(
            figure1_decomp, r, "outer"
        )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(graphs_with_root(max_vertices=10))
def test_pair_support_metric_matches_bfs_oracle(gr):
    g, _ = gr
    maps = {v: bfs_oracle(g, v) for v in g.vertices}
    for x in g.vertices:
        for y in g.vertices:
            if x == y:
                continue
            support, dist = _pair_support(g, x, y)
            members = {x, y} | set(g.adjacency[x]) | set(g.adjacency[y])
            assert set(support) == members
            for u in support:
                assert {v: dist[u][v] for v in support} == {
                    v: maps[u][v] for v in support
                }


@settings(derandomize=True, deadline=None, max_examples=60)
@given(graphs_with_root(max_vertices=10))
def test_solver_matches_bruteforce_on_small_supports(gr):
    g, _ = gr
    for u in g.vertices:
        reach = bfs_oracle(g, u)
        for v in g.vertices:
            # adjacent pairs and pairs at distance 2 and 3, each once
            if not (u < v and reach[v] <= 3):
                continue
            support = {u, v} | set(g.adjacency[u]) | set(g.adjacency[v])
            if len(support) > 10:
                continue
            solved = ollivier_pair(g, u, v)
            brute = ollivier_pair_bruteforce(g, u, v)
            assert solved.distance == reach[v]
            assert solved.value == brute.value
            # both search rules pick the lexicographically smallest optimum
            assert solved.witness == brute.witness
            verify_witness(g, solved)
            verify_witness(g, brute)


def test_arc_between_neighbors_through_an_outside_vertex():
    # a ~ x and b ~ y meet at c outside the support, so d(a, b) = 2 with no
    # shortest path through x or y: the constraint |f(a) - f(b)| <= 2 is not
    # implied by any other and decides the value (0 without it)
    g = validate_graph(
        [(v, 1) for v in "abcxy"],
        [("x", "y", 1), ("x", "a", 1), ("y", "b", 1), ("a", "c", 1), ("b", "c", 1)],
    )
    solved = ollivier_pair(g, "x", "y")
    brute = ollivier_pair_bruteforce(g, "x", "y")
    assert solved.value == brute.value == 1
    assert solved.witness == brute.witness
    verify_witness(g, solved)


def _connected_graphs(max_n):
    """(n, edges) for every connected graph on 1..max_n vertices, one per
    isomorphism class; classes are told apart by trying every relabelling."""
    found = []
    for n in range(1, max_n + 1):
        slots = list(combinations(range(n), 2))
        relabellings = list(permutations(range(n)))
        seen = set()
        for mask in range(1 << len(slots)):
            edges = [e for k, e in enumerate(slots) if mask >> k & 1]
            reached = {0}
            for _ in range(n):
                reached |= {v for e in edges if reached.intersection(e) for v in e}
            if len(reached) < n:
                continue
            form = min(
                tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                for p in relabellings
            )
            if form not in seen:
                seen.add(form)
                found.append((n, edges))
    return found


@pytest.mark.parametrize("rational", [False, True], ids=["unit", "rational"])
def test_solver_matches_bruteforce_on_every_graph_up_to_5_vertices(rational):
    # every ordered pair, adjacent or not, of every connected graph on at
    # most 5 vertices: ties between sinks in the flow solve and every
    # support shape these sizes allow are covered by exhaustion
    graphs = _connected_graphs(5)
    assert len(graphs) == 31  # 1 + 1 + 2 + 6 + 21 classes on 1..5 vertices
    rng = random.Random(5)

    def draw():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9)) if rational else 1

    for n, edges in graphs:
        g = validate_graph([(v, draw()) for v in range(n)], [(u, v, draw()) for u, v in edges])
        for x, y in permutations(range(n), 2):
            solved = ollivier_pair(g, x, y)
            brute = ollivier_pair_bruteforce(g, x, y)
            assert solved.distance == brute.distance
            assert solved.value == brute.value
            assert solved.witness == brute.witness
            verify_witness(g, solved)


@st.composite
def hub_pairs(draw):
    """Adjacent hubs 0 and 1 with 1-60 leaves each: a tree with rational data."""
    left, right = (draw(st.integers(min_value=1, max_value=60)) for _ in range(2))
    n = 2 + left + right
    weight = rationals(max_num=99, max_den=99)
    vertices = [(v, draw(weight)) for v in range(n)]
    edges = [(0, 1, draw(weight))]
    edges += [(0 if v < 2 + left else 1, v, draw(weight)) for v in range(2, n)]
    return validate_graph(vertices, edges)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(hub_pairs())
def test_high_degree_hubs_match_the_tree_edge_closed_form(g):
    # a flow guard tripping would raise out of ollivier_pair
    result = ollivier_pair(g, 0, 1)
    mx, my = g.measure[0], g.measure[1]
    b = g.adjacency[0][1]
    expected = b * (1 / mx + 1 / my)
    expected -= sum((w for z, w in g.neighbors(0) if z != 1), Fraction(0)) / mx
    expected -= sum((w for z, w in g.neighbors(1) if z != 0), Fraction(0)) / my
    assert result.value == expected
    verify_witness(g, result)


# Each fault breaks exactly one witness invariant of figure 1's pair (x, y),
# whose witness is {w: -1, x: 0, y: 1, y': -1, z: 2} with value -1.
@pytest.mark.parametrize(
    "fault, message",
    [
        (
            lambda r: replace(r, witness={u: f for u, f in r.witness.items() if f < 2}),
            "witness does not cover the pair support",
        ),
        (
            lambda r: replace(r, witness={**r.witness, "w": Fraction(-1)}),
            "witness value at 'w' is not an integer",
        ),
        (
            lambda r: replace(r, witness={**r.witness, "y": True}),
            "witness value at 'y' is not an integer",
        ),
        (
            lambda r: replace(r, witness={**r.witness, "w": -2}),
            "witness violates the Lipschitz bound on ('w', 'x')",
        ),
        (lambda r: replace(r, distance=2), "recorded pair distance is wrong"),
        (
            lambda r: replace(r, witness=dict.fromkeys(r.witness, 0)),
            "witness gradient along the pair is not 1",
        ),
        (
            lambda r: replace(r, witness={u: f + 1 for u, f in r.witness.items()}),
            "witness is not normalized to 0 at x",
        ),
        (
            lambda r: replace(r, value=r.value + 1),
            "witness does not reproduce the reported value",
        ),
    ],
    ids=[
        "cover", "integer", "bool", "lipschitz", "distance", "gradient", "zero-at-x", "value"
    ],
)
def test_verify_witness_rejects_each_single_fault(figure1, fault, message):
    result = ollivier_pair(figure1, "x", "y")
    verify_witness(figure1, result)
    with pytest.raises(CurvegraphError) as caught:
        verify_witness(figure1, fault(result))
    assert str(caught.value) == message


# --- sphere curvature ---


def test_chain_sphere_curvatures():
    g = bdc_as_graph(make_unweighted_chain(5))
    d = rooted_decomposition(g, 0)
    assert sphere_curvature(d, 1) == 1
    assert sphere_curvature(d, 2) == 0


def test_figure1_sphere_curvatures(figure1_decomp):
    assert sphere_curvature(figure1_decomp, 1) == 1
    assert sphere_curvature(figure1_decomp, 2) == -1
    assert sphere_curvature(figure1_decomp, 3) == 1
    with pytest.raises(HorizonExceeded):
        sphere_curvature(figure1_decomp, 4)
    with pytest.raises(HorizonExceeded):
        sphere_curvature(figure1_decomp, 0)


# --- birth-death closed form ---


def test_closed_form_examples():
    uc = make_unweighted_chain(6)
    assert bdc_ollivier_closed_form(uc, 0, 1) == 1
    assert bdc_ollivier_closed_form(uc, 1, 3) == 0
    fig_chain = associated_bdc(rooted_decomposition(make_figure1(), "w"))
    assert bdc_ollivier_closed_form(fig_chain, 0, 1) == 1


def test_closed_form_range_errors():
    uc = make_unweighted_chain(4)
    with pytest.raises(BadRadiusOrder):
        bdc_ollivier_closed_form(uc, 2, 2)
    with pytest.raises(HorizonExceeded):
        bdc_ollivier_closed_form(uc, 0, 4)
    with pytest.raises(HorizonExceeded):
        bdc_ollivier_closed_form(uc, -1, 2)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(chains(min_horizon=3, max_horizon=6))
def test_closed_form_matches_solver(chain):
    path = bdc_as_graph(chain)
    for upper in range(1, chain.horizon):
        for lower in range(upper):
            assert bdc_ollivier_closed_form(chain, lower, upper) == ollivier_pair(
                path, lower, upper
            ).value


@settings(derandomize=True, deadline=None, max_examples=40)
@given(chains(min_horizon=3, max_horizon=6))
def test_chain_telescoping_identity(chain):
    running = Fraction(0)
    for upper in range(1, chain.horizon):
        running += bdc_ollivier_closed_form(chain, upper - 1, upper)
        t = chain.curvature_gap(upper)
        assert running == chain.outer_curvature(0) - t
