"""Inner/outer, averaged, Ollivier pair, and sphere curvatures."""

import random
import sys
from collections.abc import Mapping
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, compress, permutations
from math import lcm
from operator import itemgetter
from types import CodeType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvegraph import (
    BadRadiusOrder,
    CurvegraphError,
    EmptySphere,
    FormatError,
    HorizonExceeded,
    OllivierResult,
    RootedDecomposition,
    SameVertex,
    WeightedGraph,
    average_curvature,
    bdc_ollivier_closed_form,
    curvature_profile,
    format_rational,
    inner_curvature,
    make_example_gprime,
    make_figure1,
    make_unweighted_chain,
    ollivier_pair,
    ollivier_pair_bruteforce,
    outer_curvature,
    label_key,
    rooted_decomposition,
    sphere_boundary,
    sphere_curvature,
    sphere_measure,
    sphere_volume_step,
    validate_graph,
    verify_witness,
)
from curvegraph import curvature
from curvegraph.chains import BirthDeathChain, associated_bdc, bdc_as_graph
from curvegraph.curvature import _oracle_support, _pair_support

from conftest import (
    bfs_oracle,
    big_rationals,
    chains,
    connected_graphs,
    equal_values_as_distinct_objects,
    graphs_with_root,
    mixed_spellings,
    rationals,
)


# --- inner / outer ---


def test_figure1_inner_outer(figure1_decomp):
    assert outer_curvature(figure1_decomp, "x") == 2
    assert inner_curvature(figure1_decomp, "y'") == 1
    assert inner_curvature(figure1_decomp, "w") == 0
    assert inner_curvature(figure1_decomp, "y") == outer_curvature(figure1_decomp, "y") == 1


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
    assert (inner_curvature(d, "a"), outer_curvature(d, "a")) == (1, 1)
    assert (inner_curvature(d, "b"), outer_curvature(d, "b")) == (1, 0)


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
    assert prof["y'"] == (1, 1)
    assert prof["z"] == (1, None)


@settings(derandomize=True, deadline=None)
@given(graphs_with_root())
def test_profile_boundary_identity(gr):
    g, root = gr
    d = rooted_decomposition(g, root)
    prof = curvature_profile(d)
    assert prof[root][0] == 0  # k_minus vanishes at the root
    # every vertex against its edge sums, over an independent BFS
    dist = bfs_oracle(g, root)
    horizon = max(dist.values())
    for x in g.vertices:
        r = dist[x]
        inward = sum((w for y, w in g.adjacency[x].items() if dist[y] == r - 1), Fraction(0))
        outward = sum((w for y, w in g.adjacency[x].items() if dist[y] == r + 1), Fraction(0))
        k_plus = outward / g.measure[x] if r < horizon else None
        assert prof[x] == (inward / g.measure[x], k_plus)
    # the outward weights of sphere r add up to its boundary weight
    for r in range(horizon):
        total = sum(prof[x][1] * g.measure[x] for x in d.sphere(r))
        assert total == sphere_boundary(d, r)


def _assert_rooted_sums_match_oracles(d):
    """The integer-sum profile, the chain and the volume step's two sides,
    which read the profile, against the per-neighbour Fraction sums."""
    prof = curvature_profile(d)
    for v in d.graph.vertices:
        outer = outer_curvature(d, v) if d.dist[v] < d.horizon else None
        assert prof[v] == (inner_curvature(d, v), outer)
    chain = associated_bdc(d)
    assert chain.measures == tuple(sphere_measure(d, r) for r in range(d.horizon + 1))
    assert chain.weights == tuple(sphere_boundary(d, r) for r in range(d.horizon))
    for r in range(d.horizon):
        assert sphere_volume_step(d, r) == (
            sphere_measure(d, r + 1) * average_curvature(d, r + 1, "inner"),
            sphere_measure(d, r) * average_curvature(d, r, "outer"),
        )
    return prof, chain


def test_cached_state_stays_out_of_the_records_identity(figure1):
    # the profile a decomposition keeps, and the rank and Laplacian rows a
    # graph keeps for its pair solves, are built once and change neither
    # record's fields, equality, hash or repr
    d = rooted_decomposition(figure1, "x")
    g = d.graph
    before = (d._fields, d._values(), repr(d), g._fields, g._values(), repr(g))
    prof = curvature_profile(d)
    assert curvature_profile(d) is prof
    ollivier_pair(g, "x", "y")
    assert g._laplacian_rows.keys() == {"x", "y"}
    assert (d._fields, d._values(), repr(d), g._fields, g._values(), repr(g)) == before
    assert d._fields == ("graph", "root", "dist", "spheres")
    assert g._fields == ("vertices", "measure", "adjacency")
    fresh = rooted_decomposition(make_figure1(), "x")
    assert (d == fresh, repr(d)) == (True, repr(fresh))
    assert (g == fresh.graph, repr(g)) == (True, repr(fresh.graph))
    # a record's hash is its field tuple's, which holds dicts here
    for record in (d, g, fresh, fresh.graph):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.one_of(graphs_with_root(), graphs_with_root(values=big_rationals())))
@example((equal_values_as_distinct_objects(), 0))
@example((mixed_spellings(), 0))
def test_profile_and_chain_match_the_definitional_sums(gr):
    g, _root = gr
    for root in g.vertices:
        _assert_rooted_sums_match_oracles(rooted_decomposition(g, root))


def test_rooted_sums_keep_the_least_common_denominator():
    # the profile shares one Fraction per unreduced (numerator, denominator)
    # pair, so sharing shows the denominator each sum was kept over
    weights = {"b": Fraction(1, 6), "c": Fraction(1, 10), "d": Fraction(7, 15)}
    g = validate_graph(
        [("a", 1), ("b", Fraction(5, 22)), ("c", 1), ("d", 1), ("e", 1)],
        [("a", v, w) for v, w in weights.items()] + [(v, "e", w) for v, w in weights.items()],
    )
    prof = curvature_profile(rooted_decomposition(g, "a"))
    # k+(a) and k-(e), each 1/6 + 1/10 + 7/15 over lcm 30 (not the product
    # 900), are 22/30, the same pair as k-(b) = (1/6) / (5/22)
    assert prof["a"][1] is prof["e"][0] is prof["b"][0] == Fraction(11, 15)
    # 1000 terms over one denominator keep it: k+ of a 1000-leaf hub and k-
    # of a vertex joined to every leaf are the pair (3000, p), as is k- of a
    # leaf of measure 1/1000
    p = 2**61 - 1
    leaves = [(f"leaf{k}", Fraction(1, 1000) if k == 0 else 1) for k in range(1000)]
    edges = [(end, leaf, Fraction(3, p)) for end in ("hub", "sink") for leaf, _ in leaves]
    g = validate_graph([("hub", 1), ("sink", 1), *leaves], edges)
    prof = curvature_profile(rooted_decomposition(g, "hub"))
    assert prof["hub"][1] is prof["sink"][0] is prof["leaf0"][0] == Fraction(3000, p)


def _primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def test_profile_and_chain_on_a_star_of_distinct_denominators():
    # 300 leaves, each weight over its own prime with a ~4000-digit numerator
    primes = _primes(300)
    vertices = [("hub", Fraction(1, 2**127 - 1))]
    edges = []
    for k, p in enumerate(primes):
        vertices.append((f"leaf{k}", Fraction(p, 7)))
        edges.append(("hub", f"leaf{k}", Fraction(10**3999 + k, p)))
    g = validate_graph(vertices, edges)
    for root in ("leaf0", "leaf299", "hub"):
        prof, chain = _assert_rooted_sums_match_oracles(rooted_decomposition(g, root))
    # from the hub, the outer curvature and the boundary weight each sum all
    # 300 leaves: still exact, but too long to print
    for value in (prof["hub"][1], chain.weights[0]):
        with pytest.raises(FormatError, match="rational too long to format"):
            format_rational(value)


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


def _pruned_pairs_oracle(support, metric, x, y):
    """The kept pairs of a full support metric, restated: every unordered
    pair but {x, y}, unless x or y, not an end, lies on a shortest path
    between its ends."""
    kept = {}
    for u in support:
        for v in support:
            if u == v or {u, v} == {x, y}:
                continue
            duv = metric[u][v]
            if not any(
                w not in (u, v) and metric[u][w] + metric[w][v] == duv for w in (x, y)
            ):
                kept[frozenset((u, v))] = duv
    return kept


@settings(derandomize=True, deadline=None, max_examples=40)
@given(graphs_with_root(max_vertices=10))
def test_pair_support_metric_matches_bfs_oracle(gr):
    # the solver never sees a dense metric: its kept pairs, found by one
    # rule at every distance, must be exactly those the BFS metric and the
    # prune rule give, and the oracles' own BFS metric must be the oracle's
    g, _ = gr
    maps = {v: bfs_oracle(g, v) for v in g.vertices}
    for x in g.vertices:
        for y in g.vertices:
            if x == y:
                continue
            support, d, dx, dy, kept = _pair_support(g, x, y)
            members = {x, y} | set(g.adjacency[x]) | set(g.adjacency[y])
            assert set(support) == members
            assert d == maps[x][y]
            assert dx == [maps[x][u] for u in support]
            assert dy == [maps[y][u] for u in support]
            got = {frozenset((support[i], support[j])): c for i, j, c in kept}
            assert len(got) == len(kept)
            assert got == _pruned_pairs_oracle(support, maps, x, y)
            oracle_support, metric = _oracle_support(g, x, y)
            assert oracle_support == support
            for u in support:
                assert {v: metric[u][v] for v in support} == {
                    v: maps[u][v] for v in support
                }


def mixed_labels():
    """A graph whose int labels sit among numeric and non-numeric strings,
    so label order is neither int order nor string order."""
    labels = [2, "07", 10, "a", "011", 9, "b"]
    edges = [(2, "07"), ("07", 10), (10, "a"), ("a", 2), (2, "011"), ("011", 9),
             (9, "b"), ("b", "07"), (10, "011")]
    return validate_graph([(v, Fraction(k + 1, 2)) for k, v in enumerate(labels)],
                          [(u, v, Fraction(len(str(u)) + k, 3)) for k, (u, v) in enumerate(edges)])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(graphs_with_root(max_vertices=10))
@example((mixed_labels(), 2))
def test_solver_matches_bruteforce_on_small_supports(gr):
    g, _ = gr
    for i, u in enumerate(g.vertices):
        reach = bfs_oracle(g, u)
        for v in g.vertices[i + 1 :]:
            # adjacent pairs and pairs at distance 2 and 3, each once
            if reach[v] > 3:
                continue
            support = {u, v} | set(g.adjacency[u]) | set(g.adjacency[v])
            if len(support) > 10:
                continue
            solved = ollivier_pair(g, u, v)
            brute = ollivier_pair_bruteforce(g, u, v)
            # the support in the graph's rank order is the label order
            assert solved.support == brute.support == tuple(sorted(support, key=label_key))
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


def test_verify_witness_builds_its_own_metric(monkeypatch):
    # the graph above, with the solver's kept pairs dropping the deciding
    # pair (a, b) or pricing it at 3: the solver then returns a witness that
    # stretches a-b by 3, which its own check on the kept arcs passes and
    # the BFS-built replay rejects
    g = validate_graph(
        [(v, 1) for v in "abcxy"],
        [("x", "y", 1), ("x", "a", 1), ("y", "b", 1), ("a", "c", 1), ("b", "c", 1)],
    )
    honest = curvature._pair_support
    for cost in (None, 3):

        def lying(graph, x, y):
            support, d, dx, dy, kept = honest(graph, x, y)
            ab = {support.index("a"), support.index("b")}
            dropped = [arc for arc in kept if {arc[0], arc[1]} == ab]
            assert [arc[2] for arc in dropped] == [2]
            kept = [arc for arc in kept if arc not in dropped]
            if cost is not None:
                kept.append(dropped[0][:2] + (cost,))
            return support, d, dx, dy, kept

        monkeypatch.setattr(curvature, "_pair_support", lying)
        solved = ollivier_pair(g, "x", "y")
        assert solved.value == 0
        with pytest.raises(CurvegraphError, match="Lipschitz bound on \\('a', 'b'\\)"):
            verify_witness(g, solved)


def _sweep_every_pair(graphs, rational, seed):
    rng = random.Random(seed)

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


@pytest.mark.parametrize("rational", [False, True], ids=["unit", "rational"])
def test_solver_matches_bruteforce_on_every_graph_up_to_5_vertices(rational):
    # every ordered pair, adjacent or not, of every connected graph on at
    # most 5 vertices: ties between optima and every support shape these
    # sizes allow are covered by exhaustion
    graphs = connected_graphs(5)
    assert len(graphs) == 31  # 1 + 1 + 2 + 6 + 21 classes on 1..5 vertices
    _sweep_every_pair(graphs, rational, 5)


@pytest.mark.parametrize("rational", [False, True], ids=["unit", "rational"])
def test_solver_matches_bruteforce_on_every_graph_on_6_vertices(rational):
    # the same exhaustion one vertex further: 112 classes, 3,360 ordered pairs
    graphs = [(n, edges) for n, edges in connected_graphs(6) if n == 6]
    assert len(graphs) == 112
    _sweep_every_pair(graphs, rational, 6)


@pytest.mark.parametrize("rational", [False, True], ids=["unit", "rational"])
def test_the_closure_alone_matches_bruteforce_on_every_graph_on_6_vertices(
    monkeypatch, rational
):
    # the same exhaustion with no group exhausted: every linked group, of
    # 2 vertices or more, is solved by the closure, 1,830 groups in all
    monkeypatch.setattr(curvature, "_EXHAUSTED", 0)
    closures = _counting_closures(monkeypatch)
    graphs = [(n, edges) for n, edges in connected_graphs(6) if n == 6]
    _sweep_every_pair(graphs, rational, 6)
    assert len(closures) == 1830


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
    # a solve's own guard or certificate failing would raise out of
    # ollivier_pair
    result = ollivier_pair(g, 0, 1)
    mx, my = g.measure[0], g.measure[1]
    b = g.adjacency[0][1]
    expected = b * (1 / mx + 1 / my)
    expected -= sum((w for z, w in g.adjacency[0].items() if z != 1), Fraction(0)) / mx
    expected -= sum((w for z, w in g.adjacency[1].items() if z != 0), Fraction(0)) / my
    assert result.value == expected
    verify_witness(g, result)


def _hub_graph(leaves, linked=()):
    """Adjacent hubs 0 and 1, each with its own leaves; the leaves of each
    hub that ``linked`` names are also joined in a path."""
    vertices = [(v, Fraction(1 + v % 3, 1 + v % 2)) for v in range(2 + 2 * leaves)]
    edges = [(0, 1, 1)]
    for k in range(leaves):
        edges.append((0, 2 + k, Fraction(1 + k % 4, 2)))
        edges.append((1, 2 + leaves + k, Fraction(1 + k % 5, 3)))
    for first in (2 + hub * leaves for hub in linked):
        edges += [(first + k, first + k + 1, Fraction(1 + k % 3, 2))
                  for k in range(leaves - 1)]
    return validate_graph(vertices, edges)


def _counting_closures(monkeypatch):
    """Route the module's closure solves through a list of their members."""
    closures = []
    real = curvature._closure_optimum

    def counting(members, *rest):
        closures.append(list(members))
        return real(members, *rest)

    monkeypatch.setattr(curvature, "_closure_optimum", counting)
    return closures


def _lines_run(codes, call):
    """The number of lines call() runs in frames of the given code
    objects, counted by the tracer's line events."""
    lines = [0]

    def local(frame, event, arg):
        lines[0] += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code in codes else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        call()
    finally:
        sys.settrace(before)
    return lines[0]


def test_pair_cost_is_linear_in_degree(monkeypatch):
    # a hub pair's support is both hubs' leaves. On plain hubs each leaf is
    # a group of its own and no closure runs. Joined in a path, each hub's
    # leaves make one linked group, too large to exhaust, so the closure
    # runs once for each: quadrupling the leaves may quadruple the lines it
    # runs, its comprehensions' included, not multiply them by sixteen
    code = curvature._closure_optimum.__code__
    codes = {code, *(c for c in code.co_consts if isinstance(c, CodeType))}
    closures = _counting_closures(monkeypatch)
    counts = {}
    for leaves in (64, 256):
        plain, linked = _hub_graph(leaves), _hub_graph(leaves, linked=(0, 1))
        assert _lines_run(codes, lambda: ollivier_pair(plain, 0, 1)) == 0
        assert closures == []
        counts[leaves] = _lines_run(codes, lambda: ollivier_pair(linked, 0, 1))
        assert len(closures) == 2
        closures.clear()
    assert 0 < counts[256] <= 5 * counts[64]


def _rational_grid(side, seed):
    """A side x side grid with seeded rational data; vertex i * side + j."""
    rng = random.Random(seed)

    def draw():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    edges = [(v, v + 1, draw()) for v in range(side * side) if v % side + 1 < side]
    edges += [(v, v + side, draw()) for v in range(side * side - side)]
    return validate_graph([(v, draw()) for v in range(side * side)], edges)


def _chain_path():
    """A seeded rational chain on 9 vertices as a path graph."""
    rng = random.Random(26)
    return bdc_as_graph(BirthDeathChain(
        measures=[Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(9)],
        weights=[Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(8)],
    ))


def _edges(g):
    return [(u, v) for u in g.vertices for v in g.adjacency[u] if label_key(u) < label_key(v)]


def _both_ways(pairs):
    return [p for u, v in pairs for p in ((u, v), (v, u))]


# graph, its pairs, and the closure solves each pair makes: a grid edge, a hub
# pair and a chain pair at distance 3 or more have groups of at most 2
# vertices; the linked hubs have two groups of 4 or of 64, one per hub
PATHS = {
    "grid-edges": (lambda: _rational_grid(4, 26), lambda g: _both_ways(_edges(g)), 0),
    "hub": (lambda: _hub_graph(3), lambda g: [(0, 1), (1, 0)], 0),
    "wide-hub": (lambda: _hub_graph(64), lambda g: [(0, 1), (1, 0)], 0),
    "chain-path": (_chain_path, lambda g: [(u, v) for u in range(9) for v in range(9)
                                           if abs(u - v) >= 3], 0),
    "linked-hub": (lambda: _hub_graph(4, linked=(0, 1)), lambda g: [(0, 1), (1, 0)], 2),
    "wide-linked-hub": (lambda: _hub_graph(64, linked=(0, 1)), lambda g: [(0, 1), (1, 0)], 2),
}


@pytest.mark.parametrize("name", list(PATHS))
def test_each_pair_takes_the_path_its_largest_group_picks(monkeypatch, name):
    # the closure runs only for a group too large to exhaust; either way
    # the result is the brute force's on a small support, and passes the
    # replay
    build, pairs, per_pair = PATHS[name]
    g = build()
    closures = _counting_closures(monkeypatch)
    for x, y in pairs(g):
        closures.clear()
        solved = ollivier_pair(g, x, y)
        assert len(closures) == per_pair, (x, y)
        if len(solved.support) <= 10:
            brute = ollivier_pair_bruteforce(g, x, y)
            assert (solved.value, solved.witness) == (brute.value, brute.witness)
        verify_witness(g, solved)


def test_a_faulty_group_solve_fails_the_pairs_own_check(monkeypatch):
    # a ~ x and b ~ y are joined through c, so {a, b} is a linked group of
    # two; a group solve that puts a outside its box [-1, 1] breaks the kept
    # pair {x, a}, and the solver's own check, not only the replay, says so
    g = validate_graph(
        [(v, 1) for v in "abcxy"],
        [("x", "y", 1), ("x", "a", 1), ("y", "b", 1), ("a", "c", 1), ("b", "c", 1)],
    )
    verify_witness(g, ollivier_pair(g, "x", "y"))
    groups = []

    def faulty(members, *rest):
        groups.append(sorted(members))
        return [2] * len(members)

    monkeypatch.setattr(curvature, "_group_optimum", faulty)
    message = "^internal pair error: the witness breaks a kept bound$"
    with pytest.raises(CurvegraphError, match=message):
        ollivier_pair(g, "x", "y")
    assert groups == [[0, 1]]  # a and b, first in the support (a, b, x, y)


@pytest.mark.parametrize("leaves", [4, 64])
def test_a_flow_solves_one_group_with_x_alone(monkeypatch, leaves):
    # only hub 0's leaves are joined in a path, so they are the one group
    # too large to exhaust: its network is built from those leaves alone,
    # never x, hub 1, its leaves or any other vertex of the support
    closures = _counting_closures(monkeypatch)
    g = _hub_graph(leaves, linked=(0,))
    solved = ollivier_pair(g, 0, 1)
    assert [sorted(members) for members in closures] == [list(range(2, 2 + leaves))]
    verify_witness(g, solved)


def test_each_group_solve_sees_only_its_own_links(monkeypatch):
    # hub 0's 64 leaves joined two by two and hub 1's four by four: 32
    # groups of 2 to exhaust and 16 of 4 for the closure. Each solve gets its
    # own group's links alone, so a pair with many groups reads each link
    # once, not every link once per group
    g0 = _hub_graph(64)
    pairs = [(2 + k, 3 + k, 1) for k in range(0, 64, 2)]
    fours = [(66 + k + j, 67 + k + j, 1) for k in range(0, 64, 4) for j in range(3)]
    g = validate_graph(list(g0.measure.items()), [*g0.edges, *pairs, *fours])
    seen = []
    for name in ("_group_optimum", "_closure_optimum"):

        def spy(members, links, *rest, real=getattr(curvature, name)):
            seen.append((len(members), len(links)))
            return real(members, links, *rest)

        monkeypatch.setattr(curvature, name, spy)
    solved = ollivier_pair(g, 0, 1)
    assert sorted(seen) == [(2, 1)] * 32 + [(4, 3)] * 16
    verify_witness(g, solved)


def test_a_faulty_flow_solve_fails_the_pairs_own_check(monkeypatch):
    # hub 0's 4 leaves, joined in a path, are a group for the closure; a
    # closure solve that puts them outside their box [-1, 1] breaks the kept
    # pair of hub 0 and a leaf, and the solver's own check says so
    g = _hub_graph(4, linked=(0,))
    verify_witness(g, ollivier_pair(g, 0, 1))
    groups = []

    def faulty(members, *rest):
        groups.append(sorted(members))
        return [2] * len(members)

    monkeypatch.setattr(curvature, "_closure_optimum", faulty)
    message = "^internal pair error: the witness breaks a kept bound$"
    with pytest.raises(CurvegraphError, match=message):
        ollivier_pair(g, 0, 1)
    assert groups == [[2, 3, 4, 5]]  # hub 0's leaves, after 0 and 1 in the support


def test_laplacian_rows_that_do_not_sum_to_zero_are_refused():
    # the Laplacian of a constant is 0, so a pair's coefficients sum to 0;
    # a row that breaks that is a fault the solver reports, not a value
    g = _hub_graph(4, linked=(0,))
    den, row = g._laplacian_rows[1]
    g._laplacian_rows[1] = den, {**row, 1: row[1] + 1}
    with pytest.raises(CurvegraphError, match="^internal error: unbalanced supplies$"):
        ollivier_pair(g, 0, 1)


def _min_cost_flow_potentials(arcs, out, supply, pi):
    """Exact uncapacitated min-cost flow by primal-dual phases; returns the
    final potentials, which solve the flow LP's dual.

    ``arcs`` lists the network arcs as (tail, head, cost), with no capacity
    bound, and ``out[u]`` the arcs leaving u as (head, cost, k) in the order
    of k; ``supply[i]`` is the required net inflow at node i (integers
    summing to zero). The residual network has each arc k, always open, and
    its reverse, at the negated cost and open while ``flow[k] > 0``.
    Invariant: every open arc u->v has reduced cost c + pi[u] - pi[v] >= 0;
    ``pi`` must meet it on entry, when no reverse arc is open.

    Each iteration (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
    section 9.8) runs one Dijkstra from every node short of outflow
    (need < 0) at once, stopped at the first sink (need > 0) it settles, at
    distance dt. Every potential then grows by its distance capped at dt,
    which keeps the invariant and makes the shortest paths tight; since no
    reduced cost sees a common shift, only the settled nodes move, by their
    distance less dt. A round of blocking flow follows (Dinic): BFS levels
    over the open tight arcs, then DFS augmentations down the levels until
    every source is met or cut off. The searches visit only the nodes they
    reach and those nodes' arcs, so an iteration costs O(nodes + arcs),
    never the nodes squared.

    Phase bound: an iteration with dt >= 1, or the first, starts a phase;
    one with dt = 0 finishes the previous round's blocking flow, and since
    every round lengthens the shortest tight source-sink path by an arc,
    fewer than n follow in a row. Sources and sinks never change sides, and
    a phase raises every sink's potential by dt over every source's. So
    for a source s and a sink t left in the last phase, the phases number
    at most 1 + the growth of pi[t] - pi[s]. That difference starts at no
    less than minus the spread of the entry potentials and ends at no more
    than the shortest s-t path length. In a pair's network every node
    reaches every other through x within C + 1 (no arc from x costs over
    1), C the largest arc cost, so there are at most C + 2 + spread phases;
    the guard allows n iterations for each.

    Before it returns, the solver certifies its answer: every flow is >= 0,
    every node's inflow less its outflow is its supply, every arc that
    carries flow is tight under the returned potentials, and no arc's
    reduced cost is negative. The flow is then feasible, the potentials
    dual feasible, and primal cost equals dual value, so both are optimal.
    """
    n = len(supply)
    # residual arcs leaving each node as (head, cost, code): arc k has code
    # k and is always open, in out; its reverse has code ~k and sits in
    # back[head of k] while flow[k] > 0
    back: list = [{} for _ in range(n)]
    flow = [0] * len(arcs)
    need = list(supply)
    pi = list(pi)
    guard = (max(map(itemgetter(2), arcs)) + 3 + max(pi) - min(pi)) * n
    sources = [u for u in range(n) if need[u] < 0]
    while sources:
        guard -= 1
        if guard < 0:
            raise CurvegraphError("internal flow error: iteration guard tripped")
        # Dijkstra from every source at once, to the nearest sink
        dist: list = [None] * n
        for s in sources:
            dist[s] = 0
        heap = [(0, s) for s in sources]
        settled = []
        dt = None
        while heap:
            du, u = heappop(heap)
            if du > dist[u]:
                continue
            if need[u] > 0:
                dt = du
                break
            settled.append(u)
            base = du + pi[u]
            bu = back[u]
            for v, c, _ in chain(out[u], bu.values()) if bu else out[u]:
                cand = base + c - pi[v]
                dv = dist[v]
                if dv is None or cand < dv:
                    dist[v] = cand
                    heappush(heap, (cand, v))
        if dt is None:
            raise CurvegraphError("internal flow error: no route to a sink")
        if dt:
            for u in settled:
                pi[u] += dist[u] - dt
        # BFS levels over the open tight arcs, which now reach a sink;
        # down[u] lists u's arcs to the next level as (head, code). Were
        # none reached, the round would do nothing and the guard would trip.
        level: list = [None] * n
        down: list = [()] * n
        for s in sources:
            level[s] = 0
        frontier = sources
        depth = 0
        reached = False
        while frontier and not reached:
            depth += 1
            nxt = []
            for u in frontier:
                pu = pi[u]
                step = []
                bu = back[u]
                for v, c, k in chain(out[u], bu.values()) if bu else out[u]:
                    if c + pu == pi[v]:
                        lv = level[v]
                        if lv is None:
                            level[v] = depth
                            nxt.append(v)
                            if need[v] > 0:
                                reached = True
                            step.append((v, k))
                        elif lv == depth:
                            step.append((v, k))
                down[u] = step
            frontier = nxt
        # DFS augmentations down the levels; it[u] is u's next untried arc
        it = [0] * n
        for s in sources:
            path: list = []
            nodes = [s]
            u = s
            while True:
                if need[u] > 0:
                    quota = min(-need[s], need[u])
                    for k in path:
                        if k < 0 and flow[~k] < quota:
                            quota = flow[~k]
                    for k in path:
                        if k >= 0:
                            if not flow[k]:
                                t, h, c = arcs[k]
                                back[h][k] = (t, -c, ~k)
                            flow[k] += quota
                        else:
                            k = ~k
                            flow[k] -= quota
                            if not flow[k]:
                                del back[arcs[k][1]][k]
                    need[s] += quota
                    need[u] -= quota
                    if not need[s]:
                        break
                    path = []
                    nodes = [s]
                    u = s
                step = down[u]
                i = it[u]
                while i < len(step):
                    v, k = step[i]
                    if level[v] is not None and (k >= 0 or flow[~k]):
                        break
                    i += 1
                it[u] = i
                if i < len(step):
                    path.append(k)
                    nodes.append(v)
                    u = v
                else:
                    # a dead end: nothing enters u again this round
                    level[u] = None
                    nodes.pop()
                    if not nodes:
                        break
                    path.pop()
                    u = nodes[-1]
                    it[u] += 1
        sources = [s for s in sources if need[s] < 0]
    # the certificate: each node's inflow less its outflow is its supply,
    # the arcs that carry flow are tight, and no arc's bound is broken
    left = list(supply)
    for k in compress(range(len(flow)), flow):
        u, v, c = arcs[k]
        f = flow[k]
        if f < 0:
            raise CurvegraphError("internal flow error: negative flow")
        if c + pi[u] != pi[v]:
            raise CurvegraphError("internal flow error: flow on an arc that is not tight")
        left[u] += f
        left[v] -= f
    if any(left):
        raise CurvegraphError("internal flow error: supplies not met")
    for u, v, c in arcs:
        if c + pi[u] < pi[v]:
            raise CurvegraphError("internal flow error: an arc's reduced cost is negative")
    return pi


def _whole_support_witness(g, x, y):
    """The pair's witness from one min-cost flow over its whole support:
    a node per support vertex, an arc each way per kept pair, x->y at -d
    and y->x at d, and supplies width * c + 1 balanced at x, with width
    1 + 2 sum d(x, .) past the spread of sum f. The flow certifies its
    potentials optimal, and the perturbation makes the optimum unique and
    the least one, so this is the solver's witness, found with no group
    taken apart and by no code of the solver's closure."""
    support, d, dx, dy, kept = _pair_support(g, x, y)
    ix, iy = support.index(x), support.index(y)
    (den_y, row_y), (den_x, row_x) = g._laplacian_rows[y], g._laplacian_rows[x]
    den = lcm(den_x, den_y)
    coef = dict.fromkeys(support, 0)
    for row, scale in ((row_y, den // den_y), (row_x, -(den // den_x))):
        for u, q in row.items():
            coef[u] += scale * q
    width = 1 + 2 * sum(dx)
    supply = [width * c + 1 for c in coef.values()]
    supply[ix] -= len(support)
    arcs = [(ix, iy, -d), (iy, ix, d)]
    for i, j, e in kept:
        arcs += [(i, j, e), (j, i, e)]
    out = [[] for _ in support]
    for k, (i, j, e) in enumerate(arcs):
        out[i].append((j, e, k))
    # -f for f = min(d(x, .), d - d(y, .)): 1-Lipschitz, f(x) = 0, f(y) = d
    pi = [max(-a, b - d) for a, b in zip(dx, dy)]
    pi = _min_cost_flow_potentials(arcs, out, supply, pi)
    return {u: pi[ix] - p for u, p in zip(support, pi)}


@pytest.mark.parametrize("leaves", [4, 16, 64])
def test_linked_hubs_match_the_whole_support_flow(leaves):
    # past the brute force's reach: each hub's leaves are one group, and
    # solving the two alone gives the witness of the one whole-support flow
    g = _hub_graph(leaves, linked=(0, 1))
    for x, y in [(0, 1), (1, 0)]:
        assert ollivier_pair(g, x, y).witness == _whole_support_witness(g, x, y)


@pytest.mark.parametrize("center", ["first", "last"])
def test_a_leaf_joined_to_every_other_leaf_is_one_group(monkeypatch, center):
    # hub 0's first or last leaf joined to each of its other 1023 leaves:
    # the links list each leaf with the centre, the centre second when it is
    # the last leaf, so one end of every link is already in the large group.
    # Either way the leaves are one group, solved once by the closure, and
    # the merge that builds it moves the smaller list, so it stays linear
    leaves = 1024
    g0 = _hub_graph(leaves)
    hub0 = range(2, 2 + leaves)
    c = hub0[0] if center == "first" else hub0[-1]
    spokes = [(c, v, Fraction(1 + v % 3, 2)) for v in hub0 if v != c]
    g = validate_graph(list(g0.measure.items()), [*g0.edges, *spokes])
    closures = _counting_closures(monkeypatch)
    solved = ollivier_pair(g, 0, 1)
    assert [sorted(members) for members in closures] == [list(hub0)]
    assert solved.witness == _whole_support_witness(g, 0, 1)


def test_dense_graphs_match_the_whole_support_flow(monkeypatch):
    # every ordered pair of seeded dense rational graphs on 8-16 vertices,
    # most of which have a group too large to exhaust
    rng = random.Random(29)
    closures = _counting_closures(monkeypatch)
    pairs = solved_by_closure = 0
    for _ in range(8):
        n = rng.randint(8, 16)
        edges = {(v, v + 1) for v in range(n - 1)}
        edges |= {(u, v) for u in range(n) for v in range(u + 2, n) if rng.random() < 0.4}
        g = validate_graph(
            [(v, Fraction(rng.randint(1, 9), rng.randint(1, 9))) for v in range(n)],
            [(u, v, Fraction(rng.randint(1, 9), rng.randint(1, 9))) for u, v in sorted(edges)],
        )
        for x, y in permutations(range(n), 2):
            closures.clear()
            witness = ollivier_pair(g, x, y).witness
            solved_by_closure += bool(closures)
            assert witness == _whole_support_witness(g, x, y), (n, sorted(edges), x, y)
            pairs += 1
    assert pairs > solved_by_closure > pairs // 2


class _CountedRows(Mapping):
    """An adjacency that adds up, on every read of a vertex's row, the
    neighbours the row holds. A BFS step reads a row and scans it, so the
    total sees every step, whichever search takes it."""

    def __init__(self, rows):
        self.rows = rows
        self.scanned = 0

    def __getitem__(self, v):
        row = self.rows[v]
        self.scanned += len(row)
        return row

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def test_farther_pair_cost_is_linear_in_degree():
    # hub 0 and the first leaf of hub 1 lie at distance 2, and the support
    # holds hub 0's whole neighbourhood: quadrupling the leaves may quadruple
    # the neighbours the pair's searches scan, not multiply them by sixteen
    # as a BFS from every support vertex would
    scanned = {}
    for leaves in (64, 256):
        g = _hub_graph(leaves)
        rows = _CountedRows(g.adjacency)
        counted = WeightedGraph(g.vertices, g.measure, rows)
        result = ollivier_pair(counted, 0, 2 + leaves)
        assert result.distance == 2
        assert result == ollivier_pair(g, 0, 2 + leaves)
        scanned[leaves] = rows.scanned
    assert 0 < scanned[256] <= 5 * scanned[64]


def _rebuilt(result, **changes):
    """The result with some fields changed, built by its own constructor."""
    fields = {name: getattr(result, name) for name in result._fields}
    return OllivierResult(**{**fields, **changes})


# Each fault breaks exactly one witness invariant of figure 1's pair (x, y),
# whose witness is {w: -1, x: 0, y: 1, y': -1, z: 2} with value -1.
@pytest.mark.parametrize(
    "fault, message",
    [
        (
            lambda r: _rebuilt(r, witness={u: f for u, f in r.witness.items() if f < 2}),
            "witness does not cover the pair support",
        ),
        (
            lambda r: _rebuilt(r, witness={**r.witness, "w": Fraction(-1)}),
            "witness value at 'w' is not an integer",
        ),
        (
            lambda r: _rebuilt(r, witness={**r.witness, "y": True}),
            "witness value at 'y' is not an integer",
        ),
        (
            lambda r: _rebuilt(r, witness={**r.witness, "w": -2}),
            "witness violates the Lipschitz bound on ('w', 'x')",
        ),
        (lambda r: _rebuilt(r, distance=2), "recorded pair distance is wrong"),
        (
            lambda r: _rebuilt(r, witness=dict.fromkeys(r.witness, 0)),
            "witness gradient along the pair is not 1",
        ),
        (
            lambda r: _rebuilt(r, witness={u: f + 1 for u, f in r.witness.items()}),
            "witness is not normalized to 0 at x",
        ),
        (
            lambda r: _rebuilt(r, value=r.value + 1),
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


def _plain_sphere_curvature(d, r):
    """The definition, every inward pair solved: min over y of max over x."""
    g = d.graph
    return min(
        max(ollivier_pair(g, x, y).value for x in g.adjacency[y] if d.dist[x] == r - 1)
        for y in d.sphere(r)
    )


def _counting_solves(monkeypatch):
    """Route the module's pair solves through a list of the pairs solved."""
    solved = []

    def counting(g, x, y):
        solved.append((x, y))
        return ollivier_pair(g, x, y)

    monkeypatch.setattr(curvature, "ollivier_pair", counting)
    return solved


@pytest.mark.parametrize("rational", [False, True], ids=["unit", "rational"])
def test_sphere_curvature_is_the_plain_min_max_on_every_graph_up_to_6_vertices(
    monkeypatch, rational
):
    # every connected graph on at most 6 vertices, at every root and radius:
    # the pairs left unsolved never change the value, and none is solved twice
    rng = random.Random(16)

    def draw():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9)) if rational else 1

    solved = _counting_solves(monkeypatch)
    checked = 0
    for n, edges in connected_graphs(6):
        g = validate_graph([(v, draw()) for v in range(n)], [(u, v, draw()) for u, v in edges])
        for root in range(n):
            d = rooted_decomposition(g, root)
            for r in range(1, d.horizon + 1):
                solved.clear()
                assert sphere_curvature(d, r) == _plain_sphere_curvature(d, r), (edges, root, r)
                assert len(set(solved)) == len(solved), (edges, root, r)
                checked += 1
    assert checked > 1000


@settings(derandomize=True, deadline=None, max_examples=60)
@given(graphs_with_root(max_vertices=10))
def test_sphere_curvature_is_the_plain_min_max(gr):
    g, root = gr
    d = rooted_decomposition(g, root)
    for r in range(1, d.horizon + 1):
        assert sphere_curvature(d, r) == _plain_sphere_curvature(d, r)


def test_sphere_curvature_solves_at_most_70_percent_of_a_grid(monkeypatch):
    # a 14x14 grid with seeded rational data, rooted at its corner: a plain
    # min-max solves all 364 inward pairs; each vertex past the root needs
    # at least one (195), and the cut leaves most second pairs unsolved
    side = 14
    d = rooted_decomposition(_rational_grid(side, 14), 0)
    inward = sum(
        1 for y, r in d.dist.items() for x in d.graph.adjacency[y] if d.dist[x] == r - 1
    )
    assert inward == 364
    solved = _counting_solves(monkeypatch)
    for r in range(1, d.horizon + 1):
        sphere_curvature(d, r)
    assert len(set(solved)) == len(solved)
    assert side * side - 1 <= len(solved) <= 0.7 * inward


def test_sphere_curvature_solves_the_pairs_its_stops_leave(monkeypatch):
    # the unit 5x5 grid rooted at its corner: the pairs each radius solves.
    # Pass 2 stops once L(y) >= best; stopping only once L(y) > best gives
    # the same values from more solves, [2, 3, 5, 7, 6, 5, 4, 2]
    side = 5
    edges = [(v, v + 1, 1) for v in range(side * side) if v % side + 1 < side]
    edges += [(v, v + side, 1) for v in range(side * side - side)]
    d = rooted_decomposition(validate_graph([(v, 1) for v in range(side * side)], edges), 0)
    assert d.horizon == 8
    solved = _counting_solves(monkeypatch)
    counts = []
    for r in range(1, 9):
        solved.clear()
        sphere_curvature(d, r)
        counts.append(len(solved))
    assert counts == [2, 3, 4, 6, 5, 5, 3, 2]


def test_sphere_curvature_guards_a_hand_built_decomposition():
    # rooted_decomposition never builds either: an empty sphere below the
    # horizon, or a vertex whose neighbours all lie on its own sphere or beyond
    g = validate_graph([("r", 1), ("a", 1), ("b", 1), ("c", 1)],
                       [("r", "a", 1), ("a", "b", 1), ("a", "c", 1)])
    gap = RootedDecomposition(graph=g, root="r", dist={"r": 0, "a": 2, "b": 2, "c": 2},
                              spheres=(("r",), (), ("a", "b", "c")))
    with pytest.raises(EmptySphere) as caught:
        sphere_curvature(gap, 1)
    assert caught.value.code == "empty-sphere"
    assert str(caught.value) == "sphere 1 is empty"
    flat = RootedDecomposition(graph=g, root="r", dist={"r": 0, "a": 1, "b": 1, "c": 1},
                               spheres=(("r",), ("a", "b", "c")))
    with pytest.raises(EmptySphere) as caught:
        sphere_curvature(flat, 1)
    assert caught.value.code == "empty-sphere"
    assert str(caught.value) == "vertex 'b' on sphere 1 has no inward neighbor"
    assert caught.value.payload()["detail"] == {"radius": 1}


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


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.one_of(chains(min_horizon=1), chains(min_horizon=1, values=big_rationals())))
def test_horizon_pair_curvature_is_the_last_gap_drop(chain):
    # past the horizon h nothing lies, so the gap there is -k-(h): the pair
    # LP of the last two chain points equals gap(h - 1) - (-k-(h))
    h = chain.horizon
    assert ollivier_pair(bdc_as_graph(chain), h - 1, h).value == (
        chain.curvature_gap(h - 1) + chain.inner_curvature(h)
    )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(chains(min_horizon=3, max_horizon=6))
def test_chain_telescoping_identity(chain):
    running = Fraction(0)
    for upper in range(1, chain.horizon):
        running += bdc_ollivier_closed_form(chain, upper - 1, upper)
        t = chain.curvature_gap(upper)
        assert running == chain.outer_curvature(0) - t
