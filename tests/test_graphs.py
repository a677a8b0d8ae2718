"""Graph construction, distances, spheres, and the Laplacian."""

import copy
import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvegraph import (
    AsymmetricDuplicateEdge,
    CurvegraphError,
    DisconnectedGraph,
    DuplicateVertex,
    FormatError,
    HorizonExceeded,
    NonPositiveEdgeWeight,
    NonPositiveMeasure,
    PartialFunction,
    SelfLoop,
    UnknownVertex,
    chain_from_json_dict,
    distance,
    distance_map,
    format_rational,
    graph_from_json_dict,
    graph_to_json,
    graph_to_json_dict,
    inner_curvature,
    label_key,
    laplacian,
    laplacian_of_distance,
    loads_json,
    make_figure1,
    make_unweighted_chain,
    ollivier_pair,
    outer_curvature,
    parse_rational,
    rooted_decomposition,
    sphere_boundary,
    sphere_measure,
    validate_graph,
)
from curvegraph import cli
from curvegraph import graphs as graphs_module
from curvegraph.chains import bdc_as_graph

from conftest import (
    bfs_oracle,
    equal_values_as_distinct_objects,
    graphs_with_root,
    mixed_spellings,
    rationals,
)


# --- rationals ---


def test_parse_rational_forms():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert parse_rational(" 7/2 ") == Fraction(7, 2)
    q = Fraction(5, 3)
    assert parse_rational(q) is q


@pytest.mark.parametrize("bad", ["1.5", "1e3", "a/b", "", "1/0", 2.5, None, True])
def test_parse_rational_rejects(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


_OLD_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _old_parse_rational(value):
    """The regex parser that parse_rational replaced, kept as its oracle."""
    if isinstance(value, bool):
        raise FormatError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if _OLD_RATIONAL_RE.match(text):
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise FormatError(f"zero denominator: {value!r}") from None
            except ValueError:
                raise FormatError(f"rational too long: {len(text)} characters") from None
    raise FormatError(f"not a rational: {value!r}")


def _outcome(parse, value):
    try:
        q = parse(value)
    except FormatError as exc:
        return "error", str(exc)
    return type(q), q


RATIONAL_CORPUS = [
    "+3", "-0/5", " 7/14 ", "\u0661/\u0662", "\u00b2", "1_000", "1/+2", "+-1",
    "1//2", "/4", "3/", "1/0", "9" * 5000 + "/7", True, 2.5, None,
]


@pytest.mark.parametrize("value", RATIONAL_CORPUS, ids=lambda v: repr(v)[:12])
def test_parse_rational_matches_the_regex_grammar(value):
    assert _outcome(parse_rational, value) == _outcome(_old_parse_rational, value)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.text(alphabet="+-/ 0123579\u0661\u0662\u00b2_\n", max_size=8))
def test_parse_rational_matches_the_regex_grammar_property(text):
    assert _outcome(parse_rational, text) == _outcome(_old_parse_rational, text)


def test_format_rational_always_p_over_q():
    assert format_rational(Fraction(1)) == "1/1"
    assert format_rational(Fraction(-6, 4)) == "-3/2"
    assert format_rational(2) == "2/1"


def test_label_key_orders_numerically():
    labels = ["10", "2", 1, "b", "a"]
    assert sorted(labels, key=label_key) == [1, "2", "10", "a", "b"]


# --- validation ---


def test_single_vertex_graph_is_valid():
    g = validate_graph([("a", 1)], [])
    assert g.vertices == ("a",)
    assert g.adjacency["a"] == {}
    assert graph_to_json(g) == _dumps_oracle(g)
    assert '"edges": []' in graph_to_json(g)


def test_figure1_validates(figure1):
    assert len(figure1.vertices) == 7
    assert len(figure1.edges) == 7
    assert figure1.adjacency["x'"]["y'"] == 2
    assert figure1.adjacency["y'"]["x'"] == 2
    assert figure1.measure["y'"] == 3


def test_zero_weight_edges_dropped():
    g = validate_graph([("a", 1), ("b", 1), ("c", 1)], [("a", "b", 1), ("b", "c", 1), ("a", "c", 0)])
    assert "c" not in g.adjacency["a"]
    assert ("a", "c") not in [(u, v) for u, v, _ in g.edges]


def test_duplicate_pair_same_weight_tolerated():
    g = validate_graph([("a", 1), ("b", 1)], [("a", "b", 2), ("b", "a", 2)])
    assert g.adjacency["a"]["b"] == 2


@pytest.mark.parametrize(
    "vertices,edges,exc",
    [
        ([("a", 1), ("a", 2)], [], DuplicateVertex),
        ([("a", 0)], [], NonPositiveMeasure),
        ([("a", "-1/2")], [], NonPositiveMeasure),
        ([("a", 1)], [("a", "a", 1)], SelfLoop),
        ([("a", 1), ("b", 1)], [("a", "b", 1), ("b", "a", 2)], AsymmetricDuplicateEdge),
        ([("a", 1), ("b", 1)], [("a", "b", "-1")], NonPositiveEdgeWeight),
        ([("a", 1), ("b", 1)], [], DisconnectedGraph),
        ([("a", 1)], [("a", "b", 1)], UnknownVertex),
        ([(1.5, 1)], [], FormatError),
        ([(-3, 1)], [], FormatError),
        ([(1, 1), (2, 1)], [(2, True, 1)], FormatError),
        ([(1, 1), (2, 1)], [(2, 1.0, 1)], FormatError),
        ([(1, 1), (2, 1)], [(2, ["a"], 1)], FormatError),
    ],
)
def test_validation_errors(vertices, edges, exc):
    with pytest.raises(exc):
        validate_graph(vertices, edges)


def test_error_payload_shape():
    try:
        validate_graph([("a", 0)], [])
    except NonPositiveMeasure as exc:
        payload = exc.payload()
        assert payload["error"] == "non-positive-measure"
        assert payload["detail"] == {"vertex": "a"}
    else:
        pytest.fail("expected NonPositiveMeasure")


V12 = [(1, 1), (2, 1)]
ABC = [("a", 1), ("b", 1), ("c", 1)]


# the first fault in the records wins, with a pinned class and message: a
# parsed "1/1" or 1 admits neither True nor 1.0 later, a known endpoint skips
# only its label check, and a pair listed twice is named in label order
# however either listing orders it
@pytest.mark.parametrize(
    "vertices,edges,exc,message",
    [
        ([("a", "1/1"), ("b", True)], [], FormatError, "not a rational: True"),
        ([("a", "1/1"), ("b", 1.0)], [], FormatError, "not a rational: 1.0"),
        ([("a", 1), ("b", True)], [], FormatError, "not a rational: True"),
        ([("a", 1), ("b", 1.0)], [], FormatError, "not a rational: 1.0"),
        (ABC, [("a", "b", "1/1"), ("b", "c", True)], FormatError, "not a rational: True"),
        (ABC, [("a", "b", "1/1"), ("b", "c", 1.0)], FormatError, "not a rational: 1.0"),
        (ABC, [("a", "b", 1), ("b", "c", True)], FormatError, "not a rational: True"),
        (V12, [(2, True, 1)], FormatError, "vertex label must be a string or an integer: True"),
        (V12, [(True, 2, 1)], FormatError, "vertex label must be a string or an integer: True"),
        (V12, [(2, 1.0, 1)], FormatError, "vertex label must be a string or an integer: 1.0"),
        (V12, [(2, -1, 1)], FormatError, "integer vertex labels must be nonnegative: -1"),
        (V12, [(2, ["a"], 1)], FormatError, "vertex label must be a string or an integer: ['a']"),
        (V12, [(["a"], 2, 1)], FormatError, "vertex label must be a string or an integer: ['a']"),
        # both labels are checked before either is looked up
        (V12, [(3, ["a"], 1)], FormatError, "vertex label must be a string or an integer: ['a']"),
        (V12, [(3, True, 1)], FormatError, "vertex label must be a string or an integer: True"),
        (V12, [(1, 2, 1), (2, 3, 1)], UnknownVertex, "edge endpoint not a vertex: 3"),
        (V12, [(1, 3, 1)], UnknownVertex, "edge endpoint not a vertex: 3"),
        (V12, [(1, "1", 1)], UnknownVertex, "edge endpoint not a vertex: '1'"),
        (V12, [(2, 2, "1/0")], SelfLoop, "self-loop at 2"),
        (V12, [(2, 1, "-1/2")], NonPositiveEdgeWeight, "weight of (2, 1) must be nonnegative, got -1/2"),
        (
            [(9, 1), ("10", 1)],
            [(9, "10", "1/2"), ("10", 9, "1/3")],
            AsymmetricDuplicateEdge,
            "pair (9, '10') listed twice with weights 1/2 and 1/3",
        ),
        (
            [("b", 1), ("a", 1)],
            [("a", "b", "1/1"), ("b", "a", 2)],
            AsymmetricDuplicateEdge,
            "pair ('a', 'b') listed twice with weights 1 and 2",
        ),
        (
            [(9, 1), ("10", 1)],
            [("10", 9, 1), (9, "10", "1/1"), ("10", 9, Fraction(2))],
            AsymmetricDuplicateEdge,
            "pair (9, '10') listed twice with weights 1 and 2",
        ),
    ],
)
def test_validation_error_precedence(vertices, edges, exc, message):
    with pytest.raises(CurvegraphError) as info:
        validate_graph(vertices, edges)
    assert type(info.value) is exc
    assert str(info.value) == message


HUGE = 10**5000  # past the interpreter's default int -> str digit limit


# a value past the digit limit cannot be written out: a label that holds one
# is a FormatError, and a message that names one names its type instead
@pytest.mark.parametrize(
    "vertices,edges,exc,message",
    [
        ([(HUGE, 1)], [], FormatError, "integer vertex label too long: 16610 bits"),
        ([(-HUGE, 1)], [], FormatError, "integer vertex label too long: 16610 bits"),
        ([(1, 1)], [(1, HUGE, 1)], FormatError, "integer vertex label too long: 16610 bits"),
        ([(1, 1)], [(HUGE, 1, 1)], FormatError, "integer vertex label too long: 16610 bits"),
        (
            [([HUGE], 1)],
            [],
            FormatError,
            "vertex label must be a string or an integer: <list too long to show>",
        ),
        ([("a", [HUGE])], [], FormatError, "not a rational: <list too long to show>"),
        (
            [("a", -HUGE)],
            [],
            NonPositiveMeasure,
            "measure of 'a' must be positive, got <Fraction too long to show>",
        ),
        (
            ABC,
            [("a", "b", -HUGE)],
            NonPositiveEdgeWeight,
            "weight of ('a', 'b') must be nonnegative, got <Fraction too long to show>",
        ),
        (
            ABC,
            [("b", "a", HUGE), ("a", "b", 1)],
            AsymmetricDuplicateEdge,
            "pair ('a', 'b') listed twice with weights <Fraction too long to show> and 1",
        ),
        (
            ABC,
            [("a", "b", 1), ("b", "a", -HUGE - 1)],
            NonPositiveEdgeWeight,
            "weight of ('b', 'a') must be nonnegative, got <Fraction too long to show>",
        ),
        (
            ABC,
            [("a", "b", 1), ("b", "a", Fraction(1, HUGE))],
            AsymmetricDuplicateEdge,
            "pair ('a', 'b') listed twice with weights 1 and <Fraction too long to show>",
        ),
    ],
)
def test_numbers_past_the_digit_limit_raise_domain_errors(vertices, edges, exc, message):
    with pytest.raises(CurvegraphError) as info:
        validate_graph(vertices, edges)
    assert type(info.value) is exc
    assert str(info.value) == message
    info.value.payload()  # the detail fields are written out too


def test_each_distinct_rational_string_is_parsed_once(monkeypatch):
    # a root and 40 layers of 5 vertices, each joined to the vertex below it
    # and to the next in its layer, every edge listed again reversed: 201
    # vertex and 720 edge records spell 4 rationals, two as measure and weight
    spellings = ("1/2", "2/3", "3/1", "5/7")
    vertices = [(v, spellings[v % 2]) for v in range(201)]
    edges = []
    for v in range(1, 201):
        edges.append((max(v - 5, 0), v, spellings[v % 4]))
        if v % 5:
            edges.append((v, v + 1, spellings[(v + 1) % 4]))
    edges += [(v, u, b) for u, v, b in edges]
    parsed = []

    def counted(raw):
        parsed.append(raw)
        return parse_rational(raw)

    monkeypatch.setattr(graphs_module, "parse_rational", counted)
    g = validate_graph(vertices, edges)
    records = [m for _v, m in vertices] + [b for _u, _v, b in edges]
    assert sorted(parsed) == sorted(set(records)) == sorted(spellings)
    # equal strings share one Fraction
    assert {id(m) for m in g.measure.values()} == {id(g.measure[0]), id(g.measure[1])}


@st.composite
def shuffled_records(draw):
    """Records of one connected graph in label order, and the same graph's
    records shuffled: each edge in either direction, some repeated reversed
    with the same weight spelt another way, and zero-weight extras."""
    labels = draw(
        st.lists(
            st.sampled_from([0, 1, "01", "2", 9, "10", 11, "a", "b", "a1"]),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    n = len(labels)
    measure = {v: draw(rationals()) for v in labels}
    weight = {}
    for i in range(1, n):
        weight[draw(st.integers(0, i - 1)), i] = draw(rationals())
    pairs = [(i, j) for j in range(n) for i in range(j)]
    if pairs:
        for pair in draw(st.lists(st.sampled_from(pairs), max_size=4)):
            weight.setdefault(pair, draw(rationals()))
    zeros = [p for p in pairs if p not in weight]
    zeros = draw(st.lists(st.sampled_from(zeros), max_size=4)) if zeros else []

    def spelt(q):
        return draw(st.sampled_from([q, f"{q.numerator}/{q.denominator}", f" {q}"]))

    canonical = []
    for (i, j), b in weight.items():
        u, v = sorted((labels[i], labels[j]), key=label_key)
        canonical.append((u, v, b))
    canonical.sort(key=lambda e: (label_key(e[0]), label_key(e[1])))
    ordered = ([(v, measure[v]) for v in sorted(labels, key=label_key)], canonical)
    edges = []
    for (i, j), b in weight.items():
        ends = [labels[i], labels[j]]
        if draw(st.booleans()):
            ends.reverse()
        edges.append((*ends, spelt(b)))
        if draw(st.booleans()):
            edges.append((*reversed(ends), spelt(b)))
    for i, j in zeros:
        edges.append((labels[i], labels[j], draw(st.sampled_from([0, "0", "0/5", Fraction(0)]))))
    vertices = [(v, spelt(measure[v])) for v in labels]
    return ordered, (draw(st.permutations(vertices)), draw(st.permutations(edges)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(shuffled_records())
def test_record_order_and_repeats_do_not_change_the_graph(records):
    ordered, shuffled = records
    want = validate_graph(*ordered)
    g = validate_graph(*shuffled)
    assert g == want
    assert list(g.vertices) == sorted(g.vertices, key=label_key)
    for x in g.vertices:
        assert list(g.adjacency[x]) == sorted(g.adjacency[x], key=label_key)
        assert list(g.adjacency[x].items()) == list(want.adjacency[x].items())
    assert graph_to_json(g) == graph_to_json(want)


def _ladder(n):
    """Records of a ladder on 0..2n-1 in label order: rails 0-1-..-(n-1)
    and n-..-(2n-1), and a rung from each i to n + i."""
    vertices = [(v, Fraction(v % 3 + 1, 2)) for v in range(2 * n)]
    edges = [(v, v + 1, Fraction(v % 5 + 1, 3)) for v in range(2 * n - 1) if v != n - 1]
    edges += [(i, n + i, 1) for i in range(n)]
    edges.sort()
    return vertices, edges


def test_an_edge_listed_late_repairs_only_its_two_neighbour_maps(monkeypatch):
    # every record in label order but the rail edge 2-3, listed last:
    # vertex 2 has had 8 and vertex 3 has had 9 by then, so their two maps
    # are sorted again, and no other one; the text is the canonical one
    vertices, edges = _ladder(6)
    want = graph_to_json(validate_graph(vertices, edges))
    late = next(i for i, e in enumerate(edges) if e[:2] == (2, 3))
    edges.append(edges.pop(late))
    resorted = []

    def counted(iterable, **kwargs):
        items = sorted(iterable, **kwargs)
        resorted.append(items)
        return items

    monkeypatch.setattr(graphs_module, "sorted", counted, raising=False)
    g = validate_graph(vertices, edges)
    # the first sort is the vertices'
    assert sorted(resorted[1:]) == [[1, 3, 8], [2, 4, 9]]
    assert graph_to_json(g) == want


# a pair listed with a zero weight and then with a nonzero one is listed
# twice with different weights, whichever way round and however the zero is
# spelt, and named in label order with its first weight first
@pytest.mark.parametrize("zero", [0, "0", "0/4", Fraction(0)], ids=["int", "str", "0/4", "Fraction"])
@pytest.mark.parametrize(
    "first,then",
    [(("b", "a"), ("a", "b")), (("a", "b"), ("b", "a")), (("a", "b"), ("a", "b"))],
    ids=["reversed-then-forward", "forward-then-reversed", "same-way"],
)
def test_a_zero_weight_then_a_nonzero_one_is_an_asymmetric_pair(zero, first, then):
    edges = [("b", "c", 1), (*first, zero), ("c", "a", zero), (*then, "1/2")]
    with pytest.raises(CurvegraphError) as info:
        validate_graph(ABC, edges)
    assert type(info.value) is AsymmetricDuplicateEdge
    assert str(info.value) == "pair ('a', 'b') listed twice with weights 0 and 1/2"
    assert info.value.payload()["detail"] == {"u": "a", "v": "b"}
    # and the other way round, the nonzero weight named first
    with pytest.raises(AsymmetricDuplicateEdge, match=r"weights 1/2 and 0$"):
        validate_graph(ABC, [(*then, "1/2"), (*first, zero)])
    # a zero repeated is no fault, and the pair is dropped
    g = validate_graph(ABC, [(*first, zero), (*then, zero), ("a", "c", 1), ("b", "c", 1)])
    assert "b" not in g.adjacency["a"]


def test_neighbour_maps_are_keyed_by_the_vertex_labels():
    # an edge record may spell an endpoint as an equal str subclass, or as
    # another int object of the same value, as JSON parsing makes one per
    # occurrence: the maps hold the vertex records' own labels all the same
    class Label(str):
        pass

    big = 10**30
    g = validate_graph(
        [("a", 1), ("b", 1), (big, 1)], [(Label("a"), Label("b"), 1), (int(str(big)), "b", 1)]
    )
    labels = {id(v) for v in g.vertices}
    assert all(id(x) in labels for row in g.adjacency.values() for x in row)


@pytest.mark.parametrize(
    "labels",
    [
        [10, 2, 0, 33, 7, 10**20, 100],
        [11, "07", 7, "10", 2, "a", 100, "9"],
    ],
    ids=["ints", "ints-and-numeric-strings"],
)
def test_labels_sort_as_label_key_sorts_them(labels):
    # a path in the order given: every vertex and every neighbour map is in
    # label_key order, int labels numerically, "07" before 7
    g = validate_graph(
        [(v, 1) for v in labels], [(u, v, 1) for u, v in zip(labels, labels[1:])]
    )
    assert list(g.vertices) == sorted(labels, key=label_key)
    for x in g.vertices:
        assert list(g.adjacency[x]) == sorted(g.adjacency[x], key=label_key)
    assert graph_to_json(g) == _dumps_oracle(g)


# --- distances and spheres ---


def test_figure1_distances(figure1):
    assert distance(figure1, "x", "x") == 0
    assert distance(figure1, "x", "w") == 1
    assert distance(figure1, "x", "x'") == 2
    assert distance(figure1, "w", "z") == 3


def test_distance_unknown_vertex(figure1):
    with pytest.raises(UnknownVertex):
        distance(figure1, "x", "nope")


def test_chain_distance_is_index():
    g = bdc_as_graph(make_unweighted_chain(6))
    assert all(distance(g, 0, r) == r for r in range(7))


def test_figure1_decomposition(figure1_decomp):
    assert figure1_decomp.spheres == (("w",), ("x", "x'"), ("y", "y'"), ("z", "z'"))
    assert figure1_decomp.horizon == 3
    assert figure1_decomp.radius_of("y'") == 2
    with pytest.raises(HorizonExceeded):
        figure1_decomp.sphere(4)


def test_single_vertex_decomposition():
    g = validate_graph([("a", 1)], [])
    d = rooted_decomposition(g, "a")
    assert d.spheres == (("a",),)
    assert d.horizon == 0


@settings(derandomize=True, deadline=None)
@given(graphs_with_root())
def test_distance_matches_bfs_oracle(gr):
    g, root = gr
    full = bfs_oracle(g, root)
    assert distance_map(g, root) == full
    for radius in range(max(full.values()) + 2):
        within = {v: k for v, k in full.items() if k <= radius}
        assert distance_map(g, root, radius) == within
    for target in g.vertices:
        # a search that stops at the target has already found every nearer vertex
        found = distance_map(g, root, target=target)
        assert found.items() <= full.items()
        assert {v for v, k in full.items() if k < full[target]} | {target} <= set(found)


@settings(derandomize=True, deadline=None)
@given(graphs_with_root())
def test_distance_map_with_a_target_ends_with_its_level(gr):
    # the pair solver reads d(x, y) and every distance within it from one
    # search: the map holds exactly the vertices no farther than the target
    g, root = gr
    full = bfs_oracle(g, root)
    for target in g.vertices:
        within = {v: k for v, k in full.items() if k <= full[target]}
        assert distance_map(g, root, target=target) == within


@settings(derandomize=True, deadline=None)
@given(graphs_with_root(max_vertices=6))
def test_distance_triangle_inequality(gr):
    g, _ = gr
    maps = {v: distance_map(g, v) for v in g.vertices}
    for x in g.vertices:
        for y in g.vertices:
            for z in g.vertices:
                assert maps[x][z] <= maps[x][y] + maps[y][z]


@settings(derandomize=True, deadline=None)
@given(graphs_with_root())
def test_spheres_partition_and_measures_add_up(gr):
    g, root = gr
    d = rooted_decomposition(g, root)
    seen = [v for shell in d.spheres for v in shell]
    assert sorted(seen, key=str) == sorted(g.vertices, key=str)
    assert d.spheres[0] == (root,)
    total = sum(sphere_measure(d, r) for r in range(d.horizon + 1))
    assert total == sum(g.measure.values(), Fraction(0))
    # every non-root vertex has an inward neighbor
    for r in range(1, d.horizon + 1):
        for v in d.sphere(r):
            assert any(d.dist[u] == r - 1 for u in g.adjacency[v])


# --- degree and Laplacian ---


def test_laplacian_of_constant_is_zero(figure1):
    f = {v: Fraction(7, 3) for v in figure1.vertices}
    assert all(laplacian(figure1, f, v) == 0 for v in figure1.vertices)


def test_laplacian_rejects_partial_function(figure1):
    with pytest.raises(PartialFunction):
        laplacian(figure1, {"w": 0}, "w")
    # defined everywhere but at one neighbour of w
    missed = next(iter(figure1.adjacency["w"]))
    with pytest.raises(PartialFunction):
        laplacian(figure1, {v: 0 for v in figure1.vertices if v != missed}, "w")


def test_laplacian_of_distance_on_chain():
    g = bdc_as_graph(make_unweighted_chain(5))
    d = rooted_decomposition(g, 0)
    assert laplacian_of_distance(d, 0) == -1
    assert all(laplacian_of_distance(d, r) == 0 for r in range(1, 5))
    with pytest.raises(HorizonExceeded):
        laplacian_of_distance(d, 5)


def test_figure1_minimizing_function_value(figure1):
    # the optimizing function for the pair (x, y), extended to the support
    f = {"w": -1, "y'": -1, "x'": -1, "x": 0, "z'": 0, "y": 1, "z": 2}
    assert laplacian(figure1, f, "y") - laplacian(figure1, f, "x") == -1


def test_figure1_laplacian_of_distance_at_y(figure1_decomp):
    assert laplacian_of_distance(figure1_decomp, "y") == 0


@settings(derandomize=True, deadline=None)
@given(graphs_with_root())
def test_laplacian_distance_identity(gr):
    g, root = gr
    d = rooted_decomposition(g, root)
    for r in range(d.horizon):
        for x in d.sphere(r):
            k_minus, k_plus = inner_curvature(d, x), outer_curvature(d, x)
            assert laplacian_of_distance(d, x) == k_minus - k_plus


@settings(derandomize=True, deadline=None, max_examples=50)
@given(graphs_with_root(max_vertices=6))
def test_greens_identity(gr):
    g, _ = gr
    f = {v: Fraction(i + 1, 3) for i, v in enumerate(g.vertices)}
    h = {v: Fraction((i * 7) % 5 - 2, 2) for i, v in enumerate(g.vertices)}
    lhs = sum(g.measure[x] * f[x] * laplacian(g, h, x) for x in g.vertices)
    rhs = sum(g.measure[x] * h[x] * laplacian(g, f, x) for x in g.vertices)
    assert lhs == rhs
    # the Laplacian at x reads f at x and its neighbours only
    for x in g.vertices:
        local = {v: f[v] for v in (x, *g.adjacency[x])}
        assert laplacian(g, local, x) == laplacian(g, f, x)


def test_sphere_boundary_examples(figure1_decomp):
    assert sphere_boundary(figure1_decomp, 0) == 2
    assert sphere_boundary(figure1_decomp, 1) == 4
    assert sphere_boundary(figure1_decomp, 2) == 4
    with pytest.raises(HorizonExceeded):
        sphere_boundary(figure1_decomp, 3)


# --- JSON ---


def test_graph_json_round_trip(figure1):
    text = graph_to_json(figure1)
    back = graph_from_json_dict(loads_json(text))
    assert back == figure1
    assert graph_to_json(back) == text


@st.composite
def mixed_label_records(draw):
    """Vertex and tree-edge records whose labels mix ints and digit strings."""
    label = st.one_of(
        st.integers(min_value=0, max_value=12),
        st.text(alphabet="01+a ", min_size=1, max_size=3),
    )
    labels = draw(st.lists(label, min_size=1, max_size=6, unique=True))
    vertices = [(v, draw(rationals())) for v in labels]
    edges = [
        (labels[draw(st.integers(0, i - 1))], labels[i], draw(rationals()))
        for i in range(1, len(labels))
    ]
    return vertices, edges


@settings(derandomize=True, deadline=None, max_examples=200)
@given(mixed_label_records())
def test_graph_json_round_trip_property(records):
    vertices, edges = records
    names = [str(v) for v, _m in vertices]
    if len(set(names)) < len(names):
        # 1 and "1" would both be written as "id": "1"
        with pytest.raises(DuplicateVertex):
            validate_graph(vertices, edges)
        return
    text = graph_to_json(validate_graph(vertices, edges))
    assert graph_to_json(graph_from_json_dict(loads_json(text))) == text


@st.composite
def escaped_label_graphs(draw):
    """Connected graphs, the empty one too, whose labels mix ints with strings
    that JSON escapes."""
    label = st.integers(min_value=0, max_value=30) | st.text(
        alphabet='a1"\\\n\x00\u00e9\U0001f600', min_size=1, max_size=4
    )
    labels = draw(st.lists(label, max_size=7, unique_by=str))
    vertices = [(v, draw(rationals())) for v in labels]
    edges = [
        (labels[draw(st.integers(0, i - 1))], labels[i], draw(rationals()))
        for i in range(1, len(labels))
    ]
    return validate_graph(vertices, edges)


def _dumps_oracle(g):
    return json.dumps(graph_to_json_dict(g), indent=2) + "\n"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(escaped_label_graphs())
@example(equal_values_as_distinct_objects())
@example(mixed_spellings())
def test_graph_to_json_matches_json_dumps(g):
    # the renderer formats each rational object once: equal values that are
    # distinct objects, or spelled differently in the records, print the same
    assert graph_to_json(g) == _dumps_oracle(g)


def _pair_record_oracle(result):
    return {
        "x": str(result.x),
        "y": str(result.y),
        "distance": result.distance,
        "value": format_rational(result.value),
        "witness": {str(v): result.witness[v] for v in result.support},
        "support": [str(v) for v in result.support],
    }


@settings(derandomize=True, deadline=None, max_examples=100)
@given(escaped_label_graphs())
def test_pair_records_match_json_dumps(g):
    # `ollivier --pair` and `--all-adjacent` write from templates; json.dumps
    # of the same records is the oracle, labels with quotes, backslashes,
    # control and non-ASCII characters included
    results = [ollivier_pair(g, u, v) for u, v, _ in g.edges]
    for result in results:
        assert cli._ollivier_json(result) == json.dumps(
            _pair_record_oracle(result), indent=2
        )
    assert cli._json_records([cli._ollivier_json(r) for r in results]) == json.dumps(
        [_pair_record_oracle(r) for r in results], indent=2
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
# plausible labels and rationals, so that some documents get past the schema
labels = st.sampled_from([0, 1, "1", "a", "b"]) | json_values
numbers = st.sampled_from([1, "1/2", "3", 0, "-1"]) | st.integers(1, 9) | json_values


@st.composite
def graph_documents(draw):
    vertex = st.fixed_dictionaries({"id": labels, "m": numbers})
    edge = st.fixed_dictionaries({"u": labels, "v": labels, "b": numbers})
    return {
        "vertices": draw(st.lists(vertex | json_values, max_size=4)),
        "edges": draw(st.lists(edge | json_values, max_size=4)),
    }


@st.composite
def chain_documents(draw):
    m = draw(st.lists(numbers, max_size=4))
    fits = max(len(m) - 1, 0)
    b = draw(st.lists(numbers, min_size=fits, max_size=fits) | st.lists(numbers, max_size=3))
    return {"m": m, "b": b}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graph_documents(), chain_documents())
def test_json_shaped_payloads_load_or_raise_domain_errors(graph_doc, chain_doc):
    for load, doc in ((graph_from_json_dict, graph_doc), (chain_from_json_dict, chain_doc)):
        try:
            load(doc)
        except CurvegraphError:
            pass


BATCH = graphs_module._RENDER_BATCH


# graph_to_json joins its records in batches: a path of n vertices has n - 1
# edges, so these cut each array at no record, at exactly one batch and at
# one record past a batch
@pytest.mark.parametrize(
    "n", [1, BATCH, BATCH + 1, BATCH + 2],
    ids=["no edges", "one batch of vertices", "one batch of edges", "one edge past a batch"],
)
def test_graph_to_json_matches_json_dumps_at_batch_boundaries(n):
    g = validate_graph(
        [(v, Fraction(v % 5 + 1, 3)) for v in range(n)],
        [(v - 1, v, Fraction(v % 7 + 1, 2)) for v in range(1, n)],
    )
    assert graph_to_json(g) == _dumps_oracle(g)


def test_edges_read_the_cached_rank():
    g = make_figure1()
    edges = g.edges
    rank = vars(g)["_rank"]
    assert g.edges == edges and vars(g)["_rank"] is rank
    assert edges == tuple(
        (u, v, g.adjacency[u][v])
        for u in g.vertices for v in g.vertices
        if v in g.adjacency[u] and rank[u] < rank[v]
    )


def _layered_document(rng, layers=100, width=11, extra=4):
    """A root and `layers` layers of `width` vertices, each vertex joined to
    one of the layer below, plus `extra` more edges per layer, half of them
    inside the layer, and no pair twice: 1,101 vertices and 1,500 edges at
    the defaults."""
    rational = lambda: f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"  # noqa: E731
    layer = lambda i: range(1 + (i - 1) * width, 1 + i * width) if i else [0]  # noqa: E731
    vertices = [{"id": v, "m": rational()} for v in range(1 + layers * width)]
    weights = {}
    for i in range(1, layers + 1):
        for v in layer(i):
            weights[rng.choice(layer(i - 1)), v] = rational()
        added = 0
        while added < extra:
            if added % 2 or i == 1:  # the root's layer-1 pairs are all taken
                u, v = rng.sample(layer(i), 2)
            else:
                u, v = rng.choice(layer(i - 1)), rng.choice(layer(i))
            if (u, v) not in weights and (v, u) not in weights:
                weights[u, v] = rational()
                added += 1
    return {
        "vertices": vertices,
        "edges": [{"u": u, "v": v, "b": b} for (u, v), b in weights.items()],
    }


def _traced_load(text):
    """The graph and the document loaded from text, the document's traced
    size, and what the load adds above it: at its peak, and at its end,
    which is the graph it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        doc = json.loads(text)
        size = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        g = graph_from_json_dict(doc)
        graph, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return g, doc, size, peak, graph


def test_loading_holds_less_than_the_document_beside_it():
    # the document is alive for the whole load, so what the load adds at its
    # peak (the graph it returns and any scaffolding) is measured above it,
    # and stays below the document's own size: no list of records, edge map
    # of tuples or copy of every label is held beside it
    g, doc, size, peak, _ = _traced_load(json.dumps(_layered_document(random.Random(3))))
    assert (len(g.vertices), len(doc["edges"])) == (1101, 1500)
    assert peak < size, f"load peak {peak} bytes above a document of {size}"


# what the load holds at its peak beside the graph it returns: the rank
# each neighbour map received last, the rational cache and the search's
# levels. On Python 3.11 it reads 20,129-20,897 bytes on seeds 3-6, beside a
# document of ~710,000; an edge map keyed by rank pairs made it ~108,000
LOAD_SCAFFOLD_BOUND = 48 * 1024


@pytest.mark.parametrize("seed", [3, 4])
def test_loading_holds_little_beside_the_graph_it_returns(seed):
    text = json.dumps(_layered_document(random.Random(seed)))
    graph_from_json_dict(json.loads(text))  # the first-call allocations
    g, _, _, peak, graph = _traced_load(text)
    assert len(g.vertices) == 1101
    beside = peak - graph
    assert beside < LOAD_SCAFFOLD_BOUND, f"load holds {beside} bytes beside a graph of {graph}"


# every entry's shape is checked, in both arrays, before any record is
@pytest.mark.parametrize(
    "doc,message",
    [
        ({"vertices": [{"id": "a", "m": "0"}], "edges": [7]}, "bad edge entry: 7"),
        (
            {"vertices": [{"id": "a", "m": 1}, {"id": "a", "m": 1}], "edges": [{"u": "a"}]},
            "bad edge entry: {'u': 'a'}",
        ),
        (
            {"vertices": [{"id": "a", "m": "0"}, {"id": "b"}], "edges": [7]},
            "bad vertex entry: {'id': 'b'}",
        ),
        (
            {"vertices": [{"id": "a", "m": 1}], "edges": [{"u": "a", "v": "a", "b": [HUGE]}, 7]},
            "bad edge entry: 7",
        ),
        ({"vertices": [[HUGE]], "edges": []}, "bad vertex entry: <list too long to show>"),
    ],
)
def test_entry_shapes_are_checked_before_any_record(doc, message):
    with pytest.raises(FormatError) as info:
        graph_from_json_dict(doc)
    assert str(info.value) == message


def test_loading_leaves_the_document_as_it_was():
    doc = _layered_document(random.Random(4), layers=6)
    kept = copy.deepcopy(doc)
    g = graph_from_json_dict(doc)
    assert doc == kept
    assert graph_from_json_dict(kept) == g


def test_graph_json_is_exact(figure1):
    text = graph_to_json(figure1)
    assert '"m": "3/1"' in text
    assert "." not in text.replace('"', "")


def test_loads_json_reports_position():
    with pytest.raises(FormatError) as info:
        loads_json("{\n  bad\n}", "demo.json")
    assert info.value.detail["line"] == 2
    assert info.value.detail["source"] == "demo.json"


def test_graph_from_json_schema_errors():
    with pytest.raises(FormatError):
        graph_from_json_dict(loads_json("[]"))
    with pytest.raises(FormatError):
        graph_from_json_dict(loads_json('{"vertices": [], "edges": {}}'))
    with pytest.raises(FormatError):
        graph_from_json_dict(loads_json('{"vertices": [{"id": "a"}], "edges": []}'))


def test_make_figure1_canonical_edges():
    g = make_figure1()
    assert ("w", "x", Fraction(1)) in g.edges
    assert ("x'", "y'", Fraction(2)) in g.edges
