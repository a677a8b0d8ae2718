"""Inner/outer, averaged, Ollivier pair, and sphere curvatures."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from curvegraph import (
    BadRadiusOrder,
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
    sphere_measure,
    validate_graph,
    verify_witness,
)
from curvegraph.chains import associated_bdc, bdc_as_graph

from conftest import chains, graphs_with_root


# --- inner / outer ---


def test_figure1_inner_outer(figure1, figure1_decomp):
    assert outer_curvature(figure1, figure1_decomp, "x") == 2
    assert inner_curvature(figure1, figure1_decomp, "y'") == 1
    assert inner_curvature(figure1, figure1_decomp, "w") == 0
    assert inner_outer(figure1, figure1_decomp, "y") == (1, 1)


def test_outer_curvature_outermost_raises(figure1, figure1_decomp):
    with pytest.raises(HorizonExceeded):
        outer_curvature(figure1, figure1_decomp, "z")


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
    assert inner_outer(g, d, "a") == (1, 1)
    assert inner_outer(g, d, "b") == (1, 0)


# --- averages and the profile ---


def test_figure1_average_inner_at_two(figure1, figure1_decomp):
    assert average_curvature(figure1, figure1_decomp, 2, "inner") == 1


def test_chain_averages_are_one():
    g = bdc_as_graph(make_unweighted_chain(5))
    d = rooted_decomposition(g, 0)
    for r in range(1, 5):
        assert average_curvature(g, d, r, "inner") == 1
        assert average_curvature(g, d, r, "outer") == 1


def test_average_curvature_range_checks(figure1, figure1_decomp):
    with pytest.raises(HorizonExceeded):
        average_curvature(figure1, figure1_decomp, 3, "outer")
    with pytest.raises(ValueError):
        average_curvature(figure1, figure1_decomp, 1, "sideways")


def test_figure1_profile(figure1, figure1_decomp):
    prof = curvature_profile(figure1, figure1_decomp)
    assert prof.valid_radius == 2
    assert prof.per_vertex["y'"] == (1, 1)
    assert prof.per_vertex["z"] == (1, None)
    assert prof.per_radius[1].sphere_volume == 2
    assert prof.per_radius[1].avg_outer == 2
    assert prof.per_radius[3].avg_outer is None
    assert prof.gap(1) == 1
    with pytest.raises(HorizonExceeded):
        prof.gap(3)


@settings(derandomize=True, deadline=None)
@given(graphs_with_root())
def test_profile_boundary_identity(gr):
    g, root = gr
    d = rooted_decomposition(g, root)
    prof = curvature_profile(g, d)
    assert prof.per_vertex[root][0] == 0  # k_minus vanishes at the root
    for r in range(d.horizon):
        row = prof.per_radius[r]
        assert row.avg_outer * row.sphere_volume == row.boundary
    # every row against the per-vertex averages and sums, from scratch
    for r, row in enumerate(prof.per_radius):
        outer = r < d.horizon
        assert row.radius == r
        assert row.avg_inner == average_curvature(g, d, r, "inner")
        assert row.avg_outer == (average_curvature(g, d, r, "outer") if outer else None)
        assert row.sphere_volume == sphere_measure(g, d, r)
        assert row.boundary == (sphere_boundary(g, d, r) if outer else None)


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
        assert inner_curvature(scaled, d2, x) == inner_curvature(
            figure1, figure1_decomp, x
        )
    for r in range(3):
        assert average_curvature(scaled, d2, r, "outer") == average_curvature(
            figure1, figure1_decomp, r, "outer"
        )


@settings(derandomize=True, deadline=None, max_examples=60)
@given(graphs_with_root(max_vertices=7))
def test_solver_matches_bruteforce_on_small_supports(gr):
    g, _ = gr
    for u, v, _w in g.edges:
        support = {u, v}
        support.update(x for x, _ in g.neighbors(u))
        support.update(x for x, _ in g.neighbors(v))
        if len(support) > 10:
            continue
        solved = ollivier_pair(g, u, v)
        brute = ollivier_pair_bruteforce(g, u, v)
        assert solved.value == brute.value
        # both search rules pick the lexicographically smallest optimum
        assert solved.witness == brute.witness
        verify_witness(g, solved)
        verify_witness(g, brute)


# --- sphere curvature ---


def test_chain_sphere_curvatures():
    g = bdc_as_graph(make_unweighted_chain(5))
    d = rooted_decomposition(g, 0)
    assert sphere_curvature(g, d, 1) == 1
    assert sphere_curvature(g, d, 2) == 0


def test_figure1_sphere_curvatures(figure1, figure1_decomp):
    assert sphere_curvature(figure1, figure1_decomp, 1) == 1
    assert sphere_curvature(figure1, figure1_decomp, 2) == -1
    assert sphere_curvature(figure1, figure1_decomp, 3) == 1
    with pytest.raises(HorizonExceeded):
        sphere_curvature(figure1, figure1_decomp, 4)
    with pytest.raises(HorizonExceeded):
        sphere_curvature(figure1, figure1_decomp, 0)


# --- birth-death closed form ---


def test_closed_form_examples():
    uc = make_unweighted_chain(6)
    assert bdc_ollivier_closed_form(uc, 0, 1) == 1
    assert bdc_ollivier_closed_form(uc, 1, 3) == 0
    fig_chain = associated_bdc(make_figure1(), "w")
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
