"""Growth relations, volume comparisons, and the theorem reports."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvegraph import (
    BirthDeathChain,
    HorizonMismatch,
    HypothesisFailed,
    asymptotic_constant,
    associated_bdc,
    bdc_as_graph,
    compcurv_check,
    inner_curvature,
    laplacian_distance_compare,
    make_example_gprime,
    make_mirror_model,
    make_ollivier_matching_chain,
    make_unweighted_chain,
    model_sphere_equality_report,
    outer_curvature,
    partial_sum_equiv_check,
    rooted_decomposition,
    sc_series_partial_sums,
    stronger_average_growth,
    stronger_curvature_growth,
    stronger_outside_finite,
    validate_graph,
    volume_comparison,
)
from curvegraph.generators import (
    chain_pair_matched_start,
    chain_pair_outside_hypothesis,
    chain_pair_with_average_hypothesis,
    random_chain,
)

from conftest import graphs_with_root


# --- stronger curvature growth (per vertex) ---


def test_model_dominates_its_own_chain(figure1):
    rel = stronger_curvature_growth(figure1, "w", associated_bdc(figure1, "w"))
    assert rel.holds
    assert rel.first_violation is None
    assert rel.common_range == (0, 3)


def test_chain_vs_gprime_fails_inner_at_one():
    g = bdc_as_graph(make_unweighted_chain(8))
    rel = stronger_curvature_growth(g, 0, make_example_gprime(8))
    assert not rel.holds
    r, side, detail = rel.first_violation
    assert (r, side) == (1, "inner")
    assert "1/2" in detail


def test_mirror_dominates_source_chain():
    src = make_unweighted_chain(6)
    rel = stronger_curvature_growth(make_mirror_model(src), "0", src)
    assert rel.holds


def test_root_measure_checked_first():
    g = bdc_as_graph(make_unweighted_chain(4))
    chain = BirthDeathChain(measures=(2, 1, 1), weights=(1, 1))
    rel = stronger_curvature_growth(g, 0, chain)
    assert rel.first_violation[0] == 0
    assert rel.first_violation[1] == "measure"


def test_no_common_radii_raises():
    single = validate_graph([("a", 1)], [])
    with pytest.raises(HorizonMismatch):
        stronger_curvature_growth(single, "a", make_unweighted_chain(3))


# --- stronger average growth ---


def test_average_growth_reflexive(figure1):
    c = associated_bdc(figure1, "w")
    rel = stronger_average_growth(c, c)
    assert rel.holds


def test_chain_vs_mirror_fails_only_at_root():
    src = make_unweighted_chain(8)
    mirror = associated_bdc(make_mirror_model(src), "0")
    rel = stronger_average_growth(src, mirror)
    assert not rel.holds
    r, side, _detail = rel.first_violation
    assert (r, side) == (0, "outer")
    # from radius 1 on the averaged inequalities hold
    assert stronger_outside_finite(src, mirror, 1).holds


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_enforced_pairs_satisfy_average_growth(seed):
    rng = random.Random(seed)
    c1, c2 = chain_pair_with_average_hypothesis(rng)
    rel = stronger_average_growth(c1, c2)
    assert rel.holds


@settings(derandomize=True, deadline=None, max_examples=30)
@given(graphs_with_root(max_vertices=7))
def test_per_vertex_domination_implies_averaged(gr):
    # the weakest chain every vertex still dominates: sphere minima of
    # outer curvature, maxima of inner, fed through the chain recursion
    g, root = gr
    d = rooted_decomposition(g, root)
    assume(d.horizon >= 1)
    outer_min = []
    for r in range(d.horizon):
        low = min(outer_curvature(g, d, x) for x in d.sphere(r))
        assume(low > 0)
        outer_min.append(low)
    inner_max = [
        max(inner_curvature(g, d, x) for x in d.sphere(r))
        for r in range(1, d.horizon + 1)
    ]
    measures = [g.measure[root]]
    weights = []
    for r, k_plus in enumerate(outer_min):
        weights.append(k_plus * measures[r])
        measures.append(weights[r] / inner_max[r])
    weak = BirthDeathChain(measures=tuple(measures), weights=tuple(weights))
    assert stronger_curvature_growth(g, root, weak).holds
    assert stronger_average_growth(associated_bdc(g, root), weak).holds


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 10**6), dominating=st.booleans())
def test_per_vertex_and_averaged_scans_agree_on_paths(seed, dominating):
    # each sphere of a chain's path graph is one vertex, so the per-vertex
    # scan and the averaged scan see the same curvatures
    rng = random.Random(seed)
    if dominating:
        c1, c2 = chain_pair_with_average_hypothesis(rng)
    else:
        c1, c2 = random_chain(rng), random_chain(rng)
    per_vertex = stronger_curvature_growth(bdc_as_graph(c1), 0, c2)
    averaged = stronger_average_growth(c1, c2)
    assert per_vertex.holds == averaged.holds
    assert (per_vertex.first_violation or ())[:2] == (averaged.first_violation or ())[:2]
    assert per_vertex.common_range == averaged.common_range


def test_outer_side_checked_through_the_last_common_radius_but_one():
    # c1 falls short only on the outer side at r = common - 1
    c1 = BirthDeathChain(measures=(1, 1, 1), weights=(1, Fraction(1, 2)))
    c2 = make_unweighted_chain(2)
    averaged = stronger_average_growth(c1, c2)
    assert averaged.first_violation == (1, "outer", "averaged outer 1/2 < 1/1")
    per_vertex = stronger_curvature_growth(bdc_as_graph(c1), 0, c2)
    assert per_vertex.first_violation == (1, "outer", "vertex 1: k_plus 1/2 < 1/1")
    assert stronger_outside_finite(c1, c2, 1).first_violation == averaged.first_violation


# --- outside a finite set ---


def test_outside_finite_rejects_bad_threshold(figure1):
    c = associated_bdc(figure1, "w")
    with pytest.raises(ValueError):
        stronger_outside_finite(c, c, 0)
    with pytest.raises(HorizonMismatch):
        stronger_outside_finite(c, c, 9)


def test_chain_vs_gprime_fails_outside_too():
    rel = stronger_outside_finite(make_unweighted_chain(8), make_example_gprime(8), 1)
    assert not rel.holds
    assert rel.first_violation[:2] == (1, "inner")


def test_full_hypothesis_is_monotone_in_threshold():
    rng = random.Random("monotone")
    c1, c2 = chain_pair_with_average_hypothesis(rng)
    common = min(c1.horizon, c2.horizon)
    for threshold in range(1, common + 1):
        assert stronger_outside_finite(c1, c2, threshold).holds


def test_growth_relation_serialization():
    src = make_unweighted_chain(5)
    rel = stronger_average_growth(src, associated_bdc(make_mirror_model(src), "0"))
    text = rel.describe()
    assert text.startswith("stronger-average-curvature: fails at r = 0, outer side")
    payload = rel.to_json_dict()
    assert payload["holds"] is False
    assert payload["first_violation"]["r"] == 0
    assert payload["common_range"] == [0, 5]


# --- volume comparison ---


def test_volume_comparison_equality_case(figure1):
    c = associated_bdc(figure1, "w")
    report = volume_comparison(c, c)
    assert report.hypothesis_checked and report.conclusion_checked
    assert all(row.lhs == row.rhs for row in report.ledger)


def test_volume_comparison_gprime_reversal():
    report = volume_comparison(make_unweighted_chain(8), make_example_gprime(8))
    assert not report.hypothesis_checked
    assert not report.conclusion_checked
    assert report.ledger[0].ok  # r = 0: equal root measures
    assert all(not row.ok for row in report.ledger[1:])  # r + 1 > 1
    assert "hypothesis fails" in report.counterexample


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6))
def test_volume_comparison_property(seed):
    rng = random.Random(seed)
    c1, c2 = chain_pair_with_average_hypothesis(rng)
    report = volume_comparison(c1, c2)
    assert report.hypothesis_checked
    assert report.conclusion_checked


# --- asymptotic constant ---


def test_mirror_constant_is_two():
    src = make_unweighted_chain(8)
    constant, report = asymptotic_constant(
        src, associated_bdc(make_mirror_model(src), "0"), 1
    )
    assert constant == 2
    assert report.conclusion_checked
    assert all(row.lhs == row.rhs for row in report.ledger if row.r >= 1)


def test_constant_is_one_for_identical_graphs(figure1):
    c = associated_bdc(figure1, "w")
    constant, report = asymptotic_constant(c, c, 1)
    assert constant == 1
    assert report.conclusion_checked


def test_constant_requires_hypothesis():
    with pytest.raises(HypothesisFailed):
        asymptotic_constant(make_unweighted_chain(8), make_example_gprime(8), 1)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_constant_property_outside_pairs(seed):
    rng = random.Random(seed)
    c1, c2, threshold = chain_pair_outside_hypothesis(rng)
    constant, report = asymptotic_constant(c1, c2, threshold)
    assert constant > 0
    assert report.conclusion_checked


def test_constant_is_one_under_full_hypothesis():
    rng = random.Random("full-hypothesis")
    for _ in range(20):
        c1, c2 = chain_pair_with_average_hypothesis(rng)
        constant, _report = asymptotic_constant(c1, c2, 1)
        assert constant == 1


# --- Laplacian distance comparison ---


def test_gap_domination_chain_over_gprime():
    report = laplacian_distance_compare(
        bdc_as_graph(make_unweighted_chain(10)), 0, make_example_gprime(10)
    )
    assert report.status == "recorded"
    assert report.conclusion_checked
    root_row = report.ledger[0]
    assert (root_row.r, root_row.lhs, root_row.rhs) == (0, 1, 1)
    assert all(row.rhs < 0 for row in report.ledger[1:])


def test_gap_comparison_equality_case():
    c = make_unweighted_chain(6)
    report = laplacian_distance_compare(bdc_as_graph(c), 0, c)
    assert report.conclusion_checked
    assert all(row.lhs == row.rhs for row in report.ledger)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(graphs_with_root())
def test_gap_comparison_internal_identities(gr):
    g, root = gr
    assume(rooted_decomposition(g, root).horizon >= 1)
    # the identity checks inside raise if either formulation disagrees
    report = laplacian_distance_compare(g, root, associated_bdc(g, root))
    assert all(row.vertex is not None for row in report.ledger)


# --- partial sum equivalence ---


def test_partial_sum_equiv_reflexive():
    c = make_unweighted_chain(6)
    report = partial_sum_equiv_check(c, c)
    assert report.conclusion_checked
    assert all(row.lhs == 0 and row.rhs == 0 for row in report.ledger)


def test_partial_sum_equiv_chain_vs_gprime():
    uc = make_unweighted_chain(10)
    gp = make_example_gprime(10)
    report = partial_sum_equiv_check(uc, gp)
    assert report.conclusion_checked
    for row in report.ledger:
        assert row.lhs == gp.curvature_gap(row.r)  # telescoped difference
        assert row.ok
    sums, gaps = report.subreports
    assert sums.status == gaps.status == "recorded"
    assert all(row.ok for row in sums.ledger)  # uc sums stay below gprime's
    assert all(row.ok for row in gaps.ledger)


def test_partial_sum_equiv_matching_chain():
    uc = make_unweighted_chain(5)
    match = make_ollivier_matching_chain([1, "1/2", "1/4", "1/8", "1/16", "1/32"])
    report = partial_sum_equiv_check(uc, match)
    assert report.conclusion_checked
    sums = report.subreports[0]
    assert all(row.lhs == row.rhs for row in sums.ledger)  # identical sphere sums


def test_partial_sum_equiv_requires_matched_start():
    with pytest.raises(HypothesisFailed):
        partial_sum_equiv_check(
            make_unweighted_chain(4), BirthDeathChain(measures=(1, 1, 1), weights=(2, 1))
        )


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6))
def test_partial_sum_equiv_property(seed):
    rng = random.Random(seed)
    c1, c2 = chain_pair_matched_start(rng)
    report = partial_sum_equiv_check(c1, c2)
    assert report.conclusion_checked


# --- chain vs graph partial sums ---


def test_compcurv_on_figure1(figure1):
    report = compcurv_check(associated_bdc(figure1, "w"), figure1, "w")
    assert report.hypothesis_checked
    assert report.conclusion_checked
    rows = {row.r: (row.lhs, row.rhs) for row in report.ledger}
    assert rows == {1: (1, 1), 2: (2, 0)}
    part_two, assoc = report.subreports
    assert not part_two.hypothesis_checked  # sums are not dominated the other way
    assert all(row.ok for row in part_two.ledger)
    assert assoc.hypothesis_checked and assoc.conclusion_checked
    assert {row.r: (row.lhs, row.rhs) for row in assoc.ledger} == rows


def test_compcurv_reflexive_on_chains():
    c = make_unweighted_chain(6)
    report = compcurv_check(c, bdc_as_graph(c), 0)
    assert report.conclusion_checked
    assert all(row.lhs == row.rhs for row in report.ledger)


def test_compcurv_requires_matched_root_curvature():
    with pytest.raises(HypothesisFailed):
        compcurv_check(
            BirthDeathChain(measures=(1, 1, 1, 1), weights=(2, 1, 1)),
            bdc_as_graph(make_unweighted_chain(3)),
            0,
        )


@settings(derandomize=True, deadline=None, max_examples=25)
@given(graphs_with_root(max_vertices=7))
def test_compcurv_asserted_parts_hold(gr):
    g, root = gr
    assume(rooted_decomposition(g, root).horizon >= 2)
    report = compcurv_check(associated_bdc(g, root), g, root)
    for rep in (report,) + report.subreports:
        if rep.status == "asserted" and rep.hypothesis_checked:
            assert rep.conclusion_checked, rep.claim


# --- model sphere audit ---


def test_model_audit_figure1(figure1):
    report = model_sphere_equality_report(figure1, "w")
    assert report.status == "recorded"
    assert not report.conclusion_checked
    rows = {row.r: row for row in report.ledger}
    assert rows[1].lhs == rows[1].rhs == 1
    assert (rows[2].lhs, rows[2].rhs) == (-1, 1)
    assert "r = 2" in report.counterexample


def test_model_audit_chain_agrees():
    report = model_sphere_equality_report(bdc_as_graph(make_unweighted_chain(5)), 0)
    assert report.conclusion_checked


def test_model_audit_mirror_disagrees_at_root_sphere():
    # the mirror is a two-sided line: flat at the glue point, while the
    # folded chain doubles the outward weight there
    report = model_sphere_equality_report(
        make_mirror_model(make_unweighted_chain(5)), "0"
    )
    assert not report.conclusion_checked
    rows = {row.r: row for row in report.ledger}
    assert (rows[1].lhs, rows[1].rhs) == (0, 2)
    for r in range(2, 5):
        assert rows[r].lhs == rows[r].rhs == 0


def test_model_audit_rejects_non_models():
    g = validate_graph(
        [("o", 1), ("a", 1), ("b", 2)], [("o", "a", 1), ("o", "b", 1)]
    )
    with pytest.raises(HypothesisFailed):
        model_sphere_equality_report(g, "o")


# --- series diagnostic ---


def test_series_partial_sums_unweighted_chain():
    g = bdc_as_graph(make_unweighted_chain(6))
    sums = sc_series_partial_sums(g, 0, 4)
    assert sums == (1, 3, 6, 10, 15)


def test_series_partial_sums_gprime():
    g = bdc_as_graph(make_example_gprime(6))
    sums = sc_series_partial_sums(g, 0, 3)
    terms = [sums[0]] + [sums[i] - sums[i - 1] for i in range(1, len(sums))]
    assert terms == [
        Fraction((r + 1) * (r + 2), 2) * (r + 1) ** 2 for r in range(4)
    ]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(graphs_with_root())
def test_series_partial_sums_nondecreasing(gr):
    g, root = gr
    d = rooted_decomposition(g, root)
    assume(d.horizon >= 1)
    sums = sc_series_partial_sums(g, root, d.horizon - 1)
    assert all(sums[i] < sums[i + 1] for i in range(len(sums) - 1))


# --- report serialization ---


def test_report_json_schema(figure1):
    c = associated_bdc(figure1, "w")
    report = volume_comparison(c, c)
    payload = report.to_json_dict()
    assert set(payload) >= {"claim", "hypothesis", "conclusion", "status", "ledger"}
    row = payload["ledger"][0]
    assert set(row) == {"r", "lhs", "rhs", "ok"}
    assert row["lhs"] == "1/1"
    json.dumps(payload)  # serializable as-is


def test_report_text_rendering(figure1):
    report = compcurv_check(associated_bdc(figure1, "w"), figure1, "w")
    text = report.to_text()
    assert text.startswith("claim:")
    assert "status=asserted" in text
    assert "  ok" in text
    # subreports render indented beneath the main claim
    assert "\n  claim:" in text
