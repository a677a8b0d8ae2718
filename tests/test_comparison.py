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
    sphere_volume_step,
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

from conftest import connected_graphs, graphs_with_root


# --- stronger curvature growth (per vertex) ---


def test_model_dominates_its_own_chain(figure1_decomp):
    rel = stronger_curvature_growth(figure1_decomp, associated_bdc(figure1_decomp))
    assert rel.holds
    assert rel.first_violation is None
    assert rel.common_range == (0, 3)


def test_chain_vs_gprime_fails_inner_at_one():
    g = bdc_as_graph(make_unweighted_chain(8))
    rel = stronger_curvature_growth(rooted_decomposition(g, 0), make_example_gprime(8))
    assert not rel.holds
    r, side, detail = rel.first_violation
    assert (r, side) == (1, "inner")
    assert "1/2" in detail


def test_mirror_dominates_source_chain():
    src = make_unweighted_chain(6)
    mirror = rooted_decomposition(make_mirror_model(src), "0")
    rel = stronger_curvature_growth(mirror, src)
    assert rel.holds


def test_root_measure_checked_first():
    g = bdc_as_graph(make_unweighted_chain(4))
    chain = BirthDeathChain(measures=(2, 1, 1), weights=(1, 1))
    rel = stronger_curvature_growth(rooted_decomposition(g, 0), chain)
    assert rel.first_violation[0] == 0
    assert rel.first_violation[1] == "measure"


def test_no_common_radii_raises():
    single = validate_graph([("a", 1)], [])
    with pytest.raises(HorizonMismatch):
        stronger_curvature_growth(
            rooted_decomposition(single, "a"), make_unweighted_chain(3)
        )


# --- stronger average growth ---


def test_average_growth_reflexive(figure1_decomp):
    c = associated_bdc(figure1_decomp)
    rel = stronger_average_growth(c, c)
    assert rel.holds


def test_chain_vs_mirror_fails_only_at_root():
    src = make_unweighted_chain(8)
    mirror = associated_bdc(rooted_decomposition(make_mirror_model(src), "0"))
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
        low = min(outer_curvature(d, x) for x in d.sphere(r))
        assume(low > 0)
        outer_min.append(low)
    inner_max = [
        max(inner_curvature(d, x) for x in d.sphere(r))
        for r in range(1, d.horizon + 1)
    ]
    measures = [g.measure[root]]
    weights = []
    for r, k_plus in enumerate(outer_min):
        weights.append(k_plus * measures[r])
        measures.append(weights[r] / inner_max[r])
    weak = BirthDeathChain(measures=tuple(measures), weights=tuple(weights))
    assert stronger_curvature_growth(d, weak).holds
    assert stronger_average_growth(associated_bdc(d), weak).holds


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
    path = rooted_decomposition(bdc_as_graph(c1), 0)
    per_vertex = stronger_curvature_growth(path, c2)
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
    path = rooted_decomposition(bdc_as_graph(c1), 0)
    per_vertex = stronger_curvature_growth(path, c2)
    assert per_vertex.first_violation == (1, "outer", "vertex 1: k_plus 1/2 < 1/1")
    assert stronger_outside_finite(c1, c2, 1).first_violation == averaged.first_violation


# --- outside a finite set ---


def test_outside_finite_rejects_bad_threshold(figure1_decomp):
    c = associated_bdc(figure1_decomp)
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
    mirror = associated_bdc(rooted_decomposition(make_mirror_model(src), "0"))
    rel = stronger_average_growth(src, mirror)
    text = rel.describe()
    assert text.startswith("stronger-average-curvature: fails at r = 0, outer side")
    payload = rel.to_json_dict()
    assert payload["holds"] is False
    assert payload["first_violation"]["r"] == 0
    assert payload["common_range"] == [0, 5]


# --- volume comparison ---


def test_volume_comparison_equality_case(figure1_decomp):
    c = associated_bdc(figure1_decomp)
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
        src, associated_bdc(rooted_decomposition(make_mirror_model(src), "0")), 1
    )
    assert constant == 2
    assert report.conclusion_checked
    assert all(row.lhs == row.rhs for row in report.ledger if row.r >= 1)


def test_constant_is_one_for_identical_graphs(figure1_decomp):
    c = associated_bdc(figure1_decomp)
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
        rooted_decomposition(bdc_as_graph(make_unweighted_chain(10)), 0),
        make_example_gprime(10),
    )
    assert report.status == "recorded"
    assert report.conclusion_checked
    root_row = report.ledger[0]
    assert (root_row.r, root_row.lhs, root_row.rhs) == (0, 1, 1)
    assert all(row.rhs < 0 for row in report.ledger[1:])


def test_gap_comparison_equality_case():
    c = make_unweighted_chain(6)
    report = laplacian_distance_compare(rooted_decomposition(bdc_as_graph(c), 0), c)
    assert report.conclusion_checked
    assert all(row.lhs == row.rhs for row in report.ledger)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(graphs_with_root())
def test_gap_comparison_internal_identities(gr):
    g, root = gr
    d = rooted_decomposition(g, root)
    assume(d.horizon >= 1)
    # the identity checks inside raise if either formulation disagrees
    report = laplacian_distance_compare(d, associated_bdc(d))
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


def test_compcurv_on_figure1(figure1_decomp):
    report = compcurv_check(associated_bdc(figure1_decomp), figure1_decomp)
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
    report = compcurv_check(c, rooted_decomposition(bdc_as_graph(c), 0))
    assert report.conclusion_checked
    assert all(row.lhs == row.rhs for row in report.ledger)


def test_compcurv_requires_matched_root_curvature():
    with pytest.raises(HypothesisFailed):
        compcurv_check(
            BirthDeathChain(measures=(1, 1, 1, 1), weights=(2, 1, 1)),
            rooted_decomposition(bdc_as_graph(make_unweighted_chain(3)), 0),
        )


@settings(derandomize=True, deadline=None, max_examples=25)
@given(graphs_with_root(max_vertices=7))
def test_compcurv_asserted_parts_hold(gr):
    g, root = gr
    d = rooted_decomposition(g, root)
    assume(d.horizon >= 2)
    report = compcurv_check(associated_bdc(d), d)
    for rep in (report,) + report.subreports:
        if rep.status == "asserted" and rep.hypothesis_checked:
            assert rep.conclusion_checked, rep.claim


@pytest.mark.parametrize("rational", [False, True], ids=["unit", "rational"])
def test_rooted_checks_on_every_graph_up_to_6_vertices(rational):
    # every connected graph on at most 6 vertices, at every root: both sides
    # of the volume step agree at every radius, and every asserted part of
    # the partial-sum comparison whose hypothesis holds has its conclusion
    # hold. Its sphere curvatures solve every pair that joins two spheres
    # below the horizon.
    rng = random.Random(6)

    def draw():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9)) if rational else 1

    graphs = connected_graphs(6)
    assert len(graphs) == 143  # 1 + 1 + 2 + 6 + 21 + 112 classes on 1..6 vertices
    compared = 0
    for n, edges in graphs:
        g = validate_graph([(v, draw()) for v in range(n)], [(u, v, draw()) for u, v in edges])
        for root in range(n):
            d = rooted_decomposition(g, root)
            for r in range(d.horizon):
                lhs, rhs = sphere_volume_step(d, r)
                assert lhs == rhs
            if d.horizon < 2:
                continue  # the comparison needs radii 0 and 1 below the horizon
            report = compcurv_check(associated_bdc(d), d)
            for rep in (report,) + report.subreports:
                if rep.status == "asserted" and rep.hypothesis_checked:
                    assert rep.conclusion_checked, (edges, root, rep.claim)
            compared += 1
    assert compared > 0


# --- model sphere audit ---


def test_model_audit_figure1(figure1_decomp):
    report = model_sphere_equality_report(figure1_decomp)
    assert report.status == "recorded"
    assert not report.conclusion_checked
    rows = {row.r: row for row in report.ledger}
    assert rows[1].lhs == rows[1].rhs == 1
    assert (rows[2].lhs, rows[2].rhs) == (-1, 1)
    assert "r = 2" in report.counterexample


def test_model_audit_chain_agrees():
    path = bdc_as_graph(make_unweighted_chain(5))
    report = model_sphere_equality_report(rooted_decomposition(path, 0))
    assert report.conclusion_checked


def test_model_audit_mirror_disagrees_at_root_sphere():
    # the mirror is a two-sided line: flat at the glue point, while the
    # folded chain doubles the outward weight there
    mirror = make_mirror_model(make_unweighted_chain(5))
    report = model_sphere_equality_report(rooted_decomposition(mirror, "0"))
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
        model_sphere_equality_report(rooted_decomposition(g, "o"))


# --- report serialization ---


def test_report_json_schema(figure1_decomp):
    c = associated_bdc(figure1_decomp)
    report = volume_comparison(c, c)
    payload = report.to_json_dict()
    assert set(payload) >= {"claim", "hypothesis", "conclusion", "status", "ledger"}
    row = payload["ledger"][0]
    assert set(row) == {"r", "lhs", "rhs", "ok"}
    assert row["lhs"] == "1/1"
    json.dumps(payload)  # serializable as-is


def test_report_text_rendering(figure1_decomp):
    report = compcurv_check(associated_bdc(figure1_decomp), figure1_decomp)
    text = report.to_text()
    assert text.startswith("claim:")
    assert "status=asserted" in text
    assert "  ok" in text
    # subreports render indented beneath the main claim
    assert "\n  claim:" in text


# --- counterexamples and radius spans ---


def _header(report):
    return report.to_text().splitlines()[1]


def test_volume_counterexample_leads_with_the_hypothesis_note():
    report = volume_comparison(make_unweighted_chain(8), make_example_gprime(8))
    expected = (
        "hypothesis fails at r = 1 (inner): averaged inner 1/1 > 1/2; "
        "volume inequality fails first at r = 1: 1/1 < 2/1"
    )
    assert report.counterexample == expected
    assert report.common_range == (0, 8)
    assert _header(report) == (
        "  status=asserted  hypothesis=FAIL  conclusion=FAIL  radii=0..8"
    )
    assert report.to_text().splitlines()[2] == f"  counterexample: {expected}"
    payload = report.to_json_dict()
    assert list(payload) == [
        "claim", "hypothesis", "conclusion", "status", "ledger",
        "counterexample", "common_range",
    ]
    assert payload["counterexample"] == expected
    assert payload["common_range"] == [0, 8]


def test_model_audit_counterexample_and_span(figure1_decomp):
    report = model_sphere_equality_report(figure1_decomp)
    expected = "values differ first at r = 2: graph -1/1, chain 1/1"
    assert report.counterexample == expected
    assert report.common_range == (1, 2)
    assert _header(report) == (
        "  status=recorded  hypothesis=pass  conclusion=FAIL  radii=1..2"
    )
    assert report.to_text().splitlines()[2] == f"  counterexample: {expected}"
    payload = report.to_json_dict()
    assert payload["counterexample"] == expected
    assert payload["common_range"] == [1, 2]


def test_gap_counterexample_names_the_first_failing_vertex(figure1_decomp):
    # y and y' both fail at radius 2; the counterexample names the first
    chain = BirthDeathChain(measures=(1, 1, 1, 1), weights=(2, 1, 4))
    report = laplacian_distance_compare(figure1_decomp, chain)
    expected = "gap domination fails first at r = 2, vertex y"
    assert [row.vertex for row in report.ledger if not row.ok] == ["y", "y'"]
    assert report.counterexample == expected
    assert report.common_range == (0, 2)
    assert _header(report) == (
        "  status=recorded  hypothesis=pass  conclusion=FAIL  radii=0..2"
    )
    assert report.to_json_dict()["counterexample"] == expected


def test_compcurv_hypothesis_note_replaces_the_row_text(figure1_decomp):
    chain = BirthDeathChain(measures=(1, 1, 1, 1), weights=(2, 1, 4))
    report = compcurv_check(chain, figure1_decomp)
    assert not report.hypothesis_checked
    assert not report.conclusion_checked
    expected = "chain gap 3/1 exceeds vertex y gap 0/1 at r = 2"
    assert report.counterexample == expected
    assert report.common_range == (1, 2)
    assert _header(report) == (
        "  status=asserted  hypothesis=FAIL  conclusion=FAIL  radii=1..2"
    )
    assert report.to_json_dict()["counterexample"] == expected
    part_two, assoc = report.subreports
    assert (part_two.common_range, assoc.common_range) == ((0, 2), (1, 2))
    assert not part_two.conclusion_checked
    assert part_two.counterexample is None


def test_recorded_partial_sums_carry_no_counterexample():
    report = partial_sum_equiv_check(
        make_unweighted_chain(3), BirthDeathChain(measures=(1, 1, 1, 1), weights=(1, 1, 2))
    )
    assert report.conclusion_checked
    sums, gaps = report.subreports
    assert not sums.conclusion_checked
    for sub in (sums, gaps):
        assert sub.counterexample is None
        assert sub.common_range == (1, 2)
        assert "counterexample" not in sub.to_json_dict()
        assert "counterexample:" not in sub.to_text()
    assert list(sums.to_json_dict()) == [
        "claim", "hypothesis", "conclusion", "status", "ledger", "common_range",
    ]
    assert _header(sums) == (
        "  status=recorded  hypothesis=pass  conclusion=FAIL  radii=1..2"
    )


def _passing_reports(decomp):
    chain = associated_bdc(decomp)
    yield volume_comparison(chain, chain)
    yield asymptotic_constant(chain, chain, 1)[1]
    yield laplacian_distance_compare(decomp, make_unweighted_chain(3))
    yield partial_sum_equiv_check(chain, chain)
    yield compcurv_check(chain, decomp).subreports[1]
    c = make_unweighted_chain(5)
    yield model_sphere_equality_report(rooted_decomposition(bdc_as_graph(c), 0))


def test_passing_reports_carry_no_counterexample(figure1_decomp):
    spans = []
    for report in _passing_reports(figure1_decomp):
        assert report.conclusion_checked, report.claim
        assert report.counterexample is None
        assert "counterexample" not in report.to_json_dict()
        assert "counterexample:" not in report.to_text()
        assert _header(report).endswith(
            f"radii={report.common_range[0]}..{report.common_range[1]}"
        )
        spans.append(report.common_range)
    assert spans == [(0, 3), (0, 3), (0, 2), (1, 2), (1, 2), (1, 4)]
