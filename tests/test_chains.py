"""Birth-death chains, the graph reduction, and the example constructors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvegraph import (
    BirthDeathChain,
    CurvegraphError,
    FormatError,
    HorizonExceeded,
    NonPositiveEntry,
    SequenceNotNonincreasing,
    associated_bdc,
    average_curvature,
    bdc_as_graph,
    bdc_ollivier_closed_form,
    chain_from_json_dict,
    chain_to_json,
    chain_to_json_dict,
    is_model,
    make_example_gprime,
    make_figure1,
    make_mirror_model,
    make_ollivier_matching_chain,
    make_unweighted_chain,
    rooted_decomposition,
    sphere_measure,
    sphere_volume_step,
    validate_graph,
)

from conftest import big_rationals, chains, graphs_with_root


# --- the chain type ---


def test_chain_parses_rationals():
    c = BirthDeathChain(measures=("1", 2, "4/2"), weights=(1, "1/3"))
    assert c.measures == (Fraction(1), Fraction(2), Fraction(2))
    assert c.weights == (Fraction(1), Fraction(1, 3))
    assert c.horizon == 2


def test_chain_shape_errors():
    with pytest.raises(FormatError):
        BirthDeathChain(measures=(), weights=())
    with pytest.raises(FormatError):
        BirthDeathChain(measures=(1, 1), weights=())
    with pytest.raises(NonPositiveEntry):
        BirthDeathChain(measures=(1, 0), weights=(1,))
    with pytest.raises(NonPositiveEntry):
        BirthDeathChain(measures=(1, 1), weights=("-1/2",))


def test_chain_curvature_accessors():
    c = BirthDeathChain(measures=(1, 2, 4), weights=(2, 4))
    assert c.outer_curvature(0) == 2
    assert c.outer_curvature(1) == 2
    assert c.inner_curvature(0) == 0
    assert c.inner_curvature(1) == 1
    assert c.inner_curvature(2) == 1
    assert c.curvature_gap(1) == 1
    with pytest.raises(HorizonExceeded):
        c.outer_curvature(2)
    with pytest.raises(HorizonExceeded):
        c.inner_curvature(3)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.one_of(chains(), chains(values=big_rationals())))
def test_chain_curvatures_are_built_once_and_stay_out_of_its_identity(c):
    text = chain_to_json(c)
    h = c.horizon
    outer = [c.outer_curvature(r) for r in range(h)]
    inner = [c.inner_curvature(r) for r in range(h + 1)]
    assert outer == [c.weights[r] / c.measures[r] for r in range(h)]
    assert inner == [Fraction(0)] + [c.weights[r - 1] / c.measures[r] for r in range(1, h + 1)]
    # a second read returns the values built by the first
    assert all(c.outer_curvature(r) is outer[r] for r in range(h))
    assert all(c.inner_curvature(r) is inner[r] for r in range(h + 1))
    assert all(c.curvature_gap(r) == outer[r] - inner[r] for r in range(h))
    for side, r in (("outer", -1), ("outer", h), ("inner", -1), ("inner", h + 1)):
        with pytest.raises(HorizonExceeded) as info:
            getattr(c, f"{side}_curvature")(r)
        top = h - 1 if side == "outer" else h
        assert info.value.payload() == {
            "error": "horizon-exceeded",
            "message": f"chain {side} curvature defined for 0 <= r <= {top}",
            "detail": {"radius": r},
        }
    fresh = BirthDeathChain(c.measures, c.weights)
    assert c._fields == ("measures", "weights")
    assert (c == fresh, hash(c), repr(c)) == (True, hash(fresh), repr(fresh))
    assert chain_to_json(c) == text == chain_to_json(fresh)


# --- reduction ---


def test_figure1_associated_chain(figure1):
    c = associated_bdc(rooted_decomposition(figure1, "w"))
    assert c.measures == (1, 2, 4, 4)
    assert c.weights == (2, 4, 4)


def test_chain_reduction_fixed_point():
    c = BirthDeathChain(measures=(1, 2, 4), weights=(2, 4))
    assert associated_bdc(rooted_decomposition(bdc_as_graph(c), 0)) == c


@settings(derandomize=True, deadline=None, max_examples=50)
@given(chains())
def test_round_trip_on_random_chains(chain):
    assert associated_bdc(rooted_decomposition(bdc_as_graph(chain), 0)) == chain


@settings(derandomize=True, deadline=None)
@given(graphs_with_root())
def test_reduction_matches_averages(gr):
    g, root = gr
    d = rooted_decomposition(g, root)
    c = associated_bdc(d)
    assert c.horizon == d.horizon
    for r in range(d.horizon + 1):
        assert c.measures[r] == sphere_measure(d, r)
        assert c.inner_curvature(r) == average_curvature(d, r, "inner")
        if r < d.horizon:
            assert c.outer_curvature(r) == average_curvature(d, r, "outer")


# --- model detection ---


def test_figure1_is_model(figure1):
    verdict = is_model(rooted_decomposition(figure1, "w"))
    assert verdict.is_model
    assert verdict.failures == ()


def test_broken_figure1_is_not_model():
    g = validate_graph(
        [("w", 1), ("x", 1), ("x'", 1), ("y", 1), ("y'", 3), ("z", 1), ("z'", 3)],
        [
            ("w", "x", 1),
            ("w", "x'", 1),
            ("x", "y", 1),
            ("x", "y'", 1),
            ("x'", "y'", 1),  # weight 2 in the model version
            ("y", "z", 1),
            ("y'", "z'", 3),
        ],
    )
    verdict = is_model(rooted_decomposition(g, "w"))
    assert not verdict.is_model
    r, side, a, b = verdict.failures[0]
    assert (r, side) == (1, "outer")
    assert {a, b} == {"x", "x'"}


def test_unweighted_chain_is_model():
    path = bdc_as_graph(make_unweighted_chain(4))
    assert is_model(rooted_decomposition(path, 0)).is_model


# --- volume step identity ---


def test_volume_step_figure1(figure1):
    lhs, rhs = sphere_volume_step(rooted_decomposition(figure1, "w"), 1)
    assert lhs == rhs == 4


def test_volume_step_past_the_horizon(figure1):
    with pytest.raises(HorizonExceeded):
        sphere_volume_step(rooted_decomposition(figure1, "w"), 3)


@settings(derandomize=True, deadline=None)
@given(graphs_with_root())
def test_volume_step_property(gr):
    g, root = gr
    d = rooted_decomposition(g, root)
    for r in range(d.horizon):
        lhs, rhs = sphere_volume_step(d, r)
        assert lhs == rhs


# --- constructors ---


def test_unweighted_chain_gaps():
    c = make_unweighted_chain(6)
    assert c.curvature_gap(0) == 1
    assert all(c.curvature_gap(r) == 0 for r in range(1, 6))
    with pytest.raises(ValueError):
        make_unweighted_chain(0)


def test_gprime_counterexample_data():
    gp = make_example_gprime(21)
    assert gp.curvature_gap(0) == 1
    for r in range(1, 21):
        assert gp.curvature_gap(r) == Fraction(-(2 * r + 1), r * r * (r + 1) ** 3)
        assert gp.measures[r] == r + 1


def test_mirror_model_shape_and_curvatures():
    src = make_unweighted_chain(5)
    m = make_mirror_model(src)
    assert len(m.vertices) == 11
    d = rooted_decomposition(m, "0")
    verdict = is_model(d)
    assert verdict.is_model
    assert d.horizon == 5
    for r in range(1, 6):
        assert sphere_measure(d, r) == 2 * src.measures[r]
        assert average_curvature(d, r, "inner") == src.inner_curvature(r)
        if r < 5:
            assert average_curvature(d, r, "outer") == src.outer_curvature(r)
    assert sphere_measure(d, 0) == src.measures[0]
    assert average_curvature(d, 0, "outer") == 2 * src.outer_curvature(0)


def test_mirror_model_of_weighted_chain():
    src = BirthDeathChain(measures=(2, 3, 5), weights=("1/2", 7))
    m = make_mirror_model(src)
    c = associated_bdc(rooted_decomposition(m, "0"))
    assert c.measures == (2, 6, 10)
    assert c.weights == (1, 14)


def test_matching_chain_examples():
    assert make_ollivier_matching_chain([1, 1, 1, 1]) == make_unweighted_chain(3)
    c = make_ollivier_matching_chain([1, Fraction(1, 2), Fraction(1, 4)])
    assert c.measures == (1, 2, 4)
    assert c.weights == (1, 1)


def test_matching_chain_realizes_curvatures():
    seq = [Fraction(1), Fraction(2, 3), Fraction(1, 3), Fraction(1, 4)]
    c = make_ollivier_matching_chain(seq)
    assert c.outer_curvature(0) == 1
    for r in range(1, len(seq) - 1):
        assert c.outer_curvature(r) == seq[r]
    for r in range(1, len(seq)):
        assert c.inner_curvature(r) == seq[r]
    # sphere curvatures collapse to the unweighted chain's
    assert bdc_ollivier_closed_form(c, 0, 1) == 1
    for r in range(2, c.horizon):
        assert bdc_ollivier_closed_form(c, r - 1, r) == 0
    # volumes never fall below 1 and never decrease
    assert all(m >= 1 for m in c.measures)
    assert all(c.measures[r] <= c.measures[r + 1] for r in range(c.horizon))


def test_matching_chain_input_errors():
    with pytest.raises(NonPositiveEntry):
        make_ollivier_matching_chain([])
    with pytest.raises(NonPositiveEntry):
        make_ollivier_matching_chain([1, "-1/2"])
    with pytest.raises(CurvegraphError):
        make_ollivier_matching_chain(["1/2", "1/2"])
    with pytest.raises(SequenceNotNonincreasing):
        make_ollivier_matching_chain([1, "1/2", "3/4"])


def test_figure1_constructor(figure1):
    assert len(figure1.vertices) == 7
    weights = {(u, v): w for u, v, w in figure1.edges}
    assert weights[("x'", "y'")] == 2
    assert weights[("y'", "z'")] == 3


# --- JSON ---


def test_chain_json_round_trip():
    c = BirthDeathChain(measures=(1, "3/2", 4), weights=("2/3", 5))
    payload = chain_to_json_dict(c)
    assert payload == {"m": ["1/1", "3/2", "4/1"], "b": ["2/3", "5/1"]}
    assert chain_from_json_dict(payload) == c
    assert chain_to_json(c).endswith("\n")


def test_chain_json_schema_errors():
    with pytest.raises(FormatError):
        chain_from_json_dict([1, 2])
    with pytest.raises(FormatError):
        chain_from_json_dict({"m": ["1/1"]})
    with pytest.raises(FormatError):
        chain_from_json_dict({"m": "1", "b": []})
