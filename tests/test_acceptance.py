"""Acceptance suite: thirteen exact criteria, one printed line each.

Every check is exact rational arithmetic; there are no tolerances anywhere.
Each test prints a single [PASS]/[FAIL] line for its criterion even when
output capture is on, then fails loudly if anything was off.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from curvegraph import (
    BirthDeathChain,
    associated_bdc,
    asymptotic_constant,
    average_curvature,
    bdc_as_graph,
    bdc_ollivier_closed_form,
    cli,
    is_model,
    make_example_gprime,
    make_figure1,
    make_mirror_model,
    make_ollivier_matching_chain,
    make_unweighted_chain,
    model_sphere_equality_report,
    ollivier_pair,
    ollivier_pair_bruteforce,
    rooted_decomposition,
    run_verification,
    sphere_curvature,
    sphere_measure,
    stronger_average_growth,
    verify_witness,
)
from curvegraph.generators import (
    chain_pair_matched_start,
    chain_pair_outside_hypothesis,
    chain_pair_with_average_hypothesis,
    nonincreasing_unit_sequence,
    random_chain,
    random_graph,
)


@contextmanager
def criterion(capsys, number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {name}")


def test_criterion_01_pair_curvatures_on_the_seven_vertex_example(capsys):
    with criterion(capsys, 1, "seven-vertex example pair curvatures"):
        g = make_figure1()
        assert ollivier_pair(g, "x", "y").value == Fraction(-1)
        assert ollivier_pair(g, "x'", "y'").value == Fraction(1)


def test_criterion_02_example_is_a_model_with_known_chain(capsys):
    with criterion(capsys, 2, "seven-vertex example reduces to (1,2,4,4)/(2,4,4)"):
        decomp = rooted_decomposition(make_figure1(), "w")
        assert is_model(decomp).is_model
        assert associated_bdc(decomp) == BirthDeathChain(
            measures=(1, 2, 4, 4), weights=(2, 4, 4)
        )


def test_criterion_03_sphere_volume_identity(capsys):
    with criterion(capsys, 3, "m(S_{r+1}) avg-inner = m(S_r) avg-outer, 100 graphs"):
        rng = random.Random("acceptance:03")
        for _ in range(100):
            g, root = random_graph(rng, max_vertices=40)
            decomp = rooted_decomposition(g, root)
            for r in range(decomp.horizon):
                lhs = sphere_measure(decomp, r + 1) * average_curvature(
                    decomp, r + 1, "inner"
                )
                rhs = sphere_measure(decomp, r) * average_curvature(decomp, r, "outer")
                assert lhs == rhs


def test_criterion_04_volume_comparison_under_enforced_hypothesis(capsys):
    with criterion(capsys, 4, "averaged domination forces volume domination, 100 pairs"):
        rng = random.Random("acceptance:04")
        for _ in range(100):
            c1, c2 = chain_pair_with_average_hypothesis(rng)
            assert stronger_average_growth(c1, c2).holds
            common = min(c1.horizon, c2.horizon)
            for r in range(common + 1):
                assert c1.measures[r] >= c2.measures[r]


def test_criterion_05_asymptotic_constant(capsys):
    with criterion(capsys, 5, "mirror constant C = 2; 100 outside-threshold pairs"):
        src = make_unweighted_chain(8)
        g1 = bdc_as_graph(src)
        g2 = make_mirror_model(src)
        d1 = rooted_decomposition(g1, 0)
        d2 = rooted_decomposition(g2, "0")
        constant, report = asymptotic_constant(src, associated_bdc(d2), 1)
        assert constant == Fraction(2)
        for r in range(9):
            assert constant * sphere_measure(d1, r) >= sphere_measure(d2, r)
        assert report.conclusion_checked

        rng = random.Random("acceptance:05")
        for _ in range(100):
            c1, c2, threshold = chain_pair_outside_hypothesis(rng)
            constant, report = asymptotic_constant(c1, c2, threshold)
            assert constant == max(
                c2.measures[r] / c1.measures[r] for r in range(threshold + 1)
            )
            common = min(c1.horizon, c2.horizon)
            for r in range(common + 1):
                assert constant * c1.measures[r] >= c2.measures[r]
            assert report.conclusion_checked


def test_criterion_06_gap_formula_of_the_growing_counterexample(capsys):
    with criterion(capsys, 6, "counterexample chain: exact gaps, volumes r+1 > 1"):
        chain = make_example_gprime(21)
        uc = make_unweighted_chain(21)
        for r in range(1, 21):
            gap = chain.outer_curvature(r) - chain.inner_curvature(r)
            assert gap == Fraction(-(2 * r + 1), r**2 * (r + 1) ** 3)
            assert chain.measures[r] == r + 1 > 1
            # gap-domination hypothesis holds while volumes grow anyway
            assert uc.curvature_gap(r) >= gap
            assert chain.measures[r] > uc.measures[r]


def test_criterion_07_closed_form_equals_transport_solver(capsys):
    with criterion(capsys, 7, "chain closed form = LP value, 100 chains, all pairs"):
        rng = random.Random("acceptance:07")
        for _ in range(100):
            chain = random_chain(rng)
            path = bdc_as_graph(chain)
            for R in range(1, chain.horizon):
                for r in range(R):
                    assert (
                        bdc_ollivier_closed_form(chain, r, R)
                        == ollivier_pair(path, r, R).value
                    )


def test_criterion_08_sum_gap_equivalence(capsys):
    with criterion(capsys, 8, "sum vs gap equivalence at every R, 200 matched pairs"):
        rng = random.Random("acceptance:08")
        for _ in range(200):
            c1, c2 = chain_pair_matched_start(rng)
            sum1 = sum2 = Fraction(0)
            for R in range(1, min(c1.horizon, c2.horizon)):
                sum1 += bdc_ollivier_closed_form(c1, R - 1, R)
                sum2 += bdc_ollivier_closed_form(c2, R - 1, R)
                gap1 = c1.curvature_gap(R)
                gap2 = c2.curvature_gap(R)
                assert (sum1 <= sum2) == (gap1 >= gap2)
                assert (sum1 < sum2) == (gap1 > gap2)


def test_criterion_09_chain_sums_dominate_graph_sums(capsys):
    with criterion(capsys, 9, "associated chain curvature sums dominate, 50 graphs"):
        g = make_figure1()
        decomp = rooted_decomposition(g, "w")
        chain = associated_bdc(decomp)
        chain_sum = sum(bdc_ollivier_closed_form(chain, r - 1, r) for r in (1, 2))
        graph_sum = sum(sphere_curvature(decomp, r) for r in (1, 2))
        assert (chain_sum, graph_sum) == (Fraction(2), Fraction(0))

        rng = random.Random("acceptance:09")
        done = 0
        while done < 50:
            g, root = random_graph(rng, max_vertices=12)
            decomp = rooted_decomposition(g, root)
            if decomp.horizon < 2:
                continue
            chain = associated_bdc(decomp)
            sum_chain = sum_graph = Fraction(0)
            for r in range(1, decomp.horizon):
                sum_chain += bdc_ollivier_closed_form(chain, r - 1, r)
                sum_graph += sphere_curvature(decomp, r)
                assert sum_chain >= sum_graph
            done += 1


def test_criterion_10_matching_chains_realize_flat_sphere_curvature(capsys):
    with criterion(capsys, 10, "matching chains: k(1)=1, k(r)=0, volumes >= 1"):
        rng = random.Random("acceptance:10")
        for _ in range(10):
            seq = nonincreasing_unit_sequence(rng)
            chain = make_ollivier_matching_chain(seq)
            assert bdc_ollivier_closed_form(chain, 0, 1) == 1
            for r in range(2, chain.horizon):
                assert bdc_ollivier_closed_form(chain, r - 1, r) == 0
            assert all(m >= 1 for m in chain.measures)


def test_criterion_11_solver_matches_exhaustive_enumeration(capsys):
    with criterion(capsys, 11, "LP = brute force on 100 small-support pairs"):
        rng = random.Random("acceptance:11")
        checked = 0
        while checked < 100:
            g, _root = random_graph(rng, max_vertices=8)
            for u, v, _w in g.edges:
                result = ollivier_pair(g, u, v)
                if len(result.support) > 10:
                    continue
                brute = ollivier_pair_bruteforce(g, u, v)
                assert result.value == brute.value
                verify_witness(g, result)
                verify_witness(g, brute)
                checked += 1
                if checked == 100:
                    break


def test_criterion_12_sphere_audit_is_recorded_not_assumed(capsys):
    with criterion(capsys, 12, "model sphere audit records both radius-2 values"):
        g = make_figure1()
        decomp = rooted_decomposition(g, "w")
        report = model_sphere_equality_report(decomp)
        assert report.status == "recorded"
        rows = {row.r: row for row in report.ledger}
        assert set(rows) == {1, 2}
        # internal consistency: each side re-derived from first principles
        chain = associated_bdc(decomp)
        for r, row in rows.items():
            assert row.lhs == sphere_curvature(decomp, r)
            assert row.rhs == bdc_ollivier_closed_form(chain, r - 1, r)
            assert row.ok == (row.lhs == row.rhs)
        # the radius-2 graph value is the min-max of criterion-1 pair inputs
        assert rows[2].lhs == min(
            ollivier_pair(g, "x", "y").value,
            max(
                ollivier_pair(g, "x", "y'").value,
                ollivier_pair(g, "x'", "y'").value,
            ),
        )
        assert (rows[2].lhs, rows[2].rhs) == (Fraction(-1), Fraction(1))
        # the equality itself stays an open question: recorded, not asserted


def test_criterion_13_verification_output_is_byte_identical(capsys):
    with criterion(capsys, 13, "verify --seed 7 twice is byte-identical"):
        first = run_verification(seed=7)
        second = run_verification(seed=7)
        assert first == second
        text, ok = first
        assert ok
        assert text.splitlines()[-1] == (
            "summary: 11 passed, 0 failed, 2 recorded (seed 7, instances 100)"
        )
        code1 = cli.run(["verify", "--seed", "7"])
        out1 = capsys.readouterr().out
        code2 = cli.run(["verify", "--seed", "7"])
        out2 = capsys.readouterr().out
        assert (code1, code2) == (0, 0)
        assert out1 == out2 == text
