"""Seeded verification suite behind the `verify` subcommand.

Each criterion prints one line: pass, fail, or recorded. "recorded" marks
audit output that is documented but deliberately not asserted. The whole
run is a pure function of the seed and instance count, so two runs with
the same arguments must be byte-identical; success means no line failed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Tuple

from .chains import (
    associated_bdc,
    bdc_as_graph,
    bdc_ollivier_closed_form,
    is_model,
    sphere_volume_step,
)
from .comparison import (
    asymptotic_constant,
    compcurv_check,
    laplacian_distance_compare,
    model_sphere_equality_report,
    partial_sum_equiv_check,
    volume_comparison,
)
from .curvature import (
    ollivier_pair,
    ollivier_pair_bruteforce,
    sphere_curvature,
    verify_witness,
)
from .generators import (
    chain_pair_matched_start,
    chain_pair_outside_hypothesis,
    chain_pair_with_average_hypothesis,
    make_example_gprime,
    make_figure1,
    make_mirror_model,
    make_ollivier_matching_chain,
    make_unweighted_chain,
    nonincreasing_unit_sequence,
    random_chain,
    random_graph,
)
from .graphs import format_rational, rooted_decomposition


def _check_pair_values() -> Tuple[str, str]:
    g = make_figure1()
    first = ollivier_pair(g, "x", "y")
    second = ollivier_pair(g, "x'", "y'")
    if first.value != Fraction(-1) or second.value != Fraction(1):
        return (
            "fail",
            f"k(x,y) = {format_rational(first.value)}, "
            f"k(x',y') = {format_rational(second.value)}",
        )
    verify_witness(g, first)
    verify_witness(g, second)
    return "pass", "k(x,y) = -1/1 and k(x',y') = 1/1, witnesses valid"


def _check_model_reduction() -> Tuple[str, str]:
    decomp = rooted_decomposition(make_figure1(), "w")
    verdict = is_model(decomp)
    if not verdict.is_model:
        return "fail", f"constancy failures: {verdict.failures!r}"
    chain = associated_bdc(decomp)
    want_m = tuple(Fraction(v) for v in (1, 2, 4, 4))
    want_b = tuple(Fraction(v) for v in (2, 4, 4))
    if chain.measures != want_m or chain.weights != want_b:
        return (
            "fail",
            f"chain m = {tuple(map(format_rational, chain.measures))}, "
            f"b = {tuple(map(format_rational, chain.weights))}",
        )
    return "pass", "model at w; chain m = (1,2,4,4), b = (2,4,4)"


def _check_volume_step(seed: int, instances: int) -> Tuple[str, str]:
    rng = random.Random(f"{seed}:volume-step")
    identities = 0
    for _ in range(instances):
        g, root = random_graph(rng)
        decomp = rooted_decomposition(g, root)
        for r in range(decomp.horizon):
            sphere_volume_step(decomp, r)
            identities += 1
    return "pass", f"{identities} identities on {instances} graphs"


def _check_volume_domination(seed: int, instances: int) -> Tuple[str, str]:
    rng = random.Random(f"{seed}:volume-domination")
    rows = 0
    for _ in range(instances):
        c1, c2 = chain_pair_with_average_hypothesis(rng)
        report = volume_comparison(c1, c2)
        if not report.hypothesis_checked:
            return "fail", f"generator broke the hypothesis: {report.counterexample}"
        if not report.conclusion_checked:
            return "fail", f"volume domination failed: {report.counterexample}"
        rows += len(report.ledger)
    return "pass", f"{instances} dominating pairs, {rows} volume rows"


def _check_asymptotic_constant(seed: int, instances: int) -> Tuple[str, str]:
    chain = make_unweighted_chain(8)
    mirror = associated_bdc(rooted_decomposition(make_mirror_model(chain), "0"))
    constant, report = asymptotic_constant(chain, mirror, 1)
    if constant != 2 or not report.conclusion_checked:
        return "fail", f"mirror pair gave C = {format_rational(constant)}"
    rng = random.Random(f"{seed}:asymptotic")
    for _ in range(instances):
        c1, c2, threshold = chain_pair_outside_hypothesis(rng)
        value, rep = asymptotic_constant(c1, c2, threshold)
        if not rep.conclusion_checked:
            return (
                "fail",
                f"C = {format_rational(value)} failed: {rep.counterexample}",
            )
    return "pass", f"mirror pair gives C = 2/1; {instances} random pairs pass"


def _check_gap_counterexample() -> Tuple[str, str]:
    depth = 21
    sparse = make_example_gprime(depth)
    for r in range(1, 21):
        want = Fraction(-(2 * r + 1), r * r * (r + 1) ** 3)
        if sparse.curvature_gap(r) != want:
            return "fail", f"gap at r = {r} is {format_rational(sparse.curvature_gap(r))}"
        if sparse.measures[r] != r + 1 or sparse.measures[r] <= 1:
            return "fail", f"volume at r = {r} is {format_rational(sparse.measures[r])}"
    base = make_unweighted_chain(depth)
    lap = laplacian_distance_compare(rooted_decomposition(bdc_as_graph(base), 0), sparse)
    if not lap.conclusion_checked:
        return "fail", "gap domination unexpectedly failed"
    vol = volume_comparison(base, sparse)
    if vol.hypothesis_checked or vol.conclusion_checked:
        return "fail", "expected reversed volume growth under the weak hypothesis"
    return "pass", "gap formula exact for r = 1..20; volume conclusion reversed"


def _check_chain_closed_form(seed: int, instances: int) -> Tuple[str, str]:
    rng = random.Random(f"{seed}:closed-form")
    pairs = 0
    for _ in range(instances):
        chain = random_chain(rng)
        path = bdc_as_graph(chain)
        for upper in range(1, chain.horizon):
            for lower in range(upper):
                closed = bdc_ollivier_closed_form(chain, lower, upper)
                solved = ollivier_pair(path, lower, upper).value
                if closed != solved:
                    return (
                        "fail",
                        f"closed form {format_rational(closed)} != solver "
                        f"{format_rational(solved)} at (r, R) = ({lower}, {upper})",
                    )
                pairs += 1
    return "pass", f"{pairs} (r, R) pairs on {instances} chains"


def _check_sum_gap_equivalence(seed: int, instances: int) -> Tuple[str, str]:
    rng = random.Random(f"{seed}:sum-gap")
    total = 2 * instances
    rows = 0
    for _ in range(total):
        c1, c2 = chain_pair_matched_start(rng)
        report = partial_sum_equiv_check(c1, c2)
        if not report.conclusion_checked:
            return "fail", report.counterexample or "equivalence violated"
        rows += len(report.ledger)
    return "pass", f"{total} matched-start pairs, {rows} radii, zero violations"


def _check_associated_domination(seed: int, instances: int) -> Tuple[str, str]:
    decomp = rooted_decomposition(make_figure1(), "w")
    assoc = associated_bdc(decomp)
    chain_sum = sum(
        (bdc_ollivier_closed_form(assoc, r - 1, r) for r in (1, 2)), Fraction(0)
    )
    graph_sum = sum((sphere_curvature(decomp, r) for r in (1, 2)), Fraction(0))
    if chain_sum != 2 or graph_sum != 0:
        return (
            "fail",
            f"figure1 sums: chain {format_rational(chain_sum)}, "
            f"graph {format_rational(graph_sum)}",
        )
    rng = random.Random(f"{seed}:associated")
    wanted = max(1, instances // 2)
    done = 0
    while done < wanted:
        g, root = random_graph(rng)
        decomp = rooted_decomposition(g, root)
        if decomp.horizon < 2:
            continue
        report = compcurv_check(associated_bdc(decomp), decomp)
        for rep in (report,) + report.subreports:
            if rep.status == "asserted" and rep.hypothesis_checked:
                if not rep.conclusion_checked:
                    return "fail", f"asserted implication broken: {rep.claim}"
        if not report.subreports[-1].conclusion_checked:
            return "fail", "associated-chain sum domination violated"
        done += 1
    return "pass", f"figure1 sums 2/1 vs 0/1; {done} random graphs"


def _check_matching_chain(seed: int) -> Tuple[str, str]:
    rng = random.Random(f"{seed}:matching")
    for _ in range(10):
        seq = nonincreasing_unit_sequence(rng)
        chain = make_ollivier_matching_chain(seq)
        if bdc_ollivier_closed_form(chain, 0, 1) != 1:
            return "fail", "sphere curvature at r = 1 is not 1"
        for r in range(2, chain.horizon):
            value = bdc_ollivier_closed_form(chain, r - 1, r)
            if value != 0:
                return "fail", f"sphere curvature {format_rational(value)} at r = {r}"
        for r, measure in enumerate(chain.measures):
            if measure < 1:
                return "fail", f"measure {format_rational(measure)} below 1 at r = {r}"
    return "pass", "10 sequences: k(1) = 1/1, k(r) = 0/1 beyond, measures >= 1"


def _check_integrality_oracle(seed: int, instances: int) -> Tuple[str, str]:
    rng = random.Random(f"{seed}:integrality")
    checked = 0
    while checked < instances:
        g, _ = random_graph(rng, max_vertices=12)
        for u, v, _w in g.edges:
            solved = ollivier_pair(g, u, v)
            if len(solved.support) > 10:
                continue
            brute = ollivier_pair_bruteforce(g, u, v)
            if solved.value != brute.value:
                return (
                    "fail",
                    f"solver {format_rational(solved.value)} != enumeration "
                    f"{format_rational(brute.value)} on pair ({u}, {v})",
                )
            verify_witness(g, solved)
            checked += 1
            if checked >= instances:
                break
    return "pass", f"{instances} adjacent pairs: solver equals enumeration"


def _check_model_sphere_audit() -> Tuple[str, str]:
    report = model_sphere_equality_report(rooted_decomposition(make_figure1(), "w"))
    if report.status != "recorded":
        return "fail", f"unexpected status {report.status!r}"
    rows = {row.r: row for row in report.ledger}
    if sorted(rows) != [1, 2]:
        return "fail", f"unexpected radii {sorted(rows)}"
    for row in report.ledger:
        if row.ok != (row.lhs == row.rhs):
            return "fail", f"inconsistent ok flag at r = {row.r}"
    deep = rows[2]
    return (
        "recorded",
        f"k(2): graph {format_rational(deep.lhs)}, chain "
        f"{format_rational(deep.rhs)}; equality documented, not asserted",
    )


def _check_determinism_note() -> Tuple[str, str]:
    return (
        "recorded",
        "byte-identity needs two runs; the acceptance suite compares them",
    )


def run_verification(seed: int = 7, instances: int = 100) -> Tuple[str, bool]:
    """Run every criterion; returns the full report text and overall success."""
    checks: List[Tuple[str, Callable[[], Tuple[str, str]]]] = [
        ("figure1-pair-values", _check_pair_values),
        ("figure1-model-reduction", _check_model_reduction),
        ("volume-step-identity", lambda: _check_volume_step(seed, instances)),
        ("volume-domination", lambda: _check_volume_domination(seed, instances)),
        ("asymptotic-constant", lambda: _check_asymptotic_constant(seed, instances)),
        ("gap-counterexample", _check_gap_counterexample),
        ("chain-closed-form", lambda: _check_chain_closed_form(seed, instances)),
        ("sum-gap-equivalence", lambda: _check_sum_gap_equivalence(seed, instances)),
        (
            "associated-chain-domination",
            lambda: _check_associated_domination(seed, instances),
        ),
        ("curvature-matching-chain", lambda: _check_matching_chain(seed)),
        ("integrality-oracle", lambda: _check_integrality_oracle(seed, instances)),
        ("model-sphere-audit", _check_model_sphere_audit),
        ("determinism", _check_determinism_note),
    ]
    lines = []
    counts = {"pass": 0, "fail": 0, "recorded": 0}
    for index, (name, fn) in enumerate(checks, start=1):
        try:
            status, detail = fn()
        except Exception as exc:  # a criterion must never abort the others
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        lines.append(f"criterion-{index:02d} {name}: {status} ({detail})")
        counts[status] += 1
    lines.append(
        f"summary: {counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['recorded']} recorded (seed {seed}, instances {instances})"
    )
    return "\n".join(lines) + "\n", counts["fail"] == 0
