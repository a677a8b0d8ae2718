"""Growth relations and volume comparisons between chains and rooted graphs.

The averaged relations and the volume theorems compare two birth-death
chains; a rooted graph enters them through its associated chain. The
per-vertex relation and the partial-sum checks read the graph itself.

Every checker here evaluates its own hypotheses instead of trusting the
caller, and a failed conclusion is written into the report rather than
raised: the reports double as an audit trail. Reports carry a status flag;
"asserted" reports are the ones the verification suite is allowed to fail
on, "recorded" reports document computed values without judging them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Optional, Tuple

from .chains import BirthDeathChain, associated_bdc, bdc_as_graph, is_model
from .curvature import (
    bdc_ollivier_closed_form,
    inner_curvature,
    inner_outer,
    outer_curvature,
    sphere_curvature,
)
from .errors import CurvegraphError, HorizonExceeded, HorizonMismatch, HypothesisFailed
from .graphs import (
    VertexId,
    WeightedGraph,
    format_rational,
    laplacian,
    laplacian_of_distance,
    rooted_decomposition,
)


@dataclass(frozen=True)
class GrowthRelation:
    """Outcome of one of the three curvature-domination relations.

    first_violation is (radius, side, detail) for the earliest failed check,
    scanning radii upward and, within a radius, outer before inner. The
    measure normalization, when the relation includes it, reports side
    "measure" at radius 0. common_range is the inclusive radius span that
    was examined; outer-side checks stop one radius earlier.
    """

    kind: str
    holds: bool
    first_violation: Optional[Tuple[int, str, str]]
    threshold_radius: int
    common_range: Tuple[int, int]

    def describe(self) -> str:
        span = f"r = {self.common_range[0]}..{self.common_range[1]}"
        if self.holds:
            return f"{self.kind}: holds ({span})"
        r, side, detail = self.first_violation
        return f"{self.kind}: fails at r = {r}, {side} side: {detail} ({span})"

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "holds": self.holds,
            "threshold": self.threshold_radius,
            "common_range": list(self.common_range),
        }
        if self.first_violation is not None:
            r, side, detail = self.first_violation
            out["first_violation"] = {"r": r, "side": side, "detail": detail}
        return out


@dataclass(frozen=True)
class LedgerRow:
    """One compared pair of exact values, optionally tied to a vertex."""

    r: int
    lhs: Fraction
    rhs: Fraction
    ok: bool
    vertex: Optional[VertexId] = None

    def to_json_dict(self) -> dict:
        out = {
            "r": self.r,
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "ok": self.ok,
        }
        if self.vertex is not None:
            out["vertex"] = str(self.vertex)
        return out


@dataclass(frozen=True)
class TheoremReport:
    """Per-radius ledger for one checked statement.

    hypothesis_checked records whether the statement's premises held on this
    input; conclusion_checked whether every ledger row passed. A report never
    hides a failure: when the hypothesis holds and an asserted conclusion
    does not, the discrepancy survives into the output and the verification
    suite fails on it.
    """

    claim: str
    hypothesis_checked: bool
    conclusion_checked: bool
    ledger: Tuple[LedgerRow, ...]
    counterexample: Optional[str] = None
    status: str = "asserted"
    common_range: Optional[Tuple[int, int]] = None
    subreports: Tuple["TheoremReport", ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "hypothesis": self.hypothesis_checked,
            "conclusion": self.conclusion_checked,
            "status": self.status,
            "ledger": [row.to_json_dict() for row in self.ledger],
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.common_range is not None:
            out["common_range"] = list(self.common_range)
        if self.subreports:
            out["subreports"] = [sub.to_json_dict() for sub in self.subreports]
        return out

    def to_text(self, indent: str = "") -> str:
        lines = [f"{indent}claim: {self.claim}"]
        header = (
            f"{indent}  status={self.status}"
            f"  hypothesis={'pass' if self.hypothesis_checked else 'FAIL'}"
            f"  conclusion={'pass' if self.conclusion_checked else 'FAIL'}"
        )
        if self.common_range is not None:
            header += f"  radii={self.common_range[0]}..{self.common_range[1]}"
        lines.append(header)
        if self.counterexample is not None:
            lines.append(f"{indent}  counterexample: {self.counterexample}")
        if self.ledger:
            lines.extend(self._ledger_lines(indent + "  "))
        for sub in self.subreports:
            lines.append(sub.to_text(indent + "  "))
        return "\n".join(lines)

    def _ledger_lines(self, indent: str) -> list:
        with_vertex = any(row.vertex is not None for row in self.ledger)
        head = ["r", "lhs", "rhs", "ok"]
        if with_vertex:
            head.insert(1, "vertex")
        table = [head]
        for row in self.ledger:
            cells = [
                str(row.r),
                format_rational(row.lhs),
                format_rational(row.rhs),
                "ok" if row.ok else "FAIL",
            ]
            if with_vertex:
                cells.insert(1, "" if row.vertex is None else str(row.vertex))
            table.append(cells)
        widths = [max(len(line[i]) for line in table) for i in range(len(head))]
        return [
            indent + "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line))
            for line in table
        ]


# ---------------------------------------------------------------------------
# growth relations
# ---------------------------------------------------------------------------


def _require_span(common: int, start: int, what: str) -> None:
    if common < start:
        raise HorizonMismatch(
            f"{what}: no common radii to compare (span {start}..{common})",
            start=start,
            common=common,
        )


def _first_violation(entries, model: BirthDeathChain, common: int):
    """First (r, side, detail) where the entries fail to dominate the model.

    Each entry is (r, outer label, k_plus, inner label, k_minus), in scan
    order. Its outer side is checked first, and only below the common
    horizon; k_plus is None at the common horizon.
    """
    for r, outer, k_plus, inner, k_minus in entries:
        if r < common:
            rhs = model.outer_curvature(r)
            if k_plus < rhs:
                return (
                    r,
                    "outer",
                    f"{outer} {format_rational(k_plus)} < {format_rational(rhs)}",
                )
        rhs = model.inner_curvature(r)
        if k_minus > rhs:
            return (
                r,
                "inner",
                f"{inner} {format_rational(k_minus)} > {format_rational(rhs)}",
            )
    return None


def _chain_entries(chain: BirthDeathChain, start: int, common: int):
    for r in range(start, common + 1):
        k_plus = chain.outer_curvature(r) if r < common else None
        yield r, "averaged outer", k_plus, "averaged inner", chain.inner_curvature(r)


def _relation(kind, violation, threshold: int, common: int) -> GrowthRelation:
    return GrowthRelation(
        kind=kind,
        holds=violation is None,
        first_violation=violation,
        threshold_radius=threshold,
        common_range=(threshold, common),
    )


def stronger_curvature_growth(
    g: WeightedGraph, x0: VertexId, model_chain: BirthDeathChain
) -> GrowthRelation:
    """Per-vertex domination of a chain's radius curvature functions.

    Holds when m(x0) matches the chain's radius-0 measure and every vertex at
    radius r has outer curvature >= the chain's and inner curvature <= the
    chain's. Outer checks stop one radius before the common horizon.
    """
    decomp = rooted_decomposition(g, x0)
    common = min(decomp.horizon, model_chain.horizon)
    _require_span(common, 1, "stronger-curvature")
    entries = (
        (
            r,
            f"vertex {x}: k_plus",
            outer_curvature(g, decomp, x) if r < common else None,
            f"vertex {x}: k_minus",
            inner_curvature(g, decomp, x),
        )
        for r in range(common + 1)
        for x in decomp.sphere(r)
    )
    if g.measure[x0] != model_chain.measures[0]:
        violation = (
            0,
            "measure",
            f"m(root) {format_rational(g.measure[x0])} != "
            f"chain m(0) {format_rational(model_chain.measures[0])}",
        )
    else:
        violation = _first_violation(entries, model_chain, common)
    return _relation("stronger-curvature", violation, 0, common)


def stronger_average_growth(c1: BirthDeathChain, c2: BirthDeathChain) -> GrowthRelation:
    """Radiuswise domination of the second chain's curvatures by the first's.

    Holds when the root measures match and, at every common radius, the
    first chain's outer curvature is >= the second's while its inner
    curvature is <= the second's. On associated chains these are the
    graphs' averaged sphere curvatures.
    """
    common = min(c1.horizon, c2.horizon)
    _require_span(common, 1, "stronger-average-curvature")
    if c1.measures[0] != c2.measures[0]:
        violation = (
            0,
            "measure",
            f"m(root) {format_rational(c1.measures[0])} != "
            f"{format_rational(c2.measures[0])}",
        )
    else:
        violation = _first_violation(_chain_entries(c1, 0, common), c2, common)
    return _relation("stronger-average-curvature", violation, 0, common)


def stronger_outside_finite(
    c1: BirthDeathChain, c2: BirthDeathChain, R: int
) -> GrowthRelation:
    """The averaged domination restricted to radii >= R; no root-measure tie."""
    if R < 1:
        raise ValueError(f"threshold radius must be >= 1, got {R}")
    common = min(c1.horizon, c2.horizon)
    if R > common:
        raise HorizonMismatch(
            f"threshold radius {R} exceeds the common horizon {common}",
            threshold=R,
            common=common,
        )
    violation = _first_violation(_chain_entries(c1, R, common), c2, common)
    return _relation("stronger-outside-finite-set", violation, R, common)


# ---------------------------------------------------------------------------
# volume comparison theorems
# ---------------------------------------------------------------------------


def volume_comparison(c1: BirthDeathChain, c2: BirthDeathChain) -> TheoremReport:
    """Averaged curvature domination forces sphere-volume domination.

    The hypothesis (stronger average growth) is evaluated, never assumed;
    the ledger lists both sphere volumes at every common radius either way.
    """
    relation = stronger_average_growth(c1, c2)
    common = min(c1.horizon, c2.horizon)
    rows = []
    for r in range(common + 1):
        lhs, rhs = c1.measures[r], c2.measures[r]
        rows.append(LedgerRow(r=r, lhs=lhs, rhs=rhs, ok=lhs >= rhs))
    notes = []
    if not relation.holds:
        r, side, detail = relation.first_violation
        notes.append(f"hypothesis fails at r = {r} ({side}): {detail}")
    bad = [row for row in rows if not row.ok]
    if bad:
        notes.append(
            f"volume inequality fails first at r = {bad[0].r}: "
            f"{format_rational(bad[0].lhs)} < {format_rational(bad[0].rhs)}"
        )
    return TheoremReport(
        claim="averaged curvature domination gives sphere-volume domination",
        hypothesis_checked=relation.holds,
        conclusion_checked=not bad,
        ledger=tuple(rows),
        counterexample="; ".join(notes) if notes else None,
        status="asserted",
        common_range=(0, common),
    )


def asymptotic_constant(
    c1: BirthDeathChain, c2: BirthDeathChain, R: int
) -> Tuple[Fraction, TheoremReport]:
    """Domination outside a finite set gives C * m1(S_r) >= m2(S_r).

    C is the largest volume ratio m2/m1 over radii 0..R. Rows past R are
    cross-checked against the one-step volume recursion (outer curvature
    over next inner curvature), which must reproduce the measured volumes.
    """
    relation = stronger_outside_finite(c1, c2, R)
    if not relation.holds:
        r, side, detail = relation.first_violation
        raise HypothesisFailed(
            f"growth domination fails at r = {r} ({side}): {detail}",
            radius=r,
            side=side,
        )
    m1, m2 = c1.measures, c2.measures
    common = min(c1.horizon, c2.horizon)
    constant = max(m2[r] / m1[r] for r in range(R + 1))
    rows = []
    for r in range(common + 1):
        lhs = constant * m1[r]
        rows.append(LedgerRow(r=r, lhs=lhs, rhs=m2[r], ok=lhs >= m2[r]))
    lhs_rec = constant * m1[R]
    rhs_rec = m2[R]
    for r in range(R, common):
        lhs_rec *= c1.outer_curvature(r)
        lhs_rec /= c1.inner_curvature(r + 1)
        rhs_rec *= c2.outer_curvature(r)
        rhs_rec /= c2.inner_curvature(r + 1)
        direct = (rows[r + 1].lhs, rows[r + 1].rhs)
        if (lhs_rec, rhs_rec) != direct:
            raise CurvegraphError(
                f"volume recursion disagrees with direct measure at r = {r + 1}"
            )
    bad = [row for row in rows if not row.ok]
    return constant, TheoremReport(
        claim=(
            "domination outside a finite set gives volume domination up to "
            f"C = {format_rational(constant)} (threshold R = {R})"
        ),
        hypothesis_checked=True,
        conclusion_checked=not bad,
        ledger=tuple(rows),
        counterexample=(
            None
            if not bad
            else f"scaled volume inequality fails first at r = {bad[0].r}"
        ),
        status="asserted",
        common_range=(0, common),
    )


def laplacian_distance_compare(
    g: WeightedGraph, x0: VertexId, model_chain: BirthDeathChain
) -> TheoremReport:
    """Vertexwise curvature-gap domination against a chain, stated two ways.

    For each vertex the row compares k_plus - k_minus with the chain's gap
    at that radius. Independently, the Laplacian of the distance function is
    evaluated on the graph and on the chain rendered as a path graph, and
    the two formulations must order identically (gap >= gap exactly when
    Laplacian <= Laplacian); any disagreement raises, since the identity
    linking them is exact. The inequality itself is recorded, not asserted:
    it is a hypothesis too weak for volume comparison, and callers inspect
    where it holds.
    """
    decomp = rooted_decomposition(g, x0)
    common = min(decomp.horizon, model_chain.horizon)
    _require_span(common, 1, "laplacian-distance comparison")
    chain_graph = bdc_as_graph(model_chain)
    identity = {v: v for v in chain_graph.vertices}
    rows = []
    for r in range(common):
        chain_gap = model_chain.curvature_gap(r)
        chain_lap = laplacian(chain_graph, identity, r)
        if chain_lap != -chain_gap:
            raise CurvegraphError(
                f"chain distance Laplacian is not the negated gap at r = {r}"
            )
        for x in decomp.sphere(r):
            k_minus, k_plus = inner_outer(g, decomp, x)
            gap = k_plus - k_minus
            lap = laplacian_of_distance(g, decomp, x)
            if lap != -gap:
                raise CurvegraphError(
                    f"distance Laplacian is not the negated gap at vertex {x!r}"
                )
            ok = gap >= chain_gap
            if ok != (lap <= chain_lap):
                raise CurvegraphError(
                    f"gap and Laplacian formulations disagree at vertex {x!r}"
                )
            rows.append(LedgerRow(r=r, lhs=gap, rhs=chain_gap, ok=ok, vertex=x))
    bad = [row for row in rows if not row.ok]
    return TheoremReport(
        claim=(
            "curvature-gap domination, equivalently distance-Laplacian "
            "comparison, per vertex"
        ),
        hypothesis_checked=True,
        conclusion_checked=not bad,
        ledger=tuple(rows),
        counterexample=(
            None
            if not bad
            else f"gap domination fails first at r = {bad[0].r}, "
            f"vertex {bad[0].vertex}"
        ),
        status="recorded",
        common_range=(0, common - 1),
    )


def _chain_sphere_curvatures(chain: BirthDeathChain, last: int) -> Dict[int, Fraction]:
    return {
        r: bdc_ollivier_closed_form(chain, r - 1, r) for r in range(1, last + 1)
    }


def partial_sum_equiv_check(
    chain_a: BirthDeathChain, chain_b: BirthDeathChain
) -> TheoremReport:
    """Partial sums of sphere curvatures order opposite to curvature gaps.

    For chains with equal outer curvature at radius 0: at every R, the sum
    of a's sphere curvatures up to R is <= b's exactly when a's gap at R is
    >= b's, strictness included. Each main row carries the two differences,
    which the telescoping identity makes equal; the subreports list the raw
    partial sums and gaps.
    """
    if chain_a.outer_curvature(0) != chain_b.outer_curvature(0):
        raise HypothesisFailed(
            "radius-0 outer curvatures differ: "
            f"{format_rational(chain_a.outer_curvature(0))} != "
            f"{format_rational(chain_b.outer_curvature(0))}"
        )
    last = min(chain_a.horizon, chain_b.horizon) - 1
    _require_span(last, 1, "partial-sum equivalence")
    k_a = _chain_sphere_curvatures(chain_a, last)
    k_b = _chain_sphere_curvatures(chain_b, last)
    main_rows, sum_rows, gap_rows = [], [], []
    sum_a = sum_b = Fraction(0)
    for R in range(1, last + 1):
        sum_a += k_a[R]
        sum_b += k_b[R]
        gap_a = chain_a.curvature_gap(R)
        gap_b = chain_b.curvature_gap(R)
        sum_rows.append(LedgerRow(r=R, lhs=sum_a, rhs=sum_b, ok=sum_a <= sum_b))
        gap_rows.append(LedgerRow(r=R, lhs=gap_a, rhs=gap_b, ok=gap_a >= gap_b))
        lhs = sum_a - sum_b
        rhs = gap_b - gap_a
        if lhs != rhs:
            raise CurvegraphError(
                f"telescoping identity broken at R = {R}: {lhs} != {rhs}"
            )
        equivalent = ((sum_a <= sum_b) == (gap_a >= gap_b)) and (
            (sum_a < sum_b) == (gap_a > gap_b)
        )
        main_rows.append(LedgerRow(r=R, lhs=lhs, rhs=rhs, ok=equivalent))
    bad = [row for row in main_rows if not row.ok]
    subreports = (
        TheoremReport(
            claim="partial sums of sphere curvatures, first chain vs second",
            hypothesis_checked=True,
            conclusion_checked=all(row.ok for row in sum_rows),
            ledger=tuple(sum_rows),
            status="recorded",
            common_range=(1, last),
        ),
        TheoremReport(
            claim="curvature gaps, first chain vs second",
            hypothesis_checked=True,
            conclusion_checked=all(row.ok for row in gap_rows),
            ledger=tuple(gap_rows),
            status="recorded",
            common_range=(1, last),
        ),
    )
    return TheoremReport(
        claim=(
            "sum domination and gap domination are equivalent at every "
            "radius, strictness included"
        ),
        hypothesis_checked=True,
        conclusion_checked=not bad,
        ledger=tuple(main_rows),
        counterexample=(
            None if not bad else f"equivalence fails first at R = {bad[0].r}"
        ),
        status="asserted",
        common_range=(1, last),
        subreports=subreports,
    )


def compcurv_check(
    model_chain: BirthDeathChain, g: WeightedGraph, x0: VertexId
) -> TheoremReport:
    """Chain-vs-graph partial-sum comparison with matched start.

    Main report (part one): if the chain's curvature gap at every radius is
    a lower bound for every vertex gap on that sphere, the chain's sphere
    curvature partial sums dominate the graph's. Subreports: the converse
    direction bounding the chain's gap by the sphere minimum (part two),
    and the unconditional inequality between the graph and its own
    associated chain.
    """
    decomp = rooted_decomposition(g, x0)
    last = min(model_chain.horizon, decomp.horizon) - 1
    _require_span(last, 1, "partial-sum comparison")
    root_graph = outer_curvature(g, decomp, x0)
    root_chain = model_chain.outer_curvature(0)
    if root_chain != root_graph:
        raise HypothesisFailed(
            f"radius-0 outer curvatures differ: chain "
            f"{format_rational(root_chain)} != graph {format_rational(root_graph)}"
        )
    assoc = associated_bdc(g, x0)
    graph_last = decomp.horizon - 1
    k_graph = {
        r: sphere_curvature(g, decomp, r) for r in range(1, graph_last + 1)
    }
    k_chain = _chain_sphere_curvatures(model_chain, last)
    k_assoc = _chain_sphere_curvatures(assoc, graph_last)

    # vertex gaps per radius, for the part-one hypothesis and part-two bound
    gaps = {}
    for r in range(last + 1):
        pairs = [inner_outer(g, decomp, x) for x in decomp.sphere(r)]
        gaps[r] = [k_plus - k_minus for k_minus, k_plus in pairs]
    hyp_one = True
    hyp_note = None
    for r in range(last + 1):
        chain_gap = model_chain.curvature_gap(r)
        for x, gap in zip(decomp.sphere(r), gaps[r]):
            if chain_gap > gap:
                hyp_one = False
                hyp_note = (
                    f"chain gap {format_rational(chain_gap)} exceeds vertex "
                    f"{x} gap {format_rational(gap)} at r = {r}"
                )
                break
        if not hyp_one:
            break

    main_rows, two_rows, assoc_rows = [], [], []
    sum_chain = sum_graph = Fraction(0)
    for R in range(1, last + 1):
        sum_chain += k_chain[R]
        sum_graph += k_graph[R]
        main_rows.append(
            LedgerRow(r=R, lhs=sum_chain, rhs=sum_graph, ok=sum_chain >= sum_graph)
        )
    hyp_two = all(row.lhs <= row.rhs for row in main_rows)
    for R in range(last + 1):
        lhs = model_chain.curvature_gap(R)
        rhs = min(gaps[R])
        two_rows.append(LedgerRow(r=R, lhs=lhs, rhs=rhs, ok=lhs >= rhs))
    sum_assoc = sum_graph_full = Fraction(0)
    for R in range(1, graph_last + 1):
        sum_assoc += k_assoc[R]
        sum_graph_full += k_graph[R]
        assoc_rows.append(
            LedgerRow(
                r=R, lhs=sum_assoc, rhs=sum_graph_full, ok=sum_assoc >= sum_graph_full
            )
        )

    bad_main = [row for row in main_rows if not row.ok]
    subreports = (
        TheoremReport(
            claim=(
                "graph sum domination bounds the chain gap by the sphere "
                "minimum gap"
            ),
            hypothesis_checked=hyp_two,
            conclusion_checked=all(row.ok for row in two_rows),
            ledger=tuple(two_rows),
            status="asserted",
            common_range=(0, last),
        ),
        TheoremReport(
            claim=(
                "associated chain sphere-curvature partial sums dominate "
                "the graph's"
            ),
            hypothesis_checked=True,
            conclusion_checked=all(row.ok for row in assoc_rows),
            ledger=tuple(assoc_rows),
            status="asserted",
            common_range=(1, graph_last),
        ),
    )
    return TheoremReport(
        claim=(
            "chain gap lower bound on vertex gaps gives chain sphere-"
            "curvature sum domination"
        ),
        hypothesis_checked=hyp_one,
        conclusion_checked=not bad_main,
        ledger=tuple(main_rows),
        counterexample=(
            hyp_note
            if hyp_note is not None
            else (
                None
                if not bad_main
                else f"sum domination fails first at R = {bad_main[0].r}"
            )
        ),
        status="asserted",
        common_range=(1, last),
        subreports=subreports,
    )


def model_sphere_equality_report(g: WeightedGraph, root: VertexId) -> TheoremReport:
    """Sphere curvature of a model graph against its associated chain.

    Both sides are computed exactly as defined: the graph side as the
    min-max over adjacent inter-sphere pairs, the chain side by the
    closed form. The report records where they agree and disagree; it is
    never asserted, because the two definitions do not provably coincide
    on every model graph (the seven-vertex example disagrees at radius 2)
    and this audit is the instrument that documents it.
    """
    verdict = is_model(g, root)
    if not verdict.is_model:
        r, side, a, b = verdict.failures[0]
        raise HypothesisFailed(
            f"not a model: {side} curvature differs on sphere {r} "
            f"(vertices {a} and {b})",
            radius=r,
            side=side,
        )
    decomp = rooted_decomposition(g, root)
    last = decomp.horizon - 1
    _require_span(last, 1, "model sphere-curvature audit")
    chain = associated_bdc(g, root)
    rows = []
    for r in range(1, last + 1):
        lhs = sphere_curvature(g, decomp, r)
        rhs = bdc_ollivier_closed_form(chain, r - 1, r)
        rows.append(LedgerRow(r=r, lhs=lhs, rhs=rhs, ok=lhs == rhs))
    bad = [row for row in rows if not row.ok]
    return TheoremReport(
        claim="model graph sphere curvatures equal the associated chain's",
        hypothesis_checked=True,
        conclusion_checked=not bad,
        ledger=tuple(rows),
        counterexample=(
            None
            if not bad
            else f"values differ first at r = {bad[0].r}: graph "
            f"{format_rational(bad[0].lhs)}, chain {format_rational(bad[0].rhs)}"
        ),
        status="recorded",
        common_range=(1, last),
    )


def sc_series_partial_sums(
    g: WeightedGraph, x0: VertexId, R: int
) -> Tuple[Fraction, ...]:
    """Partial sums of ball measure over sphere boundary weight, radii 0..R.

    A diagnostic prefix of a series whose divergence this finite data cannot
    decide; each term is m(B_r) divided by the total weight crossing from
    sphere r to sphere r+1, read off the associated chain.
    """
    chain = associated_bdc(g, x0)
    if R < 0 or R > chain.horizon - 1:
        raise HorizonExceeded(
            f"series terms need boundary weights; valid range 0..{chain.horizon - 1}",
            radius=R,
        )
    balls = accumulate(chain.measures)
    return tuple(accumulate(ball / b for ball, b in zip(balls, chain.weights[: R + 1])))
