"""Growth relations and volume comparisons between chains and rooted graphs.

The averaged relations and the volume theorems compare two birth-death
chains; a rooted graph enters them through its associated chain. The
per-vertex relation and the partial-sum checks read the rooted graph
itself, as one ``RootedDecomposition`` that the caller builds once.

Every checker here evaluates its own hypotheses instead of trusting the
caller, and a failed conclusion is written into the report rather than
raised: the reports double as an audit trail. A builder hands its report
the ledger, a failure template and any hypothesis note; the report derives
its counterexample and radius span from them. Reports carry a status flag;
"asserted" reports are the ones the verification suite is allowed to fail
on, "recorded" reports document computed values without judging them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import ge, le
from typing import List, Optional, Tuple

from .chains import (
    BirthDeathChain,
    associated_bdc,
    bdc_as_graph,
    bdc_ollivier_closed_form,
    is_model,
)
from .curvature import curvature_profile, inner_curvature, outer_curvature, sphere_curvature
from .errors import CurvegraphError, HorizonMismatch, HypothesisFailed
from .graphs import (
    Record,
    RootedDecomposition,
    VertexId,
    format_rational,
    laplacian,
    laplacian_of_distance,
)


class GrowthRelation(Record):
    """Outcome of one of the three curvature-domination relations.

    first_violation is (radius, side, detail) for the earliest failed check,
    scanning radii upward and, within a radius, outer before inner. The
    measure normalization, when the relation includes it, reports side
    "measure" at radius 0. common_range is the inclusive radius span that
    was examined; outer-side checks stop one radius earlier. holds, and the
    JSON threshold (the first radius examined: 0, or R for the
    outside-a-finite-set form), are read off those two.
    """

    kind: str
    first_violation: Optional[Tuple[int, str, str]]
    common_range: Tuple[int, int]

    def __init__(self, kind, first_violation, common_range):
        self.__dict__.update(
            kind=kind, first_violation=first_violation, common_range=common_range
        )

    @property
    def holds(self) -> bool:
        return self.first_violation is None

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
            "threshold": self.common_range[0],
            "common_range": list(self.common_range),
        }
        if self.first_violation is not None:
            r, side, detail = self.first_violation
            out["first_violation"] = {"r": r, "side": side, "detail": detail}
        return out


class LedgerRow(Record):
    """One compared pair of exact values, optionally tied to a vertex."""

    r: int
    lhs: Fraction
    rhs: Fraction
    ok: bool
    vertex: Optional[VertexId]

    def __init__(self, r, lhs, rhs, ok, vertex=None):
        self.__dict__.update(r=r, lhs=lhs, rhs=rhs, ok=ok, vertex=vertex)

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


class TheoremReport(Record):
    """Per-radius ledger for one checked statement.

    hypothesis_checked records whether the statement's premises held on this
    input; conclusion_checked, read off the ledger, whether every row passed.
    A report never hides a failure: when the hypothesis holds and an asserted
    conclusion does not, the discrepancy survives into the output and the
    verification suite fails on it.

    The ledger is never empty, because every builder first requires at
    least one common radius; common_range is its first and last radius.
    The counterexample is the hypothesis note, if any, followed by the first
    failing row rendered through the failure template (fields r, lhs, rhs
    and vertex). A report without a template names no failing row.
    """

    claim: str
    hypothesis_checked: bool
    ledger: Tuple[LedgerRow, ...]
    failure: Optional[str]
    note: Optional[str]
    status: str
    subreports: Tuple["TheoremReport", ...]

    def __init__(
        self, claim, hypothesis_checked, ledger,
        failure=None, note=None, status="asserted", subreports=(),
    ):
        self.__dict__.update(
            claim=claim, hypothesis_checked=hypothesis_checked, ledger=ledger,
            failure=failure, note=note, status=status, subreports=subreports,
        )

    @property
    def conclusion_checked(self) -> bool:
        return all(row.ok for row in self.ledger)

    @property
    def common_range(self) -> Tuple[int, int]:
        return self.ledger[0].r, self.ledger[-1].r

    @property
    def counterexample(self) -> Optional[str]:
        parts = [] if self.note is None else [self.note]
        bad = next((row for row in self.ledger if not row.ok), None)
        if bad is not None and self.failure is not None:
            lhs, rhs = format_rational(bad.lhs), format_rational(bad.rhs)
            parts.append(self.failure.format(r=bad.r, lhs=lhs, rhs=rhs, vertex=bad.vertex))
        return "; ".join(parts) or None

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
        out["common_range"] = list(self.common_range)
        if self.subreports:
            out["subreports"] = [sub.to_json_dict() for sub in self.subreports]
        return out

    def to_text(self, indent: str = "") -> str:
        lines = [
            f"{indent}claim: {self.claim}",
            f"{indent}  status={self.status}"
            f"  hypothesis={'pass' if self.hypothesis_checked else 'FAIL'}"
            f"  conclusion={'pass' if self.conclusion_checked else 'FAIL'}"
            f"  radii={self.common_range[0]}..{self.common_range[1]}",
        ]
        if self.counterexample is not None:
            lines.append(f"{indent}  counterexample: {self.counterexample}")
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


def stronger_curvature_growth(
    decomp: RootedDecomposition, model_chain: BirthDeathChain
) -> GrowthRelation:
    """Per-vertex domination of a chain's radius curvature functions.

    Holds when m(root) matches the chain's radius-0 measure and every vertex
    at radius r has outer curvature >= the chain's and inner curvature <= the
    chain's. Outer checks stop one radius before the common horizon.
    """
    common = min(decomp.horizon, model_chain.horizon)
    _require_span(common, 1, "stronger-curvature")
    entries = (
        (
            r,
            f"vertex {x}: k_plus",
            outer_curvature(decomp, x) if r < common else None,
            f"vertex {x}: k_minus",
            inner_curvature(decomp, x),
        )
        for r in range(common + 1)
        for x in decomp.sphere(r)
    )
    m_root = decomp.graph.measure[decomp.root]
    if m_root != model_chain.measures[0]:
        violation = (
            0,
            "measure",
            f"m(root) {format_rational(m_root)} != "
            f"chain m(0) {format_rational(model_chain.measures[0])}",
        )
    else:
        violation = _first_violation(entries, model_chain, common)
    return GrowthRelation("stronger-curvature", violation, (0, common))


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
    return GrowthRelation("stronger-average-curvature", violation, (0, common))


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
    return GrowthRelation("stronger-outside-finite-set", violation, (R, common))


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
    note = None
    if not relation.holds:
        r, side, detail = relation.first_violation
        note = f"hypothesis fails at r = {r} ({side}): {detail}"
    return TheoremReport(
        claim="averaged curvature domination gives sphere-volume domination",
        hypothesis_checked=relation.holds,
        ledger=tuple(rows),
        failure="volume inequality fails first at r = {r}: {lhs} < {rhs}",
        note=note,
        status="asserted",
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
    return constant, TheoremReport(
        claim=(
            "domination outside a finite set gives volume domination up to "
            f"C = {format_rational(constant)} (threshold R = {R})"
        ),
        hypothesis_checked=True,
        ledger=tuple(rows),
        failure="scaled volume inequality fails first at r = {r}",
        status="asserted",
    )


def laplacian_distance_compare(
    decomp: RootedDecomposition, model_chain: BirthDeathChain
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
    common = min(decomp.horizon, model_chain.horizon)
    _require_span(common, 1, "laplacian-distance comparison")
    chain_graph = bdc_as_graph(model_chain)
    identity = {v: v for v in chain_graph.vertices}
    profile = curvature_profile(decomp)
    rows = []
    for r in range(common):
        chain_gap = model_chain.curvature_gap(r)
        chain_lap = laplacian(chain_graph, identity, r)
        if chain_lap != -chain_gap:
            raise CurvegraphError(
                f"chain distance Laplacian is not the negated gap at r = {r}"
            )
        for x in decomp.sphere(r):
            gap = profile[x][1] - profile[x][0]
            lap = laplacian_of_distance(decomp, x)
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
    return TheoremReport(
        claim=(
            "curvature-gap domination, equivalently distance-Laplacian "
            "comparison, per vertex"
        ),
        hypothesis_checked=True,
        ledger=tuple(rows),
        failure="gap domination fails first at r = {r}, vertex {vertex}",
        status="recorded",
    )


def _chain_sphere_curvatures(chain: BirthDeathChain, last: int) -> List[Fraction]:
    return [bdc_ollivier_closed_form(chain, r - 1, r) for r in range(1, last + 1)]


def _sum_rows(k_a, k_b, ok) -> List[LedgerRow]:
    """Rows of the running sums of two lists from radius 1, over the shorter."""
    return [
        LedgerRow(r=r, lhs=a, rhs=b, ok=ok(a, b))
        for r, (a, b) in enumerate(zip(accumulate(k_a), accumulate(k_b)), start=1)
    ]


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
    sum_rows = _sum_rows(
        _chain_sphere_curvatures(chain_a, last),
        _chain_sphere_curvatures(chain_b, last),
        le,
    )
    main_rows, gap_rows = [], []
    for row in sum_rows:
        R = row.r
        gap_a, gap_b = chain_a.curvature_gap(R), chain_b.curvature_gap(R)
        gap_rows.append(LedgerRow(r=R, lhs=gap_a, rhs=gap_b, ok=gap_a >= gap_b))
        lhs = row.lhs - row.rhs
        rhs = gap_b - gap_a
        if lhs != rhs:
            raise CurvegraphError(
                f"telescoping identity broken at R = {R}: {lhs} != {rhs}"
            )
        equivalent = (row.ok == (gap_a >= gap_b)) and (
            (row.lhs < row.rhs) == (gap_a > gap_b)
        )
        main_rows.append(LedgerRow(r=R, lhs=lhs, rhs=rhs, ok=equivalent))
    subreports = (
        TheoremReport(
            claim="partial sums of sphere curvatures, first chain vs second",
            hypothesis_checked=True,
            ledger=tuple(sum_rows),
            status="recorded",
        ),
        TheoremReport(
            claim="curvature gaps, first chain vs second",
            hypothesis_checked=True,
            ledger=tuple(gap_rows),
            status="recorded",
        ),
    )
    return TheoremReport(
        claim=(
            "sum domination and gap domination are equivalent at every "
            "radius, strictness included"
        ),
        hypothesis_checked=True,
        ledger=tuple(main_rows),
        failure="equivalence fails first at R = {r}",
        status="asserted",
        subreports=subreports,
    )


def compcurv_check(
    model_chain: BirthDeathChain, decomp: RootedDecomposition
) -> TheoremReport:
    """Chain-vs-graph partial-sum comparison with matched start.

    Main report (part one): if the chain's curvature gap at every radius is
    a lower bound for every vertex gap on that sphere, the chain's sphere
    curvature partial sums dominate the graph's. Subreports: the converse
    direction bounding the chain's gap by the sphere minimum (part two),
    and the unconditional inequality between the graph and its own
    associated chain.
    """
    last = min(model_chain.horizon, decomp.horizon) - 1
    _require_span(last, 1, "partial-sum comparison")
    profile = curvature_profile(decomp)
    root_graph = profile[decomp.root][1]
    root_chain = model_chain.outer_curvature(0)
    if root_chain != root_graph:
        raise HypothesisFailed(
            f"radius-0 outer curvatures differ: chain "
            f"{format_rational(root_chain)} != graph {format_rational(root_graph)}"
        )
    graph_last = decomp.horizon - 1
    k_graph = [sphere_curvature(decomp, r) for r in range(1, graph_last + 1)]
    k_assoc = _chain_sphere_curvatures(associated_bdc(decomp), graph_last)
    chain_gaps = [model_chain.curvature_gap(r) for r in range(last + 1)]
    # vertex gaps per radius, for the part-one hypothesis and part-two bound
    gaps = [[profile[x][1] - profile[x][0] for x in decomp.sphere(r)] for r in range(last + 1)]
    hyp_note = next(
        (
            f"chain gap {format_rational(chain_gap)} exceeds vertex "
            f"{x} gap {format_rational(gap)} at r = {r}"
            for r, chain_gap in enumerate(chain_gaps)
            for x, gap in zip(decomp.sphere(r), gaps[r])
            if chain_gap > gap
        ),
        None,
    )
    main_rows = _sum_rows(_chain_sphere_curvatures(model_chain, last), k_graph, ge)
    two_rows = [
        LedgerRow(r=r, lhs=lhs, rhs=rhs, ok=lhs >= rhs)
        for r, (lhs, rhs) in enumerate(zip(chain_gaps, map(min, gaps)))
    ]
    subreports = (
        TheoremReport(
            claim=(
                "graph sum domination bounds the chain gap by the sphere "
                "minimum gap"
            ),
            hypothesis_checked=all(row.lhs <= row.rhs for row in main_rows),
            ledger=tuple(two_rows),
            status="asserted",
        ),
        TheoremReport(
            claim=(
                "associated chain sphere-curvature partial sums dominate "
                "the graph's"
            ),
            hypothesis_checked=True,
            ledger=tuple(_sum_rows(k_assoc, k_graph, ge)),
            status="asserted",
        ),
    )
    # a failed hypothesis is the counterexample; no row text follows it
    return TheoremReport(
        claim=(
            "chain gap lower bound on vertex gaps gives chain sphere-"
            "curvature sum domination"
        ),
        hypothesis_checked=hyp_note is None,
        ledger=tuple(main_rows),
        failure="sum domination fails first at R = {r}" if hyp_note is None else None,
        note=hyp_note,
        status="asserted",
        subreports=subreports,
    )


def model_sphere_equality_report(decomp: RootedDecomposition) -> TheoremReport:
    """Sphere curvature of a model graph against its associated chain.

    Both sides are computed exactly as defined: the graph side as the
    min-max over adjacent inter-sphere pairs, the chain side by the
    closed form. The report records where they agree and disagree; it is
    never asserted, because the two definitions do not provably coincide
    on every model graph (the seven-vertex example disagrees at radius 2)
    and this audit is the instrument that documents it.
    """
    verdict = is_model(decomp)
    if not verdict.is_model:
        r, side, a, b = verdict.failures[0]
        raise HypothesisFailed(
            f"not a model: {side} curvature differs on sphere {r} "
            f"(vertices {a} and {b})",
            radius=r,
            side=side,
        )
    last = decomp.horizon - 1
    _require_span(last, 1, "model sphere-curvature audit")
    chain = associated_bdc(decomp)
    rows = []
    for r in range(1, last + 1):
        lhs = sphere_curvature(decomp, r)
        rhs = bdc_ollivier_closed_form(chain, r - 1, r)
        rows.append(LedgerRow(r=r, lhs=lhs, rhs=rhs, ok=lhs == rhs))
    return TheoremReport(
        claim="model graph sphere curvatures equal the associated chain's",
        hypothesis_checked=True,
        ledger=tuple(rows),
        failure="values differ first at r = {r}: graph {lhs}, chain {rhs}",
        status="recorded",
    )
