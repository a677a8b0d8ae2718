"""Curvature notions on weighted graphs, all in exact rational arithmetic.

Three layers live here:

* inner/outer curvature of a vertex relative to a root (edge weight into the
  previous/next sphere divided by the vertex measure), and their
  measure-weighted sphere averages;
* Ollivier curvature of a vertex pair via its Laplacian formulation: the
  infimum of the normalized Laplacian difference over 1-Lipschitz functions
  with unit gradient along the pair. The feasible set is a difference
  constraint polytope with integer bounds, so an integer optimizer exists;
  the solver returns the lexicographically smallest one;
* the min-max sphere curvature built from pair curvatures, plus the closed
  form it collapses to on birth-death chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from .errors import (
    BadRadiusOrder,
    CurvegraphError,
    EmptySphere,
    HorizonExceeded,
    SameVertex,
)
from .graphs import (
    RootedDecomposition,
    VertexId,
    WeightedGraph,
    distance_map,
    label_key,
    sphere_boundary,
    sphere_measure,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .chains import BirthDeathChain


# ---------------------------------------------------------------------------
# inner / outer curvature and sphere averages
# ---------------------------------------------------------------------------


def inner_curvature(
    g: WeightedGraph, decomp: RootedDecomposition, x: VertexId
) -> Fraction:
    """Weight into the previous sphere over m(x); zero at the root."""
    r = decomp.radius_of(x)
    if r == 0:
        return Fraction(0)
    acc = Fraction(0)
    for y, w in g.adjacency[x].items():
        if decomp.dist[y] == r - 1:
            acc += w
    return acc / g.measure[x]


def outer_curvature(
    g: WeightedGraph, decomp: RootedDecomposition, x: VertexId
) -> Fraction:
    """Weight into the next sphere over m(x); undefined on the outermost sphere."""
    r = decomp.radius_of(x)
    if r == decomp.horizon:
        raise HorizonExceeded(
            f"outer curvature of {x!r} needs sphere {r + 1}, beyond the data",
            radius=r,
        )
    acc = Fraction(0)
    for y, w in g.adjacency[x].items():
        if decomp.dist[y] == r + 1:
            acc += w
    return acc / g.measure[x]


def inner_outer(
    g: WeightedGraph, decomp: RootedDecomposition, x: VertexId
) -> Tuple[Fraction, Fraction]:
    """(inner, outer) curvature of x. Raises on the outermost sphere."""
    return inner_curvature(g, decomp, x), outer_curvature(g, decomp, x)


def average_curvature(
    g: WeightedGraph, decomp: RootedDecomposition, r: int, side: str
) -> Fraction:
    """Measure-weighted average of inner or outer curvature over sphere r."""
    if side not in ("inner", "outer"):
        raise ValueError(f"side must be 'inner' or 'outer', got {side!r}")
    if r < 0 or r > decomp.horizon or (side == "outer" and r == decomp.horizon):
        raise HorizonExceeded(
            f"average {side} curvature undefined at radius {r} "
            f"(horizon {decomp.horizon})",
            radius=r,
        )
    fn = inner_curvature if side == "inner" else outer_curvature
    acc = Fraction(0)
    for x in decomp.sphere(r):
        acc += fn(g, decomp, x) * g.measure[x]
    return acc / sphere_measure(g, decomp, r)


@dataclass(frozen=True)
class RadiusSummary:
    radius: int
    avg_inner: Fraction
    avg_outer: Optional[Fraction]
    sphere_volume: Fraction
    boundary: Optional[Fraction]


@dataclass(frozen=True)
class CurvatureProfile:
    """Per-vertex and per-radius curvature data for one rooted graph.

    Outer-side entries are None on the outermost sphere: the data cannot say
    what lies beyond it. ``valid_radius`` is the last radius whose outer data
    is trustworthy.
    """

    root: VertexId
    per_vertex: Dict[VertexId, Tuple[Fraction, Optional[Fraction]]]
    per_radius: Tuple[RadiusSummary, ...]
    valid_radius: int

    def gap(self, r: int) -> Fraction:
        """Average outer minus average inner curvature at radius r."""
        if r < 0 or r > self.valid_radius:
            raise HorizonExceeded(
                f"gap undefined at radius {r} (valid through {self.valid_radius})",
                radius=r,
            )
        row = self.per_radius[r]
        return row.avg_outer - row.avg_inner


def curvature_profile(g: WeightedGraph, decomp: RootedDecomposition) -> CurvatureProfile:
    """Per-vertex curvatures, and per-radius averages from one sphere pass.

    Sphere r's averaged outer curvature is its boundary weight over m(S_r),
    its averaged inner curvature the boundary weight of sphere r - 1 over
    m(S_r).
    """
    h = decomp.horizon
    per_vertex: Dict[VertexId, Tuple[Fraction, Optional[Fraction]]] = {}
    for v in g.vertices:
        inner = inner_curvature(g, decomp, v)
        outer = None
        if decomp.dist[v] < h:
            outer = outer_curvature(g, decomp, v)
        per_vertex[v] = (inner, outer)
    rows = []
    inward = Fraction(0)
    for r in range(h + 1):
        volume = sphere_measure(g, decomp, r)
        boundary = sphere_boundary(g, decomp, r) if r < h else None
        rows.append(
            RadiusSummary(
                radius=r,
                avg_inner=inward / volume,
                avg_outer=None if boundary is None else boundary / volume,
                sphere_volume=volume,
                boundary=boundary,
            )
        )
        inward = boundary
    return CurvatureProfile(
        root=decomp.root,
        per_vertex=per_vertex,
        per_radius=tuple(rows),
        valid_radius=h - 1,
    )


# ---------------------------------------------------------------------------
# Ollivier curvature of a vertex pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OllivierResult:
    """Exact pair curvature with its optimizing function.

    The witness is integer-valued, 1-Lipschitz on the support, has
    witness[y] - witness[x] = d(x, y) and witness[x] = 0, and reproduces the
    value as (Delta w(y) - Delta w(x)) / d(x, y).
    """

    x: VertexId
    y: VertexId
    distance: int
    value: Fraction
    witness: Dict[VertexId, int]
    support: Tuple[VertexId, ...]


def _pair_support(g: WeightedGraph, x: VertexId, y: VertexId):
    """Vertices the pair objective can see, with their full-graph metric."""
    members = {x, y}
    members.update(g.adjacency[x])
    members.update(g.adjacency[y])
    support = tuple(sorted(members, key=label_key))
    dist = {u: distance_map(g, u) for u in support}
    return support, dist


def _objective_coefficients(g: WeightedGraph, x: VertexId, y: VertexId) -> dict:
    """Coefficients c with Delta f(y) - Delta f(x) = sum_u c[u] f(u)."""
    coef: dict = {}
    my = g.measure[y]
    mx = g.measure[x]
    for z, w in g.adjacency[y].items():
        coef[y] = coef.get(y, Fraction(0)) + w / my
        coef[z] = coef.get(z, Fraction(0)) - w / my
    for z, w in g.adjacency[x].items():
        coef[x] = coef.get(x, Fraction(0)) - w / mx
        coef[z] = coef.get(z, Fraction(0)) + w / mx
    return coef


def _witness_value(
    g: WeightedGraph, x: VertexId, y: VertexId, witness: dict, d: int
) -> Fraction:
    def lap(v):
        acc = Fraction(0)
        for z, w in g.adjacency[v].items():
            acc += w * (witness[v] - witness[z])
        return acc / g.measure[v]

    return (lap(y) - lap(x)) / d


def _dense_dijkstra(n, cmat, pi, flow, s):
    """Shortest reduced-cost distances from s in the residual network.

    Forward arcs exist between all ordered pairs; the backward arc u->v
    exists while flow on (v, u) is positive. The potential invariant keeps
    every residual reduced cost nonnegative.
    """
    INF = float("inf")
    dist = [INF] * n
    parent: list = [None] * n
    done = [False] * n
    dist[s] = 0
    for _ in range(n):
        u = -1
        best = INF
        for i in range(n):
            if not done[i] and dist[i] < best:
                best = dist[i]
                u = i
        if u < 0:
            break
        done[u] = True
        du = dist[u]
        piu = pi[u]
        for v in range(n):
            if v == u or done[v]:
                continue
            cand = du + cmat[u][v] + piu - pi[v]
            if cand < dist[v]:
                dist[v] = cand
                parent[v] = (u, False)
            if flow.get((v, u), 0) > 0:
                cand = du - cmat[v][u] + piu - pi[v]
                if cand < dist[v]:
                    dist[v] = cand
                    parent[v] = (u, True)
    return dist, parent


def _min_cost_flow_potentials(n, cmat, supply, pi):
    """Exact uncapacitated min-cost flow; returns the final potentials.

    ``supply[i]`` is the required net inflow at node i (integers summing to
    zero); ``pi`` must make every arc's reduced cost nonnegative on entry.
    The returned potentials are an optimal solution of the flow LP's dual.
    """
    flow: dict = {}
    need = list(supply)
    guard = 100 * (n + 2) ** 2
    while True:
        s = -1
        for i in range(n):
            if need[i] < 0:
                s = i
                break
        if s < 0:
            break
        dist, parent = _dense_dijkstra(n, cmat, pi, flow, s)
        t = -1
        for i in range(n):
            if need[i] > 0 and (t < 0 or dist[i] < dist[t]):
                t = i
        if t < 0 or dist[t] == float("inf"):
            raise CurvegraphError("internal flow error: no route to a sink")
        quota = min(-need[s], need[t])
        node = t
        while node != s:
            prev, backward = parent[node]
            if backward:
                quota = min(quota, flow[(node, prev)])
            node = prev
        node = t
        while node != s:
            prev, backward = parent[node]
            if backward:
                left = flow[(node, prev)] - quota
                if left:
                    flow[(node, prev)] = left
                else:
                    del flow[(node, prev)]
            else:
                flow[(prev, node)] = flow.get((prev, node), 0) + quota
            node = prev
        need[s] += quota
        need[t] -= quota
        dt = dist[t]
        for i in range(n):
            di = dist[i]
            pi[i] += dt if di > dt else di
        guard -= 1
        if guard <= 0:
            raise CurvegraphError("internal flow error: iteration guard tripped")
    return pi


def ollivier_pair(g: WeightedGraph, x: VertexId, y: VertexId) -> OllivierResult:
    """Exact Ollivier curvature of the pair (x, y).

    Minimizes (Delta f(y) - Delta f(x)) / d(x, y) over integer 1-Lipschitz f
    on the support {x, y} and their neighbors, with f(x) = 0 and
    f(y) = d(x, y). Solved as an exact min-cost flow on the dual of the
    difference-constraint system; a secondary perturbation picks the
    lexicographically smallest optimal witness.
    """
    g.require_vertex(x)
    g.require_vertex(y)
    if x == y:
        raise SameVertex(f"pair curvature needs two distinct vertices, got {x!r}")
    support, dist = _pair_support(g, x, y)
    n = len(support)
    index = {u: i for i, u in enumerate(support)}
    ix, iy = index[x], index[y]
    d = dist[x][y]

    coef = _objective_coefficients(g, x, y)

    # Integer supplies: scale the objective past the perturbation gap, then
    # add an all-ones secondary weight (balanced at the gauge vertex x). The
    # optimal face is a lattice, so this selects its componentwise-minimal,
    # hence lexicographically smallest, integer point.
    den = 1
    for q in coef.values():
        den = lcm(den, q.denominator)
    width = 1 + sum(2 * dist[x][u] for u in support)
    scale = den * width
    supply = []
    for u in support:
        base = scale * coef.get(u, Fraction(0))
        supply.append(base.numerator + (1 - n if u == x else 1))
    if sum(supply) != 0:
        raise CurvegraphError("internal error: unbalanced supplies")

    cmat = [[0] * n for _ in range(n)]
    for i, u in enumerate(support):
        for j, v in enumerate(support):
            if i != j:
                cmat[i][j] = dist[u][v]
    cmat[ix][iy] = -d  # forces witness[y] - witness[x] = d

    # Closed-form valid initial potentials: shortest distances with the one
    # negative arc folded in.
    pi = [min(0, dist[y][u] - d) for u in support]
    pi = _min_cost_flow_potentials(n, cmat, supply, pi)

    base = pi[ix]
    witness = {support[i]: base - pi[i] for i in range(n)}
    if witness[y] - witness[x] != d:
        raise CurvegraphError("internal solver error: pair gradient not unit")
    for i, u in enumerate(support):
        for v in support[i + 1 :]:
            if abs(witness[u] - witness[v]) > dist[u][v]:
                raise CurvegraphError("internal solver error: witness not Lipschitz")
    value = _witness_value(g, x, y, witness, d)
    return OllivierResult(
        x=x, y=y, distance=d, value=value, witness=witness, support=support
    )


def ollivier_pair_bruteforce(g: WeightedGraph, x: VertexId, y: VertexId) -> OllivierResult:
    """Independent oracle: exhaustive search over integer Lipschitz functions.

    Enumerates, in lexicographic order over the sorted support, every integer
    assignment inside the Lipschitz box and keeps the first minimizer. Meant
    for small supports only.
    """
    g.require_vertex(x)
    g.require_vertex(y)
    if x == y:
        raise SameVertex(f"pair curvature needs two distinct vertices, got {x!r}")
    support, dist = _pair_support(g, x, y)
    d = dist[x][y]
    free = [u for u in support if u != x and u != y]
    pinned = {x: 0, y: d}

    best: list = [None, None]  # value, witness

    def walk(k: int, assigned: dict):
        if k == len(free):
            value = _witness_value(g, x, y, assigned, d)
            if best[0] is None or value < best[0]:
                best[0] = value
                best[1] = dict(assigned)
            return
        v = free[k]
        lo = -dist[v][x]
        hi = dist[v][x]
        for u, val in assigned.items():
            duv = dist[u][v]
            lo = max(lo, val - duv)
            hi = min(hi, val + duv)
        for a in range(lo, hi + 1):
            assigned[v] = a
            walk(k + 1, assigned)
        if v in assigned:
            del assigned[v]

    walk(0, dict(pinned))
    if best[0] is None:
        raise CurvegraphError("internal oracle error: no feasible assignment")
    return OllivierResult(
        x=x,
        y=y,
        distance=d,
        value=best[0],
        witness=best[1],
        support=support,
    )


def verify_witness(g: WeightedGraph, result: OllivierResult) -> None:
    """Re-check the three witness invariants from scratch; raise on failure."""
    support, dist = _pair_support(g, result.x, result.y)
    if tuple(sorted(result.witness, key=label_key)) != support:
        raise CurvegraphError("witness does not cover the pair support")
    for u in support:
        if not isinstance(result.witness[u], int):
            raise CurvegraphError(f"witness value at {u!r} is not an integer")
    for i, u in enumerate(support):
        for v in support[i + 1 :]:
            if abs(result.witness[u] - result.witness[v]) > dist[u][v]:
                raise CurvegraphError(
                    f"witness violates the Lipschitz bound on ({u!r}, {v!r})"
                )
    d = dist[result.x][result.y]
    if result.distance != d:
        raise CurvegraphError("recorded pair distance is wrong")
    if result.witness[result.y] - result.witness[result.x] != d:
        raise CurvegraphError("witness gradient along the pair is not 1")
    if result.witness[result.x] != 0:
        raise CurvegraphError("witness is not normalized to 0 at x")
    if _witness_value(g, result.x, result.y, result.witness, d) != result.value:
        raise CurvegraphError("witness does not reproduce the reported value")


# ---------------------------------------------------------------------------
# sphere curvature and the birth-death closed form
# ---------------------------------------------------------------------------


def sphere_curvature(g: WeightedGraph, decomp: RootedDecomposition, r: int) -> Fraction:
    """min over y in sphere r of max over inward neighbors x of k(x, y)."""
    if r < 1 or r > decomp.horizon:
        raise HorizonExceeded(
            f"sphere curvature defined for 1 <= r <= {decomp.horizon}, got {r}",
            radius=r,
        )
    shell = decomp.sphere(r)
    if not shell:
        raise EmptySphere(f"sphere {r} is empty", radius=r)
    best = None
    for v in shell:
        worst = None
        for u in g.adjacency[v]:
            if decomp.dist[u] == r - 1:
                k = ollivier_pair(g, u, v).value
                if worst is None or k > worst:
                    worst = k
        if worst is None:
            raise EmptySphere(
                f"vertex {v!r} on sphere {r} has no inward neighbor", radius=r
            )
        if best is None or worst < best:
            best = worst
    return best


def bdc_ollivier_closed_form(chain: "BirthDeathChain", r: int, R: int) -> Fraction:
    """Pair curvature k(r, R) on a birth-death chain, in closed form.

    Needs 0 <= r < R <= horizon - 1: the Laplacian at R looks one step past R.
    """
    if r >= R:
        raise BadRadiusOrder(f"need r < R, got r={r}, R={R}")
    if r < 0 or R > chain.horizon - 1:
        raise HorizonExceeded(
            f"closed form needs 0 <= r < R <= {chain.horizon - 1}, got "
            f"r={r}, R={R}",
            radius=R,
        )
    b = chain.weights
    m = chain.measures

    def inward(t: int) -> Fraction:
        return b[t - 1] if t >= 1 else Fraction(0)

    gap = R - r
    return (inward(R) - b[R]) / (gap * m[R]) - (inward(r) - b[r]) / (gap * m[r])
