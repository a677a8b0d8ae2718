"""Curvature notions on weighted graphs, all in exact rational arithmetic.

Three layers live here:

* inner/outer curvature of a vertex relative to a root (edge weight into the
  previous/next sphere divided by the vertex measure), and their
  measure-weighted sphere averages. Those averages are the curvatures of the
  associated birth-death chain, which is where the program reads them from;
  ``average_curvature`` sums a sphere vertex by vertex and stays as the
  independent check of that chain;
* Ollivier curvature of a vertex pair via its Laplacian formulation: the
  infimum of the normalized Laplacian difference over 1-Lipschitz functions
  with unit gradient along the pair. The feasible set is a difference
  constraint polytope with integer bounds, so an integer optimizer exists;
  the solver returns the lexicographically smallest one. Its cost is local:
  an adjacent pair's support metric is read from adjacency alone (every
  distance is 0 to 3), a farther pair's from BFS cut at d(x, y) + 2; the
  objective is integers over one denominator; and the min-cost flow runs
  heap Dijkstras, each stopped at the nearest sink, over only the Lipschitz
  arcs not implied through x or y. ``verify_witness`` replays a result
  against the definitional ``Fraction`` Laplacian, sharing none of that
  arithmetic;
* the min-max sphere curvature built from pair curvatures, plus the closed
  form it collapses to on birth-death chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
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
    sphere_measure,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .chains import BirthDeathChain


# ---------------------------------------------------------------------------
# inner / outer curvature and sphere averages
# ---------------------------------------------------------------------------


def inner_curvature(decomp: RootedDecomposition, x: VertexId) -> Fraction:
    """Weight into the previous sphere over m(x); zero at the root."""
    r = decomp.radius_of(x)
    if r == 0:
        return Fraction(0)
    acc = Fraction(0)
    for y, w in decomp.graph.adjacency[x].items():
        if decomp.dist[y] == r - 1:
            acc += w
    return acc / decomp.graph.measure[x]


def outer_curvature(decomp: RootedDecomposition, x: VertexId) -> Fraction:
    """Weight into the next sphere over m(x); undefined on the outermost sphere."""
    r = decomp.radius_of(x)
    if r == decomp.horizon:
        raise HorizonExceeded(
            f"outer curvature of {x!r} needs sphere {r + 1}, beyond the data",
            radius=r,
        )
    acc = Fraction(0)
    for y, w in decomp.graph.adjacency[x].items():
        if decomp.dist[y] == r + 1:
            acc += w
    return acc / decomp.graph.measure[x]


def inner_outer(decomp: RootedDecomposition, x: VertexId) -> Tuple[Fraction, Fraction]:
    """(inner, outer) curvature of x. Raises on the outermost sphere."""
    return inner_curvature(decomp, x), outer_curvature(decomp, x)


def average_curvature(decomp: RootedDecomposition, r: int, side: str) -> Fraction:
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
        acc += fn(decomp, x) * decomp.graph.measure[x]
    return acc / sphere_measure(decomp, r)


@dataclass(frozen=True)
class CurvatureProfile:
    """Inner and outer curvature of every vertex of one rooted graph.

    The outer entry is None on the outermost sphere: the data cannot say
    what lies beyond it. The per-radius averages and sphere volumes are the
    associated chain's (``chains.associated_bdc``), not stored here.
    """

    root: VertexId
    per_vertex: Dict[VertexId, Tuple[Fraction, Optional[Fraction]]]


def curvature_profile(decomp: RootedDecomposition) -> CurvatureProfile:
    """Per-vertex (inner, outer) curvatures around the decomposition's root."""
    per_vertex: Dict[VertexId, Tuple[Fraction, Optional[Fraction]]] = {}
    for v in decomp.graph.vertices:
        inner = inner_curvature(decomp, v)
        outer = None
        if decomp.dist[v] < decomp.horizon:
            outer = outer_curvature(decomp, v)
        per_vertex[v] = (inner, outer)
    return CurvatureProfile(root=decomp.root, per_vertex=per_vertex)


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
    """Vertices the pair objective can see, with their metric.

    Each support vertex lies within 1 of x or y, so every distance among them
    is at most d(x, y) + 2. For an adjacent pair that bound is 3, and the
    metric needs no search: two support vertices are at distance 1 when they
    are joined, 2 when they share a neighbour, and 3 otherwise. A farther
    pair finds d(x, y) with a BFS that stops once it reaches y, and each
    support vertex's distances with a BFS cut at d(x, y) + 2.
    """
    g.require_vertex(x)
    g.require_vertex(y)
    if x == y:
        raise SameVertex(f"pair curvature needs two distinct vertices, got {x!r}")
    adjacency = g.adjacency
    support = tuple(sorted({x, y, *adjacency[x], *adjacency[y]}, key=label_key))
    if y not in adjacency[x]:
        d = distance_map(g, x, target=y)[y]
        return support, {u: distance_map(g, u, d + 2) for u in support}
    dist = {u: {u: 0} for u in support}
    for i, u in enumerate(support):
        near = adjacency[u]
        row = dist[u]
        for v in support[i + 1 :]:
            if v in near:
                duv = 1
            elif near.keys().isdisjoint(adjacency[v].keys()):
                duv = 3
            else:
                duv = 2
            row[v] = dist[v][u] = duv
    return support, dist


def _objective_coefficients(g: WeightedGraph, x: VertexId, y: VertexId):
    """Integers c and den with Delta f(y) - Delta f(x) = sum_u c[u] f(u) / den.

    Each w/m enters as the integers w.num * m.den over w.den * m.num, and den
    is the lcm of those denominators, so no ``Fraction`` is built. den may be
    an unreduced multiple of the coefficients' least common denominator.
    """
    terms = []
    for v, sign in ((y, 1), (x, -1)):
        m = g.measure[v]
        for z, w in g.adjacency[v].items():
            terms.append(
                (v, z, sign * w.numerator * m.denominator, w.denominator * m.numerator)
            )
    den = lcm(*(term[3] for term in terms))
    coef: dict = {}
    for v, z, num, q_den in terms:
        q = num * (den // q_den)
        coef[v] = coef.get(v, 0) + q
        coef[z] = coef.get(z, 0) - q
    return coef, den


def _witness_value(
    g: WeightedGraph, x: VertexId, y: VertexId, witness: dict, d: int
) -> Fraction:
    def lap(v):
        acc = Fraction(0)
        for z, w in g.adjacency[v].items():
            acc += w * (witness[v] - witness[z])
        return acc / g.measure[v]

    return (lap(y) - lap(x)) / d


def _check_witness(support, dist, witness, x, y) -> None:
    """Raise unless witness is an integer 1-Lipschitz function on exactly the
    support, with witness[y] - witness[x] = d(x, y) and witness[x] = 0."""
    if set(witness) != set(support):
        raise CurvegraphError("witness does not cover the pair support")
    for u in support:
        if type(witness[u]) is not int:
            raise CurvegraphError(f"witness value at {u!r} is not an integer")
    for i, u in enumerate(support):
        for v in support[i + 1 :]:
            if abs(witness[u] - witness[v]) > dist[u][v]:
                raise CurvegraphError(
                    f"witness violates the Lipschitz bound on ({u!r}, {v!r})"
                )
    if witness[y] - witness[x] != dist[x][y]:
        raise CurvegraphError("witness gradient along the pair is not 1")
    if witness[x] != 0:
        raise CurvegraphError("witness is not normalized to 0 at x")


def _dijkstra(arcs, out, flow, pi, need, s):
    """Shortest reduced-cost path from s to the nearest sink (need > 0).

    ``out[u]`` lists the ids of the arcs leaving u; a reverse arc (odd id)
    is open while its forward arc carries flow. The potential invariant
    keeps every open arc's reduced cost nonnegative, so a settled node is
    never improved, and the search stops at the first sink it settles.
    Returns (t, dist, parent): the sink, or None when no sink is reachable;
    each node's distance, exact for the nodes settled before t, tentative
    (and at least dist[t]) or None for the rest; and ``parent[v]``, the arc
    that reached v.
    """
    dist: list = [None] * len(out)
    parent: list = [None] * len(out)
    dist[s] = 0
    heap = [(0, s)]
    while heap:
        du, u = heappop(heap)
        if du > dist[u]:
            continue
        if need[u] > 0:
            return u, dist, parent
        base = du + pi[u]
        for a in out[u]:
            if a & 1 and not flow[a >> 1]:
                continue
            v, c = arcs[a]
            cand = base + c - pi[v]
            if dist[v] is None or cand < dist[v]:
                dist[v] = cand
                parent[v] = a
                heappush(heap, (cand, v))
    return None, dist, parent


def _min_cost_flow_potentials(arcs, supply, pi):
    """Exact uncapacitated min-cost flow; returns the final potentials.

    ``arcs`` is the residual network, a list of paired (head, cost) arcs:
    arc 2k is the k-th network arc, with no capacity bound, and arc 2k + 1
    is its reverse, with the negated cost, open while ``flow[k] > 0``. The
    tail of arc a is the head of arc a ^ 1. ``supply[i]`` is the required
    net inflow at node i (integers summing to zero). Invariant: every open
    arc u->v has reduced cost c + pi[u] - pi[v] >= 0. ``pi`` must meet it on
    entry, when no reverse arc is open; each augmentation along a shortest
    path to the nearest sink t keeps it, once every node's potential grows
    by its distance, capped at dist[t] (the nodes the search did not settle
    get dist[t]). The returned potentials solve the flow LP's dual.
    """
    n = len(supply)
    out: list = [[] for _ in range(n)]
    for a in range(len(arcs)):
        out[arcs[a ^ 1][0]].append(a)
    flow = [0] * (len(arcs) // 2)
    need = list(supply)
    guard = 100 * (n + 2) ** 2
    while True:
        s = next((i for i in range(n) if need[i] < 0), None)
        if s is None:
            return pi
        t, dist, parent = _dijkstra(arcs, out, flow, pi, need, s)
        if t is None:
            raise CurvegraphError("internal flow error: no route to a sink")
        path = []
        node = t
        while node != s:
            path.append(parent[node])
            node = arcs[parent[node] ^ 1][0]
        quota = min([-need[s], need[t]] + [flow[a >> 1] for a in path if a & 1])
        for a in path:
            flow[a >> 1] += -quota if a & 1 else quota
        need[s] += quota
        need[t] -= quota
        dt = dist[t]
        pi = [p + (dt if di is None else min(di, dt)) for p, di in zip(pi, dist)]
        guard -= 1
        if guard <= 0:
            raise CurvegraphError("internal flow error: iteration guard tripped")


def ollivier_pair(g: WeightedGraph, x: VertexId, y: VertexId) -> OllivierResult:
    """Exact Ollivier curvature of the pair (x, y).

    Minimizes (Delta f(y) - Delta f(x)) / d(x, y) over integer 1-Lipschitz f
    on the support {x, y} and their neighbors, with f(x) = 0 and
    f(y) = d(x, y). Solved as an exact min-cost flow on the dual of the
    difference-constraint system; a secondary perturbation picks the
    lexicographically smallest optimal witness.
    """
    support, dist = _pair_support(g, x, y)
    ix = support.index(x)
    d = dist[x][y]

    coef, den = _objective_coefficients(g, x, y)

    # Integer supplies: scale the objective past the perturbation gap, then
    # add an all-ones secondary weight (balanced at the gauge vertex x). The
    # optimal face is a lattice, so this selects its componentwise-minimal,
    # hence lexicographically smallest, integer point. At integer points the
    # primary objective sum c[u] f(u) is an integer, so two different values
    # of it differ by at least width in the supplies, more than the secondary
    # sum of f can vary; an unreduced den only widens that gap.
    width = 1 + sum(2 * dist[x][u] for u in support)
    supply = [width * coef[u] + 1 for u in support]
    supply[ix] -= len(support)
    if sum(supply) != 0:
        raise CurvegraphError("internal error: unbalanced supplies")

    # Lipschitz arcs u->v of cost d(u, v), each followed by its reverse,
    # except those with x or y (not an endpoint) on a shortest u-v path: the
    # two arcs through it imply them. x->y costs -d, which forces
    # witness[y] - witness[x] = d.
    dx, dy = dist[x], dist[y]
    arcs: list = []
    for i, u in enumerate(support):
        du = dist[u]
        for j, v in enumerate(support):
            if v != u and not (
                (x != u and x != v and du[x] + dx[v] == du[v])
                or (y != u and y != v and du[y] + dy[v] == du[v])
            ):
                c = -d if (u == x and v == y) else du[v]
                arcs += ((j, c), (i, -c))

    # Closed-form valid initial potentials: shortest distances with the one
    # negative arc folded in.
    pi = [min(0, dy[u] - d) for u in support]
    pi = _min_cost_flow_potentials(arcs, supply, pi)

    witness = {u: pi[ix] - pi[i] for i, u in enumerate(support)}
    _check_witness(support, dist, witness, x, y)
    value = Fraction(sum(c * witness[u] for u, c in coef.items()), den * d)
    return OllivierResult(
        x=x, y=y, distance=d, value=value, witness=witness, support=support
    )


def ollivier_pair_bruteforce(g: WeightedGraph, x: VertexId, y: VertexId) -> OllivierResult:
    """Independent oracle: exhaustive search over integer Lipschitz functions.

    Enumerates, in lexicographic order over the sorted support, every integer
    assignment inside the Lipschitz box and keeps the first minimizer. Meant
    for small supports only.
    """
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
        assigned.pop(v, None)

    walk(0, dict(pinned))
    if best[0] is None:
        raise CurvegraphError("internal oracle error: no feasible assignment")
    return OllivierResult(
        x=x, y=y, distance=d, value=best[0], witness=best[1], support=support
    )


def verify_witness(g: WeightedGraph, result: OllivierResult) -> None:
    """Re-check the witness invariants and value from scratch; raise on failure.

    The replay recomputes the support metric and, through the definitional
    Laplacian (``_witness_value``), the value. It shares no state with the
    solve, so a fault in the solver's metric cannot hide in its own check.
    """
    support, dist = _pair_support(g, result.x, result.y)
    d = dist[result.x][result.y]
    if result.distance != d:
        raise CurvegraphError("recorded pair distance is wrong")
    _check_witness(support, dist, result.witness, result.x, result.y)
    if _witness_value(g, result.x, result.y, result.witness, d) != result.value:
        raise CurvegraphError("witness does not reproduce the reported value")


# ---------------------------------------------------------------------------
# sphere curvature and the birth-death closed form
# ---------------------------------------------------------------------------


def sphere_curvature(decomp: RootedDecomposition, r: int) -> Fraction:
    """min over y in sphere r of max over inward neighbors x of k(x, y)."""
    if r < 1 or r > decomp.horizon:
        raise HorizonExceeded(
            f"sphere curvature defined for 1 <= r <= {decomp.horizon}, got {r}",
            radius=r,
        )
    shell = decomp.sphere(r)
    if not shell:
        raise EmptySphere(f"sphere {r} is empty", radius=r)
    g = decomp.graph
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
