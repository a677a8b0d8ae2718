"""Curvature notions on weighted graphs, all in exact rational arithmetic.

Three layers live here:

* inner/outer curvature of a vertex relative to a root (edge weight into the
  previous/next sphere divided by the vertex measure), and their
  measure-weighted sphere averages. Those averages are the curvatures of the
  associated birth-death chain, which is where the program reads them from.
  ``curvature_profile`` and ``associated_bdc`` sum exact weights as
  integers over a least common denominator and build one ``Fraction`` per
  value they return. The definitional functions, ``inner_curvature``,
  ``outer_curvature``, ``average_curvature``, ``graphs.sphere_measure`` and
  ``graphs.sphere_boundary``, keep their per-neighbour ``Fraction`` sums and
  stay as the independent checks of both;
* Ollivier curvature of a vertex pair via its Laplacian formulation: the
  infimum of the normalized Laplacian difference over 1-Lipschitz functions
  with unit gradient along the pair. The feasible set is a difference
  constraint polytope with integer bounds, so an integer optimizer exists;
  the solver returns the lexicographically smallest one. A perturbed
  objective (the scaled one plus the sum of f) has that point as its only
  optimum, since the optimal face is a lattice whose componentwise minimum
  has the least sum; any exact solver therefore returns the same witness.
  The cost of a pair is that of its kept arcs: the Lipschitz pairs not
  implied through x or y. An adjacent pair enumerates them from adjacency
  (its support edges, and the neighbours of x alone and of y alone that
  share another neighbour), never building a dense metric; a farther pair
  filters its BFS metric, cut at d(x, y) + 2. The objective is integers over
  one denominator, and the min-cost flow runs in primal-dual phases over the
  kept arcs only: a multi-source Dijkstra to the nearest sink, a potential
  update, a blocking flow over the tight arcs. A phase raises the
  source-sink distance by at least 1 and costs are at most d(x, y) + 2, so
  the phases are few and a pair costs O(phases x kept arcs). The solver
  certifies its flow and checks its witness on the kept arcs, which imply
  the rest. The two oracles, ``verify_witness`` and
  ``ollivier_pair_bruteforce``, share only the support rule with it: they
  build every pair's metric by BFS, never through the adjacency shortcut,
  check every pair of the support, and value a witness with the
  definitional ``Fraction`` Laplacian;
* the min-max sphere curvature built from pair curvatures.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, compress
from math import lcm
from operator import itemgetter
from typing import Dict, Optional, Tuple

from .errors import (
    CurvegraphError,
    EmptySphere,
    HorizonExceeded,
    SameVertex,
)
from .graphs import (
    Record,
    RootedDecomposition,
    VertexId,
    WeightedGraph,
    _lcd_add,
    distance,
    distance_map,
    label_key,
    sphere_measure,
)

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


def curvature_profile(
    decomp: RootedDecomposition,
) -> Dict[VertexId, Tuple[Fraction, Optional[Fraction]]]:
    """Per-vertex (inner, outer) curvatures around the decomposition's root.

    The outer entry is None on the outermost sphere: the data cannot say
    what lies beyond it. One pass over each vertex's neighbours sums the
    weights into the previous and the next sphere as integers over their
    least common denominator; each curvature is then one ``Fraction``.
    ``inner_curvature`` and ``outer_curvature`` stay the definitional check
    of these values.
    """
    adjacency = decomp.graph.adjacency
    measure = decomp.graph.measure
    dist = decomp.dist
    horizon = decomp.horizon
    per_vertex: Dict[VertexId, Tuple[Fraction, Optional[Fraction]]] = {}
    for v in decomp.graph.vertices:
        r = dist[v]
        in_n = out_n = 0
        in_d = out_d = 1
        for y, w in adjacency[v].items():
            s = dist[y]  # BFS distances of neighbours differ by at most 1
            if s < r:
                in_n, in_d = _lcd_add(in_n, in_d, w)
            elif s > r:
                out_n, out_d = _lcd_add(out_n, out_d, w)
        m_num, m_den = measure[v].numerator, measure[v].denominator
        inner = Fraction(in_n * m_den, in_d * m_num)
        outer = Fraction(out_n * m_den, out_d * m_num) if r < horizon else None
        per_vertex[v] = (inner, outer)
    return per_vertex


# ---------------------------------------------------------------------------
# Ollivier curvature of a vertex pair
# ---------------------------------------------------------------------------


class OllivierResult(Record):
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

    def __init__(self, x, y, distance, value, witness, support):
        self.__dict__.update(
            x=x, y=y, distance=distance, value=value, witness=witness, support=support
        )


def _support(g: WeightedGraph, x: VertexId, y: VertexId) -> Tuple[VertexId, ...]:
    """x, y and their neighbours in label order: the vertices the pair
    objective can see."""
    g.require_vertex(x)
    g.require_vertex(y)
    if x == y:
        raise SameVertex(f"pair curvature needs two distinct vertices, got {x!r}")
    adjacency = g.adjacency
    return tuple(sorted({x, y, *adjacency[x], *adjacency[y]}, key=label_key))


def _bfs_metric(g: WeightedGraph, support, d: int) -> dict:
    """Each support vertex's distances by a BFS cut at d(x, y) + 2: every
    support vertex lies within 1 of x or y, so no distance among them is
    larger."""
    return {u: distance_map(g, u, d + 2) for u in support}


def _metric_arcs(support, dist: dict, x: VertexId, y: VertexId) -> list:
    """The pairs a support metric keeps, as (i, j, d(u, v)) over support
    positions with i < j, the pair {x, y} left out.

    A pair is dropped when x or y, not an end, lies on a shortest u-v path:
    the two shorter pairs through it then imply its Lipschitz bound.
    """
    dx, dy = dist[x], dist[y]
    kept = []
    for i, u in enumerate(support):
        du = dist[u]
        for j in range(i + 1, len(support)):
            v = support[j]
            duv = du[v]
            if not (
                (x != u and x != v and du[x] + dx[v] == duv)
                or (y != u and y != v and du[y] + dy[v] == duv)
            ):
                kept.append((i, j, duv))
    ix, iy = support.index(x), support.index(y)
    kept.remove((min(ix, iy), max(ix, iy), dx[y]))
    return kept


def _adjacent_arcs(g: WeightedGraph, x: VertexId, y: VertexId, support) -> list:
    """The pairs ``_metric_arcs`` keeps for an adjacent pair, read from
    adjacency alone in O(sum of support degrees), never from a dense metric.

    Every support vertex but x and y is next to x, to y or to both, so no
    two lie farther apart than 3. The kept pairs are:
    * at distance 1, the support's edges;
    * at distance 2, a neighbour of x alone and a neighbour of y alone that
      share a neighbour other than x and y. Two neighbours of x are implied
      through x and two of y through y; a pair with x, y or a common
      neighbour of both at one end is implied through whichever of x and y
      its other end is next to;
    * at distance 3, none: such a pair joins a neighbour of x to a vertex at
      2 from x, so x lies on a shortest path between them.
    """
    adjacency = g.adjacency
    near_x, near_y = adjacency[x], adjacency[y]
    pos = {u: i for i, u in enumerate(support)}
    kept = []
    # a vertex other than x and y -> the positions of its neighbours that
    # are next to x alone, and of those next to y alone
    meet_x: dict = {}
    meet_y: dict = {}
    for i, u in enumerate(support):
        for v in adjacency[u]:
            j = pos.get(v)
            if j is not None and i < j:
                kept.append((i, j, 1))
        if u == x or u == y or (u in near_x) == (u in near_y):
            continue
        meets = meet_x if u in near_x else meet_y
        for c in adjacency[u]:
            if c != x and c != y:
                meets.setdefault(c, []).append(i)
    ix, iy = pos[x], pos[y]
    kept.remove((min(ix, iy), max(ix, iy), 1))
    far = set()
    for c, ends in meet_x.items():
        for j in meet_y.get(c, ()):
            near = adjacency[support[j]]
            for i in ends:
                if support[i] not in near:
                    far.add((i, j) if i < j else (j, i))
    kept += [(i, j, 2) for i, j in sorted(far)]
    return kept


def _pair_support(g: WeightedGraph, x: VertexId, y: VertexId):
    """The solver's view of a pair: the support, d = d(x, y), each support
    vertex's distance to x and to y, and the kept pairs.

    An adjacent pair reads all of it from adjacency, where every distance to
    x or y is 0, 1 or 2. A farther pair builds its metric by BFS and filters
    every pair of it with the same rule.
    """
    support = _support(g, x, y)
    adjacency = g.adjacency
    near_x, near_y = adjacency[x], adjacency[y]
    if y in near_x:
        dx = [0 if u == x else 1 if u in near_x else 2 for u in support]
        dy = [0 if u == y else 1 if u in near_y else 2 for u in support]
        return support, 1, dx, dy, _adjacent_arcs(g, x, y, support)
    dist = _bfs_metric(g, support, distance(g, x, y))
    dx, dy = dist[x], dist[y]
    return (
        support,
        dx[y],
        [dx[u] for u in support],
        [dy[u] for u in support],
        _metric_arcs(support, dist, x, y),
    )


def _oracle_support(g: WeightedGraph, x: VertexId, y: VertexId):
    """The oracles' support and metric: BFS for every pair, so a fault in the
    solver's adjacency shortcut cannot hide in its own check."""
    support = _support(g, x, y)
    return support, _bfs_metric(g, support, distance(g, x, y))


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


def _check_witness(support, pairs, witness, x, y, d) -> None:
    """Raise unless witness is an integer function on exactly the support,
    with |witness[u] - witness[v]| <= d(u, v) on every (u, v, d(u, v)) in
    pairs, witness[y] - witness[x] = d and witness[x] = 0."""
    if set(witness) != set(support):
        raise CurvegraphError("witness does not cover the pair support")
    for u in support:
        if type(witness[u]) is not int:
            raise CurvegraphError(f"witness value at {u!r} is not an integer")
    for u, v, duv in pairs:
        if abs(witness[u] - witness[v]) > duv:
            raise CurvegraphError(
                f"witness violates the Lipschitz bound on ({u!r}, {v!r})"
            )
    if witness[y] - witness[x] != d:
        raise CurvegraphError("witness gradient along the pair is not 1")
    if witness[x] != 0:
        raise CurvegraphError("witness is not normalized to 0 at x")


def _min_cost_flow_potentials(arcs, supply, pi):
    """Exact uncapacitated min-cost flow by primal-dual phases; returns the
    final potentials, which solve the flow LP's dual.

    ``arcs`` lists the network arcs as (tail, head, cost), with no capacity
    bound; ``supply[i]`` is the required net inflow at node i (integers
    summing to zero). The residual network has each arc k, always open, and
    its reverse, at the negated cost and open while ``flow[k] > 0``.
    Invariant: every open arc u->v has reduced cost c + pi[u] - pi[v] >= 0;
    ``pi`` must meet it on entry, when no reverse arc is open.

    Each iteration (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
    section 9.8) runs one Dijkstra from every node short of outflow
    (need < 0) at once, stopped at the first sink (need > 0) it settles, at
    distance dt. Every potential then grows by its distance capped at dt,
    which keeps the invariant and makes the shortest paths tight; since no
    reduced cost sees a common shift, only the settled nodes move, by their
    distance less dt. A round of blocking flow follows (Dinic): BFS levels
    over the open tight arcs, then DFS augmentations down the levels until
    every source is met or cut off. The searches visit only the nodes they
    reach and those nodes' arcs, so an iteration costs O(nodes + arcs),
    never the nodes squared.

    Phase bound: an iteration with dt >= 1, or the first, starts a phase;
    one with dt = 0 finishes the previous round's blocking flow, and since
    every round lengthens the shortest tight source-sink path by an arc,
    fewer than n follow in a row. Sources and sinks never change sides, and
    a phase raises every sink's potential by dt over every source's. So
    for a source s and a sink t left in the last phase, the phases number
    at most 1 + the growth of pi[t] - pi[s]. That difference starts at no
    less than minus the spread of the entry potentials and ends at no more
    than the shortest s-t path length. In a pair network every node reaches
    every other within d(x, y) + 2 <= C + 2, C the largest arc cost, so
    there are at most C + 3 + spread phases; the guard allows n iterations
    for each.

    Before it returns, the solver certifies its flow from the flow alone:
    every flow is >= 0, every node's inflow less its outflow is its supply,
    and every arc that carries flow is tight under the returned potentials.
    With the dual feasibility the caller checks (no kept Lipschitz bound
    broken), primal cost then equals dual value, so both are optimal.
    """
    n = len(supply)
    # residual arcs leaving each node as (head, cost, code): arc k has code
    # k and is always open; its reverse has code ~k and sits in back[head of
    # k] while flow[k] > 0
    out: list = [[] for _ in range(n)]
    for k, (u, v, c) in enumerate(arcs):
        out[u].append((v, c, k))
    back: list = [{} for _ in range(n)]
    flow = [0] * len(arcs)
    need = list(supply)
    pi = list(pi)
    guard = (max(map(itemgetter(2), arcs)) + 3 + max(pi) - min(pi)) * n
    sources = [u for u in range(n) if need[u] < 0]
    while sources:
        guard -= 1
        if guard < 0:
            raise CurvegraphError("internal flow error: iteration guard tripped")
        # Dijkstra from every source at once, to the nearest sink
        dist: list = [None] * n
        for s in sources:
            dist[s] = 0
        heap = [(0, s) for s in sources]
        settled = []
        dt = None
        while heap:
            du, u = heappop(heap)
            if du > dist[u]:
                continue
            if need[u] > 0:
                dt = du
                break
            settled.append(u)
            base = du + pi[u]
            bu = back[u]
            for v, c, _ in chain(out[u], bu.values()) if bu else out[u]:
                cand = base + c - pi[v]
                dv = dist[v]
                if dv is None or cand < dv:
                    dist[v] = cand
                    heappush(heap, (cand, v))
        if dt is None:
            raise CurvegraphError("internal flow error: no route to a sink")
        if dt:
            for u in settled:
                pi[u] += dist[u] - dt
        # BFS levels over the open tight arcs, which now reach a sink;
        # down[u] lists u's arcs to the next level as (head, code). Were
        # none reached, the round would do nothing and the guard would trip.
        level: list = [None] * n
        down: list = [()] * n
        for s in sources:
            level[s] = 0
        frontier = sources
        depth = 0
        reached = False
        while frontier and not reached:
            depth += 1
            nxt = []
            for u in frontier:
                pu = pi[u]
                step = []
                bu = back[u]
                for v, c, k in chain(out[u], bu.values()) if bu else out[u]:
                    if c + pu == pi[v]:
                        lv = level[v]
                        if lv is None:
                            level[v] = depth
                            nxt.append(v)
                            if need[v] > 0:
                                reached = True
                            step.append((v, k))
                        elif lv == depth:
                            step.append((v, k))
                down[u] = step
            frontier = nxt
        # DFS augmentations down the levels; it[u] is u's next untried arc
        it = [0] * n
        for s in sources:
            path: list = []
            nodes = [s]
            u = s
            while True:
                if need[u] > 0:
                    quota = min(-need[s], need[u])
                    for k in path:
                        if k < 0 and flow[~k] < quota:
                            quota = flow[~k]
                    for k in path:
                        if k >= 0:
                            if not flow[k]:
                                t, h, c = arcs[k]
                                back[h][k] = (t, -c, ~k)
                            flow[k] += quota
                        else:
                            k = ~k
                            flow[k] -= quota
                            if not flow[k]:
                                del back[arcs[k][1]][k]
                    need[s] += quota
                    need[u] -= quota
                    if not need[s]:
                        break
                    path = []
                    nodes = [s]
                    u = s
                step = down[u]
                i = it[u]
                while i < len(step):
                    v, k = step[i]
                    if level[v] is not None and (k >= 0 or flow[~k]):
                        break
                    i += 1
                it[u] = i
                if i < len(step):
                    path.append(k)
                    nodes.append(v)
                    u = v
                else:
                    # a dead end: nothing enters u again this round
                    level[u] = None
                    nodes.pop()
                    if not nodes:
                        break
                    path.pop()
                    u = nodes[-1]
                    it[u] += 1
        sources = [s for s in sources if need[s] < 0]
    # the certificate, from the flow alone: each node's inflow less its
    # outflow is its supply, and the arcs that carry flow are tight
    left = list(supply)
    for k in compress(range(len(flow)), flow):
        u, v, c = arcs[k]
        f = flow[k]
        if f < 0:
            raise CurvegraphError("internal flow error: negative flow")
        if c + pi[u] != pi[v]:
            raise CurvegraphError("internal flow error: flow on an arc that is not tight")
        left[u] += f
        left[v] -= f
    if any(left):
        raise CurvegraphError("internal flow error: supplies not met")
    return pi


def ollivier_pair(g: WeightedGraph, x: VertexId, y: VertexId) -> OllivierResult:
    """Exact Ollivier curvature of the pair (x, y).

    Minimizes (Delta f(y) - Delta f(x)) / d(x, y) over integer 1-Lipschitz f
    on the support {x, y} and their neighbors, with f(x) = 0 and
    f(y) = d(x, y). Solved as an exact min-cost flow on the dual of the
    difference-constraint system; a secondary perturbation picks the
    lexicographically smallest optimal witness.

    The network has one arc each way per kept pair, plus x->y at -d and
    y->x at d, so a pair costs O(phases x kept arcs). Arc costs are at most
    d + 2 and the initial potentials span at most d, so there are at most
    2d + 3 phases (``_min_cost_flow_potentials``); on an adjacent pair, at
    most 5. The perturbed optimum is unique, so the witness does not depend
    on the order the solver takes its arcs in.

    The Lipschitz bounds of the pruned pairs hold anyway, by induction on
    d(u, v): a pruned pair has x (or y), not an end, on a shortest u-v path,
    so d(u, v) = d(u, x) + d(x, v) with both terms shorter than d(u, v), and
    |f(u) - f(v)| <= |f(u) - f(x)| + |f(x) - f(v)| <= d(u, x) + d(x, v).
    Each of the two shorter pairs is kept, is {x, y}, whose bound the
    gradient fixes, or is pruned and implied in turn. So checking the witness
    on the kept pairs checks it on the whole support.
    """
    support, d, dx, dy, kept = _pair_support(g, x, y)
    ix = support.index(x)
    iy = support.index(y)

    coef, den = _objective_coefficients(g, x, y)

    # Integer supplies: scale the objective past the perturbation gap, then
    # add an all-ones secondary weight (balanced at the gauge vertex x). The
    # optimal face is a lattice, so this selects its componentwise-minimal,
    # hence lexicographically smallest, integer point. At integer points the
    # primary objective sum c[u] f(u) is an integer, so two different values
    # of it differ by at least width in the supplies, more than the secondary
    # sum of f can vary; an unreduced den only widens that gap.
    width = 1 + 2 * sum(dx)
    supply = [width * coef[u] + 1 for u in support]
    supply[ix] -= len(support)
    if sum(supply) != 0:
        raise CurvegraphError("internal error: unbalanced supplies")

    # the two Lipschitz arcs of each kept pair, at d(u, v) each way, and of
    # {x, y}, where x->y costs -d: that forces witness[y] - witness[x] = d
    arcs: list = [(ix, iy, -d), (iy, ix, d)]
    for i, j, c in kept:
        arcs += ((i, j, c), (j, i, c))

    # Closed-form valid initial potentials: shortest distances with the one
    # negative arc folded in.
    pi = _min_cost_flow_potentials(arcs, supply, [min(0, e - d) for e in dy])

    p = pi[ix]
    witness = {u: p - pi[i] for i, u in enumerate(support)}
    _check_witness(
        support,
        [(support[i], support[j], c) for i, j, c in kept],
        witness,
        x,
        y,
        d,
    )
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
    support, dist = _oracle_support(g, x, y)
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

    The replay rebuilds the support metric by BFS and, through the
    definitional Laplacian (``_witness_value``), the value. It shares no
    state with the solve and never reads the solver's adjacency shortcut, so
    a fault in the solver's metric cannot hide in its own check.
    """
    support, dist = _oracle_support(g, result.x, result.y)
    d = dist[result.x][result.y]
    if result.distance != d:
        raise CurvegraphError("recorded pair distance is wrong")
    pairs = [
        (u, v, dist[u][v]) for i, u in enumerate(support) for v in support[i + 1 :]
    ]
    _check_witness(support, pairs, result.witness, result.x, result.y, d)
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
