"""Ollivier curvature on weighted graphs, all in exact rational arithmetic.

The rooted inner and outer curvatures live in ``graphs``, so that a command
about them alone never compiles the pair solver; their four functions are
imported back here as the same objects. Two layers live here:

* Ollivier curvature of a vertex pair via its Laplacian formulation: the
  infimum of the normalized Laplacian difference over 1-Lipschitz functions
  with unit gradient along the pair. The feasible set is a difference
  constraint polytope with integer bounds, so an integer optimizer exists;
  the solver returns the lexicographically smallest one, the only optimum
  of a perturbed objective (``ollivier_pair``). It reads the Lipschitz
  pairs not implied through x or y, found by local searches
  (``_pair_support``), and the integer Laplacian rows of x and y that the
  graph keeps. With f(x) = 0 and f(y) = d(x, y), each other support vertex
  is confined to a box of at most 3 integers by its bounds to x and y; a
  kept pair that some point of two boxes breaks links its ends, and the
  linked groups are independent. A lone vertex takes the end of its box
  that the sign of its coefficient picks, a group of up to 3 vertices is
  exhausted, and only a larger group sends the whole support to a
  primal-dual min-cost flow over the kept arcs, which certifies its flow
  and potentials. The witness is checked against every kept pair either
  way; ``ollivier_pair``'s docstring has the proof. The two oracles,
  ``verify_witness`` and ``ollivier_pair_bruteforce``, share only the support with it: they
  build the support's full metric by a BFS from each support vertex and
  check every pair of it, and they read the definitional ``Fraction``
  Laplacian, the replay to value the witness, the brute force once per
  support vertex for its integer coefficient;
* the min-max sphere curvature built from pair curvatures, solving only
  the pairs that can decide it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, compress, product, repeat
from math import lcm
from operator import itemgetter, mul
from typing import Dict, Tuple

from .errors import (
    CurvegraphError,
    EmptySphere,
    HorizonExceeded,
    SameVertex,
)
from .graphs import (  # noqa: F401 (the rooted curvatures, imported back)
    Record,
    RootedDecomposition,
    VertexId,
    WeightedGraph,
    average_curvature,
    curvature_profile,
    distance,
    distance_map,
    inner_curvature,
    laplacian,
    outer_curvature,
)

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
    return tuple(sorted({x, y, *adjacency[x], *adjacency[y]}, key=g._rank.__getitem__))


def _pair_support(g: WeightedGraph, x: VertexId, y: VertexId):
    """The solver's view of a pair: the support, d = d(x, y), each support
    vertex's distance to x and to y, and the kept pairs as (i, j, d(u, v))
    over support positions, by one rule at every distance.

    A BFS from x that ends with the level holding y gives d and d(x, .), and
    one from y cut at d gives d(y, .); a support vertex neither reaches is
    at d + 1. With "x-only" a neighbour of x that is not one of y, and
    "y-only" likewise, the kept pairs are:
    * (a) the support's edges but {x, y};
    * (b) x and each y-only v, at d(x, v), unless d(x, v) = d + 1; and y
      and each x-only u the same way;
    * (c) an x-only u and a y-only v, not adjacent, joined by a path that
      avoids x and y and is shorter than both routes through them,
      1 + d(x, v) and d(u, y) + 1. A BFS from u that never steps onto x
      or y, cut at d(u, y) - 1, finds each such v one step past a vertex
      it reaches, at d(u, v).
    ``ollivier_pair``'s docstring says why no other pair is kept. No search
    goes past d from x or y, or past d(u, y) from u, and no metric over
    every pair of the support is built.
    """
    support = _support(g, x, y)
    adjacency = g.adjacency
    to_x = distance_map(g, x, target=y)
    d = to_x[y]
    to_y = distance_map(g, y, d)
    dx = list(map(to_x.get, support, repeat(d + 1)))
    dy = list(map(to_y.get, support, repeat(d + 1)))
    pos = dict(zip(support, range(len(support))))
    ix, iy = pos[x], pos[y]
    kept = []
    x_only = []
    meet: dict = {}  # a vertex -> the positions of its y-only neighbours
    for i, u in enumerate(support):
        row = adjacency[u]
        # (a), each edge from its earlier end; only x's or y's row holds
        # {x, y}, and it skips the other
        skip = iy if i == ix else ix if i == iy else None
        for v in row:
            j = pos.get(v, -1)
            if i < j != skip:
                kept.append((i, j, 1))
        # (b), and what (c) reads: the x-only positions and the meets
        if dx[i] == 1 < dy[i]:
            x_only.append(i)
            if dy[i] <= d:
                kept.append((iy, i, dy[i]))
        elif dy[i] == 1 < dx[i]:
            for v in row:
                meet.setdefault(v, []).append(i)
            if dx[i] <= d:
                kept.append((ix, i, dx[i]))
    # (c): each round finds the vertices at depth - 1 from u, whose y-only
    # neighbours lie at depth unless found nearer
    for i in x_only if meet else ():
        u = support[i]
        found = set(meet.get(u, ()))  # u's edges, kept in (a)
        seen = {x, y, u}
        level = [u]
        for depth in range(2, dy[i] + 1):
            nxt = []
            for w in level:
                for c in adjacency[w]:
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
                        for j in meet.get(c, ()):
                            if j not in found:
                                found.add(j)
                                if depth <= dx[j]:
                                    kept.append((i, j, depth))
            level = nxt
    return support, d, dx, dy, kept


def _oracle_support(g: WeightedGraph, x: VertexId, y: VertexId):
    """The oracles' support and metric: each support vertex's distances by
    a BFS cut at d(x, y) + 2, since every support vertex lies within 1 of x
    or y and no distance among them is larger. It never reads the solver's
    kept-pair rule, so a fault there cannot hide in its own check."""
    support = _support(g, x, y)
    d = distance(g, x, y)
    return support, {u: distance_map(g, u, d + 2) for u in support}


def _min_cost_flow_potentials(arcs, out, supply, pi):
    """Exact uncapacitated min-cost flow by primal-dual phases; returns the
    final potentials, which solve the flow LP's dual.

    ``arcs`` lists the network arcs as (tail, head, cost), with no capacity
    bound, and ``out[u]`` the arcs leaving u as (head, cost, k) in the order
    of k; ``supply[i]`` is the required net inflow at node i (integers
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
    there are at most C + 3 + spread phases, 2 d(x, y) + 4 from the warm
    potentials of ``ollivier_pair``, whose spread is at most d(x, y) + 1;
    the guard allows n iterations for each.

    Before it returns, the solver certifies its answer: every flow is >= 0,
    every node's inflow less its outflow is its supply, every arc that
    carries flow is tight under the returned potentials, and no arc's
    reduced cost is negative. The flow is then feasible, the potentials
    dual feasible, and primal cost equals dual value, so both are optimal.
    """
    n = len(supply)
    # residual arcs leaving each node as (head, cost, code): arc k has code
    # k and is always open, in out; its reverse has code ~k and sits in
    # back[head of k] while flow[k] > 0
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
    # the certificate: each node's inflow less its outflow is its supply,
    # the arcs that carry flow are tight, and no arc's bound is broken
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
    for u, v, c in arcs:
        if c + pi[u] < pi[v]:
            raise CurvegraphError("internal flow error: an arc's reduced cost is negative")
    return pi


def ollivier_pair(g: WeightedGraph, x: VertexId, y: VertexId) -> OllivierResult:
    """Exact Ollivier curvature of the pair (x, y).

    Minimizes (Delta f(y) - Delta f(x)) / d(x, y) over integer 1-Lipschitz f
    on the support {x, y} and their neighbors, with f(x) = 0 and
    f(y) = d(x, y): the objective is sum c(u) f(u) / (den d) with integer
    coefficients c. A secondary perturbation picks the lexicographically
    smallest optimal witness: the solve minimizes width * sum c f + sum f,
    whose unique minimum is the least (sum c f, sum f) in lexicographic
    order (the comment on the supplies in ``_flow_witness`` says why).

    The pair is solved by parts. Write lo(u) = max(-d(x, u), d - d(y, u))
    and hi(u) = min(d(x, u), d + d(y, u)), the bounds of the pairs {x, u}
    and {y, u} once f(x) = 0 and f(y) = d, and call [lo(u), hi(u)] the box
    of u; x's box is {0} and y's is {d}.
    * A box has at most 3 points: every other support vertex is a
      neighbour of x, so its box lies in [-1, 1], or of y, in [d - 1, d + 1].
    * The feasible set is the points of the boxes that keep every kept
      pair: a box's bounds are pair bounds of the support, which the kept
      pairs imply (see below). A kept pair {u, v} whose bound holds at
      every point of the two boxes, that is hi(u) - lo(v) and
      hi(v) - lo(u) are at most d(u, v), can then be dropped; a pair with
      x or y is one of the bounds that make a box, so it always is. The
      kept pairs left are the links.
    * The links join the free vertices into groups. The feasible set is
      now the boxes and the links, each link within one group, so it is
      the product of the groups' sets, and the objective is a sum over the
      groups: the groups are independent.
    * On a product, a sum of pairs (sum c f, sum f) is least in
      lexicographic order exactly when each group's part is least in its
      group; any other point is larger in some part and no smaller in any.
      So the perturbed optimum restricted to a group is the group's least
      (sum c f, sum f), which is unique because the whole optimum is.
    * A group of one vertex has no link, so its points are its box, and
      (c v, v) is least at lo when c >= 0 (c = 0 leaves v to be least) and
      at hi when c < 0: the sign rule.
    A group of up to ``_EXHAUSTED`` = 3 vertices is exhausted over its at
    most 27 points (``_group_optimum``). If a group is larger, the whole
    support goes to the min-cost flow (``_flow_witness``). Either way, the
    witness is checked against every kept pair and the gradient before it
    is returned, so only a fault in the solve can fail that check.

    The flow's network has one arc each way per kept pair, plus x->y at -d
    and y->x at d, so a pair costs O(phases x kept arcs). Arc costs are at
    most d + 2 and the initial potentials span at most d + 1, so there are
    at most 2d + 4 phases (``_min_cost_flow_potentials``); on an adjacent
    pair, at most 6. The perturbed optimum is unique, so the witness
    depends neither on the order of the arcs nor on the valid entry
    potentials, nor on which of the two ways solved it.

    The Lipschitz bounds of the pruned pairs hold anyway, by induction on
    d(u, v): a pruned pair has x (or y), not an end, on a shortest u-v path,
    so d(u, v) = d(u, x) + d(x, v) with both terms shorter than d(u, v), and
    |f(u) - f(v)| <= |f(u) - f(x)| + |f(x) - f(v)| <= d(u, x) + d(x, v).
    Each of the two shorter pairs is kept, is {x, y}, whose bound the
    gradient fixes, or is pruned and implied in turn. So checking the witness
    on the kept pairs checks it on the whole support.

    ``_pair_support`` keeps exactly the pairs no such x or y prunes, with
    "x-only" a neighbour of x that is not one of y, and "y-only" likewise:
    * an edge has no vertex strictly between its ends, so it is kept;
    * two neighbours of x that are not adjacent lie at 2 = 1 + 1 through x,
      so they are pruned; so are two of y, through y;
    * a common neighbour of x and y at one end is a neighbour of both, so
      it and a neighbour of x are two neighbours of x, and it and a
      neighbour of y two of y: pruned unless adjacent;
    * x and a y-only v: only y can lie between them, and does exactly when
      d(x, v) = d + d(y, v) = d + 1; likewise y and an x-only u;
    * an x-only u and a y-only v: x lies between them exactly when
      d(u, v) = 1 + d(x, v), and y exactly when d(u, v) = d(u, y) + 1.
      Both are upper bounds on d(u, v), so the pair is kept exactly when
      d(u, v) is below both. A path that short cannot pass through x or y,
      so a BFS from u that never steps onto them finds v within d(u, y)
      steps, and a longer path around them fails the bound;
    * x and y, whose pair is the gradient arc, and x or y with a neighbour
      of its own, an edge, leave nothing else in the support.
    """
    support, d, dx, dy, kept = _pair_support(g, x, y)
    ix, iy = support.index(x), support.index(y)

    # Delta f(y) - Delta f(x) = sum coef[i] f(i) / den, from the graph's
    # integer Laplacian rows of y and x over the lcm of their denominators
    (den_y, row_y), (den_x, row_x) = g._laplacian_rows[y], g._laplacian_rows[x]
    den = lcm(den_x, den_y)
    by_vertex = dict.fromkeys(support, 0)
    for row, scale in ((row_y, den // den_y), (row_x, -(den // den_x))):
        for u, q in row.items():
            by_vertex[u] += scale * q
    coef = list(by_vertex.values())

    # each vertex's box, its bounds to x and to y with f(x) = 0 and
    # f(y) = d, and the sign rule's point of it; the links, the kept pairs
    # some point of their ends' boxes breaks, join the free vertices into
    # groups (x's box is {0} and y's {d}, so neither is in a link)
    lo = [max(-a, d - b) for a, b in zip(dx, dy)]
    hi = [min(a, d + b) for a, b in zip(dx, dy)]
    f = [h if c < 0 else l for l, h, c in zip(lo, hi, coef)]
    links = [(i, j, e) for i, j, e in kept if hi[i] - lo[j] > e or hi[j] - lo[i] > e]
    group: dict = {}
    for i, j, _ in links:
        a, b = group.setdefault(i, [i]), group.setdefault(j, [j])
        if a is not b:
            a += b
            for k in b:
                group[k] = a
    groups = {id(m): m for m in group.values()}.values()
    if all(len(m) <= _EXHAUSTED for m in groups):
        for m in groups:
            for i, v in zip(m, _group_optimum(m, links, lo, hi, coef)):
                f[i] = v
    else:
        f = _flow_witness(support, ix, iy, d, dx, dy, kept, coef)

    # the witness must keep every kept pair's bound, which imply the rest,
    # and the gradient
    if f[ix] or f[iy] != d or any(abs(f[i] - f[j]) > e for i, j, e in kept):
        raise CurvegraphError("internal pair error: the witness breaks a kept bound")
    value = Fraction(sum(map(mul, coef, f)), den * d)
    return OllivierResult(
        x=x, y=y, distance=d, value=value, witness=dict(zip(support, f)), support=support
    )


# the largest group of free vertices ``ollivier_pair`` solves by exhaustion,
# over at most 3 ** 3 = 27 points
_EXHAUSTED = 3


def _group_optimum(members, links, lo, hi, coef):
    """The least (sum coef f, sum f) over the integer points f of the
    members' boxes that keep every link among them, as values in member
    order; the perturbed optimum there (``ollivier_pair``)."""
    ends = [(members.index(i), members.index(j), e) for i, j, e in links if i in members]
    weights = [coef[i] for i in members]
    best = None
    for p in product(*[range(lo[i], hi[i] + 1) for i in members]):
        for a, b, e in ends:
            if abs(p[a] - p[b]) > e:
                break
        else:
            key = sum(map(mul, weights, p)), sum(p)
            if best is None or key < best:
                best, point = key, p
    return point


def _flow_witness(support, ix, iy, d, dx, dy, kept, coef):
    """The perturbed optimum of the whole support by min-cost flow, as
    values in support order."""
    # Integer supplies: scale the objective past the perturbation gap, then
    # add an all-ones secondary weight (balanced at the gauge vertex x). The
    # optimal face is a lattice, so this selects its componentwise-minimal,
    # hence lexicographically smallest, integer point. At integer points the
    # primary objective sum c[u] f(u) is an integer, so two different values
    # of it differ by at least width in the supplies, more than the secondary
    # sum of f can vary; an unreduced den only widens that gap.
    width = 1 + 2 * sum(dx)
    supply = [width * c + 1 for c in coef]
    supply[ix] -= len(support)
    if sum(supply) != 0:
        raise CurvegraphError("internal error: unbalanced supplies")

    # the two Lipschitz arcs of each kept pair, at d(u, v) each way, and of
    # {x, y}, where x->y costs -d: that forces witness[y] - witness[x] = d
    arcs: list = [(ix, iy, -d), (iy, ix, d)]
    for i, j, c in kept:
        arcs += ((i, j, c), (j, i, c))
    out: list = [[] for _ in support]
    for k, (i, j, c) in enumerate(arcs):
        out[i].append((j, c, k))

    # warm entry potentials in [-d, 1]: -f for f = min(d(x, .), d - d(y, .)),
    # 1-Lipschitz with f(x) = 0 and f(y) = d, so no reduced cost is negative
    pi = [max(-a, b - d) for a, b in zip(dx, dy)]
    pi = _min_cost_flow_potentials(arcs, out, supply, pi)
    p = pi[ix]
    return [p - q for q in pi]


def ollivier_pair_bruteforce(g: WeightedGraph, x: VertexId, y: VertexId) -> OllivierResult:
    """Independent oracle: exhaustive search over integer Lipschitz functions.

    Enumerates, in lexicographic order over the sorted support, every integer
    assignment inside the Lipschitz box and keeps the first minimizer. Each
    support vertex u's coefficient, Delta 1_u(y) - Delta 1_u(x) for 1_u the
    indicator of u, is read once from the definitional Laplacian and scaled
    to an integer over the lcm; a running integer sum carries the objective
    down the enumeration. Meant for small supports only.
    """
    support, dist = _oracle_support(g, x, y)
    d = dist[x][y]
    zero = dict.fromkeys(support, 0)
    ones = {u: {**zero, u: 1} for u in support}  # each u's indicator function
    coef = {u: laplacian(g, one, y) - laplacian(g, one, x) for u, one in ones.items()}
    scale = lcm(*[c.denominator for c in coef.values()])
    weight = {u: c.numerator * (scale // c.denominator) for u, c in coef.items()}
    free = [u for u in support if u != x and u != y]

    best: list = [None, None]  # scaled objective, witness

    def walk(k: int, assigned: dict, total: int):
        if k == len(free):
            if best[0] is None or total < best[0]:
                best[0] = total
                best[1] = dict(assigned)
            return
        v, near = free[k], dist[free[k]]
        lo = max([val - near[u] for u, val in assigned.items()])
        hi = min([val + near[u] for u, val in assigned.items()])
        c = weight[v]
        for a in range(lo, hi + 1):
            assigned[v] = a
            walk(k + 1, assigned, total + c * a)
        assigned.pop(v, None)

    walk(0, {x: 0, y: d}, weight[y] * d)
    if best[0] is None:
        raise CurvegraphError("internal oracle error: no feasible assignment")
    value = Fraction(best[0], scale * d)
    return OllivierResult(
        x=x, y=y, distance=d, value=value, witness=best[1], support=support
    )


def verify_witness(g: WeightedGraph, result: OllivierResult) -> None:
    """Re-check the witness invariants and value from scratch; raise on failure.

    The replay rebuilds the full support metric by BFS and, through the
    definitional ``Fraction`` Laplacian, the value. It shares no state with
    the solve, never reads the solver's kept-arc rule and checks every pair
    of the support, so a fault in the solver's rule cannot hide in its own
    check.
    """
    x, y, witness = result.x, result.y, result.witness
    support, dist = _oracle_support(g, x, y)
    d = dist[x][y]
    if result.distance != d:
        raise CurvegraphError("recorded pair distance is wrong")
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
    if witness[y] - witness[x] != d:
        raise CurvegraphError("witness gradient along the pair is not 1")
    if witness[x] != 0:
        raise CurvegraphError("witness is not normalized to 0 at x")
    if (laplacian(g, witness, y) - laplacian(g, witness, x)) / d != result.value:
        raise CurvegraphError("witness does not reproduce the reported value")


# ---------------------------------------------------------------------------
# sphere curvature and the birth-death closed form
# ---------------------------------------------------------------------------


def sphere_curvature(decomp: RootedDecomposition, r: int) -> Fraction:
    """min over y in sphere r of max over inward neighbors x of k(x, y).

    Solves only the pairs that can still decide the min-max, in two passes.
    Write M(y) for y's max. Pass 1 solves, for each y in shell order, the
    pair of its first inward neighbour in adjacency order, whose value L(y)
    is at most M(y). Pass 2 visits the vertices in ascending L(y) and keeps
    ``best``, the least M(y) over the vertices whose pairs it has all
    solved. It stops at the first y with L(y) >= best; within a y it stops
    once the running max reaches best; a y whose pairs all get solved sets
    best to M(y), which is then below it.

    The result is the min-max by construction. ``best`` is some M(y), and
    no skipped vertex has a smaller max: a y left within its pairs has
    M(y) >= its running max >= best; a y left at the stop, and every one
    after it in ascending order, has M(y) >= L(y) >= best. ``best`` only
    falls, so each bound holds against its final value too. Each pair is
    solved at most once, so never more often than by a plain min-max.
    """
    if r < 1 or r > decomp.horizon:
        raise HorizonExceeded(
            f"sphere curvature defined for 1 <= r <= {decomp.horizon}, got {r}",
            radius=r,
        )
    shell = decomp.sphere(r)
    if not shell:
        raise EmptySphere(f"sphere {r} is empty", radius=r)
    g = decomp.graph
    dist = decomp.dist
    lower = []
    for y in shell:
        inward = [x for x in g.adjacency[y] if dist[x] == r - 1]
        if not inward:
            raise EmptySphere(
                f"vertex {y!r} on sphere {r} has no inward neighbor", radius=r
            )
        lower.append((ollivier_pair(g, inward[0], y).value, y, inward))
    # stable, and keyed on the value alone: labels need not be comparable
    lower.sort(key=itemgetter(0))
    best = None
    for top, y, inward in lower:
        if best is not None and top >= best:
            break
        for x in inward[1:]:
            top = max(top, ollivier_pair(g, x, y).value)
            if best is not None and top >= best:
                break
        else:
            best = top
    return best
