"""Ollivier curvature on weighted graphs, all in exact rational arithmetic.

The rooted inner and outer curvatures live in ``graphs``, so that a command
about them alone never compiles the pair solver; their four functions are
imported back here as the same objects. Two layers live here:

* Ollivier curvature of a vertex pair via its Laplacian formulation: the
  infimum of the normalized Laplacian difference over 1-Lipschitz functions
  with unit gradient along the pair. The feasible set is a difference
  constraint polytope with integer bounds, so an integer optimizer exists;
  the solver returns the least one, componentwise and so lexicographically
  (``ollivier_pair``). It reads the Lipschitz pairs not implied through x
  or y, found by local searches (``_pair_support``), and the integer
  Laplacian rows of x and y that the graph keeps. With f(x) = 0 and
  f(y) = d(x, y), each other support vertex is confined to a box of at
  most 3 integers by its bounds to x and y; a kept pair that some point of
  two boxes breaks links its ends, and the linked groups are independent. A lone vertex takes the end of its box
  that the sign of its coefficient picks, a group of up to 3 vertices is
  exhausted, and a larger group goes alone to one minimum cut of the
  implications its links and boxes make, which certifies its flow and
  cut. The witness is checked against every kept pair either way;
  ``ollivier_pair``'s docstring has the proof. The two oracles,
  ``verify_witness`` and ``ollivier_pair_bruteforce``, share only the support with it: they
  build the support's full metric by a BFS from each support vertex and
  check every pair of it, and they read the definitional ``Fraction``
  Laplacian, the replay to value the witness, the brute force once per
  support vertex for its integer coefficient;
* the min-max sphere curvature built from pair curvatures, solving only
  the pairs that can decide it. Each adjacent pair is first bounded below
  with no solve, by the sign rule over its boxes with every link dropped
  (``_sign_rule_bound``), read from the two Laplacian rows alone; the
  bound is exact on a tree edge.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, product, repeat
from math import lcm
from operator import gt, itemgetter, le, mul, not_
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


def ollivier_pair(g: WeightedGraph, x: VertexId, y: VertexId) -> OllivierResult:
    """Exact Ollivier curvature of the pair (x, y).

    Minimizes (Delta f(y) - Delta f(x)) / d(x, y) over integer 1-Lipschitz f
    on the support {x, y} and their neighbors, with f(x) = 0 and
    f(y) = d(x, y): the objective is sum c(u) f(u) / (den d) with integer
    coefficients c. Of the optimal witnesses it returns the least. One
    exists: the feasible set is closed under componentwise min and max,
    and c min(f, g) + c max(f, g) = c f + c g, so the min of two optima is
    an optimum. The least optimum is the lexicographically smallest, and
    the only one with the least sum f: it is the least (sum c f, sum f).

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
    * On a product, the optima are the products of the groups' optima, so
      the least optimum restricted to a group is the group's least
      (sum c f, sum f).
    * A group of one vertex has no link, so its points are its box, and
      (c v, v) is least at lo when c >= 0 (c = 0 leaves v to be least) and
      at hi when c < 0: the sign rule.
    A group of up to ``_EXHAUSTED`` = 3 vertices is exhausted over its at
    most 27 points (``_group_optimum``), and a larger group goes alone to
    one minimum cut (``_closure_optimum``). Either way, the witness is
    checked against every kept pair and the gradient before it is
    returned, so only a fault in a solve can fail that check.

    A group's cut network has at most 2 nodes per member and 4 arcs per
    link, so a solve costs O(phases x (links + members)). The least
    optimum is unique, so the witness depends neither on the arcs' order
    nor on which way solved a group.

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

    # Delta f(y) - Delta f(x) = sum coef[i] f(i) / den
    den, rows = _scaled_rows(g, x, y)
    by_vertex = dict.fromkeys(support, 0)
    for row, scale in rows:
        for u, q in row.items():
            by_vertex[u] += scale * q
    coef = list(by_vertex.values())
    if sum(coef):  # the Laplacian of a constant is 0
        raise CurvegraphError("internal error: unbalanced supplies")

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
            if len(a) < len(b):  # the smaller list moves, so merging is linear
                a, b = b, a
            a += b
            for k in b:
                group[k] = a
    parts = {id(m): (m, []) for m in group.values()}  # each group, its links
    for link in links:
        parts[id(group[link[0]])][1].append(link)
    for m, own in parts.values():
        solve = _group_optimum if len(m) <= _EXHAUSTED else _closure_optimum
        for i, v in zip(m, solve(m, own, lo, hi, coef)):
            f[i] = v

    # the witness must keep every kept pair's bound, which imply the rest,
    # and the gradient
    if f[ix] or f[iy] != d or any(abs(f[i] - f[j]) > e for i, j, e in kept):
        raise CurvegraphError("internal pair error: the witness breaks a kept bound")
    value = Fraction(sum(map(mul, coef, f)), den * d)
    return OllivierResult(
        x=x, y=y, distance=d, value=value, witness=dict(zip(support, f)), support=support
    )


def _scaled_rows(g: WeightedGraph, x: VertexId, y: VertexId):
    """den and the integer Laplacian rows of y and x with their scales:
    Delta f(y) - Delta f(x) = sum of scale q f(u) over both rows' (u, q),
    over den, the lcm of the rows' denominators."""
    (den_y, row_y), (den_x, row_x) = g._laplacian_rows[y], g._laplacian_rows[x]
    den = lcm(den_x, den_y)
    return den, ((row_y, den // den_y), (row_x, -(den // den_x)))


def _sign_rule_bound(g: WeightedGraph, x: VertexId, y: VertexId) -> Fraction:
    """A lower bound on k(x, y) for adjacent x and y, exact on a tree edge:
    the sign rule's optimum with every link dropped.

    With f(x) = 0 and f(y) = 1, the boxes are {0} for x, {1} for y,
    [-1, 1] for a neighbour of x alone, [0, 2] for one of y alone and
    [0, 1] for one of both. Every Lipschitz f lies in them, so the least
    sum c(u) f(u) over their product, each vertex at the end its
    coefficient's sign picks, is at most the pair's. A tree edge has no
    link, so there it is the pair's. Read from the two rows alone: no
    support search and no solve."""
    den, ((row_y, s_y), (row_x, s_x)) = _scaled_rows(g, x, y)
    total = s_y * row_y[y] + s_x * row_x[y]
    for u, q in row_y.items():
        if u != x and u != y:  # x, in both rows, adds nothing: its box is {0}
            c = s_y * q + s_x * row_x.get(u, 0)
            total += min(c, 0) if u in row_x else min(2 * c, 0)
    for u, q in row_x.items():
        if u not in row_y:  # row_y holds x and y
            total -= abs(s_x * q)
    return Fraction(total, den)


# the largest group of free vertices ``ollivier_pair`` solves by exhaustion,
# over at most 3 ** 3 = 27 points
_EXHAUSTED = 3


def _group_optimum(members, links, lo, hi, coef):
    """The least (sum coef f, sum f) over the integer points f of the
    members' boxes that keep their links, as values in member order: the
    least optimum there (``ollivier_pair``)."""
    ends = [(members.index(i), members.index(j), e) for i, j, e in links]
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


def _closure_optimum(members, links, lo, hi, coef):
    """``_group_optimum`` by one minimum cut, for a larger group.

    A point f of the members' boxes is the set of its thresholds
    [f(u) >= t], lo(u) < t <= hi(u), and f keeps its links exactly when
    that set is a closure: [f(u) >= t + 1] implies [f(u) >= t], and for a
    link {u, v} at e, [f(u) >= t] implies [f(v) >= t - e] when t - e > lo(v);
    boxes are 1-Lipschitz, so t - e never passes hi(v). Up to a constant,
    sum c f is the sum of c(u) over the closure, so the optimum is a
    minimum-weight closure (Picard, Management Science 22, 1976): the source
    side of a minimum s-t cut, with an arc s->z at -c(u) for each threshold
    z of a u with c(u) < 0, z->t at c(u) for each of a u with c(u) > 0, and
    each implication an arc that no cut can pay for.

    Dinic's phases of BFS levels and blocking flows find a maximum flow;
    each lengthens the shortest residual s-t path, so fewer phases than
    nodes run. The nodes s then reaches are the least optimal closure.
    Before it returns, the solve certifies that every flow is within its
    capacity and conserved, that no implication leaves the reached set, and
    that the flow's value is the cut's capacity, so both are optimal.
    """
    # node at[u] + t is [f(u) >= t]; source[z] and sink[z] are the
    # capacities of s->z and z->t, and fill[z] and drain[z] their rooms left
    at, source, sink = {}, [], []
    for i in members:
        at[i] = len(source) - lo[i] - 1
        c, w = coef[i], hi[i] - lo[i]
        source += [max(-c, 0)] * w
        sink += [max(c, 0)] * w
    n = len(source)
    fill, drain = source[:], sink[:]
    # the implications, tails[a] -> heads[a]: each member's, as a link of
    # u and u at 1, then each link's both ways
    tails, heads = [], []
    turned = [(j, i, e) for i, j, e in links]
    for u, v, e in chain(zip(members, members, repeat(1)), links, turned):
        for t in range(max(lo[u], lo[v] + e) + 1, hi[u] + 1):
            tails.append(at[u] + t)
            heads.append(at[v] + t - e)
    # the residual network: arc a < m is implication a, with room cap[a]
    # past any cut of weights alone, and a + m its reverse, with room the
    # flow on a; the other of arc b is b - m, an index of cap either way
    m = len(tails)
    fro, to = tails + heads, heads + tails
    uncut = 1 + sum(source)
    cap = [uncut] * m + [0] * m
    out: list = [[] for _ in range(n)]
    for b, u in enumerate(fro):
        out[u].append(b)

    for _ in range(n + 1):
        # BFS levels: s at 0, the nodes it has room to at 1, and t one past
        # the nearest node with room to t
        level = [1 if room else -1 for room in fill]
        starts = list(compress(range(n), fill))
        queue = starts[:]
        for u in queue:
            below = level[u] + 1
            for b in out[u]:
                v = to[b]
                if cap[b] and level[v] < 0:
                    level[v] = below
                    queue.append(v)
        last = next((level[z] for z in queue if drain[z]), 0)
        if not last:
            break
        # a blocking flow from each start down the levels; tried[u] counts
        # u's arcs known to lead nowhere this phase
        tried = [0] * n
        for start in starts:
            path: list = []
            u = start
            while fill[start]:
                if drain[u] and level[u] == last:
                    room = min([fill[start], drain[u], *[cap[b] for b in path]])
                    fill[start] -= room
                    drain[u] -= room
                    for b in path:
                        cap[b] -= room
                        cap[b - m] += room
                    path = []
                    u = start
                    continue
                leaving = out[u]
                below = level[u] + 1
                i = tried[u]
                while i < len(leaving) and not (
                    cap[leaving[i]] and level[to[leaving[i]]] == below <= last
                ):
                    i += 1
                tried[u] = i
                if i < len(leaving):
                    path.append(leaving[i])
                    u = to[leaving[i]]
                elif path:
                    u = fro[path.pop()]
                    tried[u] += 1
                else:
                    break
    else:
        raise CurvegraphError("internal closure error: phase guard tripped")

    # the certificate, against the cut of s and the nodes it reaches
    reached = [h >= 0 for h in level]
    flow = cap[m:]
    if min(fill + drain + flow) < 0 or max(flow) > uncut or not (
        all(map(le, fill, source)) and all(map(le, drain, sink))
    ):
        raise CurvegraphError("internal closure error: a flow breaks its capacity")
    net = [a - b - c + d for a, b, c, d in zip(source, fill, sink, drain)]
    for a in compress(range(m), flow):
        net[tails[a]] -= flow[a]
        net[heads[a]] += flow[a]
    if any(net):
        raise CurvegraphError("internal closure error: flow is not conserved")
    if any(map(gt, map(reached.__getitem__, tails), map(reached.__getitem__, heads))):
        raise CurvegraphError("internal closure error: an implication leaves the cut")
    cut = sum(compress(sink, reached)) + sum(compress(source, map(not_, reached)))
    if cut != sum(source) - sum(fill):
        raise CurvegraphError("internal closure error: the flow does not fill the cut")
    return [lo[i] + sum(reached[at[i] + lo[i] + 1 : at[i] + hi[i] + 1]) for i in members]


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

    Solves only the pairs that can still decide the min-max. Write M(y)
    for y's max, and L(y) for the max over y's inward pairs of their
    sign-rule bounds (``_sign_rule_bound``), each read from two Laplacian
    rows with no solve: each bound is at most its pair's value, so
    L(y) <= M(y). The vertices are visited in ascending L(y), and ``best``
    is the least M(y) over the vertices whose pairs have all been solved.
    Each visited y solves its pairs in descending bound, from a running max
    of L(y). The visit stops at the first y with L(y) >= best; within a y
    it stops once the running max reaches best; a y whose pairs all get
    solved sets best to M(y), which is then below it.

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
        inward = [(_sign_rule_bound(g, x, y), x) for x in g.adjacency[y] if dist[x] == r - 1]
        if not inward:
            raise EmptySphere(
                f"vertex {y!r} on sphere {r} has no inward neighbor", radius=r
            )
        # both sorts are stable and keyed on the value alone: labels need
        # not be comparable
        inward.sort(key=itemgetter(0), reverse=True)
        lower.append((inward[0][0], y, inward))
    lower.sort(key=itemgetter(0))
    best = None
    for bound, y, inward in lower:
        if best is not None and bound >= best:
            break
        top = bound
        for _, x in inward:
            top = max(top, ollivier_pair(g, x, y).value)
            if best is not None and top >= best:
                break
        else:
            best = top
    return best
