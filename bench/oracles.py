"""Independent oracles for the benchmark's output checks.

Nothing here imports curvegraph. Every oracle has its own BFS, its own
Laplacian and its own sphere sums, and reads the program's output only as
text. A check raises OracleError on the first disagreement.

Sign conventions follow the program's documented ones: the Laplacian is
Delta f(v) = (1/m(v)) * sum_z b(v, z) (f(v) - f(z)), and the pair curvature
is the minimum of (Delta f(y) - Delta f(x)) / d(x, y) over integer
1-Lipschitz f on the pair support with f(x) = 0 and f(y) = d(x, y).
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

_RATIONAL = re.compile(r"^-?\d+/\d+$")


class OracleError(Exception):
    """An output disagrees with an independent computation."""


class Graph:
    """Measures and symmetric weights keyed by vertex id."""

    def __init__(self, measure, edges):
        self.measure = dict(measure)
        self.adj = {v: {} for v in self.measure}
        for u, v, b in edges:
            self.adj[u][v] = b
            self.adj[v][u] = b

    def edge_set(self):
        return {(min(u, v), max(u, v)): b for u in self.adj for v, b in self.adj[u].items()}


def rational(text) -> Fraction:
    """Parse a canonical ``p/q`` string; anything else is an error."""
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise OracleError(f"not a canonical rational: {text!r}")
    value = Fraction(text)
    if f"{value.numerator}/{value.denominator}" != text:
        raise OracleError(f"rational not in lowest terms: {text!r}")
    return value


def _expect(cond, message):
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# metric and Laplacian
# ---------------------------------------------------------------------------


def bfs(g: Graph, source, limit=None) -> dict:
    """Distances from source, level by level, optionally cut at depth limit."""
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and (limit is None or depth < limit):
        depth += 1
        nxt = []
        for u in frontier:
            for v in g.adj[u]:
                if v not in dist:
                    dist[v] = depth
                    nxt.append(v)
        frontier = nxt
    return dist


def distance(g: Graph, x, y) -> int:
    """d(x, y) by BFS from x that stops at the level holding y."""
    seen = {x}
    frontier = [x]
    depth = 0
    while y not in seen:
        _expect(frontier, f"{y} is not reachable from {x}")
        depth += 1
        nxt = []
        for u in frontier:
            for v in g.adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return depth


def laplacian(g: Graph, f, v) -> Fraction:
    total = Fraction(0)
    for z, b in g.adj[v].items():
        total += b * (f[v] - f[z])
    return total / g.measure[v]


def pair_support(g: Graph, x, y):
    return {x, y} | set(g.adj[x]) | set(g.adj[y])


def pair_metric(g: Graph, x, y):
    """d(x, y) and the distances between support vertices.

    Every support vertex lies within d + 2 of every other, so BFS cut at
    that depth sees them all.
    """
    d = distance(g, x, y)
    support = pair_support(g, x, y)
    dist = {u: bfs(g, u, d + 2) for u in support}
    return d, support, dist


def replay_pair(g: Graph, x, y, witness: dict, value: Fraction, distance: int) -> None:
    """The witness is a feasible point that attains the reported value."""
    d, support, dist = pair_metric(g, x, y)
    _expect(distance == d, f"pair ({x}, {y}): distance {distance}, oracle {d}")
    _expect(set(witness) == support, f"pair ({x}, {y}): witness is not on the support")
    for u, fu in witness.items():
        _expect(type(fu) is int, f"pair ({x}, {y}): witness at {u} is not an integer")
    _expect(witness[x] == 0, f"pair ({x}, {y}): f(x) = {witness[x]}, not 0")
    _expect(witness[y] == d, f"pair ({x}, {y}): f(y) = {witness[y]}, not {d}")
    for u in support:
        for v in support:
            _expect(
                abs(witness[u] - witness[v]) <= dist[u][v],
                f"pair ({x}, {y}): witness not 1-Lipschitz on ({u}, {v})",
            )
    replayed = (laplacian(g, witness, y) - laplacian(g, witness, x)) / d
    _expect(
        replayed == value,
        f"pair ({x}, {y}): witness gives {replayed}, output says {value}",
    )


def tree_pair_value(g: Graph, x, y) -> Fraction:
    """Closed form for an edge whose endpoints share no other neighbours."""
    _expect(y in g.adj[x], f"({x}, {y}) is not an edge")
    _expect(
        not (set(g.adj[x]) & set(g.adj[y])),
        f"({x}, {y}) lies on a triangle; the tree form does not apply",
    )
    mx, my = g.measure[x], g.measure[y]
    value = g.adj[x][y] * (1 / mx + 1 / my)
    value -= sum((b for z, b in g.adj[x].items() if z != y), Fraction(0)) / mx
    value -= sum((b for z, b in g.adj[y].items() if z != x), Fraction(0)) / my
    return value


def enumerate_pair_min(g: Graph, x, y):
    """Minimum over every integer 1-Lipschitz function on the support,
    with the first minimizer in enumeration order."""
    d, support, dist = pair_metric(g, x, y)
    free = sorted(support - {x, y})
    f = {x: 0, y: d}
    best = witness = None

    def walk(k):
        nonlocal best, witness
        if k == len(free):
            val = (laplacian(g, f, y) - laplacian(g, f, x)) / d
            if best is None or val < best:
                best, witness = val, dict(f)
            return
        v = free[k]
        lo = max(fu - dist[u][v] for u, fu in f.items())
        hi = min(fu + dist[u][v] for u, fu in f.items())
        for a in range(lo, hi + 1):
            f[v] = a
            walk(k + 1)
        del f[v]

    walk(0)
    return best, witness


# ---------------------------------------------------------------------------
# rooted quantities
# ---------------------------------------------------------------------------


def spheres(g: Graph, root):
    dist = bfs(g, root)
    shells = [[] for _ in range(max(dist.values()) + 1)]
    for v in sorted(dist):
        shells[dist[v]].append(v)
    return dist, shells


def chain_of(g: Graph, root):
    """Sphere measures m(S_r) and boundary weights b(r) = w(S_r, S_r+1)."""
    dist, shells = spheres(g, root)
    m = [sum((g.measure[v] for v in shell), Fraction(0)) for shell in shells]
    b = [Fraction(0)] * (len(shells) - 1)
    for u in g.adj:
        for v, w in g.adj[u].items():
            if dist[v] == dist[u] + 1:
                b[dist[u]] += w
    return m, b


def chain_pair_value(m, b, r) -> Fraction:
    """k(r-1, r) on the path graph of a chain: the tree form at that edge."""
    h = len(m) - 1
    inner = b[r - 2] if r >= 2 else Fraction(0)
    outer = b[r] if r < h else Fraction(0)
    return b[r - 1] * (1 / m[r - 1] + 1 / m[r]) - inner / m[r - 1] - outer / m[r]


def fmt_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def chain_to_json(m, b) -> str:
    return json.dumps({"m": [fmt_rational(q) for q in m], "b": [fmt_rational(q) for q in b]}) + "\n"


# ---------------------------------------------------------------------------
# checks on command output
# ---------------------------------------------------------------------------


def _pair_from_json(entry):
    x, y = int(entry["x"]), int(entry["y"])
    witness = {int(k): v for k, v in entry["witness"].items()}
    return x, y, witness, rational(entry["value"]), entry["distance"]


def check_pair(g: Graph, x, y, text: str, closed_form=False) -> Fraction:
    """`ollivier --pair`: replay the witness; on a tree, the closed form too."""
    entry = json.loads(text)
    px, py, witness, value, distance = _pair_from_json(entry)
    _expect((px, py) == (x, y), f"asked for ({x}, {y}), got ({px}, {py})")
    replay_pair(g, x, y, witness, value, distance)
    if closed_form:
        want = tree_pair_value(g, x, y)
        _expect(value == want, f"pair ({x}, {y}): {value}, tree form {want}")
    return value


def check_all_adjacent(g: Graph, text: str, enumerate_edges=()) -> dict:
    """`ollivier --all-adjacent`: one replayed entry per edge, in edge order."""
    entries = json.loads(text)
    want = sorted(g.edge_set())
    got = [(int(e["x"]), int(e["y"])) for e in entries]
    _expect(got == want, "pairs are not the edges in label order")
    values = {}
    for entry in entries:
        x, y, witness, value, distance = _pair_from_json(entry)
        replay_pair(g, x, y, witness, value, distance)
        values[(x, y)] = value
    for x, y in enumerate_edges:
        best, _ = enumerate_pair_min(g, x, y)
        _expect(
            values[(x, y)] == best,
            f"pair ({x}, {y}): {values[(x, y)]}, enumeration {best}",
        )
    return values


def _csv(text: str):
    return list(csv.reader(io.StringIO(text)))


def check_sphere_curv(g: Graph, root, text: str, values: dict) -> None:
    """`sphere-curv`: min-max over the pair values, and the chain form."""
    rows = _csv(text)
    _expect(rows[0] == ["r", "k_graph", "k_chain"], "bad sphere-curv header")
    dist, shells = spheres(g, root)
    m, b = chain_of(g, root)
    _expect(len(rows) - 1 == len(shells) - 1, "sphere-curv rows do not cover 1..horizon")
    for r, row in enumerate(rows[1:], start=1):
        _expect(int(row[0]) == r, f"sphere-curv row {r} labelled {row[0]}")
        k_graph = min(
            max(values[(min(u, v), max(u, v))] for u in g.adj[v] if dist[u] == r - 1)
            for v in shells[r]
        )
        _expect(rational(row[1]) == k_graph, f"k_graph({r}) = {row[1]}, oracle {k_graph}")
        k_chain = chain_pair_value(m, b, r)
        _expect(rational(row[2]) == k_chain, f"k_chain({r}) = {row[2]}, oracle {k_chain}")


def check_validate(g: Graph, text: str) -> None:
    """`validate`: the echo holds exactly the generated vertices and edges."""
    doc = json.loads(text)
    measure = {int(e["id"]): rational(e["m"]) for e in doc["vertices"]}
    _expect(len(measure) == len(doc["vertices"]), "validate echoed a vertex twice")
    _expect(measure == g.measure, "validate echo differs from the generated vertices")
    edges = {}
    for e in doc["edges"]:
        u, v = int(e["u"]), int(e["v"])
        edges[(min(u, v), max(u, v))] = rational(e["b"])
    _expect(len(edges) == len(doc["edges"]), "validate echoed an edge twice")
    _expect(edges == g.edge_set(), "validate echo differs from the generated edges")


def check_curvature(g: Graph, root, text: str) -> None:
    """`curvature`: per-vertex sums and the chain form of the averages."""
    rows = _csv(text)
    head = ["r", "vertex", "k_minus", "k_plus", "avg_minus", "avg_plus", "m_Sr"]
    _expect(rows[0] == head, "bad curvature header")
    dist, _shells = spheres(g, root)
    m, b = chain_of(g, root)
    h = len(m) - 1
    seen = set()
    for row in rows[1:]:
        r, v = int(row[0]), int(row[1])
        _expect(dist.get(v) == r, f"vertex {v} listed at radius {r}")
        seen.add(v)
        inward = sum((w for z, w in g.adj[v].items() if dist[z] == r - 1), Fraction(0))
        outward = sum((w for z, w in g.adj[v].items() if dist[z] == r + 1), Fraction(0))
        _expect(rational(row[2]) == inward / g.measure[v], f"k_minus of {v}")
        _expect(rational(row[6]) == m[r], f"m(S_{r})")
        _expect(rational(row[4]) == (b[r - 1] / m[r] if r else 0), f"avg_minus at {r}")
        if r < h:
            _expect(rational(row[3]) == outward / g.measure[v], f"k_plus of {v}")
            _expect(rational(row[5]) == b[r] / m[r], f"avg_plus at {r}")
        else:
            _expect(row[3] == "" and row[5] == "", f"outer data past the horizon at {v}")
    _expect(len(seen) == len(rows) - 1 and seen == set(g.measure), "curvature rows != vertices")


def check_compare(g: Graph, root, outside: int, text: str) -> None:
    """`compare` of a graph against its own chain: equal volumes, C = 1/1."""
    doc = json.loads(text)
    m, _b = chain_of(g, root)
    _expect(doc["constant"] == "1/1", f"C = {doc['constant']}, not 1/1")
    for key in ("volume_comparison", "asymptotic_comparison"):
        ledger = doc[key]["ledger"]
        _expect([row["r"] for row in ledger] == list(range(len(m))), f"{key} radii")
        for row in ledger:
            lhs, rhs = rational(row["lhs"]), rational(row["rhs"])
            _expect(lhs == rhs == m[row["r"]], f"{key} row {row['r']}: {lhs} vs {rhs}")
            _expect(row["ok"] is True, f"{key} row {row['r']} not ok")
    for key in ("stronger_average_curvature", "stronger_outside_finite_set"):
        _expect(doc[key]["holds"] is True, f"{key} does not hold against its own chain")
    _expect(
        doc["stronger_outside_finite_set"]["threshold"] == outside, "outside threshold"
    )


def check_verify(text: str) -> None:
    """`verify`: no failed criterion, and the published pair values."""
    lines = text.splitlines()
    _expect(re.match(r"summary: \d+ passed, 0 failed, \d+ recorded", lines[-1]), lines[-1])
    first = [line for line in lines if line.startswith("criterion-01 ")]
    _expect(len(first) == 1 and ": pass (" in first[0], "criterion-01 did not pass")
    _expect("k(x,y) = -1/1" in first[0] and "k(x',y') = 1/1" in first[0], first[0])
