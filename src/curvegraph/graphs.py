"""Finite weighted graphs with exact rational data.

A graph is a finite vertex set with a positive measure m on vertices and a
positive symmetric weight b on edges. All arithmetic uses
``fractions.Fraction``, so every identity downstream can be checked as an
exact equality. Distances are combinatorial: edge weights decide adjacency
only, never path length.

Graph functions are plain mappings from vertex labels to ints or Fractions;
the Laplacian at x needs one defined at x and at x's neighbours.

Seen from a root (``rooted_decomposition``), a vertex has an inner and an
outer curvature: its edge weight into the previous and into the next sphere
over its measure. Their measure-weighted sphere averages are the curvatures
of the associated birth-death chain. ``curvature_profile``, built once per
decomposition, and ``chains.associated_bdc`` sum exact weights as integers
over a least common denominator; every rooted check reads them but the lazy
per-vertex scan of ``comparison.stronger_curvature_growth``. The
definitional functions, ``inner_curvature``, ``outer_curvature``,
``average_curvature``, ``sphere_measure`` and ``sphere_boundary``, keep
their per-neighbour ``Fraction`` sums and stay as the independent checks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from operator import itemgetter
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple, Union

from .errors import (
    AsymmetricDuplicateEdge,
    DisconnectedGraph,
    DuplicateVertex,
    FormatError,
    HorizonExceeded,
    NonPositiveEdgeWeight,
    NonPositiveMeasure,
    PartialFunction,
    SelfLoop,
    UnknownVertex,
)

VertexId = Union[str, int]
RationalLike = Union[int, str, Fraction]

def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a ``p/q`` string.

    A string, after surrounding whitespace is stripped, must match
    ``[+-]?digits(/digits)?``, where a digit is any Unicode decimal digit
    (category Nd, what ``str.isdecimal`` accepts). Floats, decimal strings,
    underscores and inner whitespace are rejected: exactness is the whole
    point. A Fraction is returned as it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        text = value.strip()
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        if digits.isdecimal() and (den.isdecimal() or not slash):
            try:
                return Fraction(int(num), int(den) if slash else 1)
            except ZeroDivisionError:
                raise FormatError(f"zero denominator: {value!r}") from None
            except ValueError:  # past the interpreter's int digit limit
                raise FormatError(
                    f"rational too long: {len(text)} characters"
                ) from None
    elif isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise FormatError(f"not a rational: {_shown(value, repr)}")


def format_rational(value: RationalLike) -> str:
    """Render a rational canonically as ``p/q`` in lowest terms."""
    n, d = (value if isinstance(value, Fraction) else Fraction(value)).as_integer_ratio()
    try:
        return f"{n}/{d}"
    except ValueError:  # past the interpreter's int digit limit
        raise FormatError("rational too long to format") from None


def label_key(label: VertexId) -> tuple:
    """Total order over vertex labels; numeric labels sort numerically.

    An int label keys like its string form, so the order survives the
    canonical JSON round trip, which writes every label as a string.
    """
    if isinstance(label, int) and not isinstance(label, bool):
        return (0, label, str(label))
    text = str(label)
    try:
        return (0, int(text), text)
    except ValueError:
        return (1, 0, text)


def _check_label(label) -> str:
    """Check a vertex label and return its ``str`` form, the text it is
    written as and the text that tells duplicates apart."""
    if isinstance(label, str):
        return str(label)
    if isinstance(label, bool) or not isinstance(label, int):
        raise FormatError(f"vertex label must be a string or an integer: {_shown(label, repr)}")
    try:
        text = str(label)
    except ValueError:  # past the interpreter's int digit limit
        raise FormatError(f"integer vertex label too long: {label.bit_length()} bits") from None
    if label < 0:
        raise FormatError(f"integer vertex labels must be nonnegative: {text}")
    return text


def _shown(value, show=str) -> str:
    """``show(value)`` for an error message. A value that holds an int past
    the interpreter's int digit limit cannot be written out, so its type is
    named instead, and building the message never raises."""
    try:
        return show(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


class Record:
    """Frozen value type, built from the class body with no generated code.

    The fields are the class annotations, in order; ``_fields`` names them,
    as on a namedtuple. Equality needs the same class and compares the field
    tuples, the hash is the field tuple's, and the repr is
    ``Name(field=value, ...)``. Assigning or deleting an attribute raises
    ``AttributeError``. Anything else in ``__dict__``, such as a
    ``cached_property`` value, is outside the record's identity.

    Each record defines its own ``__init__``, whose parameters are the
    fields in order with their defaults, so the interpreter binds every call
    and raises its own ``TypeError``. It stores them in one keyword call,
    ``self.__dict__.update(field=field, ...)``. Filled from pairs instead,
    as ``update(zip(self._fields, values))`` would, the dict makes every
    later field read about twice as slow.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class WeightedGraph(Record):
    """Validated, connected weighted graph. Build via :func:`validate_graph`."""

    vertices: Tuple[VertexId, ...]
    measure: Mapping[VertexId, Fraction]
    adjacency: Mapping[VertexId, Mapping[VertexId, Fraction]]

    def __init__(self, vertices, measure, adjacency):
        self.__dict__.update(vertices=vertices, measure=measure, adjacency=adjacency)

    def require_vertex(self, x: VertexId) -> None:
        if x not in self.measure:
            raise UnknownVertex(f"unknown vertex: {x!r}", vertex=str(x))

    @cached_property
    def _first_distances(self) -> dict:
        """BFS distances from the first vertex in label order: the
        connectivity check of :func:`validate_graph`, kept for a
        decomposition around that vertex. Nothing may mutate it."""
        return distance_map(self, self.vertices[0])

    @cached_property
    def _rank(self) -> dict:
        """Each vertex's position in ``vertices``, its label order; read only."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _laplacian_rows(self) -> dict:
        """v -> (den, row), (Delta f)(v) = sum row[u] f(u) / den over v and its
        neighbours u in integers, den the lcm of the b.den * m.num. Each row is
        built when the pair solver first reads it; nothing else may mutate it."""
        return _LaplacianRows(self)

    @property
    def edges(self) -> Tuple[Tuple[VertexId, VertexId, Fraction], ...]:
        """Each undirected edge once, as (u, v, b) with u before v in label order."""
        # vertices and each adjacency are already in label order
        rank = self._rank
        return tuple(
            (u, v, w)
            for i, u in enumerate(self.vertices) for v, w in self.adjacency[u].items()
            if rank[v] > i
        )


class _LaplacianRows(dict):
    """``WeightedGraph._laplacian_rows``: a vertex's row, built on first read."""

    def __init__(self, g: WeightedGraph):
        self.adjacency, self.measure = g.adjacency, g.measure

    def __missing__(self, v):
        m_num, m_den = self.measure[v].as_integer_ratio()
        ratios = [w.as_integer_ratio() for w in self.adjacency[v].values()]
        common = lcm(*[w_den for _, w_den in ratios])
        q = [-w_num * m_den * (common // w_den) for w_num, w_den in ratios]
        entry = self[v] = (common * m_num, {**dict(zip(self.adjacency[v], q)), v: -sum(q)})
        return entry


def validate_graph(
    vertex_records: Iterable[Tuple[VertexId, RationalLike]],
    edge_records: Iterable[Tuple[VertexId, VertexId, RationalLike]],
) -> WeightedGraph:
    """Check all graph invariants and return the canonical immutable form.

    Zero-weight edge records are dropped; repeating an unordered pair is only
    allowed with an identical weight. Two labels with the same string form,
    such as 1 and "1", are duplicates. The graph must be connected.

    Records are checked in the order given, each check in a fixed order, so
    the first fault in the records is the one reported, whatever its kind.
    Each argument is read once, in order, and may be a generator: no record
    is kept. One pass does the work in proportion to the records, and holds
    little besides the graph it builds:

    - Each distinct rational string is parsed once per call and every record
      that spells it shares the one ``Fraction``. Only an exact ``str`` is
      looked up, so ``True`` or ``1.0`` never meets a cached ``"1/1"``: any
      other value goes to :func:`parse_rational` every time, which rejects
      it.
    - Duplicate labels are found by their ``str`` forms, which are dropped
      once the vertices are read. An exact ``str`` label, or an exact ``int``
      one from 0 up, is its own label check. :func:`label_key` is computed
      only to sort, and not at all when every label is an exact ``int``,
      since plain int order is the order it gives them.
    - An endpoint whose type is exactly ``int`` or ``str`` and that is a
      vertex needs no label check, since the vertex passed one. Any other
      endpoint is checked as a label first and then looked up, so an
      unhashable one is a ``FormatError``.
    - Each edge goes straight into both neighbour maps, its ends taken as
      (lower rank, higher rank), where a rank is a position in label order.
      Each map keeps the last rank it received; a map that receives a lower
      one is marked, and only the marked maps are sorted by rank at the end.
      Records in label order, as canonical JSON lists them, mark none. A
      repeated pair is found in the map itself, and a zero-weight pair,
      which no map holds, in a small map of its own.
    """
    measure: dict = {}
    taken: set = set()  # str() forms; label keys differ exactly where these do
    parsed: dict = {}  # rational string -> its Fraction, for this call only

    def rational(raw) -> Fraction:
        """Parse a value that ``parsed`` does not hold, and cache a string.
        Every value in ``parsed`` has passed its sign check, since a failed
        one ends the call, and the vertices, all positive, come first: so a
        value read from it needs no check as measure or as weight."""
        q = parse_rational(raw)
        if type(raw) is str:
            parsed[raw] = q
        return q

    for label, raw_m in vertex_records:
        if type(label) is str:
            text = label
        else:
            try:
                text = str(label) if type(label) is int and label >= 0 else _check_label(label)
            except ValueError:  # an int past the interpreter's digit limit
                text = _check_label(label)  # raises its FormatError
        if text in taken:
            raise DuplicateVertex(f"duplicate vertex: {label!r}", vertex=text)
        taken.add(text)
        m = parsed.get(raw_m) if type(raw_m) is str else None
        if m is None:
            m = rational(raw_m)
            if m.numerator <= 0:
                raise NonPositiveMeasure(
                    f"measure of {label!r} must be positive, got {_shown(m)}", vertex=text
                )
        measure[label] = m
    del taken  # not needed past the vertices, so not held with the edges

    if all(type(v) is int for v in measure):
        vertices = tuple(sorted(measure))
    else:
        vertices = tuple(sorted(measure, key=label_key))
    n = len(vertices)
    adjacency = {u: {} for u in vertices}
    g = WeightedGraph(vertices, adjacency=adjacency, measure=measure)
    rank = g._rank
    rows = list(adjacency.values())  # by rank
    last = [-1] * n  # the rank each row received last
    marked = set()  # rows that received a rank below their last
    zeros: dict = {}  # (lower rank, higher rank) -> the pair's first weight, 0
    for u, v, raw_b in edge_records:
        if not (
            (type(u) is int or type(u) is str) and u in rank
            and (type(v) is int or type(v) is str) and v in rank
        ):
            _check_label(u)
            _check_label(v)
            for t in (u, v):
                if t not in measure:
                    raise UnknownVertex(f"edge endpoint not a vertex: {t!r}", vertex=str(t))
        ru = rank[u]
        rv = rank[v]
        if ru == rv:
            raise SelfLoop(f"self-loop at {u!r}", vertex=str(u))
        b = parsed.get(raw_b) if type(raw_b) is str else None
        if b is None:
            b = rational(raw_b)
            if b.numerator < 0:
                raise NonPositiveEdgeWeight(
                    f"weight of ({u!r}, {v!r}) must be nonnegative, got {_shown(b)}",
                    u=str(u),
                    v=str(v),
                )
        if rv < ru:
            u, v, ru, rv = v, u, rv, ru
        row = rows[ru]
        first = row.get(v)
        if first is None:
            if not b.numerator:
                first = zeros.setdefault((ru, rv), b)
            elif zeros and (ru, rv) in zeros:
                first = zeros[ru, rv]
            else:  # keyed by the vertices' own labels, not the record's
                row[vertices[rv]] = b
                rows[rv][vertices[ru]] = b
                if last[ru] > rv:
                    marked.add(ru)
                last[ru] = rv
                if last[rv] > ru:
                    marked.add(rv)
                last[rv] = ru
                continue
        if first is not b and first != b:
            raise AsymmetricDuplicateEdge(
                f"pair ({u!r}, {v!r}) listed twice with weights "
                f"{_shown(first)} and {_shown(b)}",
                u=str(u),
                v=str(v),
            )
    for r in marked:  # each neighbour, in rank order, moves to the end
        row = rows[r]
        for x in sorted(row, key=rank.__getitem__):
            row[x] = row.pop(x)
    del rows, last, marked, zeros  # not held with the search below

    if vertices:
        reached = g._first_distances
        if len(reached) != n:
            missing = next(v for v in vertices if v not in reached)
            raise DisconnectedGraph(
                f"graph is not connected: {missing!r} unreachable from {vertices[0]!r}",
                vertex=str(missing),
            )
    return g


def distance_map(
    g: WeightedGraph,
    source: VertexId,
    radius: Optional[int] = None,
    target: Optional[VertexId] = None,
) -> dict:
    """Combinatorial distances from source (BFS): to every vertex, or, given
    a radius, to exactly the vertices within it. Given a target, the radius
    is the target's distance, found by the same search: it ends with the
    level that holds the target."""
    g.require_vertex(source)
    adjacency = g.adjacency
    dist = {source: 0}
    level = [source]
    depth = 0
    # with no target, target is None, which no vertex label is
    while level and depth != radius and target not in dist:
        depth += 1
        nxt = []
        for u in level:
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = depth
                    nxt.append(v)
        level = nxt
    return dist


def distance(g: WeightedGraph, x: VertexId, y: VertexId) -> int:
    """Length of a shortest edge path between x and y."""
    g.require_vertex(y)
    return distance_map(g, x, target=y)[y]


class RootedDecomposition(Record):
    """A graph seen from a root: sphere r holds the vertices at distance r.

    Every rooted quantity (curvatures, sphere volumes, the associated chain)
    takes this one value, so the graph and its spheres cannot disagree.
    Build it via :func:`rooted_decomposition`.
    """

    graph: WeightedGraph
    root: VertexId
    dist: Mapping[VertexId, int]
    spheres: Tuple[Tuple[VertexId, ...], ...]

    def __init__(self, graph, root, dist, spheres):
        self.__dict__.update(graph=graph, root=root, dist=dist, spheres=spheres)

    @property
    def horizon(self) -> int:
        """Largest occupied radius (the root's eccentricity)."""
        return len(self.spheres) - 1

    def sphere(self, r: int) -> Tuple[VertexId, ...]:
        if r < 0 or r > self.horizon:
            raise HorizonExceeded(
                f"sphere {r} outside radius range 0..{self.horizon}", radius=r
            )
        return self.spheres[r]

    def radius_of(self, x: VertexId) -> int:
        if x not in self.dist:
            raise UnknownVertex(f"unknown vertex: {x!r}", vertex=str(x))
        return self.dist[x]

    @cached_property
    def _profile(self) -> dict:
        """``curvature_profile``, built on first use: one pass over each
        vertex's neighbours sums the weights into the previous and the next
        sphere as integers over their least common denominator, each sum
        starting from its first term as it is, then over m(x) as an unreduced
        pair; equal pairs share one ``Fraction``."""
        adjacency, measure = self.graph.adjacency, self.graph.measure
        dist, horizon = self.dist, self.horizon
        made: dict = {}  # unreduced (numerator, denominator) -> its Fraction
        per_vertex: dict = {}
        for v in self.graph.vertices:
            r = dist[v]
            in_n = out_n = 0  # 0 until the first term: weights are positive
            in_d = out_d = 1
            for y, w in adjacency[v].items():
                s = dist[y]  # BFS distances of neighbours differ by at most 1
                if s < r:
                    n, d = w.as_integer_ratio()
                    if in_n:
                        common = lcm(in_d, d)
                        in_n = in_n * (common // in_d) + n * (common // d)
                        in_d = common
                    else:
                        in_n, in_d = n, d
                elif s > r:
                    n, d = w.as_integer_ratio()
                    if out_n:
                        common = lcm(out_d, d)
                        out_n = out_n * (common // out_d) + n * (common // d)
                        out_d = common
                    else:
                        out_n, out_d = n, d
            m_num, m_den = measure[v].as_integer_ratio()
            key = (in_n * m_den, in_d * m_num)
            inner = made.get(key)
            if inner is None:
                inner = made[key] = Fraction(*key)
            outer = None
            if r < horizon:
                key = (out_n * m_den, out_d * m_num)
                outer = made.get(key)
                if outer is None:
                    outer = made[key] = Fraction(*key)
            per_vertex[v] = (inner, outer)
        return per_vertex


def rooted_decomposition(g: WeightedGraph, root: VertexId) -> RootedDecomposition:
    """Partition the vertex set into spheres around root. Around the first
    vertex, the distances are the graph's own connectivity map, shared."""
    if g.vertices[:1] == (root,):
        dist = g._first_distances
    else:
        dist = distance_map(g, root)
    horizon = max(dist.values())
    layers = [[] for _ in range(horizon + 1)]
    for v in g.vertices:
        layers[dist[v]].append(v)
    spheres = tuple(tuple(layer) for layer in layers)
    return RootedDecomposition(graph=g, root=root, dist=dist, spheres=spheres)


def laplacian(g: WeightedGraph, f: Mapping, x: VertexId) -> Fraction:
    """Formal Laplacian (Delta f)(x) = (1/m(x)) * sum b(x,y) (f(x) - f(y)).

    f must be defined at x and at x's neighbours, the only values read."""
    g.require_vertex(x)
    row = g.adjacency[x]
    missing = [v for v in (x, *row) if v not in f]
    if missing:
        raise PartialFunction(
            f"function undefined on {len(missing)} vertices, e.g. {missing[0]!r}",
            vertex=str(missing[0]),
        )
    acc = Fraction(0)
    for y, w in row.items():
        acc += w * (f[x] - f[y])
    return acc / g.measure[x]


def laplacian_of_distance(decomp: RootedDecomposition, x: VertexId) -> Fraction:
    """Delta d(root, .) at x; needs the sphere past x, so not the outermost one."""
    r = decomp.radius_of(x)
    if r == decomp.horizon:
        raise HorizonExceeded(
            f"vertex {x!r} lies on the outermost sphere {r}; the next sphere "
            "is outside the data",
            radius=r,
        )
    return laplacian(decomp.graph, decomp.dist, x)


def sphere_measure(decomp: RootedDecomposition, r: int) -> Fraction:
    """m(S_r): total vertex measure of sphere r."""
    measure = decomp.graph.measure
    return sum((measure[v] for v in decomp.sphere(r)), Fraction(0))


def sphere_boundary(decomp: RootedDecomposition, r: int) -> Fraction:
    """Total edge weight between sphere r and sphere r+1."""
    if r < 0 or r >= decomp.horizon:
        raise HorizonExceeded(
            f"boundary weight needs spheres {r} and {r + 1}; horizon is "
            f"{decomp.horizon}",
            radius=r,
        )
    adjacency = decomp.graph.adjacency
    total = Fraction(0)
    for x in decomp.spheres[r]:
        for y, w in adjacency[x].items():
            if decomp.dist[y] == r + 1:
                total += w
    return total


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
    """Per-vertex (inner, outer) curvatures around the decomposition's root,
    the outer one None on the outermost sphere. The decomposition builds the
    map once, outside its identity; callers share it and must not mutate it."""
    return decomp._profile



# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def graph_to_json_dict(g: WeightedGraph) -> dict:
    """Canonical JSON form; ids become strings, rationals become ``p/q``."""
    return {
        "vertices": [
            {"id": str(v), "m": format_rational(g.measure[v])} for v in g.vertices
        ],
        "edges": [
            {"u": str(u), "v": str(v), "b": format_rational(w)}
            for u, v, w in g.edges
        ],
    }


def graph_from_json_dict(payload) -> WeightedGraph:
    """Load a graph from the parsed form of its JSON document.

    The document is an object with a ``vertices`` array of ``{"id", "m"}``
    objects and an ``edges`` array of ``{"u", "v", "b"}`` objects; other
    keys are ignored. Every entry's shape is checked, in one pass over each
    array, before any record is validated; the records then go to
    :func:`validate_graph` in document order, read from the entries as it
    asks for them, so no list of records is built beside the document, and
    the document is left as it was. Every fault raises a
    ``CurvegraphError``, never a ``TypeError``.
    """
    if not isinstance(payload, dict):
        raise FormatError("graph document must be a JSON object")
    for key in ("vertices", "edges"):
        if key not in payload or not isinstance(payload[key], list):
            raise FormatError(f"graph document needs a {key!r} array")
    vertices, edges = payload["vertices"], payload["edges"]
    for entry in vertices:
        if not isinstance(entry, dict) or "id" not in entry or "m" not in entry:
            raise FormatError(f"bad vertex entry: {_shown(entry, repr)}")
    for entry in edges:
        if not isinstance(entry, dict) or "u" not in entry or "v" not in entry or "b" not in entry:
            raise FormatError(f"bad edge entry: {_shown(entry, repr)}")
    return validate_graph(
        map(itemgetter("id", "m"), vertices), map(itemgetter("u", "v", "b"), edges)
    )


def loads_json(text: str, source: str = "<string>"):
    """Parse JSON, reporting the parse position in the error detail.

    Nesting past the recursion limit and integers past the interpreter's
    digit limit are format errors too.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}",
            source=source,
            line=exc.lineno,
            column=exc.colno,
        ) from None
    except RecursionError:
        raise FormatError(f"{source}: JSON nested too deeply", source=source) from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise FormatError(f"{source}: JSON number too long", source=source) from None


_RENDER_BATCH = 512  # records in one piece of a rendered JSON array


def graph_to_json(g: WeightedGraph) -> str:
    """Canonical JSON text: byte for byte ``json.dumps(graph_to_json_dict(g),
    indent=2)`` and a newline. It is the join of :func:`graph_json_pieces`,
    which the commands write piece by piece instead."""
    return "".join(graph_json_pieces(g))


def graph_json_pieces(g: WeightedGraph) -> Iterator[str]:
    """``graph_to_json(g)`` in pieces, each array a batch of records at a
    time (:func:`json_array`), each record written from one template.

    Before the first piece, each distinct rational object is formatted once
    and each label quoted once, so a value too long to format raises before
    any piece is made: a caller that writes the pieces as they come then
    writes nothing. Records that share a rational share its text; that memo
    is keyed by ``id``, which is safe because g holds every one of those
    objects for the whole call. The quoted labels are a list by rank, which
    the edge records index by their ends' ranks.
    """
    measure, adjacency, vertices, rank = g.measure, g.adjacency, g.vertices, g._rank
    text: dict = {}
    for row in (measure, *adjacency.values()):
        for q in row.values():
            if id(q) not in text:
                text[id(q)] = format_rational(q)
    quoted = [_quote(str(v)) for v in vertices]

    yield '{\n  "vertices": '
    yield from json_array((
        f'    {{\n      "id": {label},\n      "m": "{text[id(measure[v])]}"\n    }}'
        for label, v in zip(quoted, vertices)
    ), "  ")
    yield ',\n  "edges": '
    yield from json_array((  # each edge once, from its end of lower rank
        f'    {{\n      "u": {quoted[i]},\n      "v": {quoted[j]},\n'
        f'      "b": "{text[id(w)]}"\n    }}'
        for i, u in enumerate(vertices) for v, w in adjacency[u].items()
        for j in [rank[v]] if j > i
    ), "  ")
    yield "\n}\n"


def json_array(records: Iterable[str], indent: str = "") -> Iterator[str]:
    """An array of rendered records, as ``json.dumps(..., indent=2)`` writes
    it at ``indent``, in pieces: each record carries its own indentation,
    two spaces past ``indent``, and each batch of ``_RENDER_BATCH`` records
    is one piece, after its separator, the first being the opening bracket.
    So a caller that writes the pieces holds one batch at a time."""
    records = iter(records)
    separator = "[\n"
    while batch := ",\n".join(islice(records, _RENDER_BATCH)):
        yield separator
        yield batch
        separator = ",\n"
    yield "[]" if separator == "[\n" else f"\n{indent}]"
