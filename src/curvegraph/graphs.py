"""Finite weighted graphs with exact rational data.

A graph is a finite vertex set with a positive measure m on vertices and a
positive symmetric weight b on edges. All arithmetic uses
``fractions.Fraction``, so every identity downstream can be checked as an
exact equality. Distances are combinatorial: edge weights decide adjacency
only, never path length.

Graph functions are plain mappings from vertex labels to ints or Fractions;
they must be total on the graph wherever the Laplacian is applied.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Mapping, Optional, Tuple, Union

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
    raise FormatError(f"not a rational: {value!r}")


def format_rational(value: RationalLike) -> str:
    """Render a rational canonically as ``p/q`` in lowest terms."""
    q = value if isinstance(value, Fraction) else Fraction(value)
    try:
        return f"{q.numerator}/{q.denominator}"
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


def _check_label(label) -> None:
    if isinstance(label, str):
        return
    if isinstance(label, bool) or not isinstance(label, int):
        raise FormatError(f"vertex label must be a string or an integer: {label!r}")
    if label < 0:
        raise FormatError(f"integer vertex labels must be nonnegative: {label!r}")


class Record:
    """Frozen value type, built from the class body with no generated code.

    The fields are the class annotations, in order, and a class attribute
    of a field's name is its default; ``_fields`` names them, as on a
    namedtuple. Construction takes them by position or keyword, with the
    interpreter's own ``TypeError`` messages. Equality needs the same class
    and compares the field tuples, the hash is the field tuple's, and the
    repr is ``Name(field=value, ...)``. Assigning or deleting an attribute
    raises ``AttributeError``. Anything else in ``__dict__``, such as a
    ``cached_property`` value, is outside the record's identity.

    A record built in a hot loop defines its own ``__init__`` that fills
    ``__dict__`` in one call. That builds faster than the generic
    ``__init__``, which binds ``*args, **kwargs`` and sets each field with
    ``object.__setattr__``, but a filled ``__dict__`` makes each later
    attribute read a little slower: it suits a record that is read a few
    times, not a graph that is read in every loop.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._names = frozenset(cls._fields)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        bound = kwargs
        if args:
            bound = dict(zip(fields, args))
            if len(args) > len(fields) or not bound.keys().isdisjoint(kwargs):
                raise _call_error(type(self), args, kwargs)
            bound.update(kwargs)
        if bound.keys() != self._names:
            bound = {**self._defaults, **bound}
            if bound.keys() != self._names:
                raise _call_error(type(self), args, kwargs)
        set_field = object.__setattr__
        for name in fields:
            set_field(self, name, bound[name])

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


def _call_error(cls, args: tuple, kwargs: dict) -> TypeError:
    """The error the interpreter raises for this call of an ``__init__``
    whose parameters are the record's fields, found in the same order."""
    fields = cls._fields
    call = f"{cls.__qualname__}.__init__()"
    for name in kwargs:
        if name not in fields:
            return TypeError(f"{call} got an unexpected keyword argument {name!r}")
        if name in fields[: len(args)]:
            return TypeError(f"{call} got multiple values for argument {name!r}")
    if len(args) > len(fields):
        most, least = len(fields) + 1, len(fields) - len(cls._defaults) + 1
        takes = most if most == least else f"from {least} to {most}"
        given = len(args) + 1
        return TypeError(f"{call} takes {takes} positional arguments but {given} were given")
    missing = [repr(f) for f in fields[len(args):] if f not in kwargs and f not in cls._defaults]
    if len(missing) > 2:
        listed = ", ".join(missing[:-1]) + ", and " + missing[-1]
    else:
        listed = " and ".join(missing)
    plural = "s" if len(missing) > 1 else ""
    count = f"{len(missing)} required positional argument{plural}"
    return TypeError(f"{call} missing {count}: {listed}")


class WeightedGraph(Record):
    """Validated, connected weighted graph. Build via :func:`validate_graph`."""

    vertices: Tuple[VertexId, ...]
    measure: Mapping[VertexId, Fraction]
    adjacency: Mapping[VertexId, Mapping[VertexId, Fraction]]

    def require_vertex(self, x: VertexId) -> None:
        if x not in self.measure:
            raise UnknownVertex(f"unknown vertex: {x!r}", vertex=str(x))

    @cached_property
    def _first_distances(self) -> dict:
        """BFS distances from the first vertex in label order: the
        connectivity check of :func:`validate_graph`, kept for a
        decomposition around that vertex. Nothing may mutate it."""
        return distance_map(self, self.vertices[0])

    @property
    def edges(self) -> Tuple[Tuple[VertexId, VertexId, Fraction], ...]:
        """Each undirected edge once, as (u, v, b) with u before v in label order."""
        # vertices and each adjacency are already in label order
        rank = {v: i for i, v in enumerate(self.vertices)}
        return tuple(
            (u, v, w)
            for u in self.vertices
            for v, w in self.adjacency[u].items()
            if rank[u] < rank[v]
        )

    def to_records(self):
        """(vertex records, edge records) suitable for validate_graph."""
        return (
            [(v, self.measure[v]) for v in self.vertices],
            [(u, v, w) for u, v, w in self.edges],
        )


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
    One pass does the work in proportion to the records:

    - Each distinct rational string is parsed once per call and every record
      that spells it shares the one ``Fraction``. Only an exact ``str`` is
      looked up, so ``True`` or ``1.0`` never meets a cached ``"1/1"``: any
      other value goes to :func:`parse_rational` every time, which rejects
      it.
    - An endpoint whose type is exactly ``int`` or ``str`` and that is a
      vertex needs no label check, since the vertex passed one. Any other
      endpoint is checked as a label first and then looked up, so an
      unhashable one is a ``FormatError``.
    - An edge is keyed by the ranks of its ends in label order. Sorting
      those rank pairs once fills every neighbour map in label order: a
      vertex's pairs with lower-ranked vertices sort before those with
      higher-ranked ones, each run by the other end's rank.
    """
    measure: dict = {}
    keys: dict = {}
    taken: set = set()  # label keys differ exactly where str() forms do
    parsed: dict = {}  # rational string -> its Fraction, for this call only

    def rational(raw) -> Fraction:
        if type(raw) is not str:
            return parse_rational(raw)
        q = parsed.get(raw)
        if q is None:
            q = parsed[raw] = parse_rational(raw)
        return q

    for label, raw_m in vertex_records:
        _check_label(label)
        key = label_key(label)
        if key in taken:
            raise DuplicateVertex(f"duplicate vertex: {label!r}", vertex=str(label))
        taken.add(key)
        keys[label] = key
        m = rational(raw_m)
        if m.numerator <= 0:
            raise NonPositiveMeasure(
                f"measure of {label!r} must be positive, got {m}", vertex=str(label)
            )
        measure[label] = m

    order = sorted(measure, key=keys.__getitem__)
    rank = {v: i for i, v in enumerate(order)}
    seen: dict = {}  # (rank, rank) in ascending order -> weight
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
        b = rational(raw_b)
        if b.numerator < 0:
            raise NonPositiveEdgeWeight(
                f"weight of ({u!r}, {v!r}) must be nonnegative, got {b}",
                u=str(u),
                v=str(v),
            )
        first = seen.setdefault((ru, rv) if ru < rv else (rv, ru), b)
        if first is not b and first != b:
            lo, hi = (u, v) if ru < rv else (v, u)
            raise AsymmetricDuplicateEdge(
                f"pair ({lo!r}, {hi!r}) listed twice with weights {first} and {b}",
                u=str(lo),
                v=str(hi),
            )

    adjacency = {u: {} for u in order}
    rows = list(adjacency.values())
    for ru, rv in sorted(pair for pair, b in seen.items() if b.numerator):
        b = seen[ru, rv]
        rows[ru][order[rv]] = b
        rows[rv][order[ru]] = b

    g = WeightedGraph(tuple(order), adjacency=adjacency, measure=measure)
    if order:
        reached = g._first_distances
        if len(reached) != len(order):
            missing = next(v for v in order if v not in reached)
            raise DisconnectedGraph(
                f"graph is not connected: {missing!r} unreachable from {order[0]!r}",
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
    """Formal Laplacian (Delta f)(x) = (1/m(x)) * sum b(x,y) (f(x) - f(y))."""
    g.require_vertex(x)
    missing = [v for v in g.vertices if v not in f]
    if missing:
        raise PartialFunction(
            f"function undefined on {len(missing)} vertices, e.g. {missing[0]!r}",
            vertex=str(missing[0]),
        )
    acc = Fraction(0)
    for y, w in g.adjacency[x].items():
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
    keys are ignored. Every entry's shape is checked before any record is
    validated, and the records then go to :func:`validate_graph` in document
    order. Every fault raises a ``CurvegraphError``, never a ``TypeError``.
    """
    if not isinstance(payload, dict):
        raise FormatError("graph document must be a JSON object")
    for key in ("vertices", "edges"):
        if key not in payload or not isinstance(payload[key], list):
            raise FormatError(f"graph document needs a {key!r} array")
    vertex_records = []
    for entry in payload["vertices"]:
        if not isinstance(entry, dict) or "id" not in entry or "m" not in entry:
            raise FormatError(f"bad vertex entry: {entry!r}")
        vertex_records.append((entry["id"], entry["m"]))
    edge_records = []
    for entry in payload["edges"]:
        if not isinstance(entry, dict) or "u" not in entry or "v" not in entry or "b" not in entry:
            raise FormatError(f"bad edge entry: {entry!r}")
        edge_records.append((entry["u"], entry["v"], entry["b"]))
    return validate_graph(vertex_records, edge_records)


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


def graph_to_json(g: WeightedGraph) -> str:
    """Canonical JSON text: byte for byte ``json.dumps(graph_to_json_dict(g),
    indent=2)`` and a newline, written from one template per record.

    Each distinct rational object is formatted once per call, and records
    that share it share its text. The memo is keyed by ``id``, which is safe
    because g holds every one of those objects for the whole call.
    """
    measure = g.measure
    text: dict = {}

    def render(q: Fraction) -> str:
        line = text[id(q)] = format_rational(q)
        return line

    vertices = _json_array([
        f'    {{\n      "id": {_quote(str(v))},\n'
        f'      "m": "{text.get(id(measure[v])) or render(measure[v])}"\n    }}'
        for v in g.vertices
    ])
    edges = _json_array([
        f'    {{\n      "u": {_quote(str(u))},\n      "v": {_quote(str(v))},\n'
        f'      "b": "{text.get(id(w)) or render(w)}"\n    }}'
        for u, v, w in g.edges
    ])
    return f'{{\n  "vertices": {vertices},\n  "edges": {edges}\n}}\n'


def _json_array(items: list) -> str:
    """An indented array of already rendered items, as ``json.dumps`` writes
    it. The brackets go onto the first and the last item, so the array is
    one join, not one more copy for each bracket."""
    if not items:
        return "[]"
    items[0] = "[\n" + items[0]
    items[-1] += "\n  ]"
    return ",\n".join(items)
