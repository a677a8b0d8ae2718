"""Birth-death chains and the reduction of a rooted graph to one.

A birth-death chain is the weighted path graph on radii 0..horizon. A rooted
graph is a ``RootedDecomposition`` (``graphs.rooted_decomposition``), and
the functions here take it as given: reducing it to its associated chain
aggregates each sphere's measure and each inter-sphere boundary weight. A
rooted graph is a model when inner and outer curvature are constant on
every sphere; its associated chain then carries the same curvature data.

A chain builds its curvatures k+(r) = b(r) / m(r) and k-(r) = b(r-1) / m(r)
once, on first use. The Ollivier curvature of (r, R) is the slope of the
curvature gap k+ - k-, so the sphere curvatures k(r-1, r), r = 1..R, sum to
gap(0) - gap(R).
"""

from __future__ import annotations

import json
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Sequence, Tuple

from .errors import (
    BadRadiusOrder,
    CurvegraphError,
    FormatError,
    HorizonExceeded,
    NonPositiveEntry,
)
from .graphs import (
    RationalLike,
    Record,
    RootedDecomposition,
    VertexId,
    WeightedGraph,
    curvature_profile,
    format_rational,
    parse_rational,
    validate_graph,
)


def _ratio(b: Fraction, m: Fraction) -> Fraction:  # b / m for b, m > 0
    return Fraction(b.numerator * m.denominator, b.denominator * m.numerator)


class BirthDeathChain(Record):
    """Measures m(0..horizon) and nearest-neighbor weights b(r, r+1).

    ``weights[r]`` joins radius r to radius r+1, so there is one weight fewer
    than measures. All entries are positive rationals.
    """

    measures: Tuple[Fraction, ...]
    weights: Tuple[Fraction, ...]

    def __init__(self, measures: Sequence[RationalLike], weights: Sequence[RationalLike]):
        measures = tuple(map(parse_rational, measures))
        weights = tuple(map(parse_rational, weights))
        if not measures:
            raise FormatError("a chain needs at least the radius-0 entry")
        if len(weights) != len(measures) - 1:
            raise FormatError(
                f"chain with {len(measures)} measures needs "
                f"{len(measures) - 1} weights, got {len(weights)}"
            )
        for kind, values in (("measure", measures), ("weight", weights)):
            for r, v in enumerate(values):
                if v.numerator <= 0:
                    raise NonPositiveEntry(f"{kind} at radius {r} must be positive", radius=r)
        self.__dict__.update(measures=measures, weights=weights)

    @property
    def horizon(self) -> int:
        return len(self.measures) - 1

    @cached_property
    def _outer(self) -> Tuple[Fraction, ...]:
        """k+(r) = b(r) / m(r) for r = 0..horizon-1."""
        return tuple(map(_ratio, self.weights, self.measures))

    @cached_property
    def _inner(self) -> Tuple[Fraction, ...]:
        """k-(r) = b(r-1) / m(r) for r = 0..horizon; k-(0) = 0."""
        return (Fraction(0),) + tuple(map(_ratio, self.weights, self.measures[1:]))

    def outer_curvature(self, r: int) -> Fraction:
        if r < 0 or r > self.horizon - 1:
            raise HorizonExceeded(
                f"chain outer curvature defined for 0 <= r <= {self.horizon - 1}",
                radius=r,
            )
        return self._outer[r]

    def inner_curvature(self, r: int) -> Fraction:
        if r < 0 or r > self.horizon:
            raise HorizonExceeded(
                f"chain inner curvature defined for 0 <= r <= {self.horizon}",
                radius=r,
            )
        return self._inner[r]

    def curvature_gap(self, r: int) -> Fraction:
        """Outer minus inner curvature at radius r."""
        return self.outer_curvature(r) - self.inner_curvature(r)


def bdc_ollivier_closed_form(chain: BirthDeathChain, r: int, R: int) -> Fraction:
    """Pair curvature k(r, R) on a birth-death chain: the slope of its gap.

    Needs 0 <= r < R <= horizon - 1: the Laplacian at R looks one step past R.
    A 1-Lipschitz f with f(R) - f(r) = R - r is t + c on r..R, and one more
    unit step outward at each end is optimal, so f(t) = t is a witness. With
    Delta f(t) = -gap(t), k(r, R) = (Delta f(R) - Delta f(r)) / (R - r).
    """
    if r >= R:
        raise BadRadiusOrder(f"need r < R, got r={r}, R={R}")
    if r < 0 or R > chain.horizon - 1:
        raise HorizonExceeded(
            f"closed form needs 0 <= r < R <= {chain.horizon - 1}, got "
            f"r={r}, R={R}",
            radius=R,
        )
    return (chain.curvature_gap(r) - chain.curvature_gap(R)) / (R - r)


def associated_bdc(decomp: RootedDecomposition) -> BirthDeathChain:
    """Collapse each sphere around the root to one state of a birth-death chain.

    One pass over each sphere sums m(S_r) and the weight from S_r into
    S_{r+1} in integers only, each value read once as its integer ratio,
    over the least common denominator of the terms, starting from the first
    term as it is, and each sum becomes one ``Fraction``. ``sphere_measure``
    and ``sphere_boundary`` stay the definitional check of these values.
    """
    measure = decomp.graph.measure
    adjacency = decomp.graph.adjacency
    dist = decomp.dist
    measures = []
    weights = []
    for r, shell in enumerate(decomp.spheres):
        m_n = b_n = 0  # 0 until the first term: measures and weights are positive
        m_d = b_d = 1
        for x in shell:
            n, d = measure[x].as_integer_ratio()
            if m_n:
                common = lcm(m_d, d)
                m_n = m_n * (common // m_d) + n * (common // d)
                m_d = common
            else:
                m_n, m_d = n, d
            for y, w in adjacency[x].items():
                if dist[y] > r:
                    n, d = w.as_integer_ratio()
                    if b_n:
                        common = lcm(b_d, d)
                        b_n = b_n * (common // b_d) + n * (common // d)
                        b_d = common
                    else:
                        b_n, b_d = n, d
        measures.append(Fraction(m_n, m_d))
        if r < decomp.horizon:
            weights.append(Fraction(b_n, b_d))
    return BirthDeathChain(measures=tuple(measures), weights=tuple(weights))


class ModelVerdict(Record):
    """Whether curvature is constant on every sphere, with counterexamples.

    Each failure is (radius, side, vertex_a, vertex_b): the first pair on
    that sphere whose curvatures differ.
    """

    failures: Tuple[Tuple[int, str, VertexId, VertexId], ...]

    def __init__(self, failures):
        self.__dict__.update(failures=failures)

    @property
    def is_model(self) -> bool:
        return not self.failures


def is_model(decomp: RootedDecomposition) -> ModelVerdict:
    """Check per-sphere constancy of inner and outer curvature.

    The outer side is only checked through horizon - 1; the data cannot
    price the outermost sphere's outgoing edges.
    """
    profile = curvature_profile(decomp)
    failures = []
    for r in range(decomp.horizon + 1):
        shell = decomp.sphere(r)
        # outer entries on the outermost sphere are all None, so never differ
        for k, side in enumerate(("inner", "outer")):
            baseline = profile[shell[0]][k]
            for v in shell[1:]:
                if profile[v][k] != baseline:
                    failures.append((r, side, shell[0], v))
                    break
    return ModelVerdict(failures=tuple(failures))


def bdc_as_graph(chain: BirthDeathChain) -> WeightedGraph:
    """The chain as a path graph on integer vertices 0..horizon."""
    vertices = [(r, chain.measures[r]) for r in range(chain.horizon + 1)]
    edges = [(r, r + 1, chain.weights[r]) for r in range(chain.horizon)]
    return validate_graph(vertices, edges)


def sphere_volume_step(decomp: RootedDecomposition, r: int) -> Tuple[Fraction, Fraction]:
    """Both sides of m(S_{r+1}) * avg-inner(r+1) = m(S_r) * avg-outer(r).

    A sphere measure times an average curvature is the sum of k(v) m(v), so
    the sides sum the profile's k-(v) m(v) over sphere r + 1 and k+(v) m(v)
    over sphere r: each counts every edge between the two spheres once,
    from its own side, so they must agree exactly.
    """
    if r < 0 or r + 1 > decomp.horizon:
        raise HorizonExceeded(
            f"volume step needs radii {r} and {r + 1} within horizon "
            f"{decomp.horizon}",
            radius=r,
        )
    profile = curvature_profile(decomp)
    measure = decomp.graph.measure
    lhs = sum((profile[v][0] * measure[v] for v in decomp.spheres[r + 1]), Fraction(0))
    rhs = sum((profile[v][1] * measure[v] for v in decomp.spheres[r]), Fraction(0))
    if lhs != rhs:
        raise CurvegraphError(
            f"volume step identity failed at radius {r}: {lhs} != {rhs}"
        )
    return lhs, rhs


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def chain_to_json_dict(chain: BirthDeathChain) -> dict:
    return {
        "m": [format_rational(v) for v in chain.measures],
        "b": [format_rational(v) for v in chain.weights],
    }


def chain_from_json_dict(payload) -> BirthDeathChain:
    if not isinstance(payload, dict):
        raise FormatError("chain document must be a JSON object")
    for key in ("m", "b"):
        if key not in payload or not isinstance(payload[key], list):
            raise FormatError(f"chain document needs a {key!r} array")
    return BirthDeathChain(measures=tuple(payload["m"]), weights=tuple(payload["b"]))


def chain_to_json(chain: BirthDeathChain) -> str:
    return json.dumps(chain_to_json_dict(chain), indent=2) + "\n"
