"""Example chains and graphs: the named examples and seeded random instances.

The named examples are the ones the paper's statements turn on and the
`gen` command prints: the unweighted chain, the chain G' whose summable
negative curvature gap still lets its volume dominate, the mirror model of
a chain, the chain matching a nonincreasing curvature sequence, and the
figure 1 graph. ``chain_from_curvatures`` builds a chain from its outer and
inner curvatures, for them and for the random pairs.

All random generators draw from a caller-supplied random.Random so that a
fixed seed reproduces every instance byte for byte. Chain pairs that must
satisfy a growth hypothesis are built by construction: the dominating
chain's curvatures are the other's scaled in the required direction, then
measures and weights are recovered from the curvature recursion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence, Tuple

from .chains import BirthDeathChain
from .errors import (
    CurvegraphError,
    HorizonExceeded,
    NonPositiveEntry,
    SequenceNotNonincreasing,
)
from .graphs import (
    RationalLike,
    VertexId,
    WeightedGraph,
    _shown,
    parse_rational,
    validate_graph,
)

if TYPE_CHECKING:  # annotations only: gen draws nothing at random
    import random


# ---------------------------------------------------------------------------
# named examples
# ---------------------------------------------------------------------------


def chain_from_curvatures(
    root_measure: Fraction, outer: Sequence[Fraction], inner: Sequence[Fraction]
) -> BirthDeathChain:
    """Chain whose outer curvature at r is outer[r] and inner at r+1 is inner[r].

    Solves b(r) = outer[r] * m(r) and m(r+1) = b(r) / inner[r] upward from m(0).
    """
    measures = [root_measure]
    weights = []
    for r, k_plus in enumerate(outer):
        weights.append(k_plus * measures[r])
        measures.append(weights[r] / inner[r])
    return BirthDeathChain(measures=tuple(measures), weights=tuple(weights))


def make_unweighted_chain(n: int) -> BirthDeathChain:
    """Chain with all measures and weights 1, horizon n."""
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    one = Fraction(1)
    return BirthDeathChain(measures=(one,) * (n + 1), weights=(one,) * n)


def make_example_gprime(n: int) -> BirthDeathChain:
    """Chain with m(r) = r + 1 and b(r, r+1) = 1/(r+1)^2, horizon n.

    Its curvature gap is negative yet summable, while the sphere volume r + 1
    strictly dominates the unweighted chain's: curvature-gap domination alone
    does not force a volume comparison.
    """
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    measures = tuple(Fraction(r + 1) for r in range(n + 1))
    weights = tuple(Fraction(1, (r + 1) ** 2) for r in range(n))
    return BirthDeathChain(measures=measures, weights=weights)


def make_mirror_model(chain: BirthDeathChain) -> WeightedGraph:
    """Two copies of the chain glued at radius 0, on labels -horizon..horizon.

    Rooted at "0" this is a model with the same averaged curvatures as the
    chain for every r >= 1, but each sphere has twice the measure and the
    root's outer curvature doubles.
    """
    h = chain.horizon
    if h < 1:
        raise HorizonExceeded("mirror model needs horizon at least 1", radius=1)
    vertices = [("0", chain.measures[0])]
    for r in range(1, h + 1):
        vertices.append((str(r), chain.measures[r]))
        vertices.append((str(-r), chain.measures[r]))
    edges = []
    for r in range(h):
        edges.append((str(r), str(r + 1), chain.weights[r]))
        edges.append((str(-r) if r else "0", str(-(r + 1)), chain.weights[r]))
    return validate_graph(vertices, edges)


def make_ollivier_matching_chain(seq: Sequence[RationalLike]) -> BirthDeathChain:
    """Chain whose sphere curvatures are 1 at r = 1 and 0 afterwards, with
    curvature gap matching the given nonincreasing sequence.

    ``seq`` must be positive, nonincreasing, and start at 1; state r of the
    result has inner and outer curvature seq[r] (outer also seq[0] = 1 at the
    root), so measures never fall below 1.
    """
    values = [parse_rational(v) for v in seq]
    if not values:
        raise NonPositiveEntry("sequence must be nonempty")
    for i, a in enumerate(values):
        if a <= 0:
            raise NonPositiveEntry(f"sequence entry {i} must be positive", index=i)
    if values[0] != 1:
        raise CurvegraphError(f"sequence must start at 1, got {_shown(values[0])}")
    for i in range(1, len(values)):
        if values[i] > values[i - 1]:
            raise SequenceNotNonincreasing(
                f"entry {i} exceeds entry {i - 1}: {_shown(values[i])} > {_shown(values[i - 1])}",
                index=i,
            )
    return chain_from_curvatures(Fraction(1), values[:-1], values[1:])


def make_figure1() -> WeightedGraph:
    """Seven-vertex model graph whose min-max sphere curvature at radius 2
    disagrees with its associated chain's closed-form value."""
    vertices = [
        ("w", 1),
        ("x", 1),
        ("x'", 1),
        ("y", 1),
        ("y'", 3),
        ("z", 1),
        ("z'", 3),
    ]
    edges = [
        ("w", "x", 1),
        ("w", "x'", 1),
        ("x", "y", 1),
        ("x", "y'", 1),
        ("x'", "y'", 2),
        ("y", "z", 1),
        ("y'", "z'", 3),
    ]
    return validate_graph(vertices, edges)


# ---------------------------------------------------------------------------
# seeded random instances
# ---------------------------------------------------------------------------


# horizons of random chains, and the longest unit sequence
MIN_HORIZON = 2
MAX_HORIZON = 8
MAX_SEQUENCE_LEN = 8

ChainPair = Tuple[BirthDeathChain, BirthDeathChain]


def random_rational(rng: random.Random) -> Fraction:
    """Positive rational with numerator and denominator in 1..9."""
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _scale_above_one(rng: random.Random) -> Fraction:
    return 1 + Fraction(rng.randint(0, 6), rng.randint(1, 6))


def random_graph(
    rng: random.Random, max_vertices: int = 40
) -> Tuple[WeightedGraph, VertexId]:
    """Connected weighted graph on integer labels: a random tree plus extras."""
    n = rng.randint(2, max_vertices)
    vertex_records = [(v, random_rational(rng)) for v in range(n)]
    edges = {}
    for v in range(1, n):
        edges[(rng.randrange(v), v)] = random_rational(rng)
    for _ in range(rng.randint(0, n // 2)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if pair not in edges:
            edges[pair] = random_rational(rng)
    edge_records = [(u, v, w) for (u, v), w in sorted(edges.items())]
    g = validate_graph(vertex_records, edge_records)
    return g, rng.randrange(n)


def random_chain(rng: random.Random) -> BirthDeathChain:
    horizon = rng.randint(MIN_HORIZON, MAX_HORIZON)
    measures = tuple(random_rational(rng) for _ in range(horizon + 1))
    weights = tuple(random_rational(rng) for _ in range(horizon))
    return BirthDeathChain(measures=measures, weights=weights)


def _dominating_curvatures(rng: random.Random, c2: BirthDeathChain, threshold: int):
    """Curvatures of a chain dominating c2 from radius threshold on: c2's outer
    ones scaled up and inner ones down there, each drawn freely below it.
    Threshold 0 is full domination."""
    outer, inner = [], []
    for r in range(c2.horizon):
        if r >= threshold:
            outer.append(c2.outer_curvature(r) * _scale_above_one(rng))
        else:
            outer.append(random_rational(rng))
        if r + 1 >= threshold:
            inner.append(c2.inner_curvature(r + 1) / _scale_above_one(rng))
        else:
            inner.append(random_rational(rng))
    return outer, inner


def chain_pair_with_average_hypothesis(rng: random.Random) -> ChainPair:
    """Pair whose first chain dominates the second from radius 0; root measures match."""
    c2 = random_chain(rng)
    c1 = chain_from_curvatures(c2.measures[0], *_dominating_curvatures(rng, c2, 0))
    return c1, c2


def chain_pair_matched_start(rng: random.Random) -> ChainPair:
    """Independent chains forced to share the radius-0 outer curvature."""
    c1 = random_chain(rng)
    c2 = random_chain(rng)
    weights = (c1.outer_curvature(0) * c2.measures[0],) + c2.weights[1:]
    return c1, BirthDeathChain(measures=c2.measures, weights=weights)


def chain_pair_outside_hypothesis(
    rng: random.Random,
) -> Tuple[BirthDeathChain, BirthDeathChain, int]:
    """Pair dominating only from a threshold radius on, plus that threshold.

    Below the threshold both curvature sides are drawn freely, so the full
    hypothesis generally fails there; root measures are unrelated too.
    """
    c2 = random_chain(rng)
    threshold = rng.randint(1, c2.horizon - 1)
    outer, inner = _dominating_curvatures(rng, c2, threshold)
    # the root measure is drawn after the curvatures
    c1 = chain_from_curvatures(random_rational(rng), outer, inner)
    return c1, c2, threshold


def nonincreasing_unit_sequence(rng: random.Random) -> Tuple[Fraction, ...]:
    """Positive nonincreasing sequence starting at 1."""
    length = rng.randint(3, MAX_SEQUENCE_LEN)
    values = [Fraction(1)]
    for _ in range(length - 1):
        num = rng.randint(1, 6)
        den = rng.randint(num, 6)
        values.append(values[-1] * Fraction(num, den))
    return tuple(values)
