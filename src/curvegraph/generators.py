"""Seeded random instances for the property checks.

All generators draw from a caller-supplied random.Random so that a fixed
seed reproduces every instance byte for byte. Chain pairs that must satisfy
a growth hypothesis are built by construction: the dominating chain's
curvatures are the other's scaled in the required direction, then measures
and weights are recovered from the curvature recursion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Tuple

from .chains import BirthDeathChain, chain_from_curvatures
from .graphs import VertexId, WeightedGraph, validate_graph

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
