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


def random_rational(rng: random.Random, max_num: int = 9, max_den: int = 9) -> Fraction:
    """Positive rational with small numerator and denominator."""
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


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


def random_chain(
    rng: random.Random, min_horizon: int = 2, max_horizon: int = 8
) -> BirthDeathChain:
    horizon = rng.randint(min_horizon, max_horizon)
    measures = tuple(random_rational(rng) for _ in range(horizon + 1))
    weights = tuple(random_rational(rng) for _ in range(horizon))
    return BirthDeathChain(measures=measures, weights=weights)


def chain_pair_with_average_hypothesis(
    rng: random.Random, min_horizon: int = 2, max_horizon: int = 8
) -> Tuple[BirthDeathChain, BirthDeathChain]:
    """Pair where the first chain dominates the second by construction.

    Root measures match; the first chain's outer curvatures are scaled up
    and its inner curvatures scaled down relative to the second's.
    """
    c2 = random_chain(rng, min_horizon, max_horizon)
    outer = []
    inner = []
    for r in range(c2.horizon):
        outer.append(c2.outer_curvature(r) * _scale_above_one(rng))
        inner.append(c2.inner_curvature(r + 1) / _scale_above_one(rng))
    c1 = chain_from_curvatures(c2.measures[0], outer, inner)
    return c1, c2


def chain_pair_matched_start(
    rng: random.Random, min_horizon: int = 2, max_horizon: int = 8
) -> Tuple[BirthDeathChain, BirthDeathChain]:
    """Independent chains forced to share the radius-0 outer curvature."""
    c1 = random_chain(rng, min_horizon, max_horizon)
    c2 = random_chain(rng, min_horizon, max_horizon)
    weights = (c1.outer_curvature(0) * c2.measures[0],) + c2.weights[1:]
    return c1, BirthDeathChain(measures=c2.measures, weights=weights)


def chain_pair_outside_hypothesis(
    rng: random.Random, min_horizon: int = 2, max_horizon: int = 8
) -> Tuple[BirthDeathChain, BirthDeathChain, int]:
    """Pair dominating only from a threshold radius on, plus that threshold.

    Below the threshold both curvature sides are drawn freely, so the full
    hypothesis generally fails there; root measures are unrelated too.
    """
    c2 = random_chain(rng, min_horizon, max_horizon)
    h = c2.horizon
    threshold = rng.randint(1, h - 1)
    outer = []
    inner = []
    for r in range(h):
        if r >= threshold:
            outer.append(c2.outer_curvature(r) * _scale_above_one(rng))
        else:
            outer.append(random_rational(rng))
        if r + 1 >= threshold:
            inner.append(c2.inner_curvature(r + 1) / _scale_above_one(rng))
        else:
            inner.append(random_rational(rng))
    c1 = chain_from_curvatures(random_rational(rng), outer, inner)
    return c1, c2, threshold


def nonincreasing_unit_sequence(
    rng: random.Random, max_len: int = 8
) -> Tuple[Fraction, ...]:
    """Positive nonincreasing sequence starting at 1."""
    length = rng.randint(3, max_len)
    values = [Fraction(1)]
    for _ in range(length - 1):
        num = rng.randint(1, 6)
        den = rng.randint(num, 6)
        values.append(values[-1] * Fraction(num, den))
    return tuple(values)
