"""Deterministic random instance generators used by the verification suite."""

import random
from fractions import Fraction

from curvegraph import stronger_average_growth, stronger_outside_finite
from curvegraph.generators import (
    MAX_HORIZON,
    MAX_SEQUENCE_LEN,
    MIN_HORIZON,
    chain_pair_matched_start,
    chain_pair_outside_hypothesis,
    chain_pair_with_average_hypothesis,
    nonincreasing_unit_sequence,
    random_chain,
    random_graph,
    random_rational,
)


def test_same_seed_same_instances():
    a = random.Random("stream")
    b = random.Random("stream")
    for _ in range(50):
        assert random_graph(a) == random_graph(b)
        assert random_chain(a) == random_chain(b)
        assert nonincreasing_unit_sequence(a) == nonincreasing_unit_sequence(b)


def test_random_rational_positive():
    rng = random.Random(0)
    for _ in range(200):
        q = random_rational(rng)
        assert isinstance(q, Fraction) and q > 0


def test_random_graph_shape():
    rng = random.Random(3)
    for _ in range(30):
        g, root = random_graph(rng, max_vertices=12)
        n = len(g.vertices)
        assert 2 <= n <= 12
        assert set(g.vertices) == set(range(n))
        assert root in g.adjacency
        # validate_graph enforces connectivity, so construction succeeding
        # already proves the tree backbone did its job


def test_random_chain_horizon_bounds():
    rng = random.Random(4)
    for _ in range(30):
        c = random_chain(rng)
        assert MIN_HORIZON <= c.horizon <= MAX_HORIZON


def test_average_hypothesis_pairs_dominate():
    rng = random.Random(5)
    for _ in range(40):
        c1, c2 = chain_pair_with_average_hypothesis(rng)
        assert c1.horizon == c2.horizon
        assert c1.measures[0] == c2.measures[0]
        assert stronger_average_growth(c1, c2).holds


def test_matched_start_pairs_share_root_curvature():
    rng = random.Random(6)
    for _ in range(40):
        c1, c2 = chain_pair_matched_start(rng)
        assert c1.outer_curvature(0) == c2.outer_curvature(0)


def test_outside_pairs_dominate_from_threshold():
    rng = random.Random(7)
    for _ in range(40):
        c1, c2, threshold = chain_pair_outside_hypothesis(rng)
        assert 1 <= threshold <= min(c1.horizon, c2.horizon) - 1
        assert stronger_outside_finite(c1, c2, threshold).holds


def test_unit_sequences_admissible():
    rng = random.Random(8)
    for _ in range(60):
        seq = nonincreasing_unit_sequence(rng)
        assert 3 <= len(seq) <= MAX_SEQUENCE_LEN
        assert seq[0] == 1
        assert all(q > 0 for q in seq)
        assert all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))
