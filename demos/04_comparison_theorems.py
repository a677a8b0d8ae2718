"""Volume comparison: when curvature domination does and does not pay off.

Three stories. First, averaged curvature domination with matched root
measure forces sphere-volume domination, radius by radius. Second, the
weaker gap-only hypothesis does not: a chain exists whose curvature gaps
stay below the unweighted chain's while its spheres grow linearly. Third,
domination only outside a finite set still bounds volumes after paying a
multiplicative constant, and the mirror model shows the constant 2 is real.

Run with: python3 demos/04_comparison_theorems.py
"""

import random

from curvegraph import (
    associated_bdc,
    asymptotic_constant,
    format_rational,
    make_example_gprime,
    make_mirror_model,
    make_unweighted_chain,
    stronger_average_growth,
    volume_comparison,
)
from curvegraph.generators import chain_pair_with_average_hypothesis

rng = random.Random(2024)
c1, c2 = chain_pair_with_average_hypothesis(rng)
print("a random pair built to satisfy the averaged-domination hypothesis:")
print(f"  {stronger_average_growth(c1, c2).describe()}")
report = volume_comparison(c1, c2)
print(report.to_text())

print()
print("the gap-only hypothesis is too weak to control volume:")
uc = make_unweighted_chain(8)
grow = make_example_gprime(8)
for r in range(1, 5):
    gap_uc = uc.curvature_gap(r)
    gap_grow = grow.curvature_gap(r)
    print(
        f"  r={r}: gaps {format_rational(gap_uc)} >= {format_rational(gap_grow)},"
        f" but volumes {format_rational(uc.measures[r])} <"
        f" {format_rational(grow.measures[r])}"
    )
    assert gap_uc >= gap_grow and uc.measures[r] < grow.measures[r]

print()
print("domination outside a finite set costs a constant:")
mirror = associated_bdc(make_mirror_model(uc), "0")
constant, report = asymptotic_constant(uc, mirror, 1)
print(f"  C = {format_rational(constant)}")
print(report.to_text())
