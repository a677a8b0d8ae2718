"""Pair curvature as an exact optimization, with a checkable witness.

The value k(x,y) measures how the graph's one-step averaging operator
contracts or stretches distances between the unit-mass neighborhoods of x
and y. It is computed here as an exact linear program over integer-valued
1-Lipschitz functions, and every answer ships with the minimizing function.

Run with: python3 demos/02_ollivier_transport.py
"""

from fractions import Fraction

from curvegraph import (
    format_rational,
    make_figure1,
    ollivier_pair,
    ollivier_pair_bruteforce,
    validate_graph,
    verify_witness,
)

g = make_figure1()

print("the seven-vertex example has both signs of curvature on its edges:")
for x, y in [("x", "y"), ("x'", "y'")]:
    result = ollivier_pair(g, x, y)
    print(f"  k({x},{y}) = {format_rational(result.value)}")
    print(f"    witness f = {result.witness}")
    # the witness is replayed against the definition: 1-Lipschitz on the
    # support, unit gradient on the pair, and it reproduces the value
    verify_witness(g, result)

print()
print("a slower, assumption-free search returns the same optimum:")
fast = ollivier_pair(g, "x", "y")
slow = ollivier_pair_bruteforce(g, "x", "y")
print(f"  solver {format_rational(fast.value)}, enumeration {format_rational(slow.value)}")
assert fast.value == slow.value
assert fast.witness == slow.witness  # both pick the lexicographically least

print()
print("curvature is defined for non-adjacent pairs too:")
result = ollivier_pair(g, "x", "x'")
print(
    f"  d(x,x') = {result.distance},"
    f" k(x,x') = {format_rational(result.value)}"
)

print()
print("scaling every edge weight and measure by 7/3 changes nothing:")
s = Fraction(7, 3)
scaled = validate_graph(
    [(v, g.measure[v] * s) for v in g.vertices], [(u, v, w * s) for u, v, w in g.edges]
)
assert ollivier_pair(scaled, "x", "y").value == fast.value
print(f"  k(x,y) is still {format_rational(fast.value)}")
