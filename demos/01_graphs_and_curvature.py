"""Build a weighted graph by hand and walk through its curvature data.

Run with: python3 demos/01_graphs_and_curvature.py
"""

from curvegraph import (
    associated_bdc,
    average_curvature,
    format_rational,
    inner_curvature,
    inner_outer,
    rooted_decomposition,
    sphere_boundary,
    sphere_measure,
    validate_graph,
)

# A small tree with one heavy leaf. Measures and weights are rationals;
# strings like "1/2" are fine anywhere a number is expected.
g = validate_graph(
    [("hub", 1), ("a", 1), ("b", "1/2"), ("leaf", 3)],
    [("hub", "a", 1), ("hub", "b", 1), ("a", "leaf", "3/2")],
)

decomp = rooted_decomposition(g, "hub")
print(f"root: {decomp.root}, horizon: {decomp.horizon}")
for r in range(decomp.horizon + 1):
    print(f"  sphere {r}: {decomp.sphere(r)}")

print()
print("per-vertex curvature (inner, outer):")
for r in range(decomp.horizon + 1):
    for v in decomp.sphere(r):
        if r < decomp.horizon:
            k_minus, k_plus = inner_outer(decomp, v)
            print(f"  {v}: ({format_rational(k_minus)}, {format_rational(k_plus)})")
        else:
            # the outermost sphere has no next sphere, so the outer side
            # does not exist there
            k_minus = inner_curvature(decomp, v)
            print(f"  {v}: ({format_rational(k_minus)}, -)")

print()
print("averaged curvature and the volume identity:")
for r in range(decomp.horizon):
    vol = sphere_measure(decomp, r)
    avg_out = average_curvature(decomp, r, "outer")
    boundary = sphere_boundary(decomp, r)
    print(
        f"  r={r}: m(S_r)={format_rational(vol)}"
        f"  avg outer={format_rational(avg_out)}"
        f"  boundary={format_rational(boundary)}"
    )
    # the boundary weight is exactly volume times averaged outer curvature
    assert vol * avg_out == boundary

print()
print("the same averages read off the associated birth-death chain:")
chain = associated_bdc(decomp)
for r in range(chain.horizon + 1):
    outer = "-" if r == chain.horizon else format_rational(chain.outer_curvature(r))
    print(
        f"  r={r}: avg inner {format_rational(chain.inner_curvature(r))},"
        f" avg outer {outer}, volume {format_rational(chain.measures[r])}"
    )
print(f"gap at radius 0: {format_rational(chain.curvature_gap(0))}")
