"""Where the sphere-by-sphere reduction stops telling the whole story.

The sphere curvature at radius r is a min-max of pair curvatures between
consecutive spheres. A natural guess is that on a model graph it always
equals the corresponding value of the associated chain. The audit below
computes both sides exactly and shows the guess failing at radius 2 of the
seven-vertex example, even though that graph is a model. The library
records this disagreement instead of asserting either way.

Run with: python3 demos/05_sphere_curvature_audit.py
"""

from curvegraph import (
    associated_bdc,
    bdc_ollivier_closed_form,
    format_rational,
    make_figure1,
    model_sphere_equality_report,
    ollivier_pair,
    rooted_decomposition,
    sphere_curvature,
)

g = make_figure1()
decomp = rooted_decomposition(g, "w")
chain = associated_bdc(decomp)

print("graph side, assembled from pair curvatures at radius 2:")
for y in decomp.sphere(2):
    inward = [x for x in decomp.sphere(1) if x in g.adjacency[y]]
    values = {x: ollivier_pair(g, x, y).value for x in inward}
    shown = ", ".join(f"k({x},{y})={format_rational(v)}" for x, v in values.items())
    print(f"  {y}: {shown}  -> max {format_rational(max(values.values()))}")
k2 = sphere_curvature(decomp, 2)
print(f"  min over the sphere: k(2) = {format_rational(k2)}")

print()
k2_chain = bdc_ollivier_closed_form(chain, 1, 2)
print(f"chain side, from the closed form: {format_rational(k2_chain)}")

print()
print("the audit report records both values without taking sides:")
report = model_sphere_equality_report(decomp)
print(report.to_text())
assert report.status == "recorded"
