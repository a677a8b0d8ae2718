"""Collapse a rooted graph onto a birth-death chain and test modelhood.

From a root, every sphere becomes one chain point carrying the sphere's
total measure, and consecutive spheres are joined by their total boundary
weight. Graphs whose per-vertex curvatures are constant on every sphere
(models) are the ones this reduction represents faithfully.

Run with: python3 demos/03_chains_and_models.py
"""

from curvegraph import (
    associated_bdc,
    bdc_as_graph,
    bdc_ollivier_closed_form,
    format_rational,
    is_model,
    make_figure1,
    make_mirror_model,
    make_unweighted_chain,
    ollivier_pair,
    rooted_decomposition,
    sphere_measure,
)

rooted = rooted_decomposition(make_figure1(), "w")
chain = associated_bdc(rooted)
print("the seven-vertex example reduces to:")
print(f"  measures  {tuple(format_rational(m) for m in chain.measures)}")
print(f"  weights   {tuple(format_rational(b) for b in chain.weights)}")

verdict = is_model(rooted)
print(f"model around w: {verdict.is_model}")

# reducing a chain again is a no-op
assert associated_bdc(rooted_decomposition(bdc_as_graph(chain), 0)) == chain
print("reducing the chain a second time returns it unchanged")

print()
print("on chains the pair curvature of consecutive points has a closed form")
print("that matches the optimization exactly:")
uc = make_unweighted_chain(6)
path = bdc_as_graph(uc)
for r in range(1, 6):
    closed = bdc_ollivier_closed_form(uc, r - 1, r)
    solved = ollivier_pair(path, r - 1, r).value
    assert closed == solved
    print(f"  k({r - 1},{r}) = {format_rational(closed)}")

print()
print("a mirror model doubles every sphere of its source chain:")
mirror = make_mirror_model(uc)
decomp = rooted_decomposition(mirror, "0")
for r in range(1, 4):
    doubled = sphere_measure(decomp, r)
    print(
        f"  r={r}: chain volume {format_rational(uc.measures[r])},"
        f" mirror volume {format_rational(doubled)}"
    )
    assert doubled == 2 * uc.measures[r]
