"""Checks that the benchmark's oracles can tell right from wrong.

`static_checks` needs no program output: it types in the seven-vertex
example from its published data, a small star pair and the path graph of a
small chain. It shows that each pair oracle accepts a correct witness and
value and rejects a witness bumped by one at any single vertex, a value off
by 1/1, and a feasible witness that is not optimal, and that the chain form
equals enumeration on the chain's path graph. `MUTATIONS` holds, per
command, edits that each make a correct output wrong, one for every field
or column its check reads; the benchmark runs the check on the real output
and on every mutated copy, so a check that cannot fail stops the run.

Run the static checks alone with  python3 bench/selfcheck.py
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from oracles import (
    Graph,
    OracleError,
    chain_pair_value,
    check_all_adjacent,
    check_pair,
    enumerate_pair_min,
    fmt_rational,
    laplacian,
    pair_support,
    replay_pair,
    tree_pair_value,
)


def figure1() -> Graph:
    """The seven-vertex example: k(x, y) = -1 and k(x', y') = 1."""
    measure = {"w": 1, "x": 1, "x'": 1, "y": 1, "y'": 3, "z": 1, "z'": 3}
    edges = [
        ("w", "x", 1), ("w", "x'", 1), ("x", "y", 1), ("x", "y'", 1),
        ("x'", "y'", 2), ("y", "z", 1), ("y'", "z'", 3),
    ]
    return Graph(
        {v: Fraction(m) for v, m in measure.items()},
        [(u, v, Fraction(b)) for u, v, b in edges],
    )


def star_pair() -> Graph:
    """Adjacent centres 0 and 1 with two and three leaves."""
    measure = {0: Fraction(2), 1: Fraction(3, 2), 2: Fraction(1), 3: Fraction(5, 3),
               4: Fraction(1, 2), 5: Fraction(7), 6: Fraction(4)}
    edges = [(0, 1, Fraction(3)), (0, 2, Fraction(1, 2)), (0, 3, Fraction(2)),
             (1, 4, Fraction(5, 4)), (1, 5, Fraction(1)), (1, 6, Fraction(1, 3))]
    return Graph(measure, edges)


def chain_path() -> tuple:
    """A chain of horizon 4 and its path graph: vertex r has measure m[r],
    and r - 1 and r are joined with weight b[r - 1]."""
    m = [Fraction(2, 3), Fraction(5, 2), Fraction(1, 4), Fraction(3), Fraction(7, 5)]
    b = [Fraction(3, 2), Fraction(1, 3), Fraction(9, 4), Fraction(2)]
    path = Graph(dict(enumerate(m)), [(r - 1, r, b[r - 1]) for r in range(1, len(m))])
    return m, b, path


def _rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except OracleError:
        return True
    return False


def _pair_json(x, y, witness, value) -> dict:
    return {
        "x": str(x), "y": str(y), "distance": witness[y] - witness[x],
        "value": fmt_rational(value),
        "witness": {str(v): witness[v] for v in sorted(witness)},
    }


def _replay_rejects_bumps(g, x, y, witness, value, d) -> None:
    replay_pair(g, x, y, witness, value, d)
    for v in witness:
        bumped = {**witness, v: witness[v] + 1}
        if not _rejects(replay_pair, g, x, y, bumped, value, d):
            raise AssertionError(f"replay accepted a witness bumped at {v}")
    if not _rejects(replay_pair, g, x, y, witness, value + 1, d):
        raise AssertionError("replay accepted a value off by 1/1")


def _suboptimal(g, x, y, witness):
    """A feasible witness one bump away from the optimum, with its value."""
    for v in sorted(pair_support(g, x, y) - {x, y}, key=str):
        for step in (1, -1):
            other = {**witness, v: witness[v] + step}
            value = (laplacian(g, other, y) - laplacian(g, other, x)) / (other[y] - other[x])
            try:
                replay_pair(g, x, y, other, value, other[y] - other[x])
            except OracleError:
                continue
            return other, value
    raise AssertionError("no feasible neighbour of the optimum")


def static_checks() -> None:
    fig = figure1()
    for (x, y), want in ((("x", "y"), -1), (("x'", "y'"), 1)):
        value, witness = enumerate_pair_min(fig, x, y)
        if value != want:
            raise AssertionError(f"enumeration gives k({x},{y}) = {value}, published {want}")
        _replay_rejects_bumps(fig, x, y, witness, value, 1)

    star = star_pair()
    value, witness = enumerate_pair_min(star, 0, 1)
    if tree_pair_value(star, 0, 1) != value:
        raise AssertionError(f"tree form {tree_pair_value(star, 0, 1)} != enumeration {value}")
    _replay_rejects_bumps(star, 0, 1, witness, value, 1)
    good = _pair_json(0, 1, witness, value)
    check_pair(star, 0, 1, json.dumps(good), closed_form=True)
    worse, worse_value = _suboptimal(star, 0, 1, witness)
    if not _rejects(check_pair, star, 0, 1, json.dumps(_pair_json(0, 1, worse, worse_value)), True):
        raise AssertionError("tree form accepted a feasible witness that is not optimal")

    m, b, path = chain_path()
    for r in range(1, len(m)):
        value, _ = enumerate_pair_min(path, r - 1, r)
        if chain_pair_value(m, b, r) != value:
            raise AssertionError(f"chain form at r = {r}: {chain_pair_value(m, b, r)}, "
                                 f"enumeration {value}")

    # the enumeration check on --all-adjacent output, edge by edge
    entries = []
    for x, y in sorted(star.edge_set()):
        v, w = enumerate_pair_min(star, x, y)
        entries.append(_pair_json(x, y, w, v))
    edges = sorted(star.edge_set())
    check_all_adjacent(star, json.dumps(entries), edges)
    entries[0] = _pair_json(0, 1, worse, worse_value)
    if not _rejects(check_all_adjacent, star, json.dumps(entries), edges):
        raise AssertionError("enumeration accepted a feasible witness that is not optimal")


# ---------------------------------------------------------------------------
# edits that each turn a correct output into a wrong one
# ---------------------------------------------------------------------------


def _plus_one(text: str) -> str:
    return fmt_rational(Fraction(text) + 1)


def _int_plus_one(text: str) -> str:
    return str(int(text) + 1)


def _at(path, edit):
    """Edit of a JSON output: edit(doc[k1][k2]...) in place."""
    def mutate(text):
        doc = json.loads(text)
        part = doc
        for key in path:
            part = part[key]
        edit(part)
        return json.dumps(doc)
    return mutate


def _set(path, change):
    """Edit that replaces doc[k1]...[kn] by change(old value)."""
    *outer, last = path

    def edit(part):
        part[last] = change(part[last])
    return _at(outer, edit)


def _drop_last(*path):
    return _at(path, lambda part: part.pop())


def _csv_rows(edit):
    def mutate(text):
        rows = list(csv.reader(io.StringIO(text)))
        edit(rows)
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    return mutate


def _csv_cell(row, col, change):
    def edit(rows):
        rows[row][col] = change(rows[row][col])
    return _csv_rows(edit)


def _bump_witness(end):
    """Edit of a pair entry: the witness at end "x" or "y", plus one."""
    def edit(entry):
        entry["witness"][entry[end]] += 1
    return edit


def _pair_edits(*path):
    """One edit per field of the pair entry at doc[path]. A bump of the
    witness off the two ends can leave another optimum, so the witness is
    bumped at the ends here; static_checks bumps it at every vertex."""
    return [
        ("y", _set(path + ("y",), _int_plus_one)),
        ("value", _set(path + ("value",), _plus_one)),
        ("distance", _set(path + ("distance",), lambda d: d + 1)),
        ("witness at x", _at(path, _bump_witness("x"))),
        ("witness at y", _at(path, _bump_witness("y"))),
    ]


def _verify_edit(old, new):
    return lambda text: text.replace(old, new, 1)


def _csv_columns(columns, row=1):
    """One edit per column: the value in `row` plus one."""
    return [(name, _csv_cell(row, col, _int_plus_one if name in ("r", "vertex") else _plus_one))
            for col, name in enumerate(columns)]


_LEDGER_EDITS = [
    (f"{key}.{field}", _set((key, "ledger", 0, field), change))
    for key in ("volume_comparison", "asymptotic_comparison")
    for field, change in (("lhs", _plus_one), ("rhs", _plus_one), ("ok", lambda ok: not ok))
]

MUTATIONS = {
    "ollivier_all_s": _pair_edits(0) + [("edges", _drop_last())],
    "ollivier_pair_s": _pair_edits(),
    "sphere_curv_s": _csv_columns(("r", "k_graph", "k_chain"))
    + [("rows", _csv_rows(lambda rows: rows.pop()))],
    "validate_s": [
        ("vertex.id", _set(("vertices", 0, "id"), _int_plus_one)),
        ("vertex.m", _set(("vertices", 0, "m"), _plus_one)),
        ("edge.b", _set(("edges", 0, "b"), _plus_one)),
        ("vertices", _drop_last("vertices")),
        ("edges", _drop_last("edges")),
    ],
    "curvature_s": _csv_columns(("r", "vertex", "k_minus", "k_plus", "avg_minus",
                                 "avg_plus", "m_Sr"))
    + [("past-horizon", _csv_cell(-1, 3, lambda _: "0/1")),
       ("rows", _csv_rows(lambda rows: rows.pop()))],
    "compare_s": _LEDGER_EDITS + [
        ("ledger rows", _drop_last("volume_comparison", "ledger")),
        ("constant", _set(("constant",), lambda _: "2/1")),
        ("stronger_average_curvature", _set(("stronger_average_curvature", "holds"),
                                            lambda holds: not holds)),
        ("stronger_outside_finite_set", _set(("stronger_outside_finite_set", "holds"),
                                             lambda holds: not holds)),
        ("threshold", _set(("stronger_outside_finite_set", "threshold"), lambda t: t + 1)),
    ],
    "verify_s": [
        ("summary", _verify_edit(", 0 failed,", ", 1 failed,")),
        ("criterion-01 status", _verify_edit("figure1-pair-values: pass (",
                                             "figure1-pair-values: fail (")),
        ("k(x,y)", _verify_edit("k(x,y) = -1/1", "k(x,y) = 0/1")),
        ("k(x',y')", _verify_edit("k(x',y') = 1/1", "k(x',y') = 2/1")),
    ],
}


if __name__ == "__main__":
    static_checks()
    print("oracle self-checks passed")
