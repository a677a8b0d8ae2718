"""End-to-end command tests, run in process through cli.run; the last
section runs the process entry, cli.main, in a child interpreter."""

import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvegraph import (
    cli,
    curvature_profile,
    graphs,
    make_figure1,
    rooted_decomposition,
    validate_graph,
)
from curvegraph.graphs import format_rational, graph_to_json

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def figure1_file(tmp_path):
    path = tmp_path / "figure1.json"
    path.write_text(graph_to_json(make_figure1()))
    return str(path)


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ---


def test_validate_echoes_canonical_form(capsys, figure1_file):
    code, out, err = run_cli(capsys, ["validate", figure1_file])
    assert (code, err) == (0, "")
    assert out == graph_to_json(make_figure1())


def test_validate_is_idempotent(capsys, monkeypatch, figure1_file):
    _, once, _ = run_cli(capsys, ["validate", figure1_file])
    code, twice, _ = run_cli(capsys, ["validate"], stdin=once, monkeypatch=monkeypatch)
    assert code == 0
    assert twice == once


def test_validate_normalizes_weights(capsys, monkeypatch):
    raw = json.dumps(
        {
            "vertices": [{"id": "b", "m": "0.5"}, {"id": "a", "m": 2}],
            "edges": [{"u": "b", "v": "a", "b": "4/6"}],
        }
    )
    # 0.5 is not a rational literal; strings must be p/q or an integer
    code, _out, err = run_cli(capsys, ["validate"], stdin=raw, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(err)["error"] == "format-error"


def test_validate_chain_payload(capsys, monkeypatch):
    raw = '{"m": ["1", "3/2"], "b": ["1/2"]}'
    code, out, _err = run_cli(capsys, ["validate"], stdin=raw, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"m": ["1/1", "3/2"], "b": ["1/2"]}


def test_validate_payload_neither_graph_nor_chain(capsys, monkeypatch):
    raw = '{"x": 1}'
    code, out, err = run_cli(capsys, ["validate"], stdin=raw, monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "format-error"
    assert "cannot tell a graph from a chain" in payload["message"]


def test_validate_missing_file(capsys, tmp_path):
    code, _out, err = run_cli(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "format-error"
    assert "absent.json" in payload["detail"]["path"]


def test_validate_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"m": ["1"], "b": [], "note": "caf\xe9"}')
    code, _out, err = run_cli(capsys, ["validate", str(path)])
    assert code == 1
    assert json.loads(err)["error"] == "format-error"


def test_validate_json_nested_too_deeply(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _out, err = run_cli(capsys, ["validate", str(path)])
    assert code == 1
    assert json.loads(err)["error"] == "format-error"


@pytest.mark.parametrize(
    "number", ["1" * 5000, '"1/' + "1" * 5000 + '"'], ids=["int", "rational"]
)
def test_validate_number_past_the_digit_limit(capsys, tmp_path, number):
    path = tmp_path / "long.json"
    path.write_text('{"m": [%s], "b": []}' % number)
    code, _out, err = run_cli(capsys, ["validate", str(path)])
    assert code == 1
    assert json.loads(err)["error"] == "format-error"


def test_validate_disconnected_graph(capsys, monkeypatch):
    raw = json.dumps(
        {
            "vertices": [{"id": "a", "m": 1}, {"id": "b", "m": 1}],
            "edges": [],
        }
    )
    code, _out, err = run_cli(capsys, ["validate"], stdin=raw, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(err)["error"] == "disconnected-graph"


# --- curvature ---


def test_curvature_csv(capsys, figure1_file):
    code, out, _err = run_cli(capsys, ["curvature", figure1_file, "--root", "w"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,vertex,k_minus,k_plus,avg_minus,avg_plus,m_Sr"
    assert lines[1] == "0,w,0/1,2/1,0/1,2/1,1/1"
    assert "2,y',1/1,1/1,1/1,1/1,4/1" in lines
    # outermost sphere: outer cells are empty, never zero
    assert "3,z,1/1,,1/1,,4/1" in lines
    assert len(lines) == 8  # header + seven vertices


def test_curvature_radius_filter(capsys, figure1_file):
    code, out, _err = run_cli(
        capsys, ["curvature", figure1_file, "--root", "w", "--radius", "2"]
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("2,y,") and lines[2].startswith("2,y',")


def test_curvature_radius_out_of_range(capsys, figure1_file):
    code, _out, err = run_cli(
        capsys, ["curvature", figure1_file, "--root", "w", "--radius", "9"]
    )
    assert code == 1
    assert json.loads(err)["error"] == "horizon-exceeded"


def test_curvature_unknown_root(capsys, figure1_file):
    code, _out, err = run_cli(capsys, ["curvature", figure1_file, "--root", "nope"])
    assert code == 1
    assert json.loads(err)["error"] == "unknown-vertex"


@pytest.mark.parametrize(
    "argv",
    [["curvature", "--root", "1" * 5000], ["ollivier", "--pair", "w," + "1" * 5000]],
    ids=["root", "pair"],
)
def test_vertex_token_past_the_digit_limit(capsys, figure1_file, argv):
    code, out, err = run_cli(capsys, [argv[0], figure1_file] + argv[1:])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "unknown-vertex"


def test_values_past_the_digit_limit_fail_to_format(capsys, tmp_path):
    # every input rational is below the digit limit, but products of them
    # are not: the commands that print such values give a format error
    path = tmp_path / "long.json"
    path.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": "a", "m": "1/" + "3" * 2999 + "7"},
                    {"id": "b", "m": "1"},
                ],
                "edges": [{"u": "a", "v": "b", "b": "1" * 3000 + "/7"}],
            }
        )
    )
    for argv in (["validate"], ["bdc", "--root", "a"]):
        code, _out, _err = run_cli(capsys, argv[:1] + [str(path)] + argv[1:])
        assert code == 0
    for argv in (
        ["curvature", "--root", "a"],
        ["ollivier", "--pair", "a,b"],
        ["sphere-curv", "--root", "a"],
    ):
        code, out, err = run_cli(capsys, argv[:1] + [str(path)] + argv[1:])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "format-error"


# --- ollivier ---


def test_ollivier_pair_json(capsys, figure1_file):
    code, out, _err = run_cli(
        capsys, ["ollivier", figure1_file, "--pair", "x,y"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["x"] == "x" and payload["y"] == "y"
    assert payload["distance"] == 1
    assert payload["value"] == "-1/1"
    # witness potentials are always integers, so they stay bare in JSON
    assert payload["witness"] == {"w": -1, "x": 0, "y": 1, "y'": -1, "z": 2}
    assert payload["support"] == ["w", "x", "y", "y'", "z"]


def test_ollivier_from_stdin(capsys, monkeypatch):
    code, out, _err = run_cli(
        capsys,
        ["ollivier", "--pair", "x',y'"],
        stdin=graph_to_json(make_figure1()),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/1"


def test_ollivier_all_adjacent(capsys, figure1_file):
    code, out, _err = run_cli(capsys, ["ollivier", figure1_file, "--all-adjacent"])
    assert code == 0
    results = json.loads(out)
    pairs = [(entry["x"], entry["y"]) for entry in results]
    assert pairs == [
        ("w", "x"),
        ("w", "x'"),
        ("x", "y"),
        ("x", "y'"),
        ("x'", "y'"),
        ("y", "z"),
        ("y'", "z'"),
    ]
    by_pair = {(entry["x"], entry["y"]): entry["value"] for entry in results}
    assert by_pair[("x", "y")] == "-1/1"
    assert by_pair[("x'", "y'")] == "1/1"


def test_ollivier_same_vertex(capsys, figure1_file):
    code, _out, err = run_cli(capsys, ["ollivier", figure1_file, "--pair", "x,x"])
    assert code == 1
    assert json.loads(err)["error"] == "same-vertex"


def test_ollivier_needs_a_mode(capsys, figure1_file):
    code, _out, _err = run_cli(capsys, ["ollivier", figure1_file])
    assert code == 2


def test_ollivier_bad_pair_syntax(capsys, figure1_file):
    code, _out, _err = run_cli(capsys, ["ollivier", figure1_file, "--pair", "x"])
    assert code == 2


# --- sphere-curv ---


def test_sphere_curv_table(capsys, figure1_file):
    code, out, _err = run_cli(capsys, ["sphere-curv", figure1_file, "--root", "w"])
    assert code == 0
    assert out.splitlines() == [
        "r,k_graph,k_chain",
        "1,1/1,1/1",
        "2,-1/1,1/1",
        "3,1/1,1/1",
    ]


def test_sphere_curv_on_chain_inputs(capsys, monkeypatch):
    code, out, _err = run_cli(
        capsys,
        ["sphere-curv", "--root", "0"],
        stdin='{"m": [1, 1, 1, 1], "b": [1, 1, 1]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.splitlines()[1:]
    assert all(line.split(",")[1] == line.split(",")[2] for line in lines)


# --- pair-curvature output, pinned ---


def _seeded_graph(seed, n, edge_list):
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    vertices = [(v, rational()) for v in range(n)]
    return validate_graph(vertices, [(u, v, rational()) for u, v in edge_list])


def _pinned_grid():
    side = 12
    edges = [(v, v + 1) for v in range(side * side) if v % side + 1 < side]
    edges += [(v, v + side) for v in range(side * side - side)]
    return _seeded_graph("pin:grid", side * side, edges)


def _pinned_hubs():
    leaves = 30
    edges = [(0, 1)] + [(0, 2 + k) for k in range(leaves)]
    edges += [(1, 2 + leaves + k) for k in range(leaves)]
    return _seeded_graph("pin:hubs", 2 + 2 * leaves, edges)


# sha256 of stdout, recorded with the pair solver that ran before the
# adjacency metric, the integer objective and the early-exit Dijkstra; a
# faster kernel must print the same bytes
PINNED_DIGESTS = {
    ("grid", "ollivier"): "ac150cbe5c937b9e4a29dfc13953796b411f11569aa0c47aab1645b24b924b4b",
    ("grid", "sphere-curv"): "1820c013a84f7f0cbeccbffcfe17c9e7ab6b55c61e403015a260578f749b175b",
    ("hubs", "ollivier"): "42b2dc8b6f3dfc108705c53c9d676e2354d31a87675b356e484b6fb1dbcdd286",
    ("hubs", "sphere-curv"): "21197257b7e2371df658b82b554d86f3aeeddf81b45af0b6db73a38a71072ec9",
}


@pytest.mark.parametrize("graph, command", sorted(PINNED_DIGESTS))
def test_pair_curvature_output_is_pinned(capsys, tmp_path, graph, command):
    path = tmp_path / f"{graph}.json"
    path.write_text(graph_to_json({"grid": _pinned_grid, "hubs": _pinned_hubs}[graph]()))
    mode = ["--all-adjacent"] if command == "ollivier" else ["--root", "0"]
    code, out, err = run_cli(capsys, [command, str(path), *mode])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[graph, command]


# sha256 of stdout, recorded with the rooted functions that summed each
# curvature, sphere measure and boundary weight as a running Fraction; the
# integer sums over a least common denominator must print the same bytes
PINNED_ROOTED_DIGESTS = {
    ("grid", "bdc"): "ac38f451a075a673e926521ab374ae15dd00d28f56907081e12f5e75ed0e7bb2",
    ("grid", "compare"): "c4af5a6ec469fcd6c9d3bdd04b40b94981cc5f3cd5e8a012c6713475a9e1c38c",
    ("grid", "curvature"): "e436c8061e0e5a4c9379f0531ff542c0440c76e741fc11a28d03daefab805b47",
    ("hubs", "bdc"): "cf493dde40abc0357fbb3de0d63f39a6ac5098fba30ec18d8e28ec9beb98e9fc",
    ("hubs", "compare"): "ed826ae1d6afd123c79d43585abcba6571312f83a892753754a2b28ec531fbf4",
    ("hubs", "curvature"): "6660939cb026fd5c8c8330cbb9da72c2f8aba14abb17c0fe2712370318f4c38e",
}


@pytest.mark.parametrize("graph, command", sorted(PINNED_ROOTED_DIGESTS))
def test_rooted_output_is_pinned(capsys, tmp_path, graph, command):
    path = str(tmp_path / f"{graph}.json")
    (tmp_path / f"{graph}.json").write_text(
        graph_to_json({"grid": _pinned_grid, "hubs": _pinned_hubs}[graph]())
    )
    argv = [command, path, "--root", "0"]
    if command == "compare":
        argv = [command, path, path, "--root1", "0", "--root2", "0",
                "--outside", "1", "--constant", "--json"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ROOTED_DIGESTS[graph, command]


# sha256 of `validate` stdout, recorded with the regex rational parser and
# the json.dumps renderer; the template renderer must print the same bytes
PINNED_VALIDATE_DIGESTS = {
    "grid": "f3a111c032454b75dc8fdd82fc0943ea7607ca8e5349abafe1c1be800fbc7309",
    "hubs": "6b1ca2ecfbe733a2023f2fd51bb8d3cb45feef6195f4a09bcff5a6cc817cf15b",
}


@pytest.mark.parametrize("graph", sorted(PINNED_VALIDATE_DIGESTS))
def test_validate_output_is_pinned(capsys, tmp_path, graph):
    path = tmp_path / f"{graph}.json"
    path.write_text(graph_to_json({"grid": _pinned_grid, "hubs": _pinned_hubs}[graph]()))
    code, out, err = run_cli(capsys, ["validate", str(path)])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VALIDATE_DIGESTS[graph]


def _seeded_layered(seed, layers, width):
    """Root 0 and `layers` spheres of `width` vertices; each vertex is joined
    to one or two vertices of the sphere below and to one of its own. The
    weights are integers and the measures 1/k, so each k value is an integer
    over 1, and equal k values are equal unreduced pairs."""
    rng = random.Random(seed)
    spheres = [[0]] + [list(range(1 + k * width, 1 + (k + 1) * width)) for k in range(layers)]
    vertices = [(v, Fraction(1, rng.randint(1, 4))) for sphere in spheres for v in sphere]
    edges = {}
    for below, here in zip(spheres, spheres[1:]):
        for v in here:
            for u in rng.sample(below, min(len(below), rng.randint(1, 2))):
                edges[u, v] = rng.randint(1, 3)
            edges[tuple(sorted(rng.sample(here, 2)))] = rng.randint(1, 3)
    return validate_graph(vertices, [(u, v, b) for (u, v), b in edges.items()])


def test_each_distinct_value_is_formatted_once(capsys, tmp_path, monkeypatch):
    # 1001 vertices: the canonical text is longer than one 64 KiB slice of
    # the `validate` writer
    g = _seeded_layered("pin:layered", 40, 25)
    path = tmp_path / "layered.json"
    path.write_text(graph_to_json(g))
    calls = []

    def counting(q):
        calls.append(q)
        return format_rational(q)

    monkeypatch.setattr(graphs, "format_rational", counting)
    monkeypatch.setattr(cli, "format_rational", counting)
    # loading shares one Fraction per distinct rational string, and `validate`
    # formats each such object once
    assert run_cli(capsys, ["validate", str(path)]) == (0, path.read_text(), "")
    values = [*g.measure.values(), *(b for _, _, b in g.edges)]
    assert len(calls) == len(set(values)) < len(values)
    # `curvature` formats each distinct k value once and three chain values
    # per sphere
    calls.clear()
    assert run_cli(capsys, ["curvature", str(path), "--root", "0"])[::2] == (0, "")
    decomp = rooted_decomposition(g, 0)
    ks = [k for pair in curvature_profile(decomp).values() for k in pair if k is not None]
    assert len(calls) <= len(set(ks)) + 3 * (decomp.horizon + 1) < len(ks)


# sha256 of stdout on chain payloads, recorded with the chain that divided on
# every curvature call and the closed form that read m and b itself; the
# cached curvatures and the slope of the curvature gap must print the same bytes
PINNED_CHAIN_DIGESTS = {
    "compare chain mirror": "ad068dc7cd2930fa463d695f8792f669294346bf9a07c462ec71ea603306ebaa",
    "compare chain mirror --json": "8f4c9fbb9283e8ad14b1decf63baf7deb2302dca4106c887a3553f7e434b0b2f",
    "compare mirror chain": "cb44edfb7b3384f19de6a9df8903d71a2d554be0458ce74e78651bfa04f68900",
    "compare mirror chain --json": "3303427caeb347612b2ba6f1a956e075a175c88f93e976154f3eb990cb9903c0",
    "curvature gprime": "ff632db721f5e53a4cf469c40eb22524b5b016b7c94182a6784d41adb0c28eb3",
    "sphere-curv gprime": "4bada698db2029577ad7ed5662b4789984df2694212ea5f31a2ac33ba7ad79bb",
    "bdc gprime": "20466bff577670f8b872dd3e0c6ddb5826329933bc5c86a0ddab86a4afa987c5",
    "verify": "2cac9694ae372214cd98a1a77901a37ac3546f74dcac7b46fcc0c7af92c47870",
}


@pytest.mark.parametrize("command", sorted(PINNED_CHAIN_DIGESTS))
def test_chain_output_is_pinned(capsys, tmp_path, command):
    payloads = {
        "chain": ["gen", "chain", "--n", "8"],
        "mirror": ["gen", "mirror", "--of", "chain", "--n", "8"],
        "gprime": ["gen", "gprime", "--n", "12"],
    }
    for name, argv in payloads.items():
        _code, text, _err = run_cli(capsys, argv)
        (tmp_path / f"{name}.json").write_text(text)
    name, *rest = command.split()
    files = [str(tmp_path / f"{payload}.json") for payload in rest if payload in payloads]
    if name == "compare":
        argv = [name, *files, "--root1", "0", "--root2", "0", "--outside", "1",
                "--constant", *rest[2:]]
    elif name == "verify":
        argv = [name, "--seed", "7", "--instances", "15"]
    else:
        argv = [name, *files, "--root", "0"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CHAIN_DIGESTS[command]


# --- bdc ---


def test_bdc_reduces_figure1(capsys, figure1_file):
    code, out, _err = run_cli(capsys, ["bdc", figure1_file, "--root", "w"])
    assert code == 0
    assert json.loads(out) == {
        "m": ["1/1", "2/1", "4/1", "4/1"],
        "b": ["2/1", "4/1", "4/1"],
    }


def test_bdc_is_a_fixed_point(capsys, monkeypatch):
    code, chain_json, _err = run_cli(capsys, ["gen", "chain", "--n", "10"])
    assert code == 0
    code, out, _err = run_cli(
        capsys, ["bdc", "--root", "0"], stdin=chain_json, monkeypatch=monkeypatch
    )
    assert code == 0
    assert out == chain_json


# --- gen ---


def test_gen_chain(capsys):
    code, out, _err = run_cli(capsys, ["gen", "chain", "--n", "3"])
    assert code == 0
    assert json.loads(out) == {"m": ["1/1"] * 4, "b": ["1/1"] * 3}


@pytest.mark.parametrize("n", ["0", "x"])
def test_gen_chain_rejects_a_horizon_that_is_not_positive(capsys, n):
    code, out, err = run_cli(capsys, ["gen", "chain", "--n", n])
    assert (code, out) == (2, "")
    assert "--n" in err


def test_gen_figure1_round_trips(capsys, monkeypatch):
    code, out, _err = run_cli(capsys, ["gen", "figure1"])
    assert code == 0
    assert out == graph_to_json(make_figure1())
    code, again, err = run_cli(capsys, ["validate"], stdin=out, monkeypatch=monkeypatch)
    assert (code, again, err) == (0, out, "")


def test_gen_gprime_measures(capsys):
    code, out, _err = run_cli(capsys, ["gen", "gprime", "--n", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == ["1/1", "2/1", "3/1", "4/1", "5/1"]


def test_gen_mirror_from_builtin(capsys):
    code, out, _err = run_cli(capsys, ["gen", "mirror", "--of", "chain", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert [v["id"] for v in payload["vertices"]] == ["-2", "-1", "0", "1", "2"]


def test_gen_mirror_from_file(capsys, tmp_path):
    src = tmp_path / "chain.json"
    src.write_text('{"m": [1, 2], "b": [3]}')
    code, out, _err = run_cli(capsys, ["gen", "mirror", "--of", str(src)])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 3
    assert {e["b"] for e in payload["edges"]} == {"3/1"}


def test_gen_mirror_rejects_graph_sources(capsys, figure1_file):
    code, _out, err = run_cli(capsys, ["gen", "mirror", "--of", figure1_file])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "format-error"
    assert "bdc" in payload["message"]


def test_gen_mirror_of_horizon_zero_chain(capsys, tmp_path):
    src = tmp_path / "point.json"
    src.write_text('{"m": ["1"], "b": []}')
    code, out, err = run_cli(capsys, ["gen", "mirror", "--of", str(src)])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "horizon-exceeded"


def test_gen_matching_chain(capsys):
    code, out, _err = run_cli(capsys, ["gen", "ollivier-match", "--seq", "1,1/2,1/4"])
    assert code == 0
    assert json.loads(out) == {"m": ["1/1", "2/1", "4/1"], "b": ["1/1", "1/1"]}


def test_gen_matching_chain_needs_seq(capsys):
    code, _out, err = run_cli(capsys, ["gen", "ollivier-match"])
    assert code == 2
    assert "--seq" in err


def test_gen_matching_chain_rejects_increases(capsys):
    code, _out, err = run_cli(capsys, ["gen", "ollivier-match", "--seq", "1,2"])
    assert code == 1
    assert json.loads(err)["error"] == "sequence-not-nonincreasing"


def test_gen_unknown_generator(capsys):
    code, _out, _err = run_cli(capsys, ["gen", "torus"])
    assert code == 2


# --- compare ---


def test_compare_two_files(capsys, tmp_path, figure1_file):
    code, chain_json, _err = run_cli(capsys, ["bdc", figure1_file, "--root", "w"])
    assert code == 0
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(chain_json)
    code, out, _err = run_cli(
        capsys,
        ["compare", figure1_file, str(chain_file), "--root1", "w", "--root2", "0"],
    )
    assert code == 0
    assert "stronger-curvature: holds (r = 0..3)" in out
    assert "stronger-average-curvature: holds (r = 0..3)" in out
    assert "claim: averaged curvature domination" in out


def test_compare_against_with_stdin(capsys, monkeypatch, tmp_path):
    code, ref_json, _err = run_cli(capsys, ["gen", "chain", "--n", "8"])
    ref = tmp_path / "ref.json"
    ref.write_text(ref_json)
    code, mirror_json, _err = run_cli(capsys, ["gen", "mirror", "--of", "chain", "--n", "8"])
    code, out, _err = run_cli(
        capsys,
        [
            "compare",
            "--against",
            str(ref),
            "--root1",
            "0",
            "--root2",
            "0",
            "--outside",
            "1",
            "--constant",
        ],
        stdin=mirror_json,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "stronger-average-curvature: fails at r = 0, outer side" in out
    assert "averaged outer 1/1 < 2/1" in out
    assert "stronger-outside-finite-set: holds (r = 1..8)" in out
    assert "constant: C = 2/1" in out


def test_compare_json_output(capsys, monkeypatch, tmp_path):
    _code, ref_json, _err = run_cli(capsys, ["gen", "chain", "--n", "8"])
    ref = tmp_path / "ref.json"
    ref.write_text(ref_json)
    _code, mirror_json, _err = run_cli(
        capsys, ["gen", "mirror", "--of", "chain", "--n", "8"]
    )
    code, out, _err = run_cli(
        capsys,
        [
            "compare",
            "--against",
            str(ref),
            "--root1",
            "0",
            "--root2",
            "0",
            "--outside",
            "1",
            "--constant",
            "--json",
        ],
        stdin=mirror_json,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "stronger_curvature",
        "stronger_average_curvature",
        "stronger_outside_finite_set",
        "volume_comparison",
        "constant",
        "asymptotic_comparison",
    }
    assert payload["constant"] == "2/1"
    assert payload["stronger_outside_finite_set"]["holds"] is True
    assert payload["volume_comparison"]["conclusion"] is False
    assert payload["asymptotic_comparison"]["conclusion"] is True


def test_compare_forms_are_exclusive(capsys, figure1_file):
    code, _out, err = run_cli(
        capsys,
        [
            "compare",
            figure1_file,
            "--against",
            figure1_file,
            "--root1",
            "w",
            "--root2",
            "w",
        ],
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_compare_needs_two_files(capsys, figure1_file):
    code, _out, err = run_cli(
        capsys, ["compare", figure1_file, "--root1", "w", "--root2", "w"]
    )
    assert code == 2
    assert "two files" in err


def test_compare_constant_needs_outside(capsys, figure1_file):
    code, _out, err = run_cli(
        capsys,
        [
            "compare",
            figure1_file,
            figure1_file,
            "--root1",
            "w",
            "--root2",
            "w",
            "--constant",
        ],
    )
    assert code == 2
    assert "--outside" in err


# --- verify ---


def test_verify_exits_zero_and_prints_summary(capsys):
    code, out, _err = run_cli(capsys, ["verify", "--seed", "7", "--instances", "3"])
    assert code == 0
    assert out.splitlines()[-1] == (
        "summary: 11 passed, 0 failed, 2 recorded (seed 7, instances 3)"
    )


def test_verify_reads_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("CURVEGRAPH_SEED", "11")
    code, out, _err = run_cli(capsys, ["verify", "--instances", "3"])
    assert code == 0
    assert "(seed 11, instances 3)" in out


def test_verify_seed_flag_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("CURVEGRAPH_SEED", "11")
    code, out, _err = run_cli(capsys, ["verify", "--seed", "3", "--instances", "3"])
    assert code == 0
    assert "(seed 3, instances 3)" in out


def test_verify_rejects_garbage_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("CURVEGRAPH_SEED", "lucky")
    code, _out, err = run_cli(capsys, ["verify", "--instances", "3"])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "format-error"
    assert "CURVEGRAPH_SEED" in payload["message"]


def test_verify_output_is_reproducible(capsys):
    _code, first, _err = run_cli(capsys, ["verify", "--seed", "5", "--instances", "3"])
    _code, second, _err = run_cli(capsys, ["verify", "--seed", "5", "--instances", "3"])
    assert first == second


# --- argument handling ---


def test_unknown_subcommand(capsys):
    code, _out, _err = run_cli(capsys, ["frobnicate"])
    assert code == 2


def test_no_subcommand(capsys):
    code, _out, _err = run_cli(capsys, [])
    assert code == 2


def test_unknown_flag(capsys, figure1_file):
    code, _out, _err = run_cli(capsys, ["validate", figure1_file, "--loud"])
    assert code == 2


def test_integer_labels_resolve_from_strings(capsys, monkeypatch):
    _code, chain_json, _err = run_cli(capsys, ["gen", "chain", "--n", "4"])
    code, out, _err = run_cli(
        capsys,
        ["curvature", "--root", "0", "--radius", "4"],
        stdin=chain_json,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.splitlines()[1] == "4,4,1/1,,1/1,,1/1"


# an all-digit token names an integer label, digits being any Unicode decimal
# digit (Nd, as the regex \d+ reads them; U+0663 is ARABIC-INDIC DIGIT THREE)
@pytest.mark.parametrize(
    "token, expected", [("00", 0), ("\u0663", 3), ("+1", "+1"), (" 1", " 1"), ("", "")]
)
def test_resolve_vertex_reads_decimal_tokens_as_integers(token, expected):
    g = validate_graph([(v, 1) for v in range(4)], [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    resolved = cli._resolve_vertex(g, token)
    assert (resolved, type(resolved)) == (expected, type(expected))


# --- the process entry ---


def run_child(args):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["validate"], 0),
        (["ollivier", "--all-adjacent"], 0),
        (["curvature", "--root", "w"], 0),
        (["curvature", "--root", "nope"], 1),
        (["ollivier"], 2),
    ],
    ids=["validate", "all-adjacent", "curvature", "unknown-root", "usage-error"],
)
def test_process_entry_prints_what_run_prints(capsys, figure1_file, argv, expected):
    argv = [argv[0], figure1_file, *argv[1:]]
    in_process = run_cli(capsys, argv)
    assert in_process[0] == expected
    assert run_child(["-m", "curvegraph.cli", *argv]) == in_process


def test_run_leaves_the_collector_as_it_was(capsys, figure1_file):
    before = (gc.get_freeze_count(), gc.isenabled())
    assert run_cli(capsys, ["curvature", figure1_file, "--root", "w"])[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_main_freezes_the_collector_once_the_command_is_done():
    code = """
import gc, sys
from curvegraph import cli
frozen_before = gc.get_freeze_count()
sys.argv = ["curvegraph", "gen", "chain", "--n", "2"]
try:
    cli.main()
except SystemExit as exc:
    print(exc.code, frozen_before, gc.get_freeze_count() > 0)
"""
    status, out, err = run_child(["-c", code])
    assert (status, err) == (0, "")
    assert out.splitlines()[-1] == "0 0 True"


# the package modules each command runs, besides cli: errors and graphs run
# on import, the rest only when a command calls them
READS_INPUT = ["errors", "graphs"]
PAIRS = sorted(READS_INPUT + ["curvature"])
CHAINS = sorted(READS_INPUT + ["chains"])
ROOTED = sorted(PAIRS + ["chains"])


# the stdlib modules a command may load only to parse its command line or
# write CSV; -S keeps the environment's site hooks from importing them first
PARSING = ["argparse", "gettext", "locale"]


# sys.stderr's last line: the exit code, the curvegraph modules that had run
# when the command line was parsed, those that had run at the end, and which
# of the parsing and CSV modules were loaded
_MODULES_RUN = """
import json, sys, types
from curvegraph import cli

def ran():
    return sorted(name.rpartition(".")[2] for name, module in sys.modules.items()
                  if name.startswith("curvegraph.") and name != "curvegraph.cli"
                  and type(module) is types.ModuleType)

at_parse = []
plain_args = cli._plain_args
def spy(argv):
    at_parse.append(ran())
    return plain_args(argv)
cli._plain_args = spy
code = cli.run(sys.argv[1:])
loaded = [name for name in ("argparse", "csv", "gettext", "locale") if name in sys.modules]
sys.stderr.write(json.dumps([code, at_parse, ran(), loaded]))
"""


def _modules_run(argv):
    process, _, err = run_child(["-S", "-c", _MODULES_RUN, *argv])
    assert process == 0, err
    # a usage error writes argparse's message on the lines before
    return json.loads(err.splitlines()[-1])


@pytest.mark.parametrize(
    "argv, status, modules, loaded",
    [
        (["validate", "{g}"], 0, READS_INPUT, []),
        (["ollivier", "{g}", "--pair", "w,x"], 0, PAIRS, []),
        (["curvature", "{g}", "--root", "w"], 0, CHAINS, ["csv"]),
        (["sphere-curv", "{g}", "--root", "w"], 0, ROOTED, ["csv"]),
        (["bdc", "{g}", "--root", "w"], 0, CHAINS, []),
        (["gen", "chain", "--n", "2"], 0, sorted(CHAINS + ["generators"]), []),
        (
            ["compare", "{g}", "{g}", "--root1", "w", "--root2", "w"],
            0,
            sorted(CHAINS + ["comparison"]),
            [],
        ),
        (
            ["verify", "--instances", "1"],
            0,
            sorted(ROOTED + ["comparison", "generators", "verify"]),
            [],
        ),
        (["ollivier", "{g}"], 2, PAIRS, PARSING),
        (["-h"], 0, READS_INPUT, PARSING),
        (["validate", "-h"], 0, READS_INPUT, PARSING),
    ],
    ids=[
        "validate", "ollivier", "curvature", "sphere-curv", "bdc", "gen", "compare",
        "verify", "usage-error", "help", "command-help",
    ],
)
def test_each_command_runs_only_the_modules_it_calls(figure1_file, argv, status, modules, loaded):
    # a module has run once it is no longer the lazy placeholder; run()
    # loads them all before it parses the command line, and none runs after
    # that. A valid command line is parsed without argparse, which only help
    # and usage errors load, and only the commands that write CSV load csv
    argv = [figure1_file if arg == "{g}" else arg for arg in argv]
    assert _modules_run(argv) == [status, [modules], modules, loaded]


def test_validate_of_a_chain_runs_chains_alone(tmp_path):
    # validate learns that its input is a chain only once it has read it,
    # so chains runs after the command line is parsed, and nothing else does
    chain_file = tmp_path / "chain.json"
    chain_file.write_text('{"m": [1, 2], "b": [3]}')
    assert _modules_run(["validate", str(chain_file)]) == [0, [READS_INPUT], CHAINS, []]


# --- parsing without argparse ---


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["validate", "g.json"],
        ["validate", "-"],
        ["curvature", "--root", "0", "g.json"],
        ["curvature", "g.json", "--root", "0", "--radius", "2"],
        ["ollivier", "--all-adjacent", "g.json"],
        ["ollivier", "--pair", "0,1", "g.json"],
        ["ollivier", "g.json", "--pair", "0,1"],
        ["sphere-curv", "--root", "0", "-"],
        ["bdc", "--root", ""],
        ["gen", "mirror", "--of", "-", "--n", "3"],
        ["gen", "ollivier-match", "--seq", "1,1/2"],
        ["compare", "a.json", "b.json", "--root1", "0", "--root2", "0", "--outside", "1",
         "--constant", "--json"],
        ["compare", "--root1", "0", "--against", "a.json", "--root2", "0"],
        ["compare", "--root1", "0", "a.json", "b.json", "--root2", "0"],
        ["verify"],
        ["verify", "--seed", "7", "--instances", "15"],
    ],
)
def test_plain_command_lines_are_parsed_as_argparse_parses_them(argv):
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == _argparse_vars(argv)


@pytest.mark.parametrize(
    "argv, accepted",
    [
        # a nargs="*" positional takes one run of words: argparse reads B
        # as an unrecognized argument
        (["compare", "A", "--root1", "0", "B", "--root2", "0"], False),
        (["ollivier", "--all", "g.json"], True),
        (["curvature", "--root=0", "g.json"], True),
        (["curvature", "--root", "0", "--", "g.json"], True),
        (["curvature", "--root", "0", "--root", "1"], True),
        (["curvature", "--radius", "-1", "--root", "0"], True),
        (["validate", "-5"], True),
        (["gen", "chain", "--n", "0"], False),
        (["ollivier", "--pair", "0,1", "--all-adjacent"], False),
    ],
)
def test_other_command_lines_are_left_to_argparse(argv, accepted):
    assert cli._plain_args(argv) is None
    assert (_argparse_vars(argv) is not None) == accepted


def _options(command):
    """(name, whether it is required, whether it takes a value) for each
    option of the command."""
    spec = cli._COMMANDS.get(command, {"args": []})
    return [
        (name, kwargs.get("required", False), kwargs.get("action") != "store_true")
        for name, kwargs in spec["args"] + spec.get("one_of", [])
        if name.startswith("-")
    ]


# values that the converters take, and values that fail a converter or that
# argparse reads as options
_VALUES = ["0", "1", "7", "0,1", "w,x", "1/2,1/3", "-", "chain", "g.json"]
_ODD_VALUES = ["", "w", "-1", "-x", " 2", "x,y,z", "a,", "0" * 5000, "--root", "--"]
_POSITIONALS = ["g.json", "-", "", "chain", "figure1", "mirror", "ollivier-match", "torus", "-5"]


@st.composite
def command_lines(draw):
    """A command with its required options (at times one left out), some
    others, their values and a run of positionals, in any order, and noise:
    abbreviations, "=" forms, repeated and unknown options, "--", help,
    values that start with "-", empty and junk words."""
    command = draw(st.sampled_from([*cli._COMMANDS, "frobnicate", "-h", ""]))
    options = _options(command)
    value = st.sampled_from(_VALUES)
    required = [name for name, is_required, _ in options if is_required]
    left_out = draw(st.sampled_from([None] * 3 + required))
    parts = [
        [name, draw(value)] if takes_value else [name]
        for name, is_required, takes_value in options
        if name != left_out and (is_required or draw(st.booleans()))
    ]
    parts.append(draw(st.lists(st.sampled_from(_POSITIONALS), max_size=2)))
    name = st.sampled_from([name for name, _, _ in options] + ["--loud"])
    odd = st.sampled_from(_ODD_VALUES)
    noise = st.one_of(
        st.builds(lambda n, k: [n[:k]], name, st.integers(3, 6)),
        st.builds(lambda n, v: [f"{n}={v}"], name, value),
        st.builds(lambda n, v: [n, v], name, st.one_of(value, odd)),
        st.builds(lambda w: [w], st.one_of(odd, st.sampled_from(["-h", "--help", "junk"]))),
    )
    parts += draw(st.lists(noise, max_size=2))
    return [command] + [word for part in draw(st.permutations(parts)) for word in part]


@settings(derandomize=True, deadline=None, max_examples=600)
@given(command_lines())
def test_plain_parsing_agrees_with_argparse(argv):
    # where _plain_args reads a command line, argparse accepts it (it does
    # not exit) and builds the same namespace
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == _argparse_vars(argv)
