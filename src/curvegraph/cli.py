"""Command-line surface.

Subcommands read a graph or chain from a file argument or standard input
("-"), with the payload kind detected from its top-level JSON keys; chains
are turned into path graphs wherever a graph is expected, so generator
output pipes straight into the analysis commands. All rationals in output
are exact "p/q" strings and the output is byte-stable for fixed inputs.

Exit codes: 0 success, 1 domain error (a JSON error object goes to the
error stream), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Tuple, Union

from .chains import (
    BirthDeathChain,
    associated_bdc,
    bdc_as_graph,
    bdc_ollivier_closed_form,
    chain_from_json_dict,
    chain_to_json,
    make_example_gprime,
    make_figure1,
    make_mirror_model,
    make_ollivier_matching_chain,
    make_unweighted_chain,
)
from .comparison import (
    asymptotic_constant,
    stronger_average_growth,
    stronger_curvature_growth,
    stronger_outside_finite,
    volume_comparison,
)
from .curvature import OllivierResult, curvature_profile, ollivier_pair, sphere_curvature
from .errors import CurvegraphError, FormatError
from .graphs import (
    WeightedGraph,
    format_rational,
    graph_from_json_dict,
    graph_to_json,
    loads_json,
    parse_rational,
    rooted_decomposition,
)
from .verify import run_verification

Payload = Tuple[str, Union[WeightedGraph, BirthDeathChain]]


def _read_source(source: str) -> Tuple[str, str]:
    name = "<stdin>" if source == "-" else source
    try:
        if source == "-":
            return sys.stdin.read(), name
        with open(source, "r", encoding="utf-8") as handle:
            return handle.read(), name
    except OSError as exc:
        raise FormatError(
            f"cannot read {source}: {exc.strerror or exc}", path=source
        ) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{name}: not UTF-8 text (byte {exc.start})", path=source
        ) from None


def _load_payload(source: str) -> Payload:
    text, name = _read_source(source)
    data = loads_json(text, name)
    del text  # not held beside the document while the payload is built
    if isinstance(data, dict) and "vertices" in data and "edges" in data:
        return "graph", graph_from_json_dict(data)
    if isinstance(data, dict) and "m" in data and "b" in data:
        return "chain", chain_from_json_dict(data)
    raise FormatError(
        f"{name}: cannot tell a graph from a chain; expected keys "
        "vertices/edges or m/b",
        path=name,
    )


def _load_graph(source: str) -> WeightedGraph:
    kind, obj = _load_payload(source)
    return bdc_as_graph(obj) if kind == "chain" else obj


def _resolve_vertex(g: WeightedGraph, token: str):
    if token in g.adjacency:
        return token
    if token.isdecimal():
        try:
            number = int(token)
        except ValueError:  # past the interpreter's int digit limit
            return token
        if number in g.adjacency:
            return number
    return token


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _pair(text: str) -> Tuple[str, str]:
    parts = text.split(",")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated vertex ids, got {text!r}"
        )
    return parts[0], parts[1]


def _write_csv(rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows(rows)


def _ollivier_json(result: OllivierResult) -> str:
    """One pair record, byte for byte ``json.dumps(record, indent=2)`` of the
    dict with keys x, y, distance, value, witness and support, written from
    one template."""
    witness = result.witness
    labels = [_quote(str(v)) for v in result.support]
    rows = ",\n    ".join(f"{q}: {witness[v]}" for q, v in zip(labels, result.support))
    members = ",\n    ".join(labels)
    return (
        f'{{\n  "x": {_quote(str(result.x))},\n  "y": {_quote(str(result.y))},\n'
        f'  "distance": {result.distance},\n'
        f'  "value": "{format_rational(result.value)}",\n'
        f'  "witness": {{\n    {rows}\n  }},\n'
        f'  "support": [\n    {members}\n  ]\n}}'
    )


def _json_records(records: list) -> str:
    """An indented array of already rendered records, as ``json.dumps``
    writes it at the top level."""
    if not records:
        return "[]"
    return "[\n  " + ",\n  ".join(r.replace("\n", "\n  ") for r in records) + "\n]"


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    kind, obj = _load_payload(args.file)
    text = graph_to_json(obj) if kind == "graph" else chain_to_json(obj)
    # in slices: writing the whole text at once encodes all of it into one
    # more copy, which on a large graph sets the command's peak memory
    for start in range(0, len(text), 1 << 16):
        sys.stdout.write(text[start:start + (1 << 16)])
    return 0


def _cmd_curvature(args) -> int:
    g = _load_graph(args.file)
    decomp = rooted_decomposition(g, _resolve_vertex(g, args.root))
    per_vertex = curvature_profile(decomp)
    if args.radius is not None:
        decomp.sphere(args.radius)  # range check
        radii = [args.radius]
    else:
        radii = list(range(decomp.horizon + 1))
    chain = associated_bdc(decomp)
    # id of a k value -> its text, and None (k+ on the outermost sphere) ->
    # "": per_vertex holds every value for the call, and the profile shares
    # equal values, so each distinct one is formatted once
    text = {id(None): ""}
    rows = [["r", "vertex", "k_minus", "k_plus", "avg_minus", "avg_plus", "m_Sr"]]
    for r in radii:
        avg_minus = format_rational(chain.inner_curvature(r))
        avg_plus = format_rational(chain.outer_curvature(r)) if r < chain.horizon else ""
        m_sr = format_rational(chain.measures[r])
        radius = str(r)
        for v in decomp.sphere(r):
            k_minus, k_plus = per_vertex[v]
            minus = text.get(id(k_minus))
            if minus is None:
                minus = text[id(k_minus)] = format_rational(k_minus)
            plus = text.get(id(k_plus))
            if plus is None:
                plus = text[id(k_plus)] = format_rational(k_plus)
            rows.append([radius, str(v), minus, plus, avg_minus, avg_plus, m_sr])
    _write_csv(rows)
    return 0


def _cmd_ollivier(args) -> int:
    g = _load_graph(args.file)
    if args.all_adjacent:
        records = [_ollivier_json(ollivier_pair(g, u, v)) for u, v, _ in g.edges]
        sys.stdout.write(_json_records(records) + "\n")
        return 0
    x = _resolve_vertex(g, args.pair[0])
    y = _resolve_vertex(g, args.pair[1])
    sys.stdout.write(_ollivier_json(ollivier_pair(g, x, y)) + "\n")
    return 0


def _cmd_sphere_curv(args) -> int:
    g = _load_graph(args.file)
    decomp = rooted_decomposition(g, _resolve_vertex(g, args.root))
    chain = associated_bdc(decomp)
    h = chain.horizon
    rows = [["r", "k_graph", "k_chain"]]
    for r in range(1, h + 1):
        graph_side = format_rational(sphere_curvature(decomp, r))
        if r < h:
            chain_value = bdc_ollivier_closed_form(chain, r - 1, r)
        else:
            # k(r - 1, r) is the drop in the gap, and past the horizon nothing
            # lies: the gap there is -k-(h)
            chain_value = chain.curvature_gap(h - 1) + chain.inner_curvature(h)
        rows.append([str(r), graph_side, format_rational(chain_value)])
    _write_csv(rows)
    return 0


def _cmd_bdc(args) -> int:
    g = _load_graph(args.file)
    decomp = rooted_decomposition(g, _resolve_vertex(g, args.root))
    sys.stdout.write(chain_to_json(associated_bdc(decomp)))
    return 0


# chain generators by name, shared by `gen` and `gen mirror --of`
_CHAIN_MAKERS = {"chain": make_unweighted_chain, "gprime": make_example_gprime}


def _chain_for_mirror(args) -> BirthDeathChain:
    if args.of in _CHAIN_MAKERS:
        return _CHAIN_MAKERS[args.of](args.n)
    kind, obj = _load_payload(args.of)
    if kind != "chain":
        raise FormatError(
            "mirror needs a chain payload; reduce the graph with `bdc` first",
            path=args.of,
        )
    return obj


def _cmd_gen(args) -> int:
    name = args.generator
    if name in _CHAIN_MAKERS:
        sys.stdout.write(chain_to_json(_CHAIN_MAKERS[name](args.n)))
    elif name == "figure1":
        sys.stdout.write(graph_to_json(make_figure1()))
    elif name == "mirror":
        sys.stdout.write(graph_to_json(make_mirror_model(_chain_for_mirror(args))))
    else:  # ollivier-match, choices enforced by argparse
        if args.seq is None:
            sys.stderr.write("gen ollivier-match: --seq is required\n")
            return 2
        values = [parse_rational(tok.strip()) for tok in args.seq.split(",")]
        sys.stdout.write(chain_to_json(make_ollivier_matching_chain(values)))
    return 0


def _cmd_compare(args) -> int:
    if args.against is not None:
        if args.files:
            sys.stderr.write(
                "compare: positional files and --against are mutually exclusive\n"
            )
            return 2
        g1 = _load_graph(args.against)
        g2 = _load_graph("-")
    else:
        if len(args.files) != 2:
            sys.stderr.write(
                "compare: expected two files, or --against with a piped subject\n"
            )
            return 2
        g1 = _load_graph(args.files[0])
        g2 = _load_graph(args.files[1])
    if args.constant and args.outside is None:
        sys.stderr.write("compare: --constant requires --outside\n")
        return 2
    # root2 is checked before root1, and both before horizon-mismatch
    c2 = associated_bdc(rooted_decomposition(g2, _resolve_vertex(g2, args.root2)))
    d1 = rooted_decomposition(g1, _resolve_vertex(g1, args.root1))
    per_vertex = stronger_curvature_growth(d1, c2)
    c1 = associated_bdc(d1)
    averaged = stronger_average_growth(c1, c2)
    outside = None
    if args.outside is not None:
        outside = stronger_outside_finite(c1, c2, args.outside)
    volume = volume_comparison(c1, c2)
    constant = report = None
    if args.constant:
        constant, report = asymptotic_constant(c1, c2, args.outside)

    if args.json:
        payload = {
            "stronger_curvature": per_vertex.to_json_dict(),
            "stronger_average_curvature": averaged.to_json_dict(),
            "volume_comparison": volume.to_json_dict(),
        }
        if outside is not None:
            payload["stronger_outside_finite_set"] = outside.to_json_dict()
        if constant is not None:
            payload["constant"] = format_rational(constant)
            payload["asymptotic_comparison"] = report.to_json_dict()
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return 0
    lines = [per_vertex.describe(), averaged.describe()]
    if outside is not None:
        lines.append(outside.describe())
    lines.append("")
    lines.append(volume.to_text())
    if constant is not None:
        lines.append("")
        lines.append(f"constant: C = {format_rational(constant)}")
        lines.append(report.to_text())
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _env_seed() -> int:
    raw = os.environ.get("CURVEGRAPH_SEED", "7")
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"CURVEGRAPH_SEED must be an integer, got {raw!r}")


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    text, ok = run_verification(seed=seed, instances=args.instances)
    sys.stdout.write(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvegraph",
        description=(
            "Exact curvature and volume-growth analysis of finite weighted "
            "graphs and birth-death chains."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a payload and echo its canonical form")
    p.add_argument("file", nargs="?", default="-", help="graph or chain JSON; - for stdin")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("curvature", help="per-vertex and per-radius curvature CSV")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--root", required=True, help="root vertex id")
    p.add_argument("--radius", type=int, default=None, help="restrict to one radius")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("ollivier", help="exact pair curvature with an optimal witness")
    p.add_argument("file", nargs="?", default="-")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pair", type=_pair, help="two vertex ids, comma separated")
    group.add_argument(
        "--all-adjacent", action="store_true", help="every adjacent pair instead"
    )
    p.set_defaults(func=_cmd_ollivier)

    p = sub.add_parser(
        "sphere-curv", help="sphere curvatures beside the associated chain's"
    )
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--root", required=True)
    p.set_defaults(func=_cmd_sphere_curv)

    p = sub.add_parser("bdc", help="reduce to the associated birth-death chain")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--root", required=True)
    p.set_defaults(func=_cmd_bdc)

    p = sub.add_parser("gen", help="emit a built-in example graph or chain")
    p.add_argument(
        "generator",
        choices=["chain", "gprime", "figure1", "mirror", "ollivier-match"],
    )
    p.add_argument(
        "--n", type=_positive_int, default=8, help="horizon for chain/gprime/mirror"
    )
    p.add_argument(
        "--of",
        default="chain",
        help="mirror source: chain, gprime, or a chain JSON file (- for stdin)",
    )
    p.add_argument("--seq", help="comma-separated rationals for ollivier-match")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("compare", help="growth relations, volume ledger, constant")
    p.add_argument("files", nargs="*", help="two payloads: first vs second")
    p.add_argument("--against", help="first payload (--root1); the second comes on stdin")
    p.add_argument("--root1", required=True, help="root in the first payload")
    p.add_argument("--root2", required=True, help="root in the second payload")
    p.add_argument(
        "--outside",
        type=_positive_int,
        default=None,
        help="also check domination only from this radius on",
    )
    p.add_argument(
        "--constant",
        action="store_true",
        help="compute the volume-ratio constant (needs --outside)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="run the seeded verification suite")
    p.add_argument(
        "--seed", type=int, default=None, help="override CURVEGRAPH_SEED (default 7)"
    )
    p.add_argument("--instances", type=_positive_int, default=100)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CurvegraphError as exc:
        sys.stderr.write(json.dumps(exc.payload(), sort_keys=True) + "\n")
        return 1


def main() -> None:
    code = run(sys.argv[1:])
    # Shutdown makes full collector passes over the ~13,000 objects the
    # imports leave tracked; freezing them first saves 5-10 ms per command.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
