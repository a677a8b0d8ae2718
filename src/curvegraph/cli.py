"""Command-line surface.

Subcommands read a graph or chain from a file argument or standard input
("-"), with the payload kind detected from its top-level JSON keys; chains
are turned into path graphs wherever a graph is expected, so generator
output pipes straight into the analysis commands. All rationals in output
are exact "p/q" strings and the output is byte-stable for fixed inputs.

Exit codes: 0 success, 1 domain error (a JSON error object goes to the
error stream), 2 usage error.

Of the package's modules only `errors` and `graphs` run when this one is
imported; `chains`, `comparison`, `curvature`, `generators` and `verify`
are lazy (see the package docstring), and each command runs only those it
calls.
`run()` loads a command's modules before it parses the command line or
reads any input: compiled later, a module would add its compiler's memory
on top of those, and raise the command's peak. So no module-level name
here reads a lazy module, and the handlers call through the modules.

`argparse` runs only for help and for errors. Each command is described
once, in `_COMMANDS`; `_plain_args` reads a plain command line (full option
names, each at most once, and one run of positionals) straight from that
table into the namespace argparse would build, and anything else goes to
the argparse parser `build_parser()` makes from the same table, so help,
usage and error messages are argparse's. Importing `argparse`, `gettext`
and `locale` and building the eight subparsers cost ~5-8 ms of a 65-90 ms
command; `_plain_args` takes ~0.02 ms. The converters import argparse's
error class only when they fail, so a valid command line never loads it.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace
from typing import Optional, Tuple, Union

from . import chains, comparison, curvature, generators, verify
from .errors import CurvegraphError, FormatError
from .graphs import (
    WeightedGraph,
    curvature_profile,
    format_rational,
    graph_from_json_dict,
    graph_to_json,
    loads_json,
    parse_rational,
    rooted_decomposition,
)


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


def _load_payload(source: str) -> Tuple[str, Union[WeightedGraph, chains.BirthDeathChain]]:
    text, name = _read_source(source)
    data = loads_json(text, name)
    del text  # not held beside the document while the payload is built
    if isinstance(data, dict) and "vertices" in data and "edges" in data:
        return "graph", graph_from_json_dict(data)
    if isinstance(data, dict) and "m" in data and "b" in data:
        return "chain", chains.chain_from_json_dict(data)
    raise FormatError(
        f"{name}: cannot tell a graph from a chain; expected keys "
        "vertices/edges or m/b",
        path=name,
    )


def _load_graph(source: str) -> WeightedGraph:
    kind, obj = _load_payload(source)
    return chains.bdc_as_graph(obj) if kind == "chain" else obj


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


def _type_error(message: str) -> Exception:
    """The error a converter raises for argparse to report; argparse is
    imported only here, so that a valid command line never loads it."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _type_error(f"expected an integer, got {text!r}")
    if value < 1:
        raise _type_error(f"expected a positive integer, got {value}")
    return value


def _pair(text: str) -> Tuple[str, str]:
    parts = text.split(",")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise _type_error(f"expected two comma-separated vertex ids, got {text!r}")
    return parts[0], parts[1]


def _write_csv(rows) -> None:
    import csv  # only the commands that write CSV load it

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows(rows)


def _ollivier_json(result: curvature.OllivierResult) -> str:
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
    text = graph_to_json(obj) if kind == "graph" else chains.chain_to_json(obj)
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
    chain = chains.associated_bdc(decomp)
    # every value is formatted before any row is written, so that a value
    # too long to format leaves the output empty; the rows then stream to
    # the writer one at a time. text maps the id of a k value to its text,
    # and None (k+ on the outermost sphere) to "": per_vertex holds every
    # value for the call, and the profile shares equal values, so each
    # distinct one is formatted once
    text = {id(None): ""}
    spheres = []
    for r in radii:
        avg_minus = format_rational(chain.inner_curvature(r))
        avg_plus = format_rational(chain.outer_curvature(r)) if r < chain.horizon else ""
        spheres.append((str(r), decomp.sphere(r), avg_minus, avg_plus,
                        format_rational(chain.measures[r])))
        for v in decomp.sphere(r):
            for k in per_vertex[v]:
                if id(k) not in text:
                    text[id(k)] = format_rational(k)

    def rows():
        yield ["r", "vertex", "k_minus", "k_plus", "avg_minus", "avg_plus", "m_Sr"]
        for radius, sphere, avg_minus, avg_plus, m_sr in spheres:
            for v in sphere:
                k_minus, k_plus = per_vertex[v]
                minus, plus = text[id(k_minus)], text[id(k_plus)]
                yield [radius, str(v), minus, plus, avg_minus, avg_plus, m_sr]

    _write_csv(rows())
    return 0


def _cmd_ollivier(args) -> int:
    g = _load_graph(args.file)
    if args.all_adjacent:
        records = [_ollivier_json(curvature.ollivier_pair(g, u, v)) for u, v, _ in g.edges]
        sys.stdout.write(_json_records(records) + "\n")
        return 0
    x = _resolve_vertex(g, args.pair[0])
    y = _resolve_vertex(g, args.pair[1])
    sys.stdout.write(_ollivier_json(curvature.ollivier_pair(g, x, y)) + "\n")
    return 0


def _cmd_sphere_curv(args) -> int:
    g = _load_graph(args.file)
    decomp = rooted_decomposition(g, _resolve_vertex(g, args.root))
    chain = chains.associated_bdc(decomp)
    h = chain.horizon
    rows = [["r", "k_graph", "k_chain"]]
    for r in range(1, h + 1):
        graph_side = format_rational(curvature.sphere_curvature(decomp, r))
        if r < h:
            chain_value = chains.bdc_ollivier_closed_form(chain, r - 1, r)
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
    sys.stdout.write(chains.chain_to_json(chains.associated_bdc(decomp)))
    return 0


def _chain_maker(name: str):
    """The chain generator of this name, shared by `gen` and `gen mirror
    --of`, or None."""
    makers = {
        "chain": generators.make_unweighted_chain,
        "gprime": generators.make_example_gprime,
    }
    return makers.get(name)


def _chain_for_mirror(args) -> chains.BirthDeathChain:
    maker = _chain_maker(args.of)
    if maker is not None:
        return maker(args.n)
    kind, obj = _load_payload(args.of)
    if kind != "chain":
        raise FormatError(
            "mirror needs a chain payload; reduce the graph with `bdc` first",
            path=args.of,
        )
    return obj


def _cmd_gen(args) -> int:
    name = args.generator
    maker = _chain_maker(name)
    if maker is not None:
        sys.stdout.write(chains.chain_to_json(maker(args.n)))
    elif name == "figure1":
        sys.stdout.write(graph_to_json(generators.make_figure1()))
    elif name == "mirror":
        sys.stdout.write(graph_to_json(generators.make_mirror_model(_chain_for_mirror(args))))
    else:  # ollivier-match, choices enforced by argparse
        if args.seq is None:
            sys.stderr.write("gen ollivier-match: --seq is required\n")
            return 2
        values = [parse_rational(tok.strip()) for tok in args.seq.split(",")]
        sys.stdout.write(chains.chain_to_json(generators.make_ollivier_matching_chain(values)))
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
    c2 = chains.associated_bdc(rooted_decomposition(g2, _resolve_vertex(g2, args.root2)))
    d1 = rooted_decomposition(g1, _resolve_vertex(g1, args.root1))
    per_vertex = comparison.stronger_curvature_growth(d1, c2)
    c1 = chains.associated_bdc(d1)
    averaged = comparison.stronger_average_growth(c1, c2)
    outside = None
    if args.outside is not None:
        outside = comparison.stronger_outside_finite(c1, c2, args.outside)
    volume = comparison.volume_comparison(c1, c2)
    constant = report = None
    if args.constant:
        constant, report = comparison.asymptotic_constant(c1, c2, args.outside)

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
    text, ok = verify.run_verification(seed=seed, instances=args.instances)
    sys.stdout.write(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# Each command once, in the order `curvegraph -h` lists them: its help, its
# handler, and its arguments as (name, keyword arguments of argparse's
# add_argument), in the order its usage lists them; "one_of" holds the
# options of a required mutually exclusive group. build_parser() hands the
# table to argparse and _plain_args() reads the same entries.
_FILE = ("file", dict(nargs="?", default="-"))
_ROOT = ("--root", dict(required=True))
_COMMANDS = {
    "validate": dict(
        help="check a payload and echo its canonical form",
        func=_cmd_validate,
        args=[("file", dict(nargs="?", default="-", help="graph or chain JSON; - for stdin"))],
    ),
    "curvature": dict(
        help="per-vertex and per-radius curvature CSV",
        func=_cmd_curvature,
        args=[
            _FILE,
            ("--root", dict(required=True, help="root vertex id")),
            ("--radius", dict(type=int, default=None, help="restrict to one radius")),
        ],
    ),
    "ollivier": dict(
        help="exact pair curvature with an optimal witness",
        func=_cmd_ollivier,
        args=[_FILE],
        one_of=[
            ("--pair", dict(type=_pair, help="two vertex ids, comma separated")),
            ("--all-adjacent", dict(action="store_true", help="every adjacent pair instead")),
        ],
    ),
    "sphere-curv": dict(
        help="sphere curvatures beside the associated chain's",
        func=_cmd_sphere_curv,
        args=[_FILE, _ROOT],
    ),
    "bdc": dict(
        help="reduce to the associated birth-death chain",
        func=_cmd_bdc,
        args=[_FILE, _ROOT],
    ),
    "gen": dict(
        help="emit a built-in example graph or chain",
        func=_cmd_gen,
        args=[
            ("generator", dict(choices=["chain", "gprime", "figure1", "mirror", "ollivier-match"])),
            ("--n", dict(type=_positive_int, default=8, help="horizon for chain/gprime/mirror")),
            ("--of", dict(
                default="chain",
                help="mirror source: chain, gprime, or a chain JSON file (- for stdin)",
            )),
            ("--seq", dict(help="comma-separated rationals for ollivier-match")),
        ],
    ),
    "compare": dict(
        help="growth relations, volume ledger, constant",
        func=_cmd_compare,
        args=[
            ("files", dict(nargs="*", help="two payloads: first vs second")),
            ("--against", dict(help="first payload (--root1); the second comes on stdin")),
            ("--root1", dict(required=True, help="root in the first payload")),
            ("--root2", dict(required=True, help="root in the second payload")),
            ("--outside", dict(
                type=_positive_int,
                default=None,
                help="also check domination only from this radius on",
            )),
            ("--constant", dict(
                action="store_true",
                help="compute the volume-ratio constant (needs --outside)",
            )),
            ("--json", dict(action="store_true", help="machine-readable output")),
        ],
    ),
    "verify": dict(
        help="run the seeded verification suite",
        func=_cmd_verify,
        args=[
            ("--seed", dict(type=int, default=None, help="override CURVEGRAPH_SEED (default 7)")),
            ("--instances", dict(type=_positive_int, default=100)),
        ],
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `_COMMANDS`, which run() builds only for help
    and for command lines that `_plain_args` leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="curvegraph",
        description=(
            "Exact curvature and volume-growth analysis of finite weighted "
            "graphs and birth-death chains."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec["help"])
        for name, kwargs in spec["args"]:
            p.add_argument(name, **kwargs)
        if "one_of" in spec:
            group = p.add_mutually_exclusive_group(required=True)
            for name, kwargs in spec["one_of"]:
                group.add_argument(name, **kwargs)
        p.set_defaults(func=spec["func"])
    return parser


def _is_value(word: str) -> bool:
    """Whether argparse reads ``word`` as an argument, not an option, on
    the command lines `_plain_args` accepts."""
    return word == "-" or not word.startswith("-")


def _value(kwargs: dict, text: str):
    """``text`` through an argument's converter, checked against its
    choices; raises where argparse would report a usage error."""
    value = kwargs["type"](text) if "type" in kwargs else text
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(f"not a choice: {value!r}")
    return value


def _plain_args(argv) -> Optional[SimpleNamespace]:
    """The namespace argparse builds from ``argv``, when ``argv`` is plain;
    otherwise None, and argparse parses it.

    Plain is a known command, then each option at most once in its full
    spelling with its value (if it takes one) as the next word, and the
    positionals as one run of words; a value or positional is "-" or does
    not start with "-". Anything else ("-h", an abbreviation, "--opt=value",
    "--", a repeated option, a negative number) and any argument that fails
    its converter, its choices, the required options, the exclusive group or
    the count of positionals gives None.
    """
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    one_of = spec.get("one_of", [])
    arguments = spec["args"] + one_of
    options = {name: kwargs for name, kwargs in arguments if name.startswith("-")}
    given, run = {}, []  # option -> its value word, or True for a flag; positional indices
    index = 1
    while index < len(argv):
        word = argv[index]
        if _is_value(word):
            run.append(index)
        elif word in options and word not in given:
            if options[word].get("action") == "store_true":
                given[word] = True
            else:
                index += 1
                if index == len(argv) or not _is_value(argv[index]):
                    return None
                given[word] = argv[index]
        else:
            return None
        index += 1
    if run and run[-1] - run[0] != len(run) - 1:
        return None  # argparse reads a second run as unrecognized arguments
    if one_of and sum(name in given for name, _ in one_of) != 1:
        return None
    words = [argv[i] for i in run]
    values = {"command": argv[0], "func": spec["func"]}
    try:
        for name, kwargs in arguments:
            if not name.startswith("-"):
                nargs = kwargs.get("nargs")
                if nargs == "*":
                    values[name] = [_value(kwargs, word) for word in words]
                elif len(words) == 1 or (nargs == "?" and not words):
                    values[name] = _value(kwargs, words[0]) if words else kwargs["default"]
                else:
                    return None
                words = []
                continue
            dest = name[2:].replace("-", "_")
            flag = kwargs.get("action") == "store_true"
            if name in given:
                values[dest] = flag or _value(kwargs, given[name])
            elif kwargs.get("required"):
                return None
            else:
                values[dest] = False if flag else kwargs.get("default")
    except Exception:  # argparse runs the same converter or check and reports it
        return None
    return SimpleNamespace(**values) if not words else None


# the lazy modules whose functions each command calls; validate and
# ollivier load chains only when their input is a chain
_USES = {
    "curvature": (chains,),
    "ollivier": (curvature,),
    "sphere-curv": (chains, curvature),
    "bdc": (chains,),
    "gen": (chains, generators),
    "compare": (chains, comparison),
    "verify": (verify,),
}


def run(argv) -> int:
    for module in _USES.get(argv[0] if argv else None, ()):
        module.__spec__  # the first attribute read runs a lazy module
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
