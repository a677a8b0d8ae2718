"""curvegraph benchmark: seeded inputs, real CLI commands, independent checks.

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. With --trace 0 every command runs as
a fresh interpreter running `curvegraph.cli` as `__main__`, as
`python -m curvegraph.cli` does, one at a time, and the last line
of standard output is a JSON object with the end-to-end metrics. With
--trace 1 the commands run in this process through `curvegraph.cli.run`,
once plain and once under `tracer.Tracer`, and the JSON holds the per-layer
metrics and the tracing overhead. Every output is checked by the oracles in
`oracles.py`; a command that exits nonzero, times out or fails a check
counts as failed. Each run appends a record to bench/results/<workload>.jsonl.
README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout

import oracles
from inputs import OWN, WORK, WORKLOADS, graph_for, write_inputs
from selfcheck import MUTATIONS, static_checks
from tracer import METRICS as LAYER_METRICS
from tracer import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

VERIFY_SEED = 7  # the project's default; fixed so that every run verifies the same instances
VERIFY_INSTANCES = 15
SMALL_VERIFY_INSTANCES = 1
ENUMERATED_EDGES = 12  # edges per all-adjacent output checked by full enumeration
COMMAND_TIMEOUT_S = 60
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC)
# what a check raises on a wrong or malformed output
REJECTED = (oracles.OracleError, ValueError, KeyError, IndexError, TypeError)

# Each workload runs every command kind once per round; inputs.OWN says
# which of them run on its main graph.
END_TO_END = (
    "ollivier_all_s", "sphere_curv_s", "ollivier_pair_s", "validate_s",
    "curvature_s", "compare_s", "verify_s",
)


class BenchmarkError(Exception):
    """The benchmark cannot run or cannot trust its own checks."""


# one command kind: the metric it feeds, its CLI arguments, its oracle
Command = namedtuple("Command", "metric argv check")


def plan(workload: str, seed: int):
    """Inputs on disk and the round of commands, each with its check."""
    graphs, paths = write_inputs(workload, seed)
    on = {m: graph_for(workload, m) for m in END_TO_END}
    pick = random.Random(f"enumerate:{workload}:{seed}")
    state = {}

    def all_adjacent(name):
        g = graphs[name]
        edges = sorted(g.edge_set())
        sample = sorted(pick.sample(edges, min(ENUMERATED_EDGES, len(edges))))

        def check(text):
            state["values"] = oracles.check_all_adjacent(g, text, sample)
        return check

    def verify_args(name):
        instances = VERIFY_INSTANCES if name == "main" else SMALL_VERIFY_INSTANCES
        return ["verify", "--seed", str(VERIFY_SEED), "--instances", str(instances)]

    g = lambda metric: graphs[on[metric]]  # noqa: E731
    p = lambda metric: paths[on[metric]]  # noqa: E731
    commands = [
        Command("ollivier_all_s", ["ollivier", "--all-adjacent", p("ollivier_all_s")],
                all_adjacent(on["ollivier_all_s"])),
        Command("sphere_curv_s", ["sphere-curv", "--root", "0", p("sphere_curv_s")],
                lambda text: oracles.check_sphere_curv(g("sphere_curv_s"), 0, text,
                                                       state["values"])),
        Command("ollivier_pair_s", ["ollivier", "--pair", "0,1", p("ollivier_pair_s")],
                lambda text: oracles.check_pair(g("ollivier_pair_s"), 0, 1, text,
                                                closed_form=workload == "hubs")),
        Command("validate_s", ["validate", p("validate_s")],
                lambda text: oracles.check_validate(g("validate_s"), text)),
        Command("curvature_s", ["curvature", "--root", "0", p("curvature_s")],
                lambda text: oracles.check_curvature(g("curvature_s"), 0, text)),
        Command("compare_s", ["compare", p("compare_s"), paths["chain"],
                              "--root1", "0", "--root2", "0", "--outside", "1",
                              "--constant", "--json"],
                lambda text: oracles.check_compare(g("compare_s"), 0, 1, text)),
        Command("verify_s", verify_args(on["verify_s"]), oracles.check_verify),
    ]
    return commands, sorted(paths.values())


class Judge:
    """Checks each command's first output with the oracles, and every mutated
    copy of it, then requires every later output to be byte-identical."""

    def __init__(self):
        self.verified = {}

    def __call__(self, command: Command, text: str):
        """None when the output is right, else the reason it is not."""
        if command.metric in self.verified:
            if text == self.verified[command.metric]:
                return None
            return "output differs from the checked output of an earlier round"
        try:
            command.check(text)
        except REJECTED as exc:
            return f"{type(exc).__name__}: {exc}"
        for name, mutate in MUTATIONS[command.metric]:
            try:
                wrong = mutate(text)
            except REJECTED as exc:
                raise BenchmarkError(f"cannot apply mutation {name} to the "
                                     f"{command.metric} output: {exc}") from exc
            if wrong == text:
                raise BenchmarkError(f"mutation {name} left the {command.metric} output as it was")
            try:
                command.check(wrong)
            except REJECTED:
                continue
            raise BenchmarkError(f"the {command.metric} check accepted mutation {name}")
        self.verified[command.metric] = text
        return None


# ---------------------------------------------------------------------------
# fresh processes
# ---------------------------------------------------------------------------


def spawn(argv, stdout_path):
    """Run argv to its end, its output to stdout_path and stdout_path.err;
    returns (seconds, exit code)."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    return elapsed, proc.returncode


# `python -m curvegraph.cli ARGS`, which then writes the process's own peak
# resident set (VmHWM, KiB) to the file named by its first argument. The
# peak that wait4 reports for a child is no good here: a child started by
# vfork carries the high-water mark of this process's memory through exec.
CLI_CODE = """
import runpy, sys
peak_path = sys.argv.pop(1)
try:
    runpy.run_module("curvegraph.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(peak_path, "w", encoding="ascii") as out:
        out.write(peak)
"""


SETUP_CODE = """
import sys
import curvegraph
from curvegraph import chain_from_json_dict, graph_from_json_dict, loads_json
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        data = loads_json(handle.read(), path)
    (graph_from_json_dict if "vertices" in data else chain_from_json_dict)(data)
print(curvegraph.__file__)
"""


def set_up(files, scratch):
    """Seconds from a fresh interpreter to every input loaded."""
    elapsed, code = spawn([sys.executable, "-c", SETUP_CODE] + files, scratch)
    with open(scratch, encoding="utf-8") as handle:
        where = handle.read().strip()
    if code != 0 or where != os.path.join(SRC, "curvegraph", "__init__.py"):
        raise BenchmarkError(f"cannot load the inputs with curvegraph from {SRC}")
    return elapsed


def run_processes(commands, files, seconds, judge, log, pin):
    """Rounds of set-up plus every command until the time is used up. The
    time spent checking outputs does not count against `seconds`.

    Returns each time twice: in reference seconds, and as wall seconds,
    and the reference loop's times.
    """
    samples = {"setup_s": []}
    samples.update((c.metric, []) for c in commands)
    wall = {name: [] for name in samples}
    loops = []

    def add(name, took, loop):
        wall[name].append(took)
        samples[name].append(took * REFERENCE_LOOP_S / loop)
        loops.append(loop)

    peak = attempted = failed = wrong = rounds = 0
    last_round = checking = 0.0
    scratch = os.path.join(WORK, f"stdout-{os.getpid()}")
    set_up(files, scratch)  # untimed: it also writes the bytecode cache
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start - checking + last_round <= seconds:
        round_start, checked_before = time.perf_counter(), checking
        pin()
        loop = _spin()  # the host's speed just before each timed process
        add("setup_s", set_up(files, scratch), loop)
        for command in commands:
            if os.path.exists(scratch + ".rss"):
                os.remove(scratch + ".rss")
            argv = [sys.executable, "-c", CLI_CODE, scratch + ".rss"] + command.argv
            loop = _spin()
            took, code = spawn(argv, scratch)
            add(command.metric, took, loop)
            attempted += 1
            if os.path.exists(scratch + ".rss"):
                with open(scratch + ".rss", encoding="ascii") as handle:
                    peak = max(peak, int(handle.read()))
            with open(scratch + (".err" if code else ""), encoding="utf-8") as handle:
                text = handle.read()
            if code:
                problem = f"exit code {code}: {text[-300:]}"
            else:
                check_start = time.perf_counter()
                problem = judge(command, text)
                checking += time.perf_counter() - check_start
                wrong += bool(problem)
            if problem:
                failed += 1
                log(f"FAILED {command.metric} {' '.join(command.argv)}: {problem}")
        last_round = time.perf_counter() - round_start - (checking - checked_before)
        rounds += 1
    for path in (scratch, scratch + ".err", scratch + ".rss"):
        if os.path.exists(path):
            os.remove(path)
    return samples, wall, loops, peak / 1024, attempted, failed, wrong, rounds


# ---------------------------------------------------------------------------
# in this process, traced
# ---------------------------------------------------------------------------


def _in_process(cli, argv):
    """(seconds, exit code or error, stdout, or stderr when it failed)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception as exc:  # an uncaught error is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
    return took, code, (err if code else out).getvalue()


def run_traced(commands, seconds, judge, log, pin):
    sys.path.insert(0, SRC)
    import curvegraph.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "curvegraph"):
        raise BenchmarkError(f"curvegraph was not imported from {SRC}")
    per_round, per_command = [], {}
    attempted = failed = wrong = rounds = 0
    last_round = 0.0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start + last_round <= seconds:
        round_start = time.perf_counter()
        pin()
        plain_total = traced_total = 0.0
        totals = dict.fromkeys(LAYER_METRICS, 0)
        for command in commands:
            plain, code_plain, text_plain = _in_process(cli, command.argv)
            with Tracer() as tracer:
                traced, code, text = _in_process(cli, command.argv)
            for result_code, result_text in ((code_plain, text_plain), (code, text)):
                attempted += 1
                if result_code:
                    problem = f"exit code {result_code}: {result_text[-300:]}"
                else:
                    problem = judge(command, result_text)
                    wrong += bool(problem)
                if problem:
                    failed += 1
                    log(f"FAILED {command.metric} {' '.join(command.argv)}: {problem}")
            plain_total += plain
            traced_total += traced
            layers = tracer.metrics()
            for name, value in layers.items():
                totals[name] = max(totals[name], value) if name.endswith("_max") else totals[name] + value
            layers["command_s"] = traced
            per_command.setdefault(command.metric, []).append(layers)
        totals["trace.overhead_pct"] = 100 * (traced_total - plain_total) / plain_total
        per_round.append(totals)
        last_round = time.perf_counter() - round_start
        rounds += 1
    return per_round, per_command, attempted, failed, wrong, rounds


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def summary(values):
    """Median and quartiles, plus the 90th percentile from 40 samples up."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 40:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


# The reference loop's time on a quiet CPU of the reference host (README.md).
# End-to-end times are scaled by REFERENCE_LOOP_S / (the loop's time on the
# pinned CPU just before the timed process starts), which takes out much of
# the host's drift in speed.
REFERENCE_LOOP_S = 0.015


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def pin_fastest_cpu(allowed):
    """Pin this process, and so every command it starts, to one CPU.

    On a shared host the CPUs of one container can run at very different
    speeds (one measured 1.4 times slower than the other here), and a command
    that migrates between them times at either speed. The allowed CPU that
    runs a fixed loop fastest now takes the next round. Returns that CPU and
    the loop's time on it.
    """
    speeds = {}
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(_spin() for _ in range(3))
    best = min(allowed, key=speeds.get)
    os.sched_setaffinity(0, {best})
    return best, speeds[best]


def append_record(workload, record):
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{workload}.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="curvegraph benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    log = lambda message: print(message, file=sys.stderr, flush=True)  # noqa: E731

    if not os.path.isfile(os.path.join(SRC, "curvegraph", "cli.py")):
        raise BenchmarkError(f"no curvegraph sources under {SRC}")
    allowed = sorted(os.sched_getaffinity(0))
    cpus = []  # [cpu, reference loop seconds] per round

    def pin():
        cpus.append(pin_fastest_cpu(allowed))

    static_checks()
    os.makedirs(WORK, exist_ok=True)
    commands, files = plan(args.workload, args.seed)
    judge = Judge()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "implementation": platform.python_implementation(), "host": platform.node(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "commands": {c.metric: [os.path.relpath(a, ROOT) if os.path.isabs(a) else a
                                for a in c.argv] for c in commands},
        "cpu_and_loop_per_round": cpus,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if args.trace:
        # the companion commands only exist so that every run reports every
        # end-to-end metric; the layer numbers speak of the workload's own
        commands = [c for c in commands if c.metric in OWN[args.workload]]
        per_round, per_command, attempted, failed, wrong, rounds = run_traced(
            commands, args.seconds, judge, log, pin)
        counts = [{k: v for k, v in r.items() if LAYER_METRICS.get(k, ("",))[0] == "count"}
                  for r in per_round]
        if any(c != counts[0] for c in counts):
            raise BenchmarkError("per-layer counts differ between rounds")
        units = dict(LAYER_METRICS, **{"trace.overhead_pct": ("%", "lower")})
        stats = {name: summary([r[name] for r in per_round]) for name in units}
        metrics = {name: {"value": counts[0].get(name, stats[name]["median"]),
                          "unit": units[name][0]} for name in units}
        record["per_command"] = {
            metric: {name: statistics.median(layers[name] for layers in rows)
                     for name in rows[0]}
            for metric, rows in per_command.items()
        }
        for metric, layers in record["per_command"].items():
            log(f"{metric:16s} traced {layers['command_s']:8.4f} s: "
                f"bfs {layers['graphs.bfs_s'] / layers['command_s']:6.1%}, "
                f"pair self {layers['curvature.pair_self_s'] / layers['command_s']:6.1%}, "
                f"pair calls {layers['curvature.pair_calls']:.0f}")
    else:
        samples, wall, loops, peak, attempted, failed, wrong, rounds = run_processes(
            commands, files, args.seconds, judge, log, pin)
        stats = {m: summary(v) for m, v in samples.items()}
        record["wall_s"] = {m: summary(v) for m, v in wall.items()}
        record["reference_loop_s"] = summary(loops)
        metrics = {name: {"value": stats[name]["median"], "unit": "s"}
                   for name in ("setup_s",) + END_TO_END}
        metrics["peak_rss_mib"] = {"value": peak, "unit": "MiB"}
        stats["peak_rss_mib"] = {"n": attempted, "max": peak}
    record.update(rounds=rounds, attempted=attempted, failed=failed, wrong=wrong,
                  driver_peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  metrics=stats)
    append_record(args.workload, record)
    for name, value in metrics.items():
        log(f"{name:28s} {value['value']:12.6f} {value['unit']}")
    log(f"rounds {rounds}, attempted {attempted}, failed {failed}, wrong outputs {wrong}")
    # A command that exits nonzero or times out counts only as failed; one
    # that exits 0 with an output its check rejects also makes the run wrong.
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
