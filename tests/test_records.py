"""Result types are frozen records that behave as frozen dataclasses, and
start-up imports neither ``dataclasses`` nor ``inspect``.

Each record is checked against a ``dataclasses.make_dataclass(frozen=True)``
twin declared here with the same field names and defaults: the same repr,
equality, hash (or hash error), construction errors and frozen attributes.
"""

import dataclasses
import inspect
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from curvegraph import (
    BirthDeathChain,
    GrowthRelation,
    LedgerRow,
    ModelVerdict,
    OllivierResult,
    RootedDecomposition,
    TheoremReport,
    WeightedGraph,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# Each record's fields in order; a (name, default) pair has a default.
FIELDS = {
    WeightedGraph: ["vertices", "measure", "adjacency"],
    RootedDecomposition: ["graph", "root", "dist", "spheres"],
    BirthDeathChain: ["measures", "weights"],
    ModelVerdict: ["failures"],
    GrowthRelation: ["kind", "first_violation", "common_range"],
    LedgerRow: ["r", "lhs", "rhs", "ok", ("vertex", None)],
    TheoremReport: [
        "claim",
        "hypothesis_checked",
        "ledger",
        ("failure", None),
        ("note", None),
        ("status", "asserted"),
        ("subreports", ()),
    ],
    OllivierResult: ["x", "y", "distance", "value", "witness", "support"],
}
RECORDS = list(FIELDS)


def _twin(cls):
    spec = [
        (f[0], object, f[1]) if isinstance(f, tuple) else (f, object) for f in FIELDS[cls]
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _names(cls):
    return [f[0] if isinstance(f, tuple) else f for f in FIELDS[cls]]


def _defaults(cls):
    return [f[1] for f in FIELDS[cls] if isinstance(f, tuple)]


def _value(rng, depth=0):
    """A small random value: few distinct ones, so equal pairs are common."""
    kind = rng.randrange(6 if depth < 2 else 4)
    if kind == 0:
        return rng.randint(-2, 2)
    if kind == 1:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if kind == 2:
        return rng.choice(["a", "x'", "asserted", None])
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return tuple(_value(rng, depth + 1) for _ in range(rng.randrange(3)))
    return {rng.choice("ab"): _value(rng, depth + 1) for _ in range(rng.randrange(3))}


def _field_values(cls, rng):
    """Field values the record stores as given (a chain's, already canonical)."""
    if cls is BirthDeathChain:
        n = rng.randint(1, 3)
        positive = lambda: Fraction(rng.randint(1, 3), rng.randint(1, 2))  # noqa: E731
        return [tuple(positive() for _ in range(n)), tuple(positive() for _ in range(n - 1))]
    return [_value(rng) for _ in _names(cls)]


def _calls(cls, values):
    """Equivalent calls: by position, by keyword, mixed, defaults left out."""
    names = _names(cls)
    required = len(names) - len(_defaults(cls))
    split = len(values) // 2
    yield values, {}
    yield [], dict(zip(names, values))
    yield values[:split], dict(zip(names[split:], values[split:]))
    if values[required:] == _defaults(cls):
        yield values[:required], {}


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as error:
        return str(error)


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
def test_record_matches_a_frozen_dataclass(cls):
    twin = _twin(cls)
    assert cls._fields == tuple(_names(cls))
    # the record's own __init__ takes its fields, in order, with their defaults
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [(p.name, p.default) for p in params] == [
        f if isinstance(f, tuple) else (f, inspect.Parameter.empty) for f in FIELDS[cls]
    ]
    rng = random.Random(f"records:{cls.__name__}")
    pairs = []
    for _ in range(60):
        values = _field_values(cls, rng)
        if _defaults(cls) and rng.random() < 0.3:
            values[-len(_defaults(cls)) :] = _defaults(cls)
        for args, kwargs in _calls(cls, values):
            pairs.append((cls(*args, **kwargs), twin(*args, **kwargs)))
    for record, dc in pairs:
        assert repr(record) == repr(dc)
        assert _hash_or_error(record) == _hash_or_error(dc)
        assert record != dc and not record == dc
        assert record.__eq__(object()) is NotImplemented
    for (a, a_dc), (b, b_dc) in zip(pairs, pairs[1:] + pairs[:1]):
        assert (a == b, a != b) == (a_dc == b_dc, a_dc != b_dc)
    assert any(a == b for (a, _), (b, _) in zip(pairs, pairs[1:]))


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
def test_record_is_frozen_like_a_dataclass(cls):
    twin = _twin(cls)
    values = _field_values(cls, random.Random(f"frozen:{cls.__name__}"))
    record, dc = cls(*values), twin(*values)
    for name in _names(cls) + ["unknown"]:
        for act in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
            with pytest.raises(AttributeError) as caught:
                act(record)
            with pytest.raises(AttributeError) as expected:
                act(dc)
            assert str(caught.value) == str(expected.value)
    assert repr(record) == repr(dc)


def _built(make, args, kwargs):
    try:
        return repr(make(*args, **kwargs))
    except TypeError as error:
        return f"TypeError: {error}"


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
def test_record_construction_errors_match_a_dataclass(cls):
    twin = _twin(cls)
    names = _names(cls)
    values = _field_values(cls, random.Random(f"errors:{cls.__name__}"))
    calls = [
        ((), {}),
        (values[:1], {}),
        ((), {names[-1]: values[-1]}),
        (values, {"unknown": 1}),
        (values[:1], {"unknown": 1, names[0]: values[0]}),
        (values[:1], {names[0]: values[0]}),
        (values + [1], {}),
        (values + [1], {"unknown": 1}),
    ]
    outcomes = [_built(cls, *call) for call in calls]
    assert outcomes == [_built(twin, *call) for call in calls]
    # every call but a complete one-field call is an error
    assert sum(o.startswith("TypeError: ") for o in outcomes) >= len(calls) - 2


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # -S keeps the environment's site hooks out, so this sees the package only
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import curvegraph.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
