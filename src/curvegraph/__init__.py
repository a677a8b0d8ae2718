"""Exact curvature and volume-growth analysis of finite weighted graphs.

Everything runs on `fractions.Fraction`; no floats anywhere, including the
JSON formats, so every comparison in the library is an exact statement.

Importing the package runs only `errors` and `graphs`, which every command
needs to read its input. The other modules are lazy
(`importlib.util.LazyLoader`): each is in `sys.modules` and is an attribute
of the package from the start, but its code is compiled and run on the
first read of one of its attributes. So a command pays only for the
modules it calls. The public names those modules define are served from
`_LAZY_NAMES` by the module `__getattr__` (PEP 562); the package's public
surface is that table and the names imported below.
"""


def _lazy(name):
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Registered before the eager imports. A walk over sys.modules that rebinds
# names as it goes, as bench/tracer.py makes, then reaches each lazy module,
# and so runs it, before graphs: the module imports graphs' own functions,
# not replacements that the walk would not know to put back.
chains, comparison, curvature, generators, verify = map(
    _lazy, ("chains", "comparison", "curvature", "generators", "verify")
)

from .errors import (  # noqa: E402
    AsymmetricDuplicateEdge,
    BadRadiusOrder,
    CurvegraphError,
    DisconnectedGraph,
    DuplicateVertex,
    EmptySphere,
    FormatError,
    HorizonExceeded,
    HorizonMismatch,
    HypothesisFailed,
    NonPositiveEdgeWeight,
    NonPositiveEntry,
    NonPositiveMeasure,
    PartialFunction,
    SameVertex,
    SelfLoop,
    SequenceNotNonincreasing,
    UnknownVertex,
)
from .graphs import (  # noqa: E402
    RootedDecomposition,
    WeightedGraph,
    average_curvature,
    curvature_profile,
    distance,
    distance_map,
    format_rational,
    graph_from_json_dict,
    graph_to_json,
    graph_to_json_dict,
    inner_curvature,
    label_key,
    laplacian,
    laplacian_of_distance,
    loads_json,
    outer_curvature,
    parse_rational,
    rooted_decomposition,
    sphere_boundary,
    sphere_measure,
    validate_graph,
)

# public name -> the lazy module that defines it
_LAZY_NAMES = {
    "BirthDeathChain": chains,
    "ModelVerdict": chains,
    "associated_bdc": chains,
    "bdc_as_graph": chains,
    "bdc_ollivier_closed_form": chains,
    "chain_from_json_dict": chains,
    "chain_to_json": chains,
    "chain_to_json_dict": chains,
    "is_model": chains,
    "sphere_volume_step": chains,
    "GrowthRelation": comparison,
    "LedgerRow": comparison,
    "TheoremReport": comparison,
    "asymptotic_constant": comparison,
    "compcurv_check": comparison,
    "laplacian_distance_compare": comparison,
    "model_sphere_equality_report": comparison,
    "partial_sum_equiv_check": comparison,
    "stronger_average_growth": comparison,
    "stronger_curvature_growth": comparison,
    "stronger_outside_finite": comparison,
    "volume_comparison": comparison,
    "OllivierResult": curvature,
    "ollivier_pair": curvature,
    "ollivier_pair_bruteforce": curvature,
    "sphere_curvature": curvature,
    "verify_witness": curvature,
    "make_example_gprime": generators,
    "make_figure1": generators,
    "make_mirror_model": generators,
    "make_ollivier_matching_chain": generators,
    "make_unweighted_chain": generators,
    "run_verification": verify,
}


def __getattr__(name):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})


__version__ = "0.1.0"
