"""Exact curvature and volume-growth analysis of finite weighted graphs.

Everything runs on `fractions.Fraction`; no floats anywhere, including the
JSON formats, so every comparison in the library is an exact statement.
"""

from .chains import (
    BirthDeathChain,
    ModelVerdict,
    associated_bdc,
    bdc_as_graph,
    bdc_ollivier_closed_form,
    chain_from_json_dict,
    chain_to_json,
    chain_to_json_dict,
    is_model,
    make_example_gprime,
    make_figure1,
    make_mirror_model,
    make_ollivier_matching_chain,
    make_unweighted_chain,
    sphere_volume_step,
)
from .comparison import (
    GrowthRelation,
    LedgerRow,
    TheoremReport,
    asymptotic_constant,
    compcurv_check,
    laplacian_distance_compare,
    model_sphere_equality_report,
    partial_sum_equiv_check,
    stronger_average_growth,
    stronger_curvature_growth,
    stronger_outside_finite,
    volume_comparison,
)
from .curvature import (
    OllivierResult,
    average_curvature,
    curvature_profile,
    inner_curvature,
    ollivier_pair,
    ollivier_pair_bruteforce,
    outer_curvature,
    sphere_curvature,
    verify_witness,
)
from .errors import (
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
from .graphs import (
    RootedDecomposition,
    WeightedGraph,
    distance,
    distance_map,
    format_rational,
    graph_from_json_dict,
    graph_to_json,
    graph_to_json_dict,
    label_key,
    laplacian,
    laplacian_of_distance,
    loads_json,
    parse_rational,
    rooted_decomposition,
    sphere_boundary,
    sphere_measure,
    validate_graph,
)
from .verify import run_verification

__version__ = "0.1.0"
