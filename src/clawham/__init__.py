"""Hamilton cycles in claw-free, locally connected graphs.

Finite graphs get a constructive Hamilton cycle with a replayable
certificate; locally finite infinite graphs, described by neighbor
oracles, get a nested cycle sequence on truncation balls together with
separator-derived witness sets and a checker for the conditions under
which the sequence converges to a Hamilton circle through all ends.
"""

from .constructions import (
    CorollaryInstance,
    LineGraph,
    corollary_instances,
    enumerate_connected_graphs,
    enumerate_graphs,
    graph_power,
    line_graph,
)
from .engine import (
    ExtractionReport,
    GoodTupleContext,
    RunState,
    check_extraction_conditions,
    check_good_tuple,
    cut_lemma_round,
    run,
    stable_edge_set,
)
from .errors import (
    ClawhamError,
    DomainError,
    GraphInputError,
    HypothesisError,
    InternalConsistencyError,
    ProgressError,
    RadiusTooSmallError,
)
from .extension import (
    HamiltonCertificate,
    PathExtension,
    apply_path_extension,
    extend_to_cover,
    find_path_extension,
    finite_hamilton,
    replay_certificate,
    shortest_cycle_through,
)
from .graph import (
    CycleEmbedding,
    FiniteGraph,
    components,
    cut,
    induced_subgraph,
    neighborhood_k,
    validate_cycle,
)
from .predicates import (
    PredicateReport,
    is_chordal,
    is_claw_free,
    is_locally_connected,
    is_two_connected,
)
from .presentations import Ball, GraphPresentation, preset
from .separators import (
    SeparatorDecomposition,
    check_complete_neighborhood,
    minimal_separator_components,
)

__all__ = [
    "Ball",
    "ClawhamError",
    "CorollaryInstance",
    "CycleEmbedding",
    "DomainError",
    "ExtractionReport",
    "FiniteGraph",
    "GoodTupleContext",
    "GraphInputError",
    "GraphPresentation",
    "HamiltonCertificate",
    "HypothesisError",
    "InternalConsistencyError",
    "LineGraph",
    "PathExtension",
    "PredicateReport",
    "ProgressError",
    "RadiusTooSmallError",
    "RunState",
    "SeparatorDecomposition",
    "apply_path_extension",
    "check_complete_neighborhood",
    "check_extraction_conditions",
    "check_good_tuple",
    "components",
    "corollary_instances",
    "cut",
    "cut_lemma_round",
    "enumerate_connected_graphs",
    "enumerate_graphs",
    "extend_to_cover",
    "find_path_extension",
    "finite_hamilton",
    "graph_power",
    "induced_subgraph",
    "is_chordal",
    "is_claw_free",
    "is_locally_connected",
    "is_two_connected",
    "line_graph",
    "minimal_separator_components",
    "neighborhood_k",
    "preset",
    "replay_certificate",
    "run",
    "shortest_cycle_through",
    "stable_edge_set",
    "validate_cycle",
]

__version__ = "0.1.0"
