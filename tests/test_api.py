"""The public names of the package, pinned: adding or removing one is a
deliberate change to this list."""

from __future__ import annotations

import pytest

import clawham
import clawham.engine
import clawham.separators

PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    assert sorted(clawham.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(clawham, name) is not None


# The second witness-update path and the second decomposition path, retired:
# steps go through the engine's step check and rounds through
# ``separators.ray_decomposition``.
RETIRED = ["GoodTuple", "good_extend", "decompose", "shrink_to_minimal_ray_separator"]


@pytest.mark.parametrize("module", [clawham, clawham.engine, clawham.separators])
def test_retired_entry_points_are_gone(module):
    assert [name for name in RETIRED if hasattr(module, name)] == []
