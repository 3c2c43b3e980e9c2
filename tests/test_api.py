"""The public names of the package, pinned: adding or removing one is a
deliberate change to this list.  Also: no module keeps a stale import."""

from __future__ import annotations

import ast
from pathlib import Path

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


# The second witness-update path and the second decomposition paths,
# retired: steps go through the engine's step check and rounds through
# ``separators.split_cycle``.
RETIRED = ["GoodTuple", "good_extend", "decompose", "shrink_to_minimal_ray_separator",
           "ray_decomposition"]


@pytest.mark.parametrize("module", [clawham, clawham.engine, clawham.separators])
def test_retired_entry_points_are_gone(module):
    assert [name for name in RETIRED if hasattr(module, name)] == []


# ``bench/test_tracer.py`` asserts that ``clawham.engine`` binds this name.
UNUSED_IMPORTS_KEPT = {("engine", "apply_path_extension")}
MODULES = sorted(Path(clawham.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    """A name a module imports is read somewhere in it, or listed in its
    ``__all__``, so a refactor leaves no stale import behind."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if [getattr(t, "id", None) for t in getattr(node, "targets", ())] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    stale = {name for name in imported - used if (path.stem, name) not in UNUSED_IMPORTS_KEPT}
    assert sorted(stale) == []


def test_every_private_helper_is_referenced():
    """A private module-level function or class of the package is named
    somewhere in the package besides its definition, as a name or an
    attribute, so a simplification leaves no orphaned helper behind."""
    trees = [ast.parse(path.read_text()) for path in MODULES]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert sorted(defined - named) == []
