from __future__ import annotations

import pytest

from clawham.constructions import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    line_graph,
    path_graph,
    petersen_graph,
    star_graph,
    wheel_graph,
)
from clawham.errors import DomainError
from clawham.graph import FiniteGraph, is_connected
from clawham.predicates import (
    claw_at,
    is_chordal,
    is_claw_free,
    is_locally_connected,
    is_two_connected,
    neighborhood_components,
)
from helpers import (
    chordal_oracle,
    check_claw_witness,
    check_hole_witness,
    check_local_connectivity_witness,
    has_induced_claw_oracle,
    locally_connected_oracle,
    reference_claw_at,
    reference_is_chordal,
    reference_is_claw_free,
    reference_is_locally_connected,
    reference_is_two_connected,
    reference_neighborhood_components,
    seeded_random_graphs,
    two_connected_oracle,
)


def test_claw_itself():
    rep = is_claw_free(star_graph(3))
    assert not rep.holds
    assert rep.witness == (0, 1, 2, 3)
    assert check_claw_witness(star_graph(3), rep.witness)


def test_c5_claw_free():
    assert is_claw_free(cycle_graph(5)).holds


def test_petersen_has_claw():
    g = petersen_graph()
    assert has_induced_claw_oracle(g)  # oracle first
    rep = is_claw_free(g)
    assert not rep.holds
    assert check_claw_witness(g, rep.witness)


def test_locally_connected_examples():
    assert is_locally_connected(complete_graph(4)).holds
    rep = is_locally_connected(cycle_graph(6))
    assert not rep.holds
    assert check_local_connectivity_witness(cycle_graph(6), rep.witness)
    # every neighborhood of the 5-wheel is connected (checked directly)
    w5 = wheel_graph(5)
    assert locally_connected_oracle(w5)
    assert is_locally_connected(w5).holds


def test_locally_connected_degenerate_conventions():
    assert is_locally_connected(FiniteGraph([0], [])).holds
    assert is_locally_connected(path_graph(2)).holds


def test_two_connected_examples():
    rep = is_two_connected(path_graph(3))
    assert not rep.holds and rep.witness == (1,)
    assert is_two_connected(cycle_graph(4)).holds
    bowtie = FiniteGraph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    rep = is_two_connected(bowtie)
    assert not rep.holds and rep.witness == (2,)


def test_two_connected_needs_three_vertices():
    with pytest.raises(DomainError):
        is_two_connected(path_graph(2))


def test_chordal_examples():
    rep = is_chordal(cycle_graph(4))
    assert not rep.holds and check_hole_witness(cycle_graph(4), rep.witness)
    assert is_chordal(path_graph(6)).holds
    assert is_chordal(star_graph(4)).holds
    octa = complete_multipartite(2, 2, 2)
    assert not chordal_oracle(octa)  # oracle: a 4-cycle through two classes is induced
    rep = is_chordal(octa)
    assert not rep.holds and check_hole_witness(octa, rep.witness)


def test_predicates_against_oracles_exhaustive(small_graphs):
    for n in range(1, 7):
        for g in small_graphs[n]:
            assert is_claw_free(g).holds == (not has_induced_claw_oracle(g))
            assert is_locally_connected(g).holds == locally_connected_oracle(g)
            assert is_chordal(g).holds == chordal_oracle(g)
            if n >= 3:
                assert is_two_connected(g).holds == two_connected_oracle(g)


def test_witnesses_are_genuine_exhaustive(small_graphs):
    for n in range(3, 7):
        for g in small_graphs[n]:
            rep = is_claw_free(g)
            if not rep.holds:
                assert check_claw_witness(g, rep.witness)
            rep = is_locally_connected(g)
            if not rep.holds:
                assert check_local_connectivity_witness(g, rep.witness)
            rep = is_chordal(g)
            if not rep.holds:
                assert check_hole_witness(g, rep.witness)


def test_locally_connected_connected_implies_two_connected(connected_small_graphs):
    for n in range(3, 8):
        for g in connected_small_graphs[n]:
            if is_locally_connected(g).holds:
                assert is_two_connected(g).holds, g


def test_line_graphs_are_claw_free(small_graphs):
    from clawham.constructions import line_graph

    for n in range(2, 7):
        for g in small_graphs[n]:
            if g.edge_count() == 0:
                continue
            assert is_claw_free(line_graph(g).graph).holds


def test_deterministic_witness_order():
    g = petersen_graph()
    assert is_claw_free(g).witness == is_claw_free(g).witness
    # ascending center, lexicographic triple: center 0 comes first
    assert is_claw_free(g).witness[0] == 0


# -- differential tests against the previous implementations ------------------

REFERENCES = {
    "claw_free": (is_claw_free, reference_is_claw_free),
    "locally_connected": (is_locally_connected, reference_is_locally_connected),
    "chordal": (is_chordal, reference_is_chordal),
    "two_connected": (is_two_connected, reference_is_two_connected),
}


def _report(fn, g):
    try:
        return fn(g).to_json_obj()
    except DomainError as exc:
        return ("DomainError", str(exc))


def assert_matches_references(g):
    for name, (live, ref) in REFERENCES.items():
        assert _report(live, g) == _report(ref, g), (name, g.edges())
    for v in g.vertices:
        assert claw_at(g, v) == reference_claw_at(g, v), (v, g.edges())
        assert neighborhood_components(g, v) == reference_neighborhood_components(g, v)


def test_reports_match_references_exhaustive(small_graphs):
    """Full reports (holds, witness, note) on every graph with n <= 7."""
    for n in range(1, 8):
        for g in small_graphs[n]:
            assert_matches_references(g)


def test_reports_match_references_random():
    graphs = seeded_random_graphs()
    assert any(not is_connected(g) for g in graphs)
    assert any(is_chordal(g).holds and g.edge_count() > len(g) for g in graphs)
    assert any(is_claw_free(g).holds and g.edge_count() > len(g) for g in graphs)
    for g in graphs:
        assert_matches_references(g)


def test_two_connected_root_is_the_cut_vertex():
    bowtie = FiniteGraph(range(5), [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    rep = is_two_connected(bowtie)
    assert rep.to_json_obj() == {"holds": False, "witness": [0], "note": "cutvertex 0"}


def test_two_connected_minimum_cut_vertex_found_last():
    # The depth-first search from 0 descends 0-1-6-3-4-2 and settles the
    # deepest cut vertices first: 4, 3, 6, and the minimum, 1, last.
    g = FiniteGraph(range(7), [(0, 1), (1, 5), (1, 6), (5, 6), (6, 3), (3, 4), (4, 2)])
    assert is_two_connected(g).to_json_obj() == {
        "holds": False, "witness": [1], "note": "cutvertex 1"}


def test_two_connected_blocks_joined_by_a_bridge():
    g = FiniteGraph(range(6), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    assert is_two_connected(g).to_json_obj() == {
        "holds": False, "witness": [2], "note": "cutvertex 2"}


def test_two_connected_long_path_needs_no_recursion():
    rep = is_two_connected(path_graph(20000))
    assert not rep.holds and rep.witness == (1,)
