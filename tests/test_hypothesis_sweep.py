"""The one hypothesis sweep against the per-predicate loops it replaced.

``predicates.hypothesis_failures`` decides claw-freeness and local
connectivity at each vertex in one step, in closed form up to degree 4.
``check_all``, ``finite_hamilton`` and ``run`` read their first failures
from it and take witnesses from ``claw_at`` and ``neighborhood_components``.
Here the sweep meets ``claw_at`` and ``locally_connected_at`` vertex by
vertex, the three callers meet the loops they had before on inputs outside
the class, and a sweep that lies is caught.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import clawham.engine as engine
import clawham.predicates as predicates
from clawham.constructions import complete_graph, line_graph, star_graph
from clawham.engine import run
from clawham.errors import DomainError, HypothesisError, InternalConsistencyError
from clawham.extension import finite_hamilton
from clawham.graph import FiniteGraph, is_connected
from clawham.predicates import (
    _hypotheses_at,
    check_all,
    claw_at,
    hypothesis_failures,
    is_claw_free,
    is_locally_connected,
    locally_connected_at,
)
from clawham.presentations import GraphPresentation, preset
from helpers import (
    BOWTIE,
    BOWTIE_FAULT,
    control_draws,
    dense_neighborhood_graphs,
    generated_draws,
    reference_gate,
    reference_hypothesis_failures,
    reference_interior_failure,
    reference_is_claw_free,
    reference_is_locally_connected,
    relabel,
    seeded_random_graphs,
)


def assert_sweep_matches(g: FiniteGraph) -> int:
    """Per vertex, the sweep's two verdicts equal ``claw_at`` and
    ``locally_connected_at``; over all vertices, in either order, the sweep
    equals its contract.  Returns the number of vertices of degree <= 4."""
    for v in g.vertices:
        verdict = (claw_at(g, v) is None, locally_connected_at(g, v))
        assert _hypotheses_at(g, v) == verdict, (v, g.edges())
        assert hypothesis_failures(g, [v]) == ([] if all(verdict) else [(v, *verdict)])
    for order in (g.vertices, g.vertices[::-1]):
        assert hypothesis_failures(g, order) == reference_hypothesis_failures(g, order)
    return sum(g.degree(v) <= 4 for v in g.vertices)


def test_sweep_matches_claw_at_and_flood_exhaustive(small_graphs):
    """Every vertex of every graph on at most 7 vertices: 1252 graphs, and
    the closed form decides 7447 vertices of degree <= 4."""
    graphs = [g for n in range(1, 8) for g in small_graphs[n]]
    assert len(graphs) == 1252
    assert sum(map(assert_sweep_matches, graphs)) == 7447


def test_sweep_matches_on_dense_and_relabelled_random_graphs():
    rng = random.Random(24)
    for g in dense_neighborhood_graphs():
        assert_sweep_matches(g)
    for g in seeded_random_graphs():
        assert_sweep_matches(g)
        assert_sweep_matches(relabel(g, rng))


def test_sweep_matches_on_large_line_graphs_and_generated_draws():
    """L(K_n) up to n = 24 and the generated draws, in id order and in two
    seeded orders: the shared clique store changes no verdict."""
    rng = random.Random(31)
    graphs = [line_graph(complete_graph(n)).graph for n in range(17, 25)]
    for g in graphs + [g for _, g in generated_draws() + control_draws()]:
        orders = [list(g.vertices)] + [rng.sample(g.vertices, len(g)) for _ in range(2)]
        for order in orders:
            assert hypothesis_failures(g, order) == reference_hypothesis_failures(g, order)


def _stored_false_graph() -> FiniteGraph:
    """0 and 1 are adjacent and both see 2 and 3, which are not: their
    splits each meet {0, 1, 2, 3} less themselves as one side, and that is
    no clique.  0's other side is the clique 4..7 and 1's is 8..11; the
    edge 3-7 keeps N(0) connected, so 0 fails only by its claw and the
    sweep goes on to 1."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 7)]
    edges += [(0, u) for u in range(4, 8)] + [(1, u) for u in range(8, 12)]
    edges += [e for block in (range(4, 8), range(8, 12)) for e in combinations(block, 2)]
    return FiniteGraph(range(12), edges)


def test_a_stored_false_verdict_is_reused(monkeypatch):
    """The split at 0 stores {0, 1, 2, 3} as no clique; the split at 1 reads
    that verdict without testing a clique, and the sweep equals the
    reference."""
    g = _stored_false_graph()
    verdicts = {}
    assert predicates._two_clique_split(g, 0, verdicts) == (False, None)
    assert verdicts == {frozenset(range(4)): [False, 3]}

    def refuse(s, neighbor_sets):
        raise AssertionError("the verdict is in the store")

    with monkeypatch.context() as patch:
        patch.setattr(predicates, "_is_clique", refuse)
        assert predicates._two_clique_split(g, 1, verdicts) == (False, None)
    assert verdicts == {frozenset(range(4)): [False, 2]}
    assert predicates._two_clique_split(g, 1) == (False, None)
    expected = reference_hypothesis_failures(g, g.vertices)
    assert expected == [(0, False, True), (1, False, False)]
    assert hypothesis_failures(g, g.vertices) == expected


@pytest.mark.parametrize("n", [6, 7, 12, 24])
def test_line_graph_of_complete_graph_tests_each_star_once(monkeypatch, n):
    """L(K_n) has n Krausz cliques, the stars, and every vertex splits into
    two of them: a full sweep runs n clique tests, where testing both sides
    at every vertex would run n(n - 1), and every verdict is read by all of
    its clique's members, so the store ends empty."""
    g = line_graph(complete_graph(n)).graph
    tests, stores = [], []
    is_clique, hypotheses_at = predicates._is_clique, predicates._hypotheses_at

    def counted(s, neighbor_sets):
        tests.append(len(s))
        return is_clique(s, neighbor_sets)

    def spied(g, v, verdicts=None):
        stores.append(verdicts)
        return hypotheses_at(g, v, verdicts)

    monkeypatch.setattr(predicates, "_is_clique", counted)
    monkeypatch.setattr(predicates, "_hypotheses_at", spied)
    assert hypothesis_failures(g, g.vertices) == []
    assert tests == [n - 2] * n
    assert len(stores) == len(g) and all(s is stores[0] for s in stores)
    assert stores[0] == {}


def test_closed_form_cases_at_degree_four():
    """N(0) = 1..4 with every edge set up to relabelling: a claw exactly when
    one neighbor meets every edge, N(0) connected with 4 or more edges, or
    with 3 that do not form a triangle."""
    def hub(edges):
        return FiniteGraph(range(5), [(0, u) for u in range(1, 5)] + edges)

    cases = {
        (): (False, False),
        ((1, 2),): (False, False),
        ((1, 2), (3, 4)): (True, False),
        ((1, 2), (1, 3)): (False, False),
        ((1, 2), (1, 3), (1, 4)): (False, True),   # a star: 1 meets every edge
        ((1, 2), (2, 3), (3, 4)): (True, True),    # a path
        ((1, 2), (2, 3), (1, 3)): (True, False),   # a triangle and 4 alone
        ((1, 2), (2, 3), (3, 4), (1, 4)): (True, True),
        ((1, 2), (1, 3), (1, 4), (2, 3)): (True, True),
    }
    for edges, verdict in cases.items():
        g = hub(list(edges))
        assert _hypotheses_at(g, 0) == verdict, edges
        assert verdict == (claw_at(g, 0) is None, locally_connected_at(g, 0))


def _gate(g: FiniteGraph):
    try:
        finite_hamilton(g)
    except HypothesisError as exc:
        return exc.predicate, exc.witness, str(exc)
    except DomainError as exc:
        return "DomainError", None, str(exc)
    return None


def _out_of_class_inputs(small_graphs):
    rng = random.Random(5)
    graphs = [g for n in range(3, 8) for g in small_graphs[n]]
    graphs += [relabel(g, rng) for g in seeded_random_graphs()]
    return [g for g in graphs
            if not (reference_is_claw_free(g).holds and reference_is_locally_connected(g).holds)]


def test_gate_and_reports_match_the_per_predicate_loops(small_graphs):
    """Outside the class, ``finite_hamilton`` raises the error, and
    ``check_all``, ``is_claw_free`` and ``is_locally_connected`` give the
    reports, of one loop per predicate."""
    graphs = _out_of_class_inputs(small_graphs)
    assert len(graphs) > 800
    for g in graphs:
        expected = reference_gate(g)
        assert expected is not None
        assert _gate(g) == expected, g.edges()
        reports = check_all(g)
        claw_free, locally_connected = reference_is_claw_free(g), reference_is_locally_connected(g)
        assert reports["claw_free"] == is_claw_free(g) == claw_free, g.edges()
        assert reports["locally_connected"] == is_locally_connected(g) == locally_connected


def test_run_reports_what_the_interior_loop_did(small_graphs):
    """Each connected graph on 3 to 7 vertices, presented from vertex 0,
    is its own ball at radius 9: ``run`` fails at the vertex, with the
    predicate, witness and message, of the loop it had before, and runs
    when that loop passes."""
    failing = 0
    for n in range(3, 8):
        for g in small_graphs[n]:
            if not is_connected(g):
                continue
            pres = GraphPresentation("small", g.neighbors, 0)
            ball = pres.extract_ball(9)
            expected = reference_interior_failure(ball.graph, ball.interior)
            if expected is None:
                run(pres, rounds=0, radius=9)
                continue
            failing += 1
            with pytest.raises(HypothesisError) as exc:
                run(pres, rounds=0, radius=9)
            assert (exc.value.predicate, exc.value.witness, str(exc.value)) == expected
    assert failing > 600


# -- a sweep that lies ----------------------------------------------------------


def test_gate_passing_the_bowtie_fails_the_construction(monkeypatch):
    """The bowtie is connected and claw-free, but its hub's neighborhood is
    two edges.  Past a gate that misses this, the splice search meets the
    split and ``finite_hamilton`` reports the broken promise."""
    assert _gate(BOWTIE) == ("locally_connected", (0, 1, 2, 3, 4),
                             "neighborhood of 0 splits into 2 parts")
    monkeypatch.setattr(predicates, "hypothesis_failures", lambda g, vertices: [])
    with pytest.raises(InternalConsistencyError) as exc:
        finite_hamilton(BOWTIE)
    assert str(exc.value) == BOWTIE_FAULT


@pytest.mark.parametrize("claw_free, connected, message", [
    (False, True, "the hypothesis sweep reports a claw at 0 that claw_at does not find"),
    (False, False, "the hypothesis sweep reports a claw at 0 that claw_at does not find"),
    (True, False, "the hypothesis sweep reports the neighborhood of 0 disconnected, "
                  "but it has 1 component(s)"),
])
def test_unconfirmed_failure_is_an_internal_error(monkeypatch, claw_free, connected, message):
    """A failure that the witness functions do not confirm stops
    ``check_all``, ``finite_hamilton`` and ``run``."""
    def lying(g, vertices):
        return [(0, claw_free, connected)]

    monkeypatch.setattr(predicates, "hypothesis_failures", lying)
    monkeypatch.setattr(engine, "hypothesis_failures", lying)
    for call in (lambda: check_all(complete_graph(5)),
                 lambda: finite_hamilton(complete_graph(5)),
                 lambda: run(preset("double-ray-square"), rounds=0, radius=20)):
        with pytest.raises(InternalConsistencyError) as exc:
            call()
        assert str(exc.value) == message


def test_claw_reported_before_a_split_seen_earlier():
    """Vertex 0 of the bowtie has a split neighborhood; three leaves hung
    at vertex 4 make a claw there.  The sweep lists both, and the gate names
    the claw, as the claw loop ran first."""
    g = FiniteGraph(range(8), BOWTIE.edges() + ((4, 5), (4, 6), (4, 7)))
    assert hypothesis_failures(g, g.vertices) == [(0, True, False), (4, False, False)]
    assert _gate(g) == ("claw_free", (0, 4, 5, 6), "induced claw centered at 4")
    assert _gate(star_graph(3)) == ("claw_free", (0, 1, 2, 3), "induced claw centered at 0")
