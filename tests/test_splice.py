"""The local splice against the whole-cycle rebuild it replaced.

``helpers.reference_apply`` rebuilds every cycle from its edge set and
re-validates all of it; the package splices one segment on a succ/pred map
and checks only what changed.  The two must agree at every step.
"""

from __future__ import annotations

import random

import pytest

from clawham.constructions import complete_graph, graph_power, line_graph, path_graph
from clawham.errors import InternalConsistencyError, ProgressError
from clawham.extension import (
    HamiltonCertificate,
    _SpliceCycle,
    apply_path_extension,
    extend_to_cover,
    finite_hamilton,
    replay_certificate,
    shortest_cycle_through,
)
from clawham.graph import CycleEmbedding, FiniteGraph
from helpers import (
    cycle_from_edge_set,
    reference_apply,
    reference_extend_to_cover,
    reference_replay,
)


def relabel(g: FiniteGraph, rng: random.Random) -> FiniteGraph:
    perm = list(g.vertices)
    rng.shuffle(perm)
    to = dict(zip(g.vertices, perm))
    return FiniteGraph(perm, [(to[u], to[v]) for u, v in g.edges()])


def assert_same_as_reference(g: FiniteGraph) -> HamiltonCertificate:
    """Certificate equal to the reference construction, and the live
    splice equal to the reference splice after every step."""
    cert = finite_hamilton(g)
    ref_cycle, ref_log = reference_extend_to_cover(g, cert.initial_cycle, g.vertices)
    assert list(cert.extensions) == ref_log
    assert cert.cycle == ref_cycle
    live = _SpliceCycle(cert.initial_cycle)
    ref = cert.initial_cycle
    for ext in cert.extensions:
        assert apply_path_extension(g, ref, ext) == reference_apply(g, ref, ext)
        live.splice(g, ext)
        ref = reference_apply(g, ref, ext)
        frozen = live.freeze()
        assert frozen == ref
        for v in ref.order:
            assert (live.succ(v), live.pred(v)) == (ref.succ(v), ref.pred(v))
    return cert


def test_cycle_from_edge_set_roundtrip():
    c = CycleEmbedding([0, 4, 2, 5, 1])
    assert cycle_from_edge_set(c.edge_set()) == c
    assert cycle_from_edge_set({(0, 1), (1, 2)}) is None
    # two disjoint triangles are not a single cycle
    assert cycle_from_edge_set({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}) is None


def test_splice_matches_reference_on_path_squares():
    rng = random.Random(7)
    for n in (5, 12, 40, 120):
        g = graph_power(path_graph(n), 2)
        assert_same_as_reference(g)
        assert_same_as_reference(relabel(g, rng))


def test_splice_matches_reference_on_line_graphs_of_complete_graphs():
    rng = random.Random(11)
    for n in range(4, 9):
        g = line_graph(complete_graph(n)).graph
        assert_same_as_reference(g)
        assert_same_as_reference(relabel(g, rng))


def test_splice_matches_reference_on_small_class(hypothesis_class_small):
    rng = random.Random(20261017)
    for g in hypothesis_class_small:
        assert_same_as_reference(g)
        for _ in range(3):
            assert_same_as_reference(relabel(g, rng))


def test_orientation_follows_the_minimum_vertex():
    """In K_5 the first splice puts 3 after the minimum vertex 0, so 0's
    smaller neighbour becomes 2 and the orientation must turn round.  The
    second splice walks toward succ(0) and would reach 3 instead of 2 if the
    cycle kept its old orientation."""
    g = complete_graph(5)
    cert = assert_same_as_reference(g)
    assert [e.extension_path for e in cert.extensions] == [(3, 1), (4, 2)]
    assert cert.cycle.order == (0, 3, 1, 2, 4)
    live = _SpliceCycle(cert.initial_cycle)
    live.splice(g, cert.extensions[0])
    assert (live.succ(0), live.pred(0)) == (2, 3)


def test_replay_rejects_non_edges_at_the_same_step():
    """Deleting an edge the certificate uses makes it use a non-edge, in its
    first cycle or at some step; the live replay must fail exactly where the
    reference replay fails, and agree with it when the edge is unused."""
    steps_seen = set()
    for g in (graph_power(path_graph(10), 2), line_graph(complete_graph(5)).graph,
              complete_graph(6)):
        cert = finite_hamilton(g)
        for dropped in g.edges():
            h = FiniteGraph(g.vertices, [e for e in g.edges() if e != dropped])
            live = replay_certificate(h, cert)
            ref = reference_replay(h, cert)
            assert (live.ok, live.steps_ok) == (ref.ok, ref.steps_ok), dropped
            assert live.failure.split(":")[0] == ref.failure.split(":")[0]
            steps_seen.add(live.steps_ok)
    assert 0 in steps_seen and len(steps_seen) > 2


def test_insert_checks_the_segment():
    g = FiniteGraph(range(6), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 1), (2, 5)])
    square = CycleEmbedding([0, 1, 2, 3])
    for a, b, seq in ((0, 2, (4,)),   # ends not adjacent on the cycle
                      (0, 1, (3,)),   # vertex already on the cycle
                      (0, 1, (5,)),   # non-edge (0, 5)
                      (0, 1, ())):    # nothing to insert
        with pytest.raises(InternalConsistencyError):
            _SpliceCycle(square).insert(g, a, b, seq)
    live = _SpliceCycle(square)
    assert sorted(live.insert(g, 1, 0, (4,))) == [(0, 4), (1, 4)]
    assert live.freeze() == CycleEmbedding([0, 4, 1, 2, 3])


def test_replay_agrees_with_reference_on_tampered_logs():
    """Seeded edits of one splice record: both replays must reject or
    accept alike, at the same step."""
    rng = random.Random(5)
    for g in (graph_power(path_graph(14), 2), line_graph(complete_graph(6)).graph):
        obj = finite_hamilton(g).to_json_obj()
        vertices = list(g.vertices)
        for _ in range(150):
            bad = {**obj, "extensions": [dict(e) for e in obj["extensions"]]}
            ext = rng.choice(bad["extensions"])
            key = rng.choice(["base", "target", "reattach", "path", "bridged", "case"])
            if key == "case":
                ext[key] = "two" if ext[key] == "one" else "one"
            elif key in ("path", "bridged"):
                seq = list(ext[key]) or [None]
                seq[rng.randrange(len(seq))] = rng.choice(vertices)
                ext[key] = seq
            else:
                ext[key] = rng.choice(vertices)
            cert = HamiltonCertificate.from_json_obj(bad)
            live, ref = replay_certificate(g, cert), reference_replay(g, cert)
            assert (live.ok, live.steps_ok) == (ref.ok, ref.steps_ok), ext


def _cover_or_stuck(cover, g, c, goal):
    try:
        return cover(g, c, goal)
    except ProgressError:
        return "stuck"


def test_cover_targets_are_its_goal(hypothesis_class_small):
    """On in-class graphs and seeded goals, ``extend_to_cover`` gives the
    reference's sorted scan over the goal vertices as targets: the same
    cycle and log, or both stuck.  Some goals have no vertex next to the
    cycle; those, and goals whose vertices are reached only through
    vertices outside them, get stuck."""

    def reference(g, c, goal):
        return reference_extend_to_cover(g, c, goal, target_pool=goal)

    rng = random.Random(20)
    graphs = list(hypothesis_class_small) + [
        relabel(graph_power(path_graph(30), 2), rng),
        relabel(line_graph(complete_graph(6)).graph, rng),
    ]
    stuck = {True: 0, False: 0}
    far_goals = 0
    for g in graphs:
        c = shortest_cycle_through(g, g.vertices[0])
        goals = [rng.sample(g.vertices, rng.randint(1, len(g))) for _ in range(3)]
        far = [v for v in g.vertices if (g.neighbor_set(v) | {v}).isdisjoint(c.vertex_set)]
        if far:
            goals.append(rng.sample(far, rng.randint(1, len(far))))
            far_goals += 1
        for goal in goals:
            got = _cover_or_stuck(extend_to_cover, g, c, goal)
            assert got == _cover_or_stuck(reference, g, c, goal)
            stuck[got == "stuck"] += 1
    assert far_goals and stuck[True] > far_goals and stuck[False]
