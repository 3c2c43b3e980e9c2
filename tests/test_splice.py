"""The local splice against the whole-cycle rebuild it replaced.

``helpers.reference_apply`` rebuilds every cycle from its edge set and
re-validates all of it; the package splices one segment on a succ/pred map
and checks only what changed.  The two must agree at every step.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import clawham.extension as extension
from clawham.constructions import complete_graph, graph_power, line_graph, path_graph
from clawham.errors import DomainError, InternalConsistencyError, ProgressError
from clawham.extension import (
    ExtensionCase,
    HamiltonCertificate,
    PathExtension,
    _SpliceCycle,
    apply_path_extension,
    extend_to_cover,
    finite_hamilton,
    replay_certificate,
    shortest_cycle_through,
    validate_extension,
)
from clawham.graph import CycleEmbedding, FiniteGraph, shortest_path
from helpers import (
    cycle_from_edge_set,
    generated_draws,
    reference_apply,
    reference_extend_to_cover,
    reference_find_path_extension,
    reference_replay,
    reference_shortest_path,
    reference_splice,
    reference_validate_extension,
    relabel,
)


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


def _cycle_graph_with(n: int, *extra) -> FiniteGraph:
    return FiniteGraph(range(n + 1), [(i, (i + 1) % n) for i in range(n)] + list(extra))


# -- the edit log ------------------------------------------------------------------


def test_bridge_logs_two_removals_and_one_addition():
    """The log is off until a caller sets it to a dict."""
    g = _cycle_graph_with(5, (1, 3))
    live = _SpliceCycle(CycleEmbedding(range(5)))
    assert live.edits is None
    live.edits = {}
    live._bridge(g, 2)
    assert live.edits == {(1, 2): -1, (2, 3): -1, (1, 3): 1}


def test_insertion_logs_the_opened_edge_and_its_chain():
    g = FiniteGraph(range(6), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (1, 5)])
    live = _SpliceCycle(CycleEmbedding(range(4)))
    live.edits = {}
    live.insert(g, 1, 0, (5, 4))
    assert live.edits == {(0, 1): -1, (1, 5): 1, (4, 5): 1, (0, 4): 1}
    assert live.freeze() == CycleEmbedding([0, 4, 5, 1, 2, 3])


def test_case_two_reattach_at_the_bases_old_neighbor_nets_to_zero():
    """On C_6 with the chords 1-3 and 0-2, target 6 joins through base 2
    along (6, 0), reattaching at 1, the base's old predecessor.  The bridge
    removes (1, 2) and the insertion between 1 and 0 adds it back: the log
    holds it at 0, and its other entries are the edge-set difference."""
    g = _cycle_graph_with(6, (1, 3), (0, 2), (2, 6), (0, 6))
    c = CycleEmbedding(range(6))
    ext = PathExtension(ExtensionCase.TWO, 6, 2, (6, 0), (2,), reattach=1)
    assert c.pred(2) == 1 and validate_extension(g, c, ext) == []
    live = _SpliceCycle(c)
    live.edits = {}
    live.splice(g, ext)
    assert live.edits[(1, 2)] == 0
    net = {e: d for e, d in live.edits.items() if d}
    after = live.freeze()
    assert after == CycleEmbedding([0, 6, 2, 1, 3, 4, 5])
    assert net == {**dict.fromkeys(c.edge_set() - after.edge_set(), -1),
                   **dict.fromkeys(after.edge_set() - c.edge_set(), 1)}


# A splice the validator refuses, and the message of the splice's own check
# that refuses it when the validator lets everything through.  Each adds
# vertex n through base 0 along the path (n, end), and bridges ``bridged``.
SPLICE_BACKSTOPS = {
    # K_3: after 1 is bridged, 0 and 2 are a 2-cycle
    "two-cycle": (_cycle_graph_with(3, (3, 0), (3, 1)), 1, (1, 2),
                  "bridging 2 would leave a 2-cycle"),
    # C_4: bridging 2 joins 1 and 3, which are not adjacent
    "non-edge": (_cycle_graph_with(4, (4, 0), (4, 1)), 1, (2,),
                 "the splice adds the non-edge (1, 3)"),
    # C_8 with the chord 3-5: bridging 4 adds the chord, three steps from 0
    "distance-2": (_cycle_graph_with(8, (3, 5), (8, 0), (8, 1)), 1, (4,),
                   "new edge (3, 5) strays farther than distance 2 from base 0"),
    # C_6 with the chord 1-3: bridging 2 drops a vertex that no path
    # vertex puts back, so the cycle does not grow
    "size": (_cycle_graph_with(6, (1, 3), (6, 0), (6, 1)), 1, (2,),
             "splicing a validated extension did not produce a spanning cycle"),
    # C_4: a plain insertion ending at 2, which is not a cycle-neighbor of
    # 0; the one-step check refuses it and the checked insert must too
    "not-adjacent": (_cycle_graph_with(4, (4, 0), (4, 2)), 2, (),
                     "insertion ends 0 and 2 are not adjacent on the cycle"),
}


@pytest.mark.parametrize("kind", sorted(SPLICE_BACKSTOPS))
def test_splice_backstops_fire_past_an_accepting_validator(monkeypatch, kind):
    """``_SpliceCycle.splice`` re-checks what it builds.  With
    ``validate_extension`` accepting everything, each of its own checks
    refuses its bad splice with its message."""
    import clawham.extension as extension

    g, end, bridged, message = SPLICE_BACKSTOPS[kind]
    n = len(g) - 1
    c = CycleEmbedding(range(n))
    ext = PathExtension(ExtensionCase.ONE, n, 0, (n, end), bridged)
    assert extension.validate_extension(g, c, ext)
    monkeypatch.setattr(extension, "validate_extension", lambda g, c, ext: [])
    with pytest.raises(InternalConsistencyError) as exc:
        _SpliceCycle(c).splice(g, ext)
    assert str(exc.value) == message
    if kind == "size":
        assert exc.value.witness == ext.to_json_obj()


def test_replay_agrees_with_reference_on_tampered_logs():
    """Seeded edits of one splice record: both replays must reject or
    accept alike, at the same step.  The generated draws of about 50
    vertices add case-two and bridging steps to edit."""
    rng = random.Random(5)
    graphs = [graph_power(path_graph(14), 2), line_graph(complete_graph(6)).graph]
    for g in graphs + [g for _, g in generated_draws()[:3]]:
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


def _problems(validate, g, c, ext):
    try:
        return validate(g, c, ext)
    except DomainError as exc:
        return ("DomainError", str(exc))


def _tampered(rng: random.Random, ext: PathExtension, ids: list[int]) -> PathExtension:
    """``ext`` with one or two seeded edits of its fields."""
    obj = ext.to_json_obj()
    for _ in range(rng.randint(1, 2)):
        key = rng.choice(["base", "target", "reattach", "path", "path", "bridged", "case"])
        if key == "case":
            obj[key] = "two" if obj[key] == "one" else "one"
        elif key in ("path", "bridged"):
            seq = list(obj[key])
            edit = rng.choice(["set", "drop", "add"] if seq else ["add"])
            if edit == "set":
                seq[rng.randrange(len(seq))] = rng.choice(ids)
            elif edit == "drop":
                del seq[rng.randrange(len(seq))]
            else:
                seq.insert(rng.randint(0, len(seq)), rng.choice(ids))
            obj[key] = seq
        else:
            obj[key] = rng.choice(ids + [None] * (key == "reattach"))
    return PathExtension.from_json_obj(obj)


def test_validate_extension_matches_reference_on_tampered_steps():
    """At every step of three constructions, seeded edits of the step's
    extension (and the step itself) get the same problem list, in the same
    order, from ``validate_extension`` as from the version that looked each
    fact up again, on the frozen cycle and on the live one."""
    rng = random.Random(23)
    seen = set()
    for g in (graph_power(path_graph(14), 2), line_graph(complete_graph(6)).graph,
              complete_graph(7)):
        cert = finite_hamilton(g)
        ids = list(g.vertices) + [len(g) + 3]
        cycle = cert.initial_cycle
        for ext in cert.extensions:
            live = _SpliceCycle(cycle)
            for bad in [ext] + [_tampered(rng, ext, ids) for _ in range(60)]:
                want = _problems(reference_validate_extension, g, cycle, bad)
                assert _problems(validate_extension, g, cycle, bad) == want, bad
                assert _problems(validate_extension, g, live, bad) == want, bad
                seen.update(want if isinstance(want, list) else [want[0]])
            cycle = apply_path_extension(g, cycle, ext)
    assert len(seen) > 15


def _live_splice(g, cycle, ext):
    return cycle.splice(g, ext)


def _spliced(splice, g, c: CycleEmbedding, ext: PathExtension):
    """The vertices ``splice`` adds to a live copy of ``c`` and the cycle it
    leaves, or the type and message of what it raises."""
    cycle = _SpliceCycle(c)
    try:
        fresh = splice(g, cycle, ext)
    except Exception as exc:  # compared with the reference, not handled
        return type(exc), str(exc)
    return fresh, cycle.freeze()


def test_splice_matches_the_validate_then_apply_reference():
    """At every step of the constructions of P_30^2, L(K_6), K_7 and the
    generated draws, the step's extension and seeded edits of it splice
    alike through ``_SpliceCycle.splice`` and ``reference_splice``: the same
    added vertices and cycle, or the same exception and message.  Plain
    insertions (case one, bridging nothing), accepted or refused, and
    other shapes, accepted or refused, all occur."""
    rng = random.Random(41)
    kinds = Counter()
    graphs = [graph_power(path_graph(30), 2), line_graph(complete_graph(6)).graph,
              complete_graph(7)]
    for g in graphs + [g for _, g in generated_draws()]:
        cert = finite_hamilton(g)
        ids = list(g.vertices) + [len(g) + 3]
        cycle = cert.initial_cycle
        for ext in cert.extensions:
            for bad in [_tampered(rng, ext, ids) for _ in range(3)] + [ext]:
                got = _spliced(_live_splice, g, cycle, bad)
                assert got == _spliced(reference_splice, g, cycle, bad), bad
                plain = bad.case is ExtensionCase.ONE and not bad.bridged
                kinds[plain, isinstance(got[1], CycleEmbedding)] += 1
            cycle = got[1]  # the step itself came last
    assert min(kinds.values()) > 200, kinds


def test_shortcut_is_the_searchs_first_step(hypothesis_class_small):
    """When the target sees succ(base), the walk toward it inside N(base) is
    that one edge, and the extension is case one along it, bridging
    nothing; every other step walks further."""
    shortcuts = 0
    graphs = list(hypothesis_class_small) + [graph_power(path_graph(30), 2),
                                             line_graph(complete_graph(6)).graph]
    for g in graphs:
        cert = finite_hamilton(g)
        cycle = cert.initial_cycle
        for ext in cert.extensions:
            t, base = ext.target, ext.base
            up = cycle.succ(base)
            walk = shortest_path(g, t, {up}, allowed=g.neighbor_set(base))
            if g.has_edge(t, up):
                shortcuts += 1
                assert walk == [t, up]
                assert ext == PathExtension(ExtensionCase.ONE, t, base, (t, up), ())
            else:
                assert walk is None or len(walk) > 2
            cycle = apply_path_extension(g, cycle, ext)
    assert shortcuts > 100


def test_extension_equals_the_reference_walks(monkeypatch, hypothesis_class_small):
    """At every (target, base) pair the construction meets, the extension
    equals the one cut from the reference search's walk, with no shortcut:
    on the small class, P_30^2, L(K_6) and the generated draws.  Walks of
    one, two and more edges all occur."""
    real = extension.find_path_extension
    lengths = Counter()

    def compared(g, cycle, target, base):
        walk = reference_shortest_path(g, target, {cycle.succ(base)},
                                       allowed=g.neighbor_set(base))
        lengths[min(len(walk) - 1, 3)] += 1
        ext = real(g, cycle, target, base)
        assert ext == reference_find_path_extension(g, cycle, target, base)
        return ext

    monkeypatch.setattr(extension, "find_path_extension", compared)
    graphs = list(hypothesis_class_small) + [graph_power(path_graph(30), 2),
                                             line_graph(complete_graph(6)).graph]
    for g in graphs + [g for _, g in generated_draws()]:
        finite_hamilton(g)
    assert lengths[1] > 1000 and lengths[2] > 1000 and lengths[3] > 200, lengths


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
