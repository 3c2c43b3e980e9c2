from __future__ import annotations

import functools
import random
import re

import pytest

from clawham.constructions import complete_graph, cycle_graph
from clawham.engine import (
    GoodTupleContext,
    RoundRecord,
    RunState,
    check_extraction_conditions,
    check_good_tuple,
    cut_lemma_round,
    end_proxies,
    run,
    stable_edge_set,
)
from clawham.errors import (
    DomainError,
    HypothesisError,
    InternalConsistencyError,
    RadiusTooSmallError,
)
from clawham.extension import find_path_extension, truncate_extension
from clawham.graph import CycleEmbedding, FiniteGraph, cut, neighborhood_k
from clawham.presentations import Ball, GraphPresentation, preset
from clawham.separators import SeparatorDecomposition, split_cycle
from conftest import double_ray_square_truncation


def small_run(name="double-ray-square", rounds=2, radius=16):
    return run(preset(name), rounds=rounds, radius=radius)


# -- good tuples ---------------------------------------------------------------


def build_round_one_context():
    """A decomposition on the [-20, 20] strip: seed triangle at the center,
    grown over its 2-neighborhood so the deep-vertex precondition holds."""
    from clawham.extension import extend_to_cover

    g, ids = double_ray_square_truncation(-20, 20)
    seed = CycleEmbedding([ids[0], ids[1], ids[2]])
    pool = set(seed.order) | set(neighborhood_k(g, seed.order, 2))
    c, _ = extend_to_cover(g, seed, pool)
    boundary = [ids[i] for i in (-20, -19, 19, 20)]
    return g, split_cycle(g, c, boundary), ids


def test_empty_tuple_is_good_and_extends():
    """The empty tuple is good, and so is the result of a capture step."""
    from clawham.engine import _splice_step
    from clawham.extension import _SpliceCycle

    g, split, ids = build_round_one_context()
    c, dec = split.cycle, split.dec
    ctx = GoodTupleContext.build(g, split)
    assert check_good_tuple(ctx, c, {}) == []
    # acquire a separator vertex: the smallest one adjacent to the cycle
    target = min(set(dec.separator) & set(neighborhood_k(g, c.order, 1)))
    base = min(set(g.neighbors(target)) & c.vertex_set)
    ext = find_path_extension(g, c, target, base)
    unc = set(dec.separator)
    s = [p for p in ext.extension_path if p in unc][-1]
    ext = truncate_extension(g, c, ext, s)
    cycle = _SpliceCycle(c)
    _, problems = _splice_step(ctx, cycle, {}, ext)
    assert problems == []
    assert check_good_tuple(ctx, cycle.freeze(), {}) == []
    assert s in cycle


def test_good_extend_untouched_witness_sets_stay():
    """The round's cycle and witness sets form a good tuple for the
    round's context, built afresh."""
    g, split, ids = build_round_one_context()
    record = cut_lemma_round(g, split)
    ctx = GoodTupleContext.build(g, split)
    assert check_good_tuple(ctx, record.cycle, record.witness_sets) == []


def test_good_extend_rejects_stray_footprint():
    """A splice step refuses a footprint outside the allowed region."""
    from clawham.engine import _splice_step
    from clawham.extension import ExtensionCase, PathExtension, _SpliceCycle

    g, split, ids = build_round_one_context()
    c = split.cycle
    ctx = GoodTupleContext.build(g, split)
    # a target deep inside an infinite component is outside the allowed region
    deep = ids[12]
    ext = PathExtension(ExtensionCase.ONE, deep, ids[1], (deep, ids[2]), ())
    cycle = _SpliceCycle(c)
    with pytest.raises(DomainError, match="leaves the allowed region"):
        _splice_step(ctx, cycle, {}, ext)
    assert cycle.freeze() == c


def test_check_good_tuple_flags_violations():
    g, split, ids = build_round_one_context()
    dec = split.dec
    record = cut_lemma_round(g, split)
    ctx = GoodTupleContext.build(g, split)
    good = record.witness_sets
    j = min(good)
    # (b): a witness set must contain its whole component
    broken = dict(good)
    victim = max(dec.infinite_components[j - 1])
    broken[j] = good[j] - {victim}
    assert any("(b)" in p for p in check_good_tuple(ctx, record.cycle, broken))
    # (b)/(d): absorbing a deep vertex of the round's base cycle also fails
    stray = dict(good)
    deep = min(ctx.base_cycle.vertex_set - ctx.near_cycle_2)
    stray[j] = good[j] | {deep}
    problems = check_good_tuple(ctx, record.cycle, stray)
    assert any(p.startswith("(b)") or p.startswith("(c)") for p in problems)


@pytest.mark.parametrize("j", [0, 9])
def test_check_good_tuple_reports_a_set_of_no_part(j):
    """A witness set whose index names no separator part is a violation,
    neither an index error nor a check of another part."""
    g, split, _ = build_round_one_context()
    record = cut_lemma_round(g, split)
    ctx = GoodTupleContext.build(g, split)
    m = record.witness_sets[1]
    assert check_good_tuple(ctx, record.cycle, {j: m}) == [
        f"part {j}: no such separator part, of {split.dec.k}"
    ]


def test_extraction_reports_a_missing_witness_set():
    """A round without the set of a part some end proxy's chain passes
    through fails condition (iii), reported, not raised."""
    from dataclasses import replace

    state = small_run(rounds=2, radius=20)
    second = state.rounds[1]
    sets = {j: m for j, m in second.witness_sets.items() if j != 2}
    state = replace(state, rounds=[state.rounds[0], replace(second, witness_sets=sets)])
    rep = check_extraction_conditions(state)
    assert not rep.nested_chains.holds and not rep.all_pass()
    missing = [w for w in rep.nested_chains.witnesses if w[0] == "missing-set"]
    assert [w[2] for w in missing] == [((2, 2),)]


def test_cut_lemma_round_conclusions():
    g, split, ids = build_round_one_context()
    dec = split.dec
    record = cut_lemma_round(g, split)
    assert record.checks["containment"]
    assert record.checks["kept_deep_edges"]
    assert record.checks["new_edge_location"]
    assert record.checks["good_tuple"]
    want = set(dec.finite_component) | set(dec.separator) | set(
        neighborhood_k(g, dec.separator, 3)
    )
    assert want <= record.cycle.vertex_set
    # one witness set per part, each crossing the cycle exactly twice
    assert sorted(record.witness_sets) == list(range(1, dec.k + 1))
    for j, m in record.witness_sets.items():
        crossing = set(cut(g, m)) & record.cycle.edge_set()
        assert len(crossing) == 2


@pytest.mark.parametrize("near2, kept", [({0, 1, 2}, False), ({5}, True)])
def test_kept_deep_edges_fails_on_a_dropped_deep_edge(near2, kept):
    """A hand-built round: the new cycle inserts 8 between 5 and 6 of the
    base cycle 0..7, dropping the base edge (5, 6).  That edge is deep
    unless an end is in ``near2``; no run of the presets or bench oracles
    drops one.  The conclusion and the scan of every base edge agree."""
    from clawham.engine import _round_conclusions
    from helpers import reference_kept_deep_edges

    g = FiniteGraph(range(9), [(i, (i + 1) % 8) for i in range(8)] + [(5, 8), (6, 8)])
    c = CycleEmbedding(range(8))
    new = CycleEmbedding([0, 1, 2, 3, 4, 5, 8, 6, 7])
    ctx = GoodTupleContext(
        g, c, SeparatorDecomposition((), tuple(range(9)), (), ()),
        near_cycle_2=frozenset(near2),
        around_finite_4=frozenset(range(9)),
        component_sets=(),
        part_zones=(),
    )
    checks = _round_conclusions(ctx, new, {})
    assert checks["kept_deep_edges"] is kept
    assert reference_kept_deep_edges(c.edge_set(), new.edge_set(), ctx.near_cycle_2) is kept


def test_cut_lemma_requires_deep_vertex():
    g, ids = double_ray_square_truncation(-8, 8)
    c = CycleEmbedding([ids[0], ids[1], ids[2]])
    boundary = [ids[i] for i in (-8, -7, 7, 8)]
    with pytest.raises(DomainError):
        cut_lemma_round(g, split_cycle(g, c, boundary))  # bare triangle: nothing 3 away from N(c)


# -- the run loop ---------------------------------------------------------------


def test_run_zero_rounds():
    state = small_run(rounds=0)
    assert state.rounds == []
    assert len(state.cycles()) == 1
    # the initial cycle covers the seed's 2-neighborhood
    g = state.graph
    seed_pool = set(state.initial_cycle.order)
    assert set(neighborhood_k(g, [0], 1)) <= seed_pool


@pytest.mark.parametrize("rounds, calls", [(3, 1), (0, 0)])
def test_run_checks_end_stability_once(monkeypatch, rounds, calls):
    """The ball never changes during a run, so its stability gate runs once,
    and not at all when no round is requested."""
    import clawham.engine as engine

    seen = []
    gate = engine._stability_gate
    monkeypatch.setattr(engine, "_stability_gate", lambda ball, least: seen.append(gate(ball, least)))
    small_run(rounds=rounds, radius=30)
    assert len(seen) == calls


def test_run_cycles_nest_and_grow():
    state = small_run(rounds=2)
    cycles = state.cycles()
    for a, b in zip(cycles, cycles[1:]):
        assert a.vertex_set < b.vertex_set


def test_run_ray_square_single_end():
    state = run(preset("ray-square"), rounds=3, radius=40)
    assert [r.dec.k for r in state.rounds] == [1, 1, 1]
    rep = check_extraction_conditions(state)
    assert rep.all_pass()


def test_run_rejects_bad_interior():
    # hub and 6-cycle as an "infinite" presentation truncates to itself and
    # has a claw at the hub, which sits in the interior
    g = {0: (1, 2, 3, 4, 5, 6)}
    for i in range(1, 7):
        g[i] = tuple(sorted({0, 1 + i % 6, 1 + (i - 2) % 6}))
    pres = GraphPresentation("hub6", lambda v: g[v], 0)
    with pytest.raises(HypothesisError):
        run(pres, rounds=0, radius=9)


def _hub(k: int, rim_edges) -> dict:
    """Vertex 0 joined to 1..k, plus ``rim_edges`` among them."""
    g = {0: tuple(range(1, k + 1))}
    for i in range(1, k + 1):
        g[i] = tuple(sorted({0} | {b for a, b in rim_edges if a == i}
                            | {a for a, b in rim_edges if b == i}))
    return g


def _cliques(*sides) -> list:
    return [(a, b) for side in sides for i, a in enumerate(side) for b in side[i + 1:]]


@pytest.mark.parametrize("k, rim_edges, cover, predicate, witness, message", [
    # an 8-wheel: the split fails and the scan names the claw
    (8, [(i, i % 8 + 1) for i in range(1, 9)], (False, None), "claw_free",
     (0, 1, 4, 6), "induced claw at interior vertex 1"),
    # N(hub) is two 4-cliques with no edge between them: the split succeeds
    # and decides that N(hub) is disconnected
    (8, _cliques((1, 2, 3, 4), (5, 6, 7, 8)), (True, False), "locally_connected",
     tuple(range(9)), "disconnected neighborhood at interior vertex 1"),
    # two triangles below the cover's gate: the flood fill decides
    (6, _cliques((1, 2, 3), (4, 5, 6)), None, "locally_connected",
     tuple(range(7)), "disconnected neighborhood at interior vertex 1"),
], ids=["claw-degree-8", "two-4-cliques", "two-triangles"])
def test_run_rejects_bad_interior_either_side_of_the_cover_gate(
        k, rim_edges, cover, predicate, witness, message):
    """Rooted at rim vertex 1, the finite graph truncates to itself; vertex
    id 0 passes and the hub, id 1, is the first interior vertex that fails."""
    from clawham.predicates import _COVER_MIN_DEGREE, _two_clique_split

    g = _hub(k, rim_edges)
    pres = GraphPresentation("hub", lambda v: g[v], 1)
    ball = pres.extract_ball(9)
    assert ball.labels[:2] == (1, 0) and ball.interior == tuple(range(k + 1))
    assert (k >= _COVER_MIN_DEGREE) == (cover is not None)
    if cover is not None:
        assert _two_clique_split(ball.graph, 1) == cover
    with pytest.raises(HypothesisError) as exc:
        run(pres, rounds=0, radius=9)
    assert (exc.value.predicate, exc.value.witness, str(exc.value)) == (
        predicate, witness, message)


def test_radius_too_small_is_reported_with_suggestion():
    with pytest.raises(RadiusTooSmallError) as exc:
        run(preset("double-ray-square"), rounds=3, radius=9)
    assert exc.value.suggested_radius > 9


@pytest.mark.parametrize(
    "kind", ["lost-vertex", "failing-conclusion", "repeated-spine", "zone-on-cycle"]
)
def test_run_rejects_a_faulty_round(monkeypatch, kind):
    """``run``'s checks of a round's record fire on a round that lost a
    vertex of its input cycle or recorded a failing conclusion, and
    ``cut_lemma_round``'s own checks fire on a part-tree spine that repeats
    a vertex and on a part zone that its component does not reach."""
    from helpers import inject_round_fault

    message = inject_round_fault(monkeypatch, kind)
    with pytest.raises(InternalConsistencyError) as exc:
        small_run(rounds=2)
    assert str(exc.value) == message


def test_cycle_neighborhood_on_the_boundary_is_a_radius_error():
    """At radius 4 the initial cycle's neighborhood reaches the boundary
    layer of ``ray-square``.  The depth rule rejects the round before
    ``split_cycle`` would refuse the cycle, and suggests 4 + 5."""
    with pytest.raises(RadiusTooSmallError) as exc:
        run(preset("ray-square"), 1, 4)
    assert str(exc.value).startswith("round 1: the construction reached depth 4 of radius 4")
    assert exc.value.suggested_radius == 9
    assert len(run(preset("ray-square"), 1, 9).rounds) == 1


# The least radius at which k rounds run, unchanged by the depth rule: 4k + 5,
# except that tripod-line's end-stability gate rejects R = 9 for one round.
def _least_radius(name, k):
    return 10 if (name, k) == ("tripod-line", 1) else 4 * k + 5


@pytest.mark.parametrize(
    "name", ["double-ray-square", "ray-square", "ladder-line-graph", "custom-oracle", "tripod-line"]
)
def test_runs_pass_from_the_least_radius_and_suggestions_finish_them(name):
    """A run of k rounds succeeds exactly from the least radius on.  Below
    it, the depth rule suggests exactly 4k + 5 and the end-stability gate
    max(2R, 4k + 5), and the run completes at the suggested radius."""
    finished = set()  # (k, radius) pairs already re-run
    for k in (1, 2, 3, 5):
        least = _least_radius(name, k)
        for radius in range(6, least + 2):
            try:
                # a bench oracle answers only within the radius it was built
                # for, so this also checks that the run reads no further
                run(_presentation(name, radius), k, radius)
            except RadiusTooSmallError as exc:
                assert radius < least
                suggested = exc.suggested_radius
                if str(exc).startswith("end proxies"):
                    assert suggested == max(2 * radius, 4 * k + 5)
                else:
                    assert re.match(r"round \d+: the construction reached depth", str(exc))
                    assert suggested == 4 * k + 5
                if (k, suggested) not in finished:
                    assert len(run(_presentation(name, suggested), k, suggested).rounds) == k
                    finished.add((k, suggested))
            else:
                assert radius >= least


@pytest.mark.parametrize(
    "name", ["double-ray-square", "ray-square", "ladder-line-graph", "tri-lattice-line", "tripod-line"]
)
def test_suggestion_from_a_clipped_ball_finishes_the_run(name):
    """At radius 5 or less the ball may clip the neighborhood of the initial
    cycle, which round 1 reads.  The suggestion is still the one that
    finishes the run, 4k + 5.  Such a run reads its presentation past
    the radius asked for, so a bench oracle here answers to radius 40."""
    pres = _presentation(name, 40)
    for k in (2, 3):
        for radius in range(1, 6):
            with pytest.raises(RadiusTooSmallError) as exc:
                run(pres, k, radius)
            assert exc.value.suggested_radius == 4 * k + 5, (k, radius)
        assert len(run(pres, k, 4 * k + 5).rounds) == k


def test_separator_gap_at_least_four():
    state = small_run(rounds=2, radius=20)
    g = state.graph
    from clawham.graph import bfs_distances

    sep1 = state.rounds[0].dec.separator
    sep2 = state.rounds[1].dec.separator
    dist = bfs_distances(g, sep1)
    assert min(dist[v] for v in sep2) >= 4


def test_end_proxies_double_ray():
    ball = preset("double-ray-square").extract_ball(10)
    proxies = end_proxies(ball)
    assert len(proxies) == 2


# -- extraction checking ---------------------------------------------------------


def test_extraction_all_pass_on_engine_output():
    state = small_run(rounds=2, radius=20)
    rep = check_extraction_conditions(state)
    assert rep.all_pass()
    assert rep.stable_region
    # stable edges restricted to the region give degree 2 everywhere
    stable = set(rep.stable_edges)
    for v in rep.stable_region:
        assert sum(1 for e in stable if v in e) == 2


@pytest.mark.parametrize("rounds, radius, message", [
    (2.0, 30, "rounds must be an integer, got 2.0"),  # once a bare TypeError
    (2, 30.0, "radius must be an integer, got 30.0"),  # once logged as 30.0
])
def test_run_refuses_rounds_or_radius_that_is_not_an_int(rounds, radius, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        run(preset("double-ray-square"), rounds, radius)


def test_extraction_needs_two_rounds():
    state = small_run(rounds=1, radius=20)
    with pytest.raises(DomainError):
        check_extraction_conditions(state)


def _dummy_ball(g: FiniteGraph) -> Ball:
    return Ball(
        graph=g,
        boundary=(),
        interior=tuple(g.vertices),
        labels=tuple(g.vertices),
        radius=1,
        depths=tuple(0 for _ in g.vertices),
        presentation_name="hand-built",
    )


def _dummy_dec(g: FiniteGraph) -> SeparatorDecomposition:
    return SeparatorDecomposition(
        separator=(),
        finite_component=(),
        infinite_components=(),
        parts=(),
    )


def _hand_state(g, cycles, witness_sets_per_round):
    rounds = []
    for i, (cyc, ws) in enumerate(zip(cycles[1:], witness_sets_per_round), start=1):
        rounds.append(
            RoundRecord(
                index=i,
                dec=_dummy_dec(g),
                part_order=tuple(sorted(ws)),
                cycle=cyc,
                witness_sets={j: frozenset(m) for j, m in ws.items()},
                extension_count=0,
            )
        )
    return RunState(_dummy_ball(g), cycles[0], rounds)


def _flicker_state():
    """K_4 with the cycles a, a, b: the edges settled by the first two
    cycles are lost by the third."""
    c_a = CycleEmbedding([0, 1, 2, 3])
    c_b = CycleEmbedding([0, 2, 1, 3])
    return _hand_state(complete_graph(4), [c_a, c_a, c_b], [{}, {}]), c_a, c_b


def _four_crossing_state():
    """The 8-ring with a witness set whose cut the ring crosses four times."""
    g = cycle_graph(8)
    ring = CycleEmbedding(list(range(8)))
    m = frozenset({1, 2, 5})
    return _hand_state(g, [ring, ring, ring], [{1: m}, {1: m}]), g, m


def test_hand_built_edge_flicker_fails_condition_iv():
    state, c_a, c_b = _flicker_state()
    rep = check_extraction_conditions(state)
    assert not rep.edge_persistence.holds
    # the witness names a settled edge that later vanished
    (i, j, lost), *_ = rep.edge_persistence.witnesses
    assert (i, j) == (0, 1)
    assert set(lost) <= c_a.edge_set() - c_b.edge_set()
    assert rep.vertex_persistence.holds


def test_hand_built_four_crossings_fail_condition_v():
    state, g, m = _four_crossing_state()
    rep = check_extraction_conditions(state)
    assert not rep.two_edge_cuts.holds
    (r, j, kind, edges), *_ = rep.two_edge_cuts.witnesses
    assert kind == "count"
    assert len(edges) == 4
    assert set(edges) == set(cut(g, m))


def test_stable_edge_set_definition():
    c_a = CycleEmbedding([0, 1, 2, 3])
    c_b = CycleEmbedding([0, 2, 1, 3])
    stable = stable_edge_set([c_a, c_b, c_a])
    assert stable == c_a.edge_set() & c_a.edge_set() | (c_a.edge_set() & c_b.edge_set())


def _random_cycle_states(seed=11, count=200):
    """Hand-built states on K_7 whose cycles come and go at random, so that
    edges settle, flicker and return."""
    rng = random.Random(seed)
    g = complete_graph(7)
    for _ in range(count):
        cycles = []
        for _ in range(rng.randint(3, 7)):
            order = rng.sample(range(7), rng.randint(3, 7))
            cycles.append(CycleEmbedding(order))
        yield _hand_state(g, cycles, [{} for _ in cycles[1:]]), cycles


def test_condition_iv_matches_the_pairwise_reference_on_random_cycles():
    """Condition (iv) from a running union of the earlier cycles' edges
    reports the same pairs and lost edges as the comparison of every pair,
    and the stable edges are the edges on at least two cycles."""
    from helpers import reference_check_extraction_conditions, reference_stable_edge_set

    failing = several = 0
    for state, cycles in _random_cycle_states():
        report = check_extraction_conditions(state)
        assert report.to_json_obj() == reference_check_extraction_conditions(state).to_json_obj()
        assert stable_edge_set(cycles) == reference_stable_edge_set(cycles)
        witnesses = report.edge_persistence.witnesses
        failing += bool(witnesses)
        several += len(witnesses) > 1
    assert failing > 20 and several > 5, (failing, several)


def test_hand_built_reports_match_the_pairwise_reference():
    """The flicker, four-crossing and straddling-proxy states get the
    reference's extraction reports."""
    from helpers import reference_check_extraction_conditions

    states = [_flicker_state()[0], _four_crossing_state()[0]]
    states += _proxy_variants(small_run(rounds=3, radius=30))
    for state in states:
        assert (
            check_extraction_conditions(state).to_json_obj()
            == reference_check_extraction_conditions(state).to_json_obj()
        )
    assert len(states) == 11


def test_run_log_serialization():
    state = small_run(rounds=2, radius=20)
    lines = state.to_json_lines()
    assert lines[0]["radius"] == 20
    assert len(lines) == 3
    for rec in lines[1:]:
        assert {"round", "decomposition", "cycle", "witness_sets"} <= set(rec)


def test_deep_vertex_gate_matches_the_distance_rule():
    """The round precondition fails exactly when every cycle vertex is
    within distance 2 of the cycle neighborhood.  It reads the context's
    ``near_cycle_2``; the decomposition, which the gate does not read, is
    the trivial one of an empty boundary."""
    from clawham.engine import _assert_deep_vertex
    from clawham.extension import extend_to_cover, shortest_cycle_through
    from helpers import reference_bfs_distances

    def gate(g, c):
        _assert_deep_vertex(GoodTupleContext.build(g, split_cycle(g, c, ())))

    g, ids = double_ray_square_truncation(-15, 15)
    outcomes = set()
    for hi in range(2, 14):
        goal = [ids[i] for i in range(hi)]
        c, _ = extend_to_cover(g, shortest_cycle_through(g, ids[0]), goal)
        dist = reference_bfs_distances(g, neighborhood_k(g, c.order, 1))
        shallow = max(dist.get(v, len(g)) for v in c.order) < 3
        outcomes.add(shallow)
        if shallow:
            with pytest.raises(DomainError, match="distance 3"):
                gate(g, c)
        else:
            gate(g, c)
    assert outcomes == {True, False}
    with pytest.raises(DomainError, match="already spans its component"):
        gate(complete_graph(4), CycleEmbedding([0, 1, 2, 3]))


# -- the step check against the full check --------------------------------------


def _letters(problems) -> set[str]:
    """The property letters ``a``..``f`` a list of violations names."""
    return {p[1] for p in problems}


@pytest.fixture
def step_verdicts(monkeypatch):
    """Run every step check as usual, and after it the full
    ``check_good_tuple`` on the frozen cycle.  Records one
    ``(step letters, full letters)`` pair per step in ``steps``, and the
    extension of each checked splice, as it reaches the footprint guard, in
    ``exts``.  Also records, per step in ``logs``, whether the cycle's net
    edit log (its entries that are not 0) is the edge-set difference of the
    frozen cycles before and after the step: the round's input cycle, as
    the round builds its live cycle, or the cycle after the step before;
    and in ``zeros``, whether the log held an edge that nets to 0."""
    from types import SimpleNamespace

    import clawham.engine as engine

    seen = SimpleNamespace(steps=[], exts=[], logs=[], zeros=[], before=None)
    check, footprint = engine._good_step, engine._footprint

    class Noted(engine._SpliceCycle):
        def __init__(self, c):
            super().__init__(c)
            seen.before = c

    def checked(ctx, cycle, witness, *args):
        problems = check(ctx, cycle, witness, *args)
        after = cycle.freeze()
        frozen = {j: frozenset(m) for j, m in witness.items()}
        full = check_good_tuple(ctx, after, frozen)
        seen.steps.append((_letters(problems), _letters(full)))
        old, new = seen.before.edge_set(), after.edge_set()
        diff = {**dict.fromkeys(old - new, -1), **dict.fromkeys(new - old, 1)}
        seen.logs.append({e: d for e, d in cycle.edits.items() if d} == diff)
        seen.zeros.append(0 in cycle.edits.values())
        seen.before = after
        return problems

    def noted(ctx, ext):
        seen.exts.append(ext)
        return footprint(ctx, ext)

    monkeypatch.setattr(engine, "_SpliceCycle", Noted)
    monkeypatch.setattr(engine, "_good_step", checked)
    monkeypatch.setattr(engine, "_footprint", noted)
    return seen


def _presentation(name, radius, seed=7):
    from clawham.presentations import PRESET_NAMES
    from helpers import bench_oracles, cactus_line_presentation

    if name in PRESET_NAMES:
        return preset(name)
    if name == "cactus-line":
        return cactus_line_presentation()
    return bench_oracles().presentation(name, seed, radius)[0]


DIFFERENTIAL_RUNS = [
    ("double-ray-square", 70, 5, 7),
    ("ray-square", 70, 5, 7),
    ("ladder-line-graph", 70, 5, 7),
    ("custom-oracle", 70, 5, 7),
    ("tri-lattice-line", 13, 2, 7),
    # seed 2 is the one run here in which a splice sheds part of a set
    ("tri-lattice-line", 13, 2, 2),
    ("tripod-line", 40, 3, 7),
]

PART_RUNS = [
    ("double-ray-square", 70, 5),
    ("ray-square", 70, 5),
    ("ladder-line-graph", 70, 5),
    ("custom-oracle", 70, 5),
    ("tri-lattice-line", 13, 2),
    ("tripod-line", 40, 3),
    # infinitely many ends: k = 14 parts in the round; the stability gate
    # rejects every radius of this class, so it is bypassed
    ("cactus-line", 9, 1),
]


def _assert_steps_match(monkeypatch, verdicts, name, radius, rounds, seed=7):
    """Run, and require one step per checked splice and per part, each
    found good by the step check and by the full check alike, and each
    with a net edit log equal to its edge-set difference.  Every run has
    steps whose log holds an edge that nets to 0: removed and added back,
    or added and removed again."""
    import clawham.engine as engine

    if name == "cactus-line":
        monkeypatch.setattr(engine, "_stability_gate", lambda ball, least: None)
    state = run(_presentation(name, radius, seed), rounds, radius)
    assert verdicts.exts
    assert len(verdicts.steps) == len(verdicts.exts) + sum(r.dec.k for r in state.rounds)
    for i, (by_step, full) in enumerate(verdicts.steps):
        assert by_step == full == set(), i
    assert all(verdicts.logs)
    assert any(verdicts.zeros)


@pytest.mark.parametrize("name, radius, rounds, seed", DIFFERENTIAL_RUNS)
def test_incremental_check_matches_full_check(
    monkeypatch, step_verdicts, name, radius, rounds, seed
):
    _assert_steps_match(monkeypatch, step_verdicts, name, radius, rounds, seed)


@pytest.mark.parametrize("name, radius, rounds", PART_RUNS)
def test_part_check_matches_full_check(monkeypatch, step_verdicts, name, radius, rounds):
    _assert_steps_match(monkeypatch, step_verdicts, name, radius, rounds)


def test_full_check_runs_once_per_round(monkeypatch):
    import clawham.engine as engine

    calls = []
    full = engine.check_good_tuple
    monkeypatch.setattr(
        engine, "check_good_tuple", lambda *args: calls.append(1) or full(*args)
    )
    state = small_run(rounds=5, radius=70)
    assert len(calls) == len(state.rounds) == 5


def _crossing_verdicts(ctx, cycle, witness):
    """The (c) violations of the full check, and those the membership scan
    over the whole cycle order gives, as messages."""
    from helpers import reference_cut_crossings

    by_check = [p for p in check_good_tuple(ctx, cycle, witness) if p.startswith("(c)")]
    by_scan = [
        f"(c) part {j}: cycle crosses the witness cut {x} times"
        for j in sorted(witness)
        if (x := reference_cut_crossings(cycle, witness[j])) != 2
    ]
    return by_check, by_scan


@pytest.mark.parametrize("name, radius, rounds", PART_RUNS)
def test_cut_crossings_match_the_order_scan(monkeypatch, name, radius, rounds):
    """After every step of the run, property (c) read from each set's cycle
    vertices agrees with the scan over the whole cycle order."""
    import clawham.engine as engine

    verdicts = []
    step = engine._good_step

    def checked(ctx, cycle, witness, *args):
        problems = step(ctx, cycle, witness, *args)
        frozen = {j: frozenset(m) for j, m in witness.items()}
        verdicts.append(_crossing_verdicts(ctx, cycle.freeze(), frozen))
        return problems

    monkeypatch.setattr(engine, "_good_step", checked)
    if name == "cactus-line":
        monkeypatch.setattr(engine, "_stability_gate", lambda ball, least: None)
    run(_presentation(name, radius), rounds, radius)
    assert verdicts
    assert all(by_check == by_scan == [] for by_check, by_scan in verdicts)


def test_four_cut_crossings_are_counted_exactly():
    """A set that loses a cycle vertex inside its arc is crossed four times,
    by either count."""
    import random

    g, split, _ = build_round_one_context()
    record = cut_lemma_round(g, split)
    ctx = GoodTupleContext.build(g, split)
    cycle, witness = record.cycle, dict(record.witness_sets)
    j = min(witness)
    inner = sorted(
        v for v in witness[j] & cycle.vertex_set
        if cycle.succ(v) in witness[j] and cycle.pred(v) in witness[j]
    )
    witness[j] = witness[j] - {random.Random(3).choice(inner)}
    by_check, by_scan = _crossing_verdicts(ctx, cycle, witness)
    assert by_check == by_scan == [f"(c) part {j}: cycle crosses the witness cut 4 times"]


def test_differential_runs_reach_every_update_case(monkeypatch):
    """The runs above absorb, shed part of a set, and leave sets alone."""
    import clawham.engine as engine

    cases = set()
    rule = engine._witness_rule

    def classify(witness, footprint, z):
        for m in witness.values():
            cases.add("absorb" if z in m else "shed" if footprint & m else "untouched")
        rule(witness, footprint, z)

    monkeypatch.setattr(engine, "_witness_rule", classify)
    for name, radius, rounds, seed in DIFFERENTIAL_RUNS:
        run(_presentation(name, radius, seed), rounds, radius)
    assert cases == {"absorb", "shed", "untouched"}


def _corrupt_first(monkeypatch, applies, corrupt):
    """Patch the witness rule: at the first splice where ``applies(m, F, z)``
    holds for some set m, apply the honest rule and then ``corrupt(m, F)``.
    Returns a list that receives the corrupted set's index."""
    import clawham.engine as engine

    hit = []
    rule = engine._witness_rule

    def corrupted(witness, footprint, z):
        pick = None if hit else next(
            (j for j, m in witness.items() if applies(m, footprint, z)), None
        )
        rule(witness, footprint, z)
        if pick is not None:
            hit.append(pick)
            corrupt(witness[pick], footprint)

    monkeypatch.setattr(engine, "_witness_rule", corrupted)
    return hit


# kind -> (when it applies to a set m, given the graph, the footprint F and
# the endvertex z; how it changes m after the honest rule, given F and the
# extension's target t; the property letter it breaks)
CORRUPTIONS = {
    # m misses F and every neighbor of F, yet absorbs F: m falls apart
    "absorb-where-shed": (
        lambda g, m, f, z: not f & m and not any(w in m for v in f for w in g.neighbors(v)),
        lambda m, f, t: m.update(f),
        "e",
    ),
    # m absorbs F but drops the target, whose cycle-neighbors lie in F ⊆ m
    "drop-target": (lambda g, m, f, z: z in m, lambda m, f, t: m.discard(t), "c"),
    # m misses F but gains the target, whose cycle-neighbors lie in F
    "flip-target": (lambda g, m, f, z: not f & m, lambda m, f, t: m.add(t), "c"),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_witness_update_is_flagged(monkeypatch, step_verdicts, kind):
    """A wrong witness update is flagged by the step check and by the full
    check alike, and the round raises at that splice."""
    applies, corrupt, want = CORRUPTIONS[kind]
    if kind == "drop-target":
        # only the tri-lattice runs have a set that absorbs a footprint
        g, pres = None, _presentation("tri-lattice-line", 13)

        def build():
            run(pres, 2, 13)
    else:
        g, split, _ = build_round_one_context()

        def build():
            cut_lemma_round(g, split)
    # the footprint guard sees the extension before the rule runs
    hit = _corrupt_first(
        monkeypatch,
        lambda m, f, z: applies(g, m, f, z),
        lambda m, f: corrupt(m, f, step_verdicts.exts[-1].target),
    )
    with pytest.raises(InternalConsistencyError, match="broke the witness properties"):
        build()
    assert len(hit) == 1
    by_step, full = step_verdicts.steps[-1]
    assert want in by_step
    assert by_step == full
    assert all(inc == full == set() for inc, full in step_verdicts.steps[:-1])


def test_shedding_an_articulation_vertex_is_flagged():
    """A set whose articulation vertex the splice sheds is disconnected, and
    both checks say so.  The state is built by hand: no run of the presets
    or bench oracles has a footprint vertex that cuts a witness set.

    Cycle 0..5, witness set {1, 2, 10, 11} with the component {10, 11}
    hanging off 2.  Inserting 6 between 2 and 3 through base 2 ends at
    3, outside the set, so the set sheds 2 and splits into {1} and {10, 11}.
    """
    from clawham.engine import _splice_step
    from clawham.extension import ExtensionCase, PathExtension, _SpliceCycle

    g = FiniteGraph(
        range(12),
        [(i, (i + 1) % 6) for i in range(6)] + [(2, 6), (3, 6), (2, 10), (10, 11)],
    )
    c = CycleEmbedding(range(6))
    dec = SeparatorDecomposition(
        separator=(1,), finite_component=(2, 3, 6), infinite_components=((10, 11),),
        parts=((1,),),
    )
    ctx = GoodTupleContext(
        g, c, dec,
        near_cycle_2=frozenset({1, 2, 3}),
        around_finite_4=frozenset({0, 1, 2, 3, 4, 5, 6}),
        component_sets=tuple(map(frozenset, dec.infinite_components)),
        part_zones=(frozenset(),),
    )
    witness = {1: {1, 2, 10, 11}}
    assert check_good_tuple(ctx, c, witness) == []
    cycle = _SpliceCycle(c)
    ext = PathExtension(ExtensionCase.ONE, 6, 2, (6, 3), ())
    _, problems = _splice_step(ctx, cycle, witness, ext)
    assert witness == {1: {1, 10, 11}}
    full = check_good_tuple(ctx, cycle.freeze(), witness)
    assert _letters(problems) == _letters(full) == {"e"}


def test_shedding_and_regaining_a_footprint_vertex_is_flagged(monkeypatch):
    """A set that sheds part of a footprint and, against the rule, gains a
    footprint vertex with no neighbor in the rest of the set falls apart;
    both checks say so.

    Cycle 0..7 with the chord 3-5.  The extension from base 0 runs 8, 9
    and the bridged 4 to 1, giving 0-8-9-4-1-2-3-5-6-7.  The set
    {4, 5, 10, 11}, with the component {10, 11} hanging off 5, misses the
    endvertex 1, so it sheds 4; the corrupted rule then adds the target 8.
    """
    import clawham.engine as engine
    from clawham.extension import ExtensionCase, PathExtension, _SpliceCycle

    rule = engine._witness_rule
    monkeypatch.setattr(
        engine, "_witness_rule", lambda witness, f, z: rule(witness, f, z) or witness[1].add(8)
    )
    g = FiniteGraph(
        range(12),
        [(i, (i + 1) % 8) for i in range(8)]
        + [(3, 5), (0, 8), (8, 9), (0, 9), (9, 4), (0, 4), (4, 1), (5, 10), (10, 11)],
    )
    c = CycleEmbedding(range(8))
    dec = SeparatorDecomposition(
        separator=(5,), finite_component=(0, 1, 4, 8, 9), infinite_components=((10, 11),),
        parts=((5,),),
    )
    ctx = GoodTupleContext(
        g, c, dec,
        near_cycle_2=frozenset({0, 1, 4, 5}),
        around_finite_4=frozenset(range(10)),
        component_sets=tuple(map(frozenset, dec.infinite_components)),
        part_zones=(frozenset(),),
    )
    witness = {1: {4, 5, 10, 11}}
    assert check_good_tuple(ctx, c, witness) == []
    cycle = _SpliceCycle(c)
    ext = PathExtension(ExtensionCase.ONE, 8, 0, (8, 9, 4, 1), (4,))
    _, problems = engine._splice_step(ctx, cycle, witness, ext)
    assert cycle.freeze() == CycleEmbedding([0, 8, 9, 4, 1, 2, 3, 5, 6, 7])
    assert witness == {1: {5, 8, 10, 11}}
    full = check_good_tuple(ctx, cycle.freeze(), witness)
    assert _letters(problems) == _letters(full) == {"c", "e"}


def test_bridge_edge_that_crosses_a_witness_cut_is_counted():
    """A bridge edge need not touch the footprint.  Here bridging 4 joins 3
    (in the set) to 5 (outside it), and the crossing moves from (3, 4) to
    (3, 5): still 2, by both checks.

    Cycle 0..7 with the chord 3-5; the extension inserts 8 and re-routes 4
    between base 0 and its successor 1.  The set {2, 3, 10} misses the
    footprint {0, 1, 4, 8} and stays as it is.
    """
    from clawham.engine import _splice_step
    from clawham.extension import ExtensionCase, PathExtension, _SpliceCycle

    g = FiniteGraph(
        range(11),
        [(i, (i + 1) % 8) for i in range(8)]
        + [(0, 8), (0, 4), (4, 8), (1, 4), (3, 5), (3, 10)],
    )
    c = CycleEmbedding(range(8))
    dec = SeparatorDecomposition(
        separator=(2,), finite_component=(0, 1, 4, 8), infinite_components=((10,),),
        parts=((2,),),
    )
    ctx = GoodTupleContext(
        g, c, dec,
        near_cycle_2=frozenset(range(5)),
        around_finite_4=frozenset(range(10)),
        component_sets=tuple(map(frozenset, dec.infinite_components)),
        part_zones=(frozenset(),),
    )
    witness = {1: {2, 3, 10}}
    assert check_good_tuple(ctx, c, witness) == []
    cycle = _SpliceCycle(c)
    ext = PathExtension(ExtensionCase.ONE, 8, 0, (8, 4, 1), (4,))
    _, problems = _splice_step(ctx, cycle, witness, ext)
    assert cycle.freeze() == CycleEmbedding([0, 8, 4, 1, 2, 3, 5, 6, 7])
    assert problems == check_good_tuple(ctx, cycle.freeze(), witness) == []


# -- part steps, hand-built ------------------------------------------------------


def _part_state(held_by_older, eleven_on_cycle=False):
    """A hand-built round at the boundary of part B, after its second
    capture.  No run of the presets or bench oracles has a set that absorbs
    a part, so the absorbing case is built here.

    The finite component is the base cycle 0-1-2-3 plus 13, off the cycle.
    Part A = {4, 12} with component {5, 6} is done; part B = {7, 8, 11} has
    the component {9, 10, 14}.  The cycle is 0-4-5-6-12-1-2-7-8-3 with s = 7 and
    t = 8 captured.  The older set of part A is {4, 5, 6, 12} plus
    ``held_by_older``, a run of cycle vertices after 12.  With
    ``eleven_on_cycle`` the graph has the edge 11-0 and the cycle already
    runs 3-11-0.  Returns the context, the cycle, the sets and the index of
    part B.
    """
    from clawham.extension import _SpliceCycle

    g = FiniteGraph(
        range(15),
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 12), (12, 1),
         (2, 7), (7, 8), (8, 3), (7, 9), (9, 14), (14, 10), (9, 10), (10, 8),
         (10, 11), (11, 8), (11, 3), (7, 14), (9, 8), (9, 11), (13, 12), (13, 1)]
        + [(11, 0)] * eleven_on_cycle,
    )
    split = split_cycle(g, CycleEmbedding([0, 1, 2, 3]), [6, 9])
    dec = split.dec
    assert dec.separator == (4, 7, 8, 11, 12)
    ctx = GoodTupleContext.build(g, split)
    a, b = dec.part_of_vertex(4), dec.part_of_vertex(7)
    order = [0, 4, 5, 6, 12, 1, 2, 7, 8, 3] + [11] * eleven_on_cycle
    cycle = _SpliceCycle(CycleEmbedding(order))
    witness = {a: {4, 5, 6, 12, *held_by_older}}
    assert check_good_tuple(ctx, cycle.freeze(), witness) == []
    return ctx, cycle, witness, b


def _part_boundary(ctx, cycle, witness, ell, splices):
    """Apply the part's splices, each a path extension or an insertion
    ``(u, v, seq)``, as one step logged by the cycle, then end the step
    with the part rule; returns the step check's letters and the full
    check's."""
    from clawham.engine import _part_step
    from clawham.extension import PathExtension

    g = ctx.graph
    cycle.edits = {}
    for step in splices:
        if isinstance(step, PathExtension):
            cycle.splice(g, step)
        else:
            cycle.insert(g, *step)
    problems = _part_step(ctx, cycle, witness, ell, 7)
    return _letters(problems), _letters(check_good_tuple(ctx, cycle.freeze(), witness))


def _bridging_extension():
    """Target 11 through base 10, on the path 11-9-8: it bridges 9, joining
    its cycle-neighbors 7 and 14, and puts 11, 9 between 10 and 8."""
    from clawham.extension import ExtensionCase, PathExtension

    return PathExtension(ExtensionCase.ONE, 11, 10, (11, 9, 8), (9,))


@pytest.mark.parametrize("splices", [
    [(7, 8, (9, 14, 10, 11))],
    # 11 goes in last, between 8 and 3
    [(7, 8, (9, 14, 10)), (8, 3, (11,))],
    "bridge",
])
def test_part_absorbed_by_an_older_set_is_good(splices):
    """The older set holds s = 7 and t = 8, so it absorbs part B and its
    component; both checks find the result good."""
    if splices == "bridge":
        splices = [(7, 8, (9, 14, 10)), _bridging_extension()]
    ctx, cycle, witness, b = _part_state((1, 2, 7, 8, 3))
    (a,) = witness
    assert _part_boundary(ctx, cycle, witness, b, splices) == (set(), set())
    assert witness[a] == {1, 2, 3, 4, 5, 6, 12} | witness[b]
    assert witness[b] == {7, 8, 9, 10, 11, 14}


def test_part_vertex_on_the_cycle_away_from_the_spine_is_counted():
    """Part vertex 11 is on the cycle between 3 and 0 before the part's
    step, and no edit of the step touches it.  The new set still holds it,
    so its cut is crossed on both cycle edges at 11 as well: four times."""
    ctx, cycle, witness, b = _part_state((), eleven_on_cycle=True)
    by_part, full = _part_boundary(ctx, cycle, witness, b, [(7, 8, (9, 14, 10))])
    assert by_part == full == {"c"}


def _corrupt_part_rule(monkeypatch, corrupt):
    """Patch the part-boundary rule: apply the honest rule, then
    ``corrupt(witness, ell, new_m)``."""
    import clawham.engine as engine

    rule = engine._part_rule

    def corrupted(witness, ell, new_m, s):
        rule(witness, ell, new_m, s)
        corrupt(witness, ell, new_m)

    monkeypatch.setattr(engine, "_part_rule", corrupted)


def test_spine_across_an_older_cut_is_flagged():
    """The spine, here 13, goes in between 12 and 1, both in the older set,
    instead of between s and t: the older cut is crossed four times, part B's zone
    stays off the cycle, and its new set holds zone vertices off it."""
    ctx, cycle, witness, b = _part_state((1,))
    by_part, full = _part_boundary(ctx, cycle, witness, b, [(12, 1, (13,))])
    assert by_part == full == {"a", "c", "d"}


def test_new_set_missing_a_part_vertex_is_flagged(monkeypatch):
    """Part vertex 11 sits between 10 and 8 on the cycle; a new set without
    it is crossed four times."""
    _corrupt_part_rule(monkeypatch, lambda witness, ell, new_m: witness[ell].discard(11))
    ctx, cycle, witness, b = _part_state(())
    by_part, full = _part_boundary(ctx, cycle, witness, b, [(7, 8, (9, 14, 10, 11))])
    assert by_part == full == {"c"}


def test_new_set_joined_only_through_its_component_is_good(monkeypatch):
    """Without t = 8 the new set's part vertices 7 and 11 share no edge.
    The component joins them, and the set is still one run on the cycle,
    so both checks find the result good."""
    _corrupt_part_rule(monkeypatch, lambda witness, ell, new_m: witness[ell].discard(8))
    ctx, cycle, witness, b = _part_state(())
    by_part, full = _part_boundary(ctx, cycle, witness, b, [(7, 8, (9, 14, 10, 11))])
    assert by_part == full == set()


def test_new_set_missing_a_component_vertex_is_flagged(monkeypatch):
    """Without 14, the new set misses part of its component, and the
    cycle crosses its cut on both edges at 14, between 9 and 10."""
    _corrupt_part_rule(monkeypatch, lambda witness, ell, new_m: witness[ell].discard(14))
    ctx, cycle, witness, b = _part_state(())
    inserts = [(7, 8, (9, 14, 10)), (8, 3, (11,))]
    by_part, full = _part_boundary(ctx, cycle, witness, b, inserts)
    assert by_part == full == {"b", "c", "f"}


def test_new_set_split_inside_its_component_is_flagged(monkeypatch):
    """Without 8, 9 and 14 the new set {7, 10, 11} holds part of its
    component, and 7 keeps no neighbor in it: the set falls apart, which
    only a search through the vertices it holds can tell."""
    _corrupt_part_rule(
        monkeypatch, lambda witness, ell, new_m: witness[ell].difference_update({8, 9, 14})
    )
    ctx, cycle, witness, b = _part_state(())
    inserts = [(7, 8, (9, 14, 10)), (8, 3, (11,))]
    by_part, full = _part_boundary(ctx, cycle, witness, b, inserts)
    assert by_part == full == {"b", "c", "e", "f"}


def test_absorption_into_a_set_without_s_is_flagged(monkeypatch):
    """The older set holds neither s nor t, yet absorbs part B: it now has
    two runs on the cycle and two pieces with no edge between them."""
    def absorb_all(witness, ell, new_m):
        for m in witness.values():
            m |= new_m

    _corrupt_part_rule(monkeypatch, absorb_all)
    ctx, cycle, witness, b = _part_state(())
    by_part, full = _part_boundary(ctx, cycle, witness, b, [(7, 8, (9, 14, 10, 11))])
    assert by_part == full == {"c", "e"}


def test_absorption_of_a_component_alone_is_flagged(monkeypatch):
    """The older set absorbs part B's component but not the part.  The
    component's only neighbors outside it are part vertices, so the set
    falls apart, and the cycle crosses its cut twice more."""
    def absorb_component(witness, ell, new_m):
        for j, m in witness.items():
            if j != ell:
                m |= new_m - {7, 8, 11}

    _corrupt_part_rule(monkeypatch, absorb_component)
    ctx, cycle, witness, b = _part_state(())
    by_part, full = _part_boundary(ctx, cycle, witness, b, [(7, 8, (9, 14, 10, 11))])
    assert by_part == full == {"c", "e"}


# -- separator gap and stable degrees against their references -------------------


def test_separator_gap_matches_set_distance():
    """The gap check, a separator's ``separator_reach`` (``_within_three``
    of it) missing the previous round's separator, agrees with the
    whole-ball distance on every pair of consecutive separators of the
    presets and on seeded pairs."""
    import random

    from clawham.engine import _within_three
    from clawham.presentations import PRESET_NAMES
    from helpers import reference_set_distance

    pairs = 0
    for name in PRESET_NAMES:
        state, contexts = _round_run(name, 70, 5, 7)
        g = state.graph
        for a, b, ctx in zip(state.rounds, state.rounds[1:], contexts[1:]):
            assert ctx.separator_reach == _within_three(g, b.dec.separator)
            far = reference_set_distance(g, a.dec.separator, b.dec.separator) >= 4
            assert ctx.separator_reach.isdisjoint(a.dec.separator) == far
            assert b.checks["separator_gap"] == far
            pairs += 1
    assert pairs == 4 * len(PRESET_NAMES)
    rng = random.Random(20261018)
    verdicts = set()
    for name in ("double-ray-square", "ladder-line-graph"):
        g = preset(name).extract_ball(12).graph
        for _ in range(300):
            a = rng.sample(g.vertices, rng.randint(1, 3))
            b = rng.sample(g.vertices, rng.randint(1, 3))
            want = reference_set_distance(g, a, b) >= 4
            assert _within_three(g, a).isdisjoint(b) == want, (a, b)
            verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name, radius, rounds, seed", DIFFERENTIAL_RUNS)
def test_stable_degree_matches_reference(name, radius, rounds, seed):
    from clawham.engine import ConditionReport
    from helpers import reference_stable_degree

    state = run(_presentation(name, radius, seed), rounds, radius)
    rep = check_extraction_conditions(state)
    w6 = reference_stable_degree(set(rep.stable_edges), rep.stable_region)
    assert rep.stable_degree.to_json_obj() == ConditionReport(not w6, tuple(w6)).to_json_obj()


def test_stable_degree_witnesses_match_reference_off_two():
    """Hand-built prefixes whose stable degrees are not all 2 report the
    same witnesses, in region order, as the per-vertex scan."""
    import random

    from helpers import reference_stable_degree

    rng = random.Random(7)
    g = complete_graph(6)
    seen_bad = False
    for _ in range(40):
        cycles = []
        for _ in range(4):
            order = list(range(6))
            rng.shuffle(order)
            cycles.append(CycleEmbedding(order[: rng.randint(3, 6)]))
        state = _hand_state(g, cycles, [{}, {}, {}])
        region = tuple(rng.sample(range(6), 4))
        state.rounds[-2].dec = SeparatorDecomposition((), region, (), ())
        rep = check_extraction_conditions(state)
        w6 = reference_stable_degree(set(rep.stable_edges), region)
        assert list(rep.stable_degree.witnesses) == w6
        assert rep.stable_degree.holds == (not w6)
        seen_bad |= bool(w6)
    assert seen_bad


# -- one search per round and components held whole, against references ---------

# every run of the step-check differential tests, once: DIFFERENTIAL_RUNS and
# the cactus-line round of PART_RUNS (k = 14)
ROUND_RUNS = DIFFERENTIAL_RUNS + [
    (name, radius, rounds, 7)
    for name, radius, rounds in PART_RUNS
    if (name, radius, rounds, 7) not in DIFFERENTIAL_RUNS
]


@functools.cache
def _round_run(name, radius, rounds, seed):
    """The run, with the stability gate bypassed for cactus-line, and the
    context of each of its rounds, built from the round's input."""
    import clawham.engine as engine

    splits = []
    round_of = engine.cut_lemma_round

    def recorded(g, split, index):
        splits.append(split)
        return round_of(g, split, index)

    with pytest.MonkeyPatch.context() as mp:
        if name == "cactus-line":
            mp.setattr(engine, "_stability_gate", lambda ball, least: None)
        mp.setattr(engine, "cut_lemma_round", recorded)
        state = run(_presentation(name, radius, seed), rounds, radius)
    return state, [GoodTupleContext.build(state.graph, split) for split in splits]


@pytest.mark.parametrize("name, radius, rounds, seed", ROUND_RUNS)
def test_round_separator_gap_matches_the_previous_reach(name, radius, rounds, seed):
    """Every round records its own separator gap, its reach missing the
    previous separator; the verdict equals the previous round's reach
    missing its separator, and holds for round 1."""
    state, contexts = _round_run(name, radius, rounds, seed)
    gaps = [r.checks["separator_gap"] for r in state.rounds]
    previous = [ctx.separator_reach for ctx in contexts[:-1]]
    assert gaps == [True] + [
        reach.isdisjoint(r.dec.separator) for reach, r in zip(previous, state.rounds[1:])
    ]


def test_round_records_a_separator_gap_that_fails():
    """A round whose input was carried from a decomposition with the same
    separator records a failing gap."""
    from dataclasses import replace

    g, split, _ = build_round_one_context()
    assert cut_lemma_round(g, split).checks["separator_gap"]
    near = replace(split, previous_separator=split.dec.separator)
    assert not cut_lemma_round(g, near).checks["separator_gap"]


@pytest.mark.parametrize("name, radius, rounds, seed", ROUND_RUNS)
def test_one_search_decomposition_matches_shrink_then_decompose(name, radius, rounds, seed):
    """Every round's decomposition, from one labelled search, equals the
    closed-form separator followed by the components of the whole ball
    minus it."""
    from helpers import reference_decompose, reference_ray_separator

    state, _ = _round_run(name, radius, rounds, seed)
    g, boundary = state.graph, state.ball.boundary
    for cycle, record in zip(state.cycles(), state.rounds):
        want = reference_decompose(g, cycle, reference_ray_separator(g, cycle, boundary), boundary)
        assert record.dec == want


@pytest.mark.parametrize("name, radius, rounds, seed", ROUND_RUNS)
def test_kept_deep_edges_matches_the_base_edge_scan(name, radius, rounds, seed):
    """Every round's ``kept_deep_edges``, read off the removed base edges,
    equals the scan of every base edge."""
    from helpers import reference_kept_deep_edges

    state, contexts = _round_run(name, radius, rounds, seed)
    for c, record, ctx in zip(state.cycles(), state.rounds, contexts):
        want = reference_kept_deep_edges(c.edge_set(), record.cycle.edge_set(), ctx.near_cycle_2)
        assert record.checks["kept_deep_edges"] is want


# ROUND_RUNS, and the cactus-line run in which every one of the 14 round-1
# components splits in round 2, into 224, and is labelled again
CARRY_RUNS = ROUND_RUNS + [("cactus-line", 13, 2, 7)]


@pytest.mark.parametrize("name, radius, rounds, seed", CARRY_RUNS)
def test_carried_decomposition_matches_from_scratch(monkeypatch, name, radius, rounds, seed):
    """Every round after the first carries its decomposition over from the
    previous round's; it equals ``split_cycle`` from scratch.  The
    round's context reads F ∪ S ∪ N³(S) as F ∪ N⁴(F)."""
    import clawham.engine as engine
    from helpers import assert_carry_matches_scratch

    seen = []
    decompose = engine.split_cycle

    def recorded(g, c, boundary, prev=None):
        got = decompose(g, c, boundary, prev)
        seen.append((c, prev, got))
        return got

    monkeypatch.setattr(engine, "split_cycle", recorded)
    if name == "cactus-line":
        monkeypatch.setattr(engine, "_stability_gate", lambda ball, least: None)
    state = run(_presentation(name, radius, seed), rounds, radius)
    g, boundary = state.graph, state.ball.boundary
    assert [got.dec for _, _, got in seen] == [r.dec for r in state.rounds]
    assert [prev is None for _, prev, _ in seen] == [m == 1 for m in range(1, rounds + 1)]
    for (c, prev, got), record in zip(seen, state.rounds):
        assert_carry_matches_scratch(g, c, boundary, prev, got)
        finite = set(got.dec.finite_component)
        ctx = GoodTupleContext.build(g, got)
        assert ctx.around_finite_4 == finite.union(neighborhood_k(g, finite, 4))
    if (name, radius) == ("cactus-line", 13):
        assert [r.dec.k for r in state.rounds] == [14, 224]


def _witness_variants(rng, ctx, witness):
    """The round's sets, and seeded edits of one set at a time: a set that
    gains or loses a vertex, gains all or part of another component, or
    loses a vertex of its own component, so that it no longer holds it."""
    yield witness
    dec = ctx.dec
    outside = [v for v in ctx.graph.vertices if v not in set(dec.separator)]
    for j, m in sorted(witness.items()):
        comp = dec.infinite_components[j - 1]
        rest = sorted(m.difference(comp))
        edits = [
            m | {rng.choice(outside)},
            m | set(rng.sample(list(dec.finite_component), 2)),
            m - {rng.choice(comp)},
        ]
        if rest:
            edits.append(m - {rng.choice(rest)})
        for p, other in enumerate(dec.infinite_components, start=1):
            if p != j:
                edits += [m | set(other), m | set(other[: max(1, len(other) // 2)])]
        for edit in edits:
            yield {**witness, j: frozenset(edit)}


@pytest.mark.parametrize("name, radius, rounds, seed", ROUND_RUNS)
def test_held_components_match_the_full_search(name, radius, rounds, seed):
    """``check_good_tuple`` reads a set that holds its component K whole
    around K; on every round's sets and seeded edits of them it reports
    what the search of the whole set and the intersection with every
    component report, message for message."""
    import random

    from helpers import reference_check_good_tuple

    state, contexts = _round_run(name, radius, rounds, seed)
    rng = random.Random(f"{name}-{seed}")
    letters, held_letters = set(), set()
    for ctx, record in zip(contexts, state.rounds):
        for witness in _witness_variants(rng, ctx, record.witness_sets):
            got = check_good_tuple(ctx, record.cycle, witness)
            assert got == reference_check_good_tuple(ctx, record.cycle, witness)
            letters |= _letters(got)
            held = {f"part {j}:" for j, m in witness.items() if ctx.component_sets[j - 1] <= m}
            held_letters |= {p[1] for p in got if p.split(" ", 1)[1][:8].rstrip() in held}
    # both verdicts of the held-whole (e), and of (f) where there are two
    # components, and the other path
    ends = max(r.dec.k for r in state.rounds)
    assert {"e", "f"} - held_letters == ({"f"} if ends == 1 else set())
    assert "b" in letters


@pytest.mark.parametrize("name, radius, rounds, seed", ROUND_RUNS)
def test_extraction_cut_matches_graph_cut(name, radius, rounds, seed):
    """The cut of every recorded witness set, read around the component it
    holds, equals ``graph.cut``, also on seeded edits and on an index that
    names no part; the extraction report equals the one from ``graph.cut``."""
    import random

    import clawham.engine as engine

    state, contexts = _round_run(name, radius, rounds, seed)
    g = state.graph
    rng = random.Random(f"{name}-{seed}")
    for ctx, record in zip(contexts, state.rounds):
        for witness in _witness_variants(rng, ctx, record.witness_sets):
            for j, m in witness.items():
                assert engine._witness_cut(g, record.dec, j, m) == frozenset(cut(g, m))
        m = record.witness_sets[1]
        assert engine._witness_cut(g, record.dec, record.dec.k + 1, m) == frozenset(cut(g, m))
    if len(state.rounds) < 2:
        return  # the extraction conditions need two rounds
    report = check_extraction_conditions(state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_witness_cut", lambda g, dec, j, m: frozenset(cut(g, m)))
        assert check_extraction_conditions(state).to_json_obj() == report.to_json_obj()


@pytest.mark.parametrize("name, radius, rounds, seed", ROUND_RUNS)
def test_proxy_chains_match_the_per_component_lookup(name, radius, rounds, seed):
    """Condition (iii)'s host lookup, one owner map per round, gives the
    chains and ambiguous ends of one set intersection per proxy, round and
    component, and so the same extraction report."""
    import clawham.engine as engine
    from helpers import reference_proxy_chains

    state, _ = _round_run(name, radius, rounds, seed)
    proxies = end_proxies(state.ball)
    chains, ambiguous = engine._proxy_chains(state.rounds, proxies)
    assert (chains, ambiguous) == reference_proxy_chains(state.rounds, proxies)
    assert len(chains) == len(proxies) and not ambiguous
    if len(state.rounds) < 2:
        return  # the extraction conditions need two rounds
    report = check_extraction_conditions(state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_proxy_chains", reference_proxy_chains)
        assert check_extraction_conditions(state).to_json_obj() == report.to_json_obj()


@pytest.mark.parametrize("name, radius, rounds, seed", ROUND_RUNS)
def test_extraction_report_matches_the_pairwise_reference(name, radius, rounds, seed):
    """Every round run's extraction report equals the one that compares
    every pair of cycles for condition (iv)."""
    from helpers import reference_check_extraction_conditions

    state, _ = _round_run(name, radius, rounds, seed)
    if len(state.rounds) < 2:
        return  # the extraction conditions need two rounds
    report = check_extraction_conditions(state)
    assert report.all_pass()
    assert report.to_json_obj() == reference_check_extraction_conditions(state).to_json_obj()


def _proxy_variants(state):
    """The run's rounds with one proxy moved in the decomposition of one
    round: split across two components, a vertex put into the separator,
    or taken out of every component."""
    from dataclasses import replace

    proxy = end_proxies(state.ball)[0]
    half = set(proxy[: len(proxy) // 2 or 1])
    for r, record in enumerate(state.rounds):
        comps = record.dec.infinite_components
        j = next(i for i, comp in enumerate(comps) if proxy[0] in comp)
        host = comps[j]
        split = (
            comps[:j]
            + (tuple(v for v in host if v not in half), tuple(sorted(half)))
            + comps[j + 1:]
        )
        into_sep = comps[:j] + (tuple(v for v in host if v != proxy[-1]),) + comps[j + 1:]
        dropped = comps[:j] + (tuple(v for v in host if v not in proxy),) + comps[j + 1:]
        for new_comps, sep in (
            (split, record.dec.separator),
            (into_sep, tuple(sorted(record.dec.separator + (proxy[-1],)))),
            (dropped, record.dec.separator),
        ):
            dec = replace(record.dec, infinite_components=new_comps, separator=sep)
            rounds = list(state.rounds)
            rounds[r] = replace(record, dec=dec)
            yield replace(state, rounds=rounds)


def test_proxy_chains_match_on_straddling_proxies():
    """A proxy split between two components, touching the separator or
    outside every component is ambiguous in the round where that happens,
    by both host lookups, with the same extraction report."""
    import clawham.engine as engine
    from helpers import reference_proxy_chains

    variants = 0
    for state in _proxy_variants(small_run(rounds=3, radius=30)):
        proxies = end_proxies(state.ball)
        chains, ambiguous = engine._proxy_chains(state.rounds, proxies)
        assert (chains, ambiguous) == reference_proxy_chains(state.rounds, proxies)
        assert len(ambiguous) == 1 and len(chains) == len(proxies) - 1
        report = check_extraction_conditions(state)
        assert report.ambiguous_ends == tuple(ambiguous) and not report.all_pass()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_proxy_chains", reference_proxy_chains)
            assert check_extraction_conditions(state).to_json_obj() == report.to_json_obj()
        variants += 1
    assert variants == 9


@pytest.mark.parametrize("name, radius", [
    ("double-ray-square", 20), ("ray-square", 20), ("ladder-line-graph", 20),
    ("custom-oracle", 20), ("tri-lattice-line", 13), ("tripod-line", 40),
    ("cactus-line", 9),
])
def test_each_end_proxy_has_one_deep_component(name, radius):
    """The stability gate reads a proxy's deep component off its first
    vertex: every proxy lies inside one component of the deeper shell."""
    from clawham.engine import END_SKIRT
    from clawham.graph import components_within

    ball = _presentation(name, radius).extract_ball(radius)
    deep = [v for v in ball.graph.vertices if ball.depth_of(v) >= radius - END_SKIRT - 4]
    owner = {v: i for i, comp in enumerate(components_within(ball.graph, deep)) for v in comp}
    proxies = end_proxies(ball)
    assert proxies
    for proxy in proxies:
        assert len({owner[v] for v in proxy}) == 1


@pytest.mark.parametrize("rounds", [1, 3, 6])
def test_run_searches_components_only_in_the_stability_gate(monkeypatch, rounds):
    """Every component labelling goes through ``label_components``.  Besides
    the stability gate's two calls, once per run, only round 1 makes one:
    the boundary side of its decomposition from scratch.  Later rounds
    carry the components over, and on this preset no component splits, so
    a whole-ball search in any later round would add a call."""
    import sys

    from clawham import graph

    original = graph.label_components
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("clawham") and getattr(module, "label_components", None) is original:
            monkeypatch.setattr(module, "label_components", counted)
    state = run(preset("double-ray-square"), rounds, 70)
    assert len(state.rounds) == rounds
    assert len(calls) == 2 + 1


# -- pinned run logs ------------------------------------------------------------

PINNED_RUN_DIGESTS = {
    "double-ray-square": "2cf8c7e63bbd452cf71159b383a78718fed4b609703b981fa1b402e6e067a5fb",
    "ray-square": "2d3a240fb1d817917c5eaf00a493684b742184a658bdcb1a2f5c07deaadce5e2",
    "ladder-line-graph": "65b934142751d0cbf53a097c2485bf817176666aa516d9486439314435de69ba",
    "custom-oracle": "f1c601a6369037c5a8daa33ba331acb6bafaa10f67bc69b1840ac55a97dbb5a5",
}


@pytest.mark.parametrize("name", sorted(PINNED_RUN_DIGESTS))
def test_run_log_and_extraction_report_are_pinned(name):
    """SHA-256 of each preset's run log (5 rounds, radius 70), one
    sorted-key JSON line per record, followed by its extraction report."""
    import hashlib
    import json

    state = run(preset(name), 5, 70)
    h = hashlib.sha256()
    for line in state.to_json_lines():
        h.update((json.dumps(line, sort_keys=True) + "\n").encode())
    h.update(json.dumps(check_extraction_conditions(state).to_json_obj(), sort_keys=True).encode())
    assert h.hexdigest() == PINNED_RUN_DIGESTS[name]
