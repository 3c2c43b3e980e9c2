from __future__ import annotations

import pytest

from clawham.constructions import complete_graph, cycle_graph
from clawham.engine import (
    GoodTuple,
    GoodTupleContext,
    RoundRecord,
    RunState,
    check_extraction_conditions,
    check_good_tuple,
    cut_lemma_round,
    end_proxies,
    good_extend,
    run,
    stable_edge_set,
)
from clawham.errors import DomainError, HypothesisError, RadiusTooSmallError
from clawham.extension import find_path_extension, truncate_extension
from clawham.graph import CycleEmbedding, FiniteGraph, cut, neighborhood_k
from clawham.presentations import Ball, GraphPresentation, preset
from clawham.separators import (
    SeparatorDecomposition,
    decompose,
    shrink_to_minimal_ray_separator,
)
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
    c, _ = extend_to_cover(g, seed, pool, target_pool=pool)
    boundary = [ids[i] for i in (-20, -19, 19, 20)]
    sep = shrink_to_minimal_ray_separator(g, c, boundary)
    dec = decompose(g, c, sep, boundary)
    return g, c, dec, ids


def test_empty_tuple_is_good_and_extends():
    g, c, dec, ids = build_round_one_context()
    ctx = GoodTupleContext.build(g, c, dec)
    tup = GoodTuple(ctx, c, {})
    assert tup.check() == []
    # acquire a separator vertex: the smallest one adjacent to the cycle
    target = min(set(dec.separator) & set(neighborhood_k(g, c.order, 1)))
    base = min(set(g.neighbors(target)) & c.vertex_set)
    ext = find_path_extension(g, c, target, base)
    unc = set(dec.separator)
    s = [p for p in ext.extension_path if p in unc][-1]
    ext = truncate_extension(g, c, ext, s)
    new = good_extend(tup, ext)
    assert new.check() == []
    assert s in new.cycle


def test_good_extend_untouched_witness_sets_stay():
    g, c, dec, ids = build_round_one_context()
    record = cut_lemma_round(g, c, dec)
    # after the round, extend into fresh territory and watch a far set stay
    ctx = GoodTupleContext.build(g, c, dec)
    tup = GoodTuple(ctx, record.cycle, record.witness_sets)
    assert tup.check() == []


def test_good_extend_rejects_stray_footprint():
    g, c, dec, ids = build_round_one_context()
    ctx = GoodTupleContext.build(g, c, dec)
    tup = GoodTuple(ctx, c, {})
    # a target deep inside an infinite component is outside the allowed region
    deep = ids[12]
    with pytest.raises(DomainError):
        from clawham.extension import ExtensionCase, PathExtension

        good_extend(
            tup,
            PathExtension(ExtensionCase.ONE, deep, ids[1], (deep, ids[2]), ()),
        )


def test_check_good_tuple_flags_violations():
    g, c, dec, ids = build_round_one_context()
    record = cut_lemma_round(g, c, dec)
    ctx = GoodTupleContext.build(g, c, dec)
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


def test_cut_lemma_round_conclusions():
    g, c, dec, ids = build_round_one_context()
    record = cut_lemma_round(g, c, dec)
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


def test_cut_lemma_requires_deep_vertex():
    g, ids = double_ray_square_truncation(-8, 8)
    c = CycleEmbedding([ids[0], ids[1], ids[2]])
    boundary = [ids[i] for i in (-8, -7, 7, 8)]
    sep = shrink_to_minimal_ray_separator(g, c, boundary)
    dec = decompose(g, c, sep, boundary)
    with pytest.raises(DomainError):
        cut_lemma_round(g, c, dec)  # bare triangle: nothing 3 away from N(c)


# -- the run loop ---------------------------------------------------------------


def test_run_zero_rounds():
    state = small_run(rounds=0)
    assert state.rounds == []
    assert len(state.cycles()) == 1
    # the initial cycle covers the seed's 2-neighborhood
    g = state.graph
    seed_pool = set(state.initial_cycle.order)
    assert set(neighborhood_k(g, [0], 1)) <= seed_pool


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


def test_radius_too_small_is_reported_with_suggestion():
    with pytest.raises(RadiusTooSmallError) as exc:
        run(preset("double-ray-square"), rounds=3, radius=9)
    assert exc.value.suggested_radius > 9


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


def test_hand_built_edge_flicker_fails_condition_iv():
    g = complete_graph(4)
    c_a = CycleEmbedding([0, 1, 2, 3])
    c_b = CycleEmbedding([0, 2, 1, 3])
    state = _hand_state(g, [c_a, c_a, c_b], [{}, {}])
    rep = check_extraction_conditions(state)
    assert not rep.edge_persistence.holds
    # the witness names a settled edge that later vanished
    (i, j, lost), *_ = rep.edge_persistence.witnesses
    assert (i, j) == (0, 1)
    assert set(lost) <= c_a.edge_set() - c_b.edge_set()
    assert rep.vertex_persistence.holds


def test_hand_built_four_crossings_fail_condition_v():
    g = cycle_graph(8)
    ring = CycleEmbedding(list(range(8)))
    m = frozenset({1, 2, 5})
    state = _hand_state(g, [ring, ring, ring], [{1: m}, {1: m}])
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


def test_run_log_serialization():
    state = small_run(rounds=2, radius=20)
    lines = state.to_json_lines()
    assert lines[0]["radius"] == 20
    assert len(lines) == 3
    for rec in lines[1:]:
        assert {"round", "decomposition", "cycle", "witness_sets"} <= set(rec)


def test_deep_vertex_gate_matches_the_distance_rule():
    """The round precondition fails exactly when every cycle vertex is
    within distance 2 of the cycle neighborhood."""
    from clawham.engine import _assert_deep_vertex
    from clawham.extension import extend_to_cover, shortest_cycle_through
    from helpers import reference_bfs_distances

    g, ids = double_ray_square_truncation(-15, 15)
    outcomes = set()
    for hi in range(2, 14):
        goal = [ids[i] for i in range(hi)]
        c, _ = extend_to_cover(g, shortest_cycle_through(g, ids[0]), goal, target_pool=goal)
        dist = reference_bfs_distances(g, neighborhood_k(g, c.order, 1))
        shallow = max(dist.get(v, len(g)) for v in c.order) < 3
        outcomes.add(shallow)
        if shallow:
            with pytest.raises(DomainError, match="distance 3"):
                _assert_deep_vertex(g, c)
        else:
            _assert_deep_vertex(g, c)
    assert outcomes == {True, False}
