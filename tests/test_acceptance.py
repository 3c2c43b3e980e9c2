"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from clawham.constructions import (
    complete_graph,
    corollary_instances,
    cycle_graph,
    enumerate_connected_graphs,
    enumerate_graphs,
    graph_power,
    line_graph,
    path_graph,
    star_graph,
    triangular_ladder,
    wheel_graph,
)
from clawham.engine import (
    RoundRecord,
    RunState,
    check_extraction_conditions,
    run,
    stable_edge_set,
)
from clawham.errors import DomainError, HypothesisError
from clawham.extension import (
    apply_path_extension,
    find_path_extension,
    finite_hamilton,
    replay_certificate,
    shortest_cycle_through,
    validate_extension,
)
from clawham.graph import (
    CycleEmbedding,
    FiniteGraph,
    components,
    cut,
    is_connected,
    neighborhood_k,
    validate_cycle,
)
from clawham.predicates import check_all, is_claw_free, is_locally_connected, is_two_connected
from clawham.presentations import Ball, preset
from clawham.separators import (
    SeparatorDecomposition,
    check_complete_neighborhood,
    minimal_separator_components,
)
from helpers import (
    brute_minimal_separators,
    check_claw_witness,
    check_local_connectivity_witness,
    hamilton_cycle_oracle,
)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_finite_theorem_exhaustive(connected_small_graphs, graphs_on_eight):
    """Every connected, locally connected, claw-free graph on 3..8 vertices
    gets a verified Hamilton certificate, agreeing with a brute-force oracle."""
    connected = {**connected_small_graphs, 8: [g for g in graphs_on_eight if is_connected(g)]}
    instances = 0
    for n in range(3, 9):
        for g in connected[n]:
            if not (is_claw_free(g).holds and is_locally_connected(g).holds):
                continue
            instances += 1
            cert = finite_hamilton(g)
            assert cert.cycle.vertex_set == frozenset(g.vertices)
            assert validate_cycle(g, cert.cycle).ok
            assert replay_certificate(g, cert).ok
            assert hamilton_cycle_oracle(g) is not None
    _report(1, instances > 400, f"{instances} hypothesis-class graphs on 3..8 vertices, "
            "100% constructed, replayed and oracle-confirmed")


def test_small_graph_certificates_are_pinned():
    """SHA-256 of the certificates of the 95 hypothesis-class graphs on 3..7
    vertices, one sorted-key JSON line each, in enumeration order.  It pins
    the enumeration order, the canonical labels and the certificates."""
    h = hashlib.sha256()
    instances = 0
    for n in range(3, 8):
        for g in enumerate_connected_graphs(n):
            if is_claw_free(g).holds and is_locally_connected(g).holds:
                instances += 1
                line = json.dumps(finite_hamilton(g).to_json_obj(), sort_keys=True) + "\n"
                h.update(line.encode())
    assert instances == 95
    assert h.hexdigest() == "244193d7bf1a1ac3f67dfc584f8f484fc36c4e7ac5ae7c5de1f2b765b6c7007d"


def test_criterion_2_separator_facts_exhaustive():
    """All inclusion-minimal separators of claw-free connected graphs up to
    7 vertices leave exactly two components with complete neighborhoods."""
    graphs = separators = 0
    for n in range(3, 8):
        for g in enumerate_connected_graphs(n):
            if not is_claw_free(g).holds:
                continue
            graphs += 1
            for s in brute_minimal_separators(g):
                separators += 1
                comps = minimal_separator_components(g, s)
                assert len(comps) == 2, (g, s)
                for v in s:
                    for comp in comps:
                        assert check_complete_neighborhood(g, v, comp), (g, s, v, comp)
    _report(2, separators > 800,
            f"{separators} minimal separators over {graphs} claw-free graphs: "
            "always two components, all separator neighborhoods complete")


def test_criterion_3_two_connectivity_exhaustive():
    count = 0
    for n in range(3, 8):
        for g in enumerate_connected_graphs(n):
            if not is_locally_connected(g).holds:
                continue
            count += 1
            assert is_two_connected(g).holds, g
    _report(3, count > 100,
            f"{count} connected locally connected graphs on 3..7 vertices, all 2-connected")


def _instance_pool() -> list[FiniteGraph]:
    pool = []
    for n in range(5, 8):
        for g in enumerate_connected_graphs(n):
            if is_claw_free(g).holds and is_locally_connected(g).holds:
                pool.append(g)
    for n in range(8, 17, 2):
        pool.append(graph_power(path_graph(n), 2))
        pool.append(graph_power(cycle_graph(n), 2))
    for rungs in (4, 6, 8):
        pool.append(triangular_ladder(rungs))
    pool.append(line_graph(wheel_graph(5)).graph)
    pool.append(line_graph(complete_graph(4)).graph)
    pool.append(line_graph(graph_power(path_graph(6), 2)).graph)
    for g in pool:
        assert is_claw_free(g).holds and is_locally_connected(g).holds
    return pool


def test_criterion_4_path_extension_contract_randomized():
    """Ten thousand random (graph, cycle, target, base) draws from the
    hypothesis class; every emitted extension is valid in full, applies to a
    valid enlarged cycle, and keeps new edges within distance 2 of the base."""
    rng = random.Random(0xC1A30)
    pool = _instance_pool()
    checked = 0
    while checked < 10_000:
        g = rng.choice(pool)
        try:
            c = shortest_cycle_through(g, rng.choice(g.vertices))
        except DomainError:
            continue
        for _ in range(rng.randrange(4)):
            off = sorted(set(g.vertices) - c.vertex_set)
            if not off:
                break
            t = rng.choice(off)
            bs = sorted(set(g.neighbors(t)) & c.vertex_set)
            if not bs:
                continue
            ext = find_path_extension(g, c, t, rng.choice(bs))
            c = apply_path_extension(g, c, ext)
        off = sorted(set(g.vertices) - c.vertex_set)
        if not off:
            continue
        target = rng.choice(off)
        bases = sorted(set(g.neighbors(target)) & c.vertex_set)
        if not bases:
            continue
        base = rng.choice(bases)
        ext = find_path_extension(g, c, target, base)
        problems = validate_extension(g, c, ext)
        assert problems == [], (g, c.order, target, base, problems)
        new = apply_path_extension(g, c, ext)
        assert validate_cycle(g, new).ok
        assert c.vertex_set | {target} <= new.vertex_set
        near = set(neighborhood_k(g, [base], 2)) | {base}
        for u, v in new.edge_set() - c.edge_set():
            assert u in near and v in near, (u, v, base)
        checked += 1
    _report(4, checked == 10_000,
            f"{checked} randomized extension instances, zero contract violations")


PRESET_PARAMS = (
    ("double-ray-square", 40, 3),
    ("ray-square", 40, 3),
    ("ladder-line-graph", 30, 2),
)


@pytest.mark.parametrize("name,radius,rounds", PRESET_PARAMS)
def test_criterion_5_infinite_engine_presets(name, radius, rounds):
    state = run(preset(name), rounds=rounds, radius=radius)
    assert len(state.rounds) == rounds
    for record in state.rounds:
        assert all(record.checks.values()), (name, record.index, record.checks)
    report = check_extraction_conditions(state)
    assert report.all_pass(), report.to_json_obj()

    cycles = state.cycles()
    for p, record in enumerate(state.rounds, start=1):
        for j, m in record.witness_sets.items():
            cut_edges = frozenset(cut(state.graph, m))
            fixed = cycles[p].edge_set() & cut_edges
            assert len(fixed) == 2, (name, p, j)
            for i in range(p, len(cycles)):
                assert cycles[i].edge_set() & cut_edges == fixed, (name, p, j, i)

    stable = stable_edge_set(cycles)
    region = set(state.rounds[-2].dec.finite_component)
    for v in region:
        assert sum(1 for e in stable if v in e) == 2, (name, v)

    detail = (f"{name}: R={radius}, rounds={rounds}, all extraction conditions pass, "
              "every later cycle meets every witness cut in the same 2 edges, "
              "stable region has degree 2 throughout")
    if name == "double-ray-square":
        inner_region = set(state.rounds[0].dec.finite_component)
        inner = [e for e in stable if e[0] in inner_region and e[1] in inner_region]
        sub = FiniteGraph(inner_region, inner)
        comps = components(sub)
        assert len(comps) == 2, comps
        for comp in comps:
            comp_edges = [e for e in inner if e[0] in set(comp)]
            assert len(comp_edges) == len(comp) - 1
            assert max(sub.degree(v) for v in comp) <= 2
        assert set().union(*map(set, comps)) == inner_region
        detail += "; stable edges over the first region form two vertex-disjoint paths"
    _report(5, True, detail)


def _dummy_state(g, cycles, witness_rounds):
    ball = Ball(
        graph=g,
        boundary=(),
        interior=tuple(g.vertices),
        labels=tuple(g.vertices),
        radius=1,
        depths=tuple(0 for _ in g.vertices),
        presentation_name="hand-built",
    )
    dec = SeparatorDecomposition((), (), (), ())
    rounds = [
        RoundRecord(index=i, dec=dec, part_order=tuple(sorted(ws)), cycle=cyc,
                    witness_sets={j: frozenset(m) for j, m in ws.items()},
                    extension_count=0)
        for i, (cyc, ws) in enumerate(zip(cycles[1:], witness_rounds), start=1)
    ]
    return RunState(ball, cycles[0], rounds)


def test_criterion_6_negative_controls():
    # an edge settled on two cycles but dropped by the third
    g = complete_graph(4)
    keep = CycleEmbedding([0, 1, 2, 3])
    swap = CycleEmbedding([0, 2, 1, 3])
    state = _dummy_state(g, [keep, keep, swap], [{}, {}])
    report = check_extraction_conditions(state)
    assert not report.edge_persistence.holds
    (i, j, lost), *_ = report.edge_persistence.witnesses
    assert set(lost) == keep.edge_set() - swap.edge_set()

    # a witness cut crossed four times
    ring_graph = cycle_graph(8)
    ring = CycleEmbedding(list(range(8)))
    m = frozenset({1, 2, 5})
    state = _dummy_state(ring_graph, [ring, ring, ring], [{1: m}, {1: m}])
    report = check_extraction_conditions(state)
    assert not report.two_edge_cuts.holds
    (_, _, kind, edges), *_ = report.two_edge_cuts.witnesses
    assert kind == "count" and set(edges) == set(cut(ring_graph, m))

    # predicate gate rejections with genuine witnesses
    with pytest.raises(HypothesisError) as exc:
        finite_hamilton(cycle_graph(6))
    assert exc.value.predicate == "locally_connected"
    assert check_local_connectivity_witness(cycle_graph(6), exc.value.witness)
    with pytest.raises(HypothesisError) as exc:
        finite_hamilton(star_graph(3))
    assert exc.value.predicate == "claw_free"
    assert check_claw_witness(star_graph(3), exc.value.witness)

    _report(6, True, "hand-built violations of conditions (iv) and (v) flagged with "
            "correct witnesses; the 6-cycle and the claw rejected at the gate")


def test_criterion_7_corollary_pipeline():
    finite = infinite = 0
    for inst in corollary_instances():
        if inst.graph is not None:
            reports = check_all(inst.graph)
            for name, expected in inst.profile:
                rep = reports[name]
                assert rep is not None and rep.holds == expected, (inst.name, name)
            cert = finite_hamilton(inst.graph)
            assert cert.cycle.vertex_set == frozenset(inst.graph.vertices)
            assert replay_certificate(inst.graph, cert).ok
            finite += 1
        else:
            from clawham.predicates import claw_at, locally_connected_at

            ball = preset(inst.presentation_preset).extract_ball(8)
            for v in ball.interior:
                assert claw_at(ball.graph, v) is None
                assert locally_connected_at(ball.graph, v)
            infinite += 1

    line_claw_free = 0
    for n in range(2, 8):
        for g in enumerate_graphs(n):
            if g.edge_count() == 0:
                continue
            assert is_claw_free(line_graph(g).graph).holds, g
            line_claw_free += 1
    _report(7, finite >= 6 and infinite >= 2 and line_claw_free > 1000,
            f"{finite} finite corollary instances profiled and constructed, "
            f"{infinite} presentations profiled on ball interiors, line graphs of "
            f"{line_claw_free} small graphs all claw-free")
