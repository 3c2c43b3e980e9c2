from __future__ import annotations

import random

import pytest

from clawham.constructions import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    graph_power,
    path_graph,
    wheel_graph,
)
from clawham.errors import DomainError, HypothesisError
from clawham.extension import (
    ExtensionCase,
    HamiltonCertificate,
    PathExtension,
    apply_path_extension,
    extend_to_cover,
    find_path_extension,
    finite_hamilton,
    replay_certificate,
    shortest_cycle_through,
    truncate_extension,
    validate_extension,
)
from clawham.graph import CycleEmbedding, FiniteGraph, neighborhood_k, validate_cycle
from helpers import (
    dense_neighborhood_graphs,
    hamilton_cycle_oracle,
    reference_shortest_cycle_through,
    repeated_bridged_certificate,
    seeded_random_graphs,
)


def case_two_witness_graph() -> tuple[FiniteGraph, CycleEmbedding, int, int]:
    """Five vertices forcing the base re-route: cycle (0,1,2,3) with chords
    0-2 and 1-3, target 4 adjacent to 0 and 2 only."""
    g = FiniteGraph(
        range(5),
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (4, 0), (4, 2)],
    )
    return g, CycleEmbedding([0, 1, 2, 3]), 4, 0


def test_find_extension_k4():
    g = complete_graph(4)
    c = CycleEmbedding([0, 1, 2])
    ext = find_path_extension(g, c, 3, 0)
    assert ext.case is ExtensionCase.ONE
    assert ext.extension_path == (3, 1)
    assert ext.bridged == ()
    new = apply_path_extension(g, c, ext)
    assert new == CycleEmbedding([0, 3, 1, 2])


def test_find_extension_wheel():
    g = wheel_graph(5)
    c = CycleEmbedding([0, 1, 2])  # hub plus two rim vertices
    ext = find_path_extension(g, c, 4, 0)
    assert ext.case is ExtensionCase.ONE
    assert set(ext.extension_path) <= set(g.neighbors(0)) | {4}
    assert validate_extension(g, c, ext) == []
    new = apply_path_extension(g, c, ext)
    assert validate_cycle(g, new).ok and 4 in new


def test_direct_neighbor_degenerate_case():
    g = cycle_graph(4)
    # c spans a triangle of a diamond
    diamond = FiniteGraph(range(4), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
    c = CycleEmbedding([0, 1, 2])
    ext = find_path_extension(diamond, c, 3, 0)
    assert ext.case is ExtensionCase.ONE
    assert ext.extension_path == (3, 2)
    assert ext.bridged == ()


def test_case_two_construction():
    g, c, target, base = case_two_witness_graph()
    ext = find_path_extension(g, c, target, base)
    assert ext.case is ExtensionCase.TWO
    assert ext.base == base and ext.target == target
    assert base in ext.bridged
    assert validate_extension(g, c, ext) == []
    new = apply_path_extension(g, c, ext)
    assert validate_cycle(g, new).ok
    assert new.vertex_set == c.vertex_set | {target}


def test_a_walk_longer_than_three_edges_is_a_claw():
    """Vertex 0 sees 1…6, which form the path 1-2-3-4-5-6; the cycle is
    (0, 5, 6).  The only walk from the target 1 to succ(0) = 5 inside N(0)
    has four edges, so 0 centers a claw, which is reported with a witness
    that re-checks, and no longer walk is used."""
    from helpers import check_claw_witness

    g = FiniteGraph(range(7), [(0, v) for v in range(1, 7)] + [(v, v + 1) for v in range(1, 6)])
    with pytest.raises(HypothesisError) as exc:
        find_path_extension(g, CycleEmbedding([0, 5, 6]), 1, 0)
    assert (exc.value.predicate, exc.value.witness, str(exc.value)) == (
        "claw_free", (0, 1, 3, 5), "induced claw centered at 0")
    assert check_claw_witness(g, exc.value.witness)


def test_case_two_found_in_enumerated_class(hypothesis_class_small):
    """Brute-force search over the hypothesis class, walking every
    intermediate cycle of the construction, until base re-routes appear;
    every applied result must be a valid enlarged cycle."""
    found = 0
    for g in hypothesis_class_small:
        if len(g) < 5:
            continue
        cycles = [shortest_cycle_through(g, g.vertices[0])]
        while not cycles[-1].vertex_set >= frozenset(g.vertices):
            # the cover's targets are goal vertices, so the one added must
            # be next to the cycle
            on = cycles[-1].vertex_set
            nearest = min(v for v in g.vertices if v not in on and not on.isdisjoint(g.neighbor_set(v)))
            grown, log = extend_to_cover(g, cycles[-1], sorted(on | {nearest}))
            cycles.append(grown)
        for c in cycles:
            for target in sorted(set(g.vertices) - c.vertex_set):
                for base in sorted(set(g.neighbors(target)) & c.vertex_set):
                    ext = find_path_extension(g, c, target, base)
                    assert validate_extension(g, c, ext) == []
                    new = apply_path_extension(g, c, ext)
                    assert validate_cycle(g, new).ok
                    assert c.vertex_set | {target} <= new.vertex_set
                    if ext.case is ExtensionCase.TWO:
                        found += 1
    assert found >= 1


def test_truncate_extension_suffix():
    g, c, target, base = case_two_witness_graph()
    # extend the graph with a pendant path vertex to force a longer walk
    g2 = FiniteGraph(range(6), list(g.edges()) + [(5, 0), (5, 4), (5, 2)])
    c2 = CycleEmbedding([0, 1, 2, 3])
    ext = find_path_extension(g2, c2, 5, 0)
    if len(ext.extension_path) > 2:
        mid = ext.extension_path[1]
        if mid not in c2:
            shorter = truncate_extension(g2, c2, ext, mid)
            assert shorter.extension_path == ext.extension_path[1:]
            assert validate_extension(g2, c2, shorter) == []


def test_apply_rejects_invalid_extension():
    g = complete_graph(4)
    c = CycleEmbedding([0, 1, 2])
    bad = PathExtension(ExtensionCase.ONE, 3, 0, (3, 3), ())
    with pytest.raises(DomainError):
        apply_path_extension(g, c, bad)
    # wrong endvertex
    bad2 = PathExtension(ExtensionCase.ONE, 3, 0, (3, 0), ())
    with pytest.raises(DomainError):
        apply_path_extension(g, c, bad2)


def test_extend_to_cover_noop_and_k4():
    g = complete_graph(4)
    c = CycleEmbedding([0, 1, 2])
    same, log = extend_to_cover(g, c, [0, 1])
    assert same == c and log == []
    full, log = extend_to_cover(g, c, g.vertices)
    assert full.vertex_set == frozenset(g.vertices)
    assert validate_cycle(g, full).ok


def test_extend_to_cover_octahedron_three_steps():
    g = complete_multipartite(2, 2, 2)
    c = CycleEmbedding([0, 2, 4])
    full, log = extend_to_cover(g, c, g.vertices)
    assert full.vertex_set == frozenset(g.vertices)
    assert len(log) == 3
    assert hamilton_cycle_oracle(g) is not None


def test_new_edges_stay_near_base(hypothesis_class_small):
    for g in hypothesis_class_small[:40]:
        if len(g) < 5:
            continue
        c = shortest_cycle_through(g, g.vertices[0])
        for target in sorted(set(g.vertices) - c.vertex_set):
            bases = sorted(set(g.neighbors(target)) & c.vertex_set)
            if not bases:
                continue
            base = bases[0]
            ext = find_path_extension(g, c, target, base)
            new = apply_path_extension(g, c, ext)
            near = set(neighborhood_k(g, [base], 2)) | {base}
            for u, v in new.edge_set() - c.edge_set():
                assert u in near and v in near


def test_singular_classification_brute_force(hypothesis_class_small):
    """Interior path vertices on the cycle must be exactly those whose
    cycle-neighbors avoid the base's neighborhood (checked directly)."""
    for g in hypothesis_class_small[:60]:
        if len(g) < 5:
            continue
        c = shortest_cycle_through(g, g.vertices[0])
        for target in sorted(set(g.vertices) - c.vertex_set):
            bases = sorted(set(g.neighbors(target)) & c.vertex_set)
            if not bases:
                continue
            ext = find_path_extension(g, c, target, bases[0])
            nbrs = set(g.neighbors(ext.base))
            for z in ext.extension_path[1:-1]:
                if z in c:
                    singular = c.succ(z) not in nbrs and c.pred(z) not in nbrs
                    if ext.case is ExtensionCase.ONE:
                        assert singular
                    else:
                        assert singular  # interior vertices before the re-route point
                    assert g.has_edge(c.succ(z), c.pred(z))


def test_shortest_cycle_through():
    g = wheel_graph(5)
    c = shortest_cycle_through(g, 0)
    assert len(c) == 3 and 0 in c
    with pytest.raises(DomainError):
        shortest_cycle_through(path_graph(4), 1)


def _seed_cycle(search, g, v):
    try:
        return search(g, v).order
    except DomainError as exc:
        return ("DomainError", str(exc))


def assert_seed_cycles_match_previous_search(g):
    # The previous search runs one BFS per neighbor pair, so graphs past 30
    # vertices are checked at about ten spread-out vertices only.
    step = len(g) // 10 if len(g) > 30 else 1
    for v in g.vertices[::step]:
        got = _seed_cycle(shortest_cycle_through, g, v)
        assert got == _seed_cycle(reference_shortest_cycle_through, g, v), (v, g.edges())


def test_seed_cycles_match_previous_search(small_graphs):
    """The first triangle returned at once is the cycle the all-pairs search
    kept: on dense graphs, every graph with n <= 7 and the seeded graphs."""
    graphs = dense_neighborhood_graphs() + seeded_random_graphs()
    graphs += [g for n in range(1, 8) for g in small_graphs[n]]
    for g in graphs:
        assert_seed_cycles_match_previous_search(g)


def test_seed_cycle_only_adjacent_pair_comes_last():
    # N(0) = {1, 2, 3, 4}; of its pairs only the last, 3-4, is an edge, and
    # the earlier pairs meet through 5, 6 and 7.
    g = FiniteGraph(range(8), [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4),
                               (1, 5), (5, 2), (2, 6), (6, 3), (1, 7), (7, 4)])
    assert shortest_cycle_through(g, 0).order == (0, 3, 4)
    assert_seed_cycles_match_previous_search(g)


def test_seed_cycle_without_a_triangle():
    g = cycle_graph(12)
    assert shortest_cycle_through(g, 3) == CycleEmbedding(range(12))
    assert_seed_cycles_match_previous_search(g)


def test_finite_hamilton_small_named():
    for g in (complete_graph(3), wheel_graph(6 - 1), complete_multipartite(2, 2, 2),
              graph_power(path_graph(8), 2)):
        cert = finite_hamilton(g)
        assert cert.cycle.vertex_set == frozenset(g.vertices)
        assert validate_cycle(g, cert.cycle).ok
        assert replay_certificate(g, cert).ok
        assert hamilton_cycle_oracle(g) is not None


def test_finite_hamilton_rejections():
    with pytest.raises(HypothesisError) as exc:
        finite_hamilton(cycle_graph(6))
    assert exc.value.predicate == "locally_connected"
    from clawham.constructions import star_graph

    with pytest.raises(HypothesisError) as exc:
        finite_hamilton(star_graph(3))
    assert exc.value.predicate == "claw_free"
    with pytest.raises(HypothesisError) as exc:
        finite_hamilton(FiniteGraph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    assert exc.value.predicate == "connected"
    with pytest.raises(DomainError):
        finite_hamilton(path_graph(2))


def test_hub_with_six_rim_is_rejected_by_the_claw_gate():
    """A hub joined to a 6-cycle is Hamiltonian but fails claw-freeness, so
    the gated construction refuses it with a genuine claw."""
    g = wheel_graph(6)
    assert hamilton_cycle_oracle(g) is not None
    with pytest.raises(HypothesisError) as exc:
        finite_hamilton(g)
    assert exc.value.predicate == "claw_free"
    from helpers import check_claw_witness

    assert check_claw_witness(g, exc.value.witness)


def test_certificate_tampering_detected():
    g = complete_multipartite(2, 2, 2)
    cert = finite_hamilton(g)
    obj = cert.to_json_obj()
    # tamper with the final cycle
    tampered = dict(obj)
    order = list(obj["final_cycle"])
    order[1], order[2] = order[2], order[1]
    tampered["final_cycle"] = order
    bad = HamiltonCertificate.from_json_obj(tampered)
    rep = replay_certificate(g, bad)
    assert not rep.ok and "differs" in rep.failure
    # replay against the wrong graph reports the first bad step
    other = cycle_graph(6)
    rep = replay_certificate(other, HamiltonCertificate.from_json_obj(obj))
    assert not rep.ok
    # a case-two step whose bridged list repeats its vertex is a failed step
    g, obj = repeated_bridged_certificate()
    i = next(i for i, e in enumerate(obj["extensions"]) if e["bridged"] == [0, 0])
    rep = replay_certificate(g, HamiltonCertificate.from_json_obj(obj))
    assert (rep.ok, rep.steps_ok) == (False, i)
    assert rep.failure.endswith("bridged set repeats a vertex")


def test_randomized_contract_small(hypothesis_class_small):
    """A smaller sibling of the acceptance-scale randomized sweep."""
    rng = random.Random(20240811)
    pool = [g for g in hypothesis_class_small if len(g) >= 5]
    checked = 0
    while checked < 800:
        g = rng.choice(pool)
        v0 = rng.choice(g.vertices)
        try:
            c = shortest_cycle_through(g, v0)
        except DomainError:
            continue
        off = sorted(set(g.vertices) - c.vertex_set)
        if not off:
            continue
        target = rng.choice(off)
        bases = sorted(set(g.neighbors(target)) & c.vertex_set)
        if not bases:
            continue
        base = rng.choice(bases)
        ext = find_path_extension(g, c, target, base)
        assert validate_extension(g, c, ext) == []
        new = apply_path_extension(g, c, ext)
        assert validate_cycle(g, new).ok
        assert c.vertex_set | {target} <= new.vertex_set
        checked += 1
    assert checked == 800
