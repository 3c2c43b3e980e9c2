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
    _COVER_MIN_DEGREE,
    _hypotheses_at,
    _two_clique_split,
    check_all,
    claw_at,
    is_chordal,
    is_claw_free,
    is_locally_connected,
    is_two_connected,
    locally_connected_at,
    neighborhood_components,
)
from helpers import (
    chordal_oracle,
    check_claw_witness,
    check_hole_witness,
    check_local_connectivity_witness,
    dense_neighborhood_graphs,
    has_induced_claw_oracle,
    locally_connected_oracle,
    reference_claw_at,
    reference_claw_scan,
    reference_components,
    reference_is_chordal,
    reference_is_claw_free,
    reference_is_locally_connected,
    reference_is_two_connected,
    reference_locally_connected_at,
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
    """Every report, ``check_all``'s included, equals the reference one;
    each vertex's claw and flood fill equal both the definition and the scans
    they replaced, the fused verdicts equal them, and whatever
    the two-clique split decides agrees with them."""
    expected = {name: _report(ref, g) for name, (_, ref) in REFERENCES.items()}
    for name, (live, _) in REFERENCES.items():
        assert _report(live, g) == expected[name], (name, g.edges())
    if len(g) < 3:
        expected["two_connected"] = None
    comps = reference_components(g)
    expected["connected"] = (
        {"holds": True, "witness": None, "note": ""} if len(comps) <= 1 else
        {"holds": False, "witness": [comps[0][0], comps[1][0]], "note": "graph is disconnected"})
    reports = {name: rep if rep is None else rep.to_json_obj()
               for name, rep in check_all(g).items()}
    assert reports == expected, g.edges()
    for v in g.vertices:
        triple = claw_at(g, v)
        assert triple == reference_claw_at(g, v) == reference_claw_scan(g, v), (v, g.edges())
        comps = reference_neighborhood_components(g, v)
        assert neighborhood_components(g, v) == comps
        flood = locally_connected_at(g, v)
        assert flood == reference_locally_connected_at(g, v) == (len(comps) <= 1), (v, g.edges())
        assert _hypotheses_at(g, v) == (triple is None, flood), (v, g.edges())
        if g.degree(v):
            covered, connected = _two_clique_split(g, v)
            assert not covered or triple is None, (v, g.edges())
            assert connected in (None, flood), (v, g.edges())


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


def test_reports_match_references_dense():
    """L(K_n), K_n, complete multipartite graphs, G(n, 0.9) and the
    finite-families benchmark inputs: the early exits fire at once."""
    for g in dense_neighborhood_graphs():
        assert_matches_references(g)


def _neighborhood_graph(n_nbrs: int, nbr_edges) -> FiniteGraph:
    """Vertex 0 joined to 1..n_nbrs, plus ``nbr_edges`` among them."""
    return FiniteGraph(range(n_nbrs + 1),
                       [(0, u) for u in range(1, n_nbrs + 1)] + list(nbr_edges))


def test_flood_connects_at_the_last_neighbor_it_reaches():
    # N(0) is the path 1-2-...-8: the flood from 1 covers N(0) only when it
    # reaches 8.
    g = _neighborhood_graph(8, [(u, u + 1) for u in range(1, 8)])
    assert locally_connected_at(g, 0)
    assert is_locally_connected(g).to_json_obj() == {"holds": True, "witness": None, "note": ""}
    assert_matches_references(g)


@pytest.mark.parametrize("loner", [1, 5, 8])
def test_flood_splits_after_almost_all_is_reached(loner):
    # N(0) is a path through all of 1..8 but ``loner``, which touches only 0.
    rest = [u for u in range(1, 9) if u != loner]
    g = _neighborhood_graph(8, zip(rest, rest[1:]))
    assert not locally_connected_at(g, 0)
    assert is_locally_connected(g).to_json_obj() == {
        "holds": False, "witness": list(range(9)), "note": "neighborhood of 0 splits into 2 parts"}
    assert_matches_references(g)


def test_claw_only_the_last_a_starts():
    # The first n_nbrs - 3 neighbors see all of N(0) = 1..n_nbrs, and the last
    # three see none of each other: the only claw at 0 starts at the
    # third-last neighbor.  From the cover's gate on, the first neighbor
    # seeing all of N(0) leaves no split to try, and the scan finds the claw.
    for n_nbrs in (6, _COVER_MIN_DEGREE, 9, 12):
        last = (n_nbrs - 2, n_nbrs - 1, n_nbrs)
        g = _neighborhood_graph(n_nbrs, [(a, b) for a in range(1, n_nbrs - 2)
                                         for b in range(a + 1, n_nbrs + 1)])
        assert _two_clique_split(g, 0) == (False, True)
        assert claw_at(g, 0) == last
        assert _hypotheses_at(g, 0) == (False, True)
        assert is_claw_free(g).to_json_obj() == {
            "holds": False, "witness": [0, *last], "note": "induced claw centered at 0"}
        assert_matches_references(g)


def _all_adjacent(g: FiniteGraph, xs) -> bool:
    return all(g.has_edge(a, b) for i, a in enumerate(xs) for b in xs[i + 1:])


def _c5_of_k2() -> list:
    """C5[K2]: (i, s) -> 1 + 2i + s, adjacent within a pair and between
    pairs i, i + 1."""
    edges = [(1 + 2 * i, 2 + 2 * i) for i in range(5)]
    edges += [(1 + 2 * i + s, 1 + 2 * ((i + 1) % 5) + t)
              for i in range(5) for s in (0, 1) for t in (0, 1)]
    return edges


@pytest.mark.parametrize("n_nbrs, nbr_edges", [
    (10, _c5_of_k2()),
    (9, [(u, v) for u in range(1, 10) for v in range(u + 2, 10) if (u, v) != (1, 9)]),
], ids=["C5[K2]", "complement-of-C9"])
def test_claw_free_neighborhood_without_a_two_clique_cover(n_nbrs, nbr_edges):
    # N(0) has no three pairwise non-adjacent vertices, but its complement
    # holds an odd cycle, so no two cliques cover it: the split fails and the
    # scan proves the vertex claw-free.
    g = _neighborhood_graph(n_nbrs, nbr_edges)
    assert g.degree(0) >= _COVER_MIN_DEGREE
    assert _two_clique_split(g, 0) == (False, None)
    assert claw_at(g, 0) is None
    assert is_claw_free(g).holds
    assert _hypotheses_at(g, 0) == (True, True)
    assert_matches_references(g)


def test_first_neighbor_adjacent_to_all_of_the_neighborhood():
    # 1 sees all of N(0) = 1..8; the rest is the cliques 2..5 and 6..8.
    g = _neighborhood_graph(8, [(1, u) for u in range(2, 9)]
                            + [(a, b) for a in range(2, 6) for b in range(a + 1, 6)]
                            + [(6, 7), (6, 8), (7, 8), (3, 7)])
    assert _two_clique_split(g, 0) == (False, True)
    assert claw_at(g, 0) is None
    assert _hypotheses_at(g, 0) == (True, True)
    assert_matches_references(g)


def test_two_clique_cover_the_greedy_split_misses():
    # N(0) = 1..7 is covered by the cliques 1, 3, 5, 6 and 2, 4, 7.  The
    # split seeds P with 1 and Q with 2, and sends every common neighbor of
    # 1 and 2 to P, where 3 and 4 do not meet: the split fails, the scan
    # finds no claw.
    p, q = (1, 3, 5, 6), (2, 4, 7)
    cross = [(1, 4), (1, 7), (2, 3), (2, 5), (2, 6), (4, 5), (4, 6)]
    g = _neighborhood_graph(7, [(a, b) for k in (p, q) for i, a in enumerate(k)
                                for b in k[i + 1:]] + cross)
    assert _all_adjacent(g, p) and _all_adjacent(g, q)
    assert _two_clique_split(g, 0) == (False, None)
    assert claw_at(g, 0) is None
    assert _hypotheses_at(g, 0) == (True, True)
    assert_matches_references(g)


def test_claw_at_matches_references_on_perturbed_two_clique_neighborhoods():
    """Vertex 0 with 7..12 neighbors split into two cliques with random edges
    between them, some clique edges removed and the neighbors relabelled:
    the cover proves some vertices claw-free, fails on others that are, and
    fails where the scan finds a claw."""
    import random

    rng = random.Random(17)
    outcomes = set()
    for _ in range(300):
        n_nbrs = rng.randint(_COVER_MIN_DEGREE, 12)
        label = list(range(1, n_nbrs + 1))
        rng.shuffle(label)
        cut = rng.randint(1, n_nbrs - 1)
        sides = (label[:cut], label[cut:])
        edges = {(min(a, b), max(a, b)) for side in sides
                 for i, a in enumerate(side) for b in side[i + 1:]}
        edges |= {(min(a, b), max(a, b)) for a in sides[0] for b in sides[1]
                  if rng.random() < 0.4}
        for e in rng.sample(sorted(edges), rng.choice([0, 0, 1, 2])):
            edges.discard(e)
        g = _neighborhood_graph(n_nbrs, sorted(edges))
        covered = _two_clique_split(g, 0)[0]
        outcomes.add((covered, claw_at(g, 0) is None))
        assert_matches_references(g)
    assert outcomes == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("n_nbrs", range(_COVER_MIN_DEGREE, 17))
def test_two_clique_neighborhoods_with_no_or_one_cross_edge(n_nbrs):
    """N(0) is two cliques, cut at every size and relabelled: with no edge
    between them the split succeeds and finds N(0) disconnected; with exactly
    one, N(0) is connected, which the split decides unless its first
    neighbor sees all of N(0)."""
    import random

    rng = random.Random(n_nbrs)
    for cut in range(1, n_nbrs):
        label = list(range(1, n_nbrs + 1))
        rng.shuffle(label)
        sides = (label[:cut], label[cut:])
        edges = [(a, b) for side in sides for i, a in enumerate(side) for b in side[i + 1:]]
        g = _neighborhood_graph(n_nbrs, edges)
        assert _two_clique_split(g, 0) == (True, False)
        assert _hypotheses_at(g, 0) == (True, False)
        assert_matches_references(g)
        for cross in {(sides[0][0], sides[1][0]), (sides[0][-1], sides[1][-1]),
                      (min(sides[0]), max(sides[1]))}:
            g = _neighborhood_graph(n_nbrs, edges + [cross])
            assert _two_clique_split(g, 0)[1] is True
            assert _hypotheses_at(g, 0) == (True, True)
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
