from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawham.errors import DomainError, GraphInputError
from clawham.graph import (
    CycleEmbedding,
    FiniteGraph,
    components,
    cut,
    induced_subgraph,
    neighborhood_k,
    validate_cycle,
)
from clawham.constructions import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from conftest import double_ray_square_truncation
from helpers import girth_oracle, neighborhood_oracle


def test_construction_rejects_bad_input():
    with pytest.raises(GraphInputError):
        FiniteGraph([0, 1], [(0, 0)])
    with pytest.raises(GraphInputError):
        FiniteGraph([0, 1], [(0, 2)])
    with pytest.raises(GraphInputError):
        FiniteGraph([-1, 0], [])


def test_adjacency_is_symmetric_and_sorted():
    g = FiniteGraph([3, 1, 2], [(3, 1), (1, 2)])
    assert g.vertices == (1, 2, 3)
    assert g.neighbors(1) == (2, 3)
    assert g.has_edge(3, 1) and g.has_edge(1, 3)


def test_neighborhood_path():
    g = path_graph(3)  # a-b-c as 0-1-2
    assert neighborhood_k(g, [0], 1) == (1,)
    assert neighborhood_k(g, [0], 2) == (1, 2)


def test_neighborhood_excludes_set_members():
    g = path_graph(5)
    assert 0 not in neighborhood_k(g, [0, 1], 3)
    assert 1 not in neighborhood_k(g, [0, 1], 3)


def test_neighborhood_double_ray_square_truncation():
    g, ids = double_ray_square_truncation(-10, 10)
    got = neighborhood_k(g, [ids[0]], 2)
    expected = tuple(sorted(ids[i] for i in (-4, -3, -2, -1, 1, 2, 3, 4)))
    assert got == expected
    # cross-check with the independent BFS oracle
    assert set(got) == neighborhood_oracle(g, [ids[0]], 2)


def test_neighborhood_unknown_vertex():
    with pytest.raises(DomainError):
        neighborhood_k(path_graph(3), [7], 1)


def test_cut_triangle_and_empty():
    g = complete_graph(3)
    assert cut(g, [0]) == ((0, 1), (0, 2))
    assert cut(g, []) == ()
    c4 = cycle_graph(4)
    assert cut(c4, [0, 1]) == ((0, 3), (1, 2))


def test_cut_complement_symmetry(small_graphs):
    for g in small_graphs[5]:
        for mask in range(1 << 5):
            x = [v for v in g.vertices if mask >> v & 1]
            y = [v for v in g.vertices if not mask >> v & 1]
            assert cut(g, x) == cut(g, y)
        break  # one representative is plenty for the full mask sweep


def test_induced_subgraph_examples():
    k4 = complete_graph(4)
    t = induced_subgraph(k4, [0, 2, 3])
    assert t.edge_count() == 3
    c5 = cycle_graph(5)
    p = induced_subgraph(c5, [0, 1, 2])
    assert p.edges() == ((0, 1), (1, 2))


def test_induced_neighborhood_of_petersen_is_empty():
    g = petersen_graph()
    assert girth_oracle(g) == 5  # oracle: girth 5 forces independent neighborhoods
    for v in g.vertices:
        sub = induced_subgraph(g, g.neighbors(v))
        assert len(sub) == 3 and sub.edge_count() == 0


def test_components():
    g = complete_graph(4)
    assert components(g) == ((0, 1, 2, 3),)
    isolated = FiniteGraph(range(3), [])
    assert components(isolated) == ((0,), (1,), (2,))
    two = FiniteGraph(range(7), [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])
    assert [len(c) for c in components(two)] == [4, 3]


def test_cycle_embedding_canonical_orientation():
    c = CycleEmbedding([2, 1, 0, 3])
    assert c.order[0] == 0
    assert c.order[1] == min(c.order[1], c.order[-1])
    assert c.succ(c.order[0]) == c.order[1]
    assert c.pred(c.order[0]) == c.order[-1]
    # all rotations and both directions canonicalize identically
    seq = [5, 2, 8, 1, 9]
    base = CycleEmbedding(seq)
    for i in range(len(seq)):
        rot = seq[i:] + seq[:i]
        assert CycleEmbedding(rot) == base
        assert CycleEmbedding(rot[::-1]) == base


def test_validate_cycle_reports():
    k3 = complete_graph(3)
    assert validate_cycle(k3, [0, 1, 2]).ok
    bad = validate_cycle(k3, [0, 1, 1])
    assert not bad.ok and bad.reason == "duplicate-vertex" and bad.witness == (1,)
    c4 = cycle_graph(4)
    res = validate_cycle(c4, [0, 1, 3, 2])
    assert not res.ok and res.reason == "missing-edge" and res.witness == (1, 3)


@st.composite
def random_graph(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return FiniteGraph(range(n), picked)


@given(random_graph(), st.integers(min_value=1, max_value=4))
@settings(max_examples=120, deadline=None)
def test_neighborhood_matches_bfs_oracle(g, k):
    for v in g.vertices:
        assert set(neighborhood_k(g, [v], k)) == neighborhood_oracle(g, [v], k)


def test_neighborhood_matches_bfs_oracle_exhaustive(small_graphs):
    """Every graph up to 7 vertices, every singleton source, k = 1..3."""
    for n in range(1, 8):
        for g in small_graphs[n]:
            for v in g.vertices:
                for k in (1, 2, 3):
                    assert set(neighborhood_k(g, [v], k)) == neighborhood_oracle(g, [v], k)


@given(random_graph(), st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_neighborhood_monotone_and_layered(g, k):
    for v in g.vertices:
        nk = set(neighborhood_k(g, [v], k))
        nk1 = set(neighborhood_k(g, [v], k + 1))
        assert nk <= nk1
        outer = nk1 - nk - {v}
        if nk | {v}:
            reach = set(neighborhood_k(g, nk | {v}, 1))
            assert outer <= reach


@given(random_graph(max_n=7))
@settings(max_examples=80, deadline=None)
def test_components_partition_and_separation(g):
    comps = components(g)
    all_vs = [v for comp in comps for v in comp]
    assert sorted(all_vs) == list(g.vertices)
    owner = {v: i for i, comp in enumerate(comps) for v in comp}
    for u, v in g.edges():
        assert owner[u] == owner[v]


def test_even_crossing_of_cuts(small_graphs):
    """A cycle crosses every vertex cut in an even number of edges."""
    from itertools import combinations

    c = CycleEmbedding([0, 1, 2, 3, 4])
    g = cycle_graph(5)
    for r in range(6):
        for sub in combinations(range(5), r):
            crossing = set(cut(g, sub)) & c.edge_set()
            assert len(crossing) % 2 == 0
