from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawham.errors import DomainError, GraphInputError
from clawham.graph import (
    CycleEmbedding,
    FiniteGraph,
    bfs,
    bfs_distances,
    components,
    components_within,
    cut,
    induced_subgraph,
    is_connected,
    label_components,
    neighborhood_k,
    shortest_path,
    validate_cycle,
)
from clawham.constructions import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from conftest import double_ray_square_truncation
from helpers import (
    girth_oracle,
    neighborhood_oracle,
    reference_bfs,
    reference_bfs_distances,
    reference_components,
    reference_components_within,
    reference_shortest_path,
    seeded_random_graphs,
)


def test_construction_rejects_bad_input():
    with pytest.raises(GraphInputError):
        FiniteGraph([0, 1], [(0, 0)])
    with pytest.raises(GraphInputError):
        FiniteGraph([0, 1], [(0, 2)])
    with pytest.raises(GraphInputError):
        FiniteGraph([-1, 0], [])


@pytest.mark.parametrize("edges, bad", [
    ([(0, True), (2.0, 0), (1, 2)], "(0, True)"),
    ([(0, 1), (2.0, 0)], "(2.0, 0)"),
    ([(1, 2), (0, 1.0)], "(0, 1.0)"),
    ([(False, 2)], "(False, 2)"),
    ([(0, "1")], "(0, '1')"),
    ([(0, [1])], "(0, [1])"),
])
def test_construction_rejects_edge_endpoints_that_are_not_ids(edges, bad):
    # True == 1 and 2.0 == 2, so these endpoints pass a membership test; before
    # the endpoint rule they built a graph equal to the all-int one
    with pytest.raises(GraphInputError) as info:
        FiniteGraph([0, 1, 2], edges)
    assert str(info.value) == f"edge {bad}: vertex ids must be non-negative integers"


def test_int_subclass_endpoints_follow_the_vertex_rule():
    class Label(int):
        pass

    g = FiniteGraph([Label(0), 1], [(Label(0), Label(1))])
    assert g == FiniteGraph([0, 1], [(0, 1)])


def test_adjacency_is_symmetric_and_sorted():
    g = FiniteGraph([3, 1, 2], [(3, 1), (1, 2)])
    assert g.vertices == (1, 2, 3)
    assert g.neighbors(1) == (2, 3)
    assert g.has_edge(3, 1) and g.has_edge(1, 3)


@pytest.mark.parametrize("accessor", ["neighbors", "neighbor_set", "degree"])
def test_accessor_contract(accessor):
    g = FiniteGraph([0, 1, 2], [(0, 1), (1, 2)])
    read = getattr(g, accessor)
    # True and 1.0 hash and compare equal to 1, so they read vertex 1
    assert read(True) == read(1.0) == read(1)
    without_one = getattr(FiniteGraph([0, 2], [(0, 2)]), accessor)
    for v in (9, True, 1.0, "1", None, -1):
        reader = without_one if v in (True, 1.0) else read
        with pytest.raises(DomainError) as exc:
            reader(v)
        assert str(exc.value) == f"vertex {v} is not in the graph"
        # a miss shows only the DomainError, not the failed lookup behind it
        assert exc.value.__cause__ is None
        assert exc.value.__suppress_context__ or exc.value.__context__ is None
    with pytest.raises(TypeError, match="unhashable"):
        read([1])


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


@pytest.mark.parametrize("order, bad", [
    ([0.9, 2.2, "1", 3.0], 0.9),
    ([True, 2.5, 3], True),
    (["a", 1, 2], "a"),
    ([0, 2, 1, -3], -3),
])
def test_cycle_embedding_takes_only_vertex_ids(order, bad):
    # FiniteGraph's rule: a non-negative int that is not a bool; nothing is
    # truncated by int()
    with pytest.raises(DomainError) as exc:
        CycleEmbedding(order)
    assert str(exc.value) == f"vertex ids must be non-negative integers, got {bad!r}"


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


# -- differential tests against the previous deque-BFS implementations --------


def _random_subset(rng, vertices):
    p = rng.choice((0.2, 0.5, 0.8, 1.0))
    return [v for v in vertices if rng.random() < p]


def test_components_within_matches_reference():
    rng = random.Random(7)
    for g in seeded_random_graphs():
        assert components(g) == reference_components(g)
        for _ in range(6):
            x = _random_subset(rng, g.vertices)
            assert components_within(g, x) == reference_components_within(g, x)


def test_connectivity_is_one_search_matching_the_components():
    """``is_connected`` and ``connected_report`` search from the least
    vertex only; their verdict, and the witness of the least vertex and the
    least one it does not reach, equal the reference components' on random
    graphs, relabelled disconnected ones and graphs on 0 to 2 vertices."""
    from clawham.predicates import connected_report

    rng = random.Random(3)
    tiny = [FiniteGraph([], []), FiniteGraph([4], []), FiniteGraph([2, 9], []),
            FiniteGraph([2, 9], [(2, 9)])]
    graphs = tiny + seeded_random_graphs()
    for g in seeded_random_graphs():
        to = dict(zip(g.vertices, rng.sample(range(200), len(g))))
        graphs.append(FiniteGraph(to.values(), [(to[u], to[v]) for u, v in g.edges()]))
    disconnected = 0
    for g in graphs:
        comps = reference_components(g)
        assert is_connected(g) == (len(comps) <= 1), g.edges()
        report = connected_report(g)
        if len(comps) <= 1:
            assert report.holds and report.witness is None
            continue
        disconnected += 1
        assert (report.holds, report.witness) == (False, (comps[0][0], comps[1][0])), g.edges()
    assert disconnected > 30


def test_components_within_rejects_unknown_vertices():
    with pytest.raises(DomainError):
        components_within(path_graph(3), [0, 9])
    with pytest.raises(DomainError):
        label_components(path_graph(3), [0, 9], [0])


def test_label_components_matches_reference():
    """The labelled components are the reference components of G[allowed]
    that meet ``seeds`` (all of them for None), in the same order; seeds
    outside ``allowed`` are ignored, and the owner map names each labelled
    vertex's component and no other vertex."""
    rng = random.Random(12)
    nonempty = Counter()
    for g in seeded_random_graphs():
        vs = list(g.vertices)
        for _ in range(4):
            allowed = _random_subset(rng, vs)
            inside = [v for v in allowed if rng.random() < 0.2]
            outside = [v for v in vs if v not in allowed and rng.random() < 0.5]
            straddling = rng.sample(inside + outside, len(inside + outside))
            for kind, seeds in (("none", None), ("inside", inside),
                                ("straddling", straddling), ("empty", [])):
                comps, owner = label_components(g, allowed, seeds)
                hit = set(allowed) if seeds is None else set(seeds) & set(allowed)
                want = tuple(c for c in reference_components_within(g, allowed)
                             if hit.intersection(c))
                assert comps == want, (g.edges(), allowed, seeds)
                assert owner == {v: i for i, c in enumerate(want) for v in c}
                nonempty[kind] += bool(comps)
    assert min(nonempty["none"], nonempty["inside"], nonempty["straddling"]) > 100, nonempty


def test_paths_and_distances_match_reference(small_graphs):
    """Same distances, and the same shortest path with the same tie-breaks."""
    rng = random.Random(11)
    graphs = [g for n in range(1, 7) for g in small_graphs[n]] + seeded_random_graphs()
    for g in graphs:
        vs = list(g.vertices)
        sources = _random_subset(rng, vs)
        assert bfs_distances(g, sources) == reference_bfs_distances(g, sources)
        for start in rng.sample(vs, min(6, len(vs))):
            assert bfs_distances(g, [start]) == reference_bfs_distances(g, [start])
            goals = rng.sample(vs, min(rng.randint(1, 3), len(vs)))
            allowed = None if rng.random() < 0.3 else _random_subset(rng, vs) + [start]
            assert shortest_path(g, start, goals, allowed) == reference_shortest_path(
                g, start, goals, allowed
            ), (g.edges(), start, goals, allowed)


def test_eager_bfs_matches_the_generator_and_stops_early():
    """The parent map is the old generator's visit, in its order, cut where
    the goals are all reached (the first one with ``any_goal``), though
    never inside the sources, or past ``depth``."""
    rng = random.Random(19)
    stops = Counter()
    for g in seeded_random_graphs():
        for _ in range(6):
            sources = rng.sample(g.vertices, rng.randint(1, min(3, len(g))))
            within = None if rng.random() < 0.3 else set(
                rng.sample(g.vertices, rng.randint(1, len(g)))
            )
            visit = list(reference_bfs(g, sources, within))
            assert list(bfs(g, sources, within).items()) == [(v, u) for v, u, _ in visit]
            goals = set(rng.sample(g.vertices, rng.randint(1, min(4, len(g)))))
            for any_goal in (False, True):
                want, left = [], set(goals)
                for v, u, d in visit:
                    want.append((v, u))
                    left.discard(v)
                    if d == 0 and len(want) < len(set(sources)):
                        continue
                    if len(left) < len(goals) if any_goal else not left:
                        stops[any_goal] += 1
                        break
                got = bfs(g, sources, within, goals=goals, any_goal=any_goal)
                assert list(got.items()) == want
            depth = rng.randint(0, 3)
            got = bfs(g, sources, within, depth=depth)
            assert list(got.items()) == [(v, u) for v, u, d in visit if d <= depth]
    assert stops[False] and stops[True]
