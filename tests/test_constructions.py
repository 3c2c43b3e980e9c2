from __future__ import annotations

import gc
import hashlib
import random

import pytest

from clawham import constructions
from clawham.constructions import (
    canonical_key,
    complete_graph,
    complete_multipartite,
    cube_graph,
    cycle_graph,
    enumerate_connected_graphs,
    enumerate_graphs,
    graph_power,
    line_graph,
    line_graph_of,
    path_graph,
    petersen_graph,
    star_graph,
    triangular_ladder,
    wheel_graph,
)
from clawham.errors import DomainError
from clawham.graph import FiniteGraph, is_connected
from clawham.predicates import is_claw_free, is_locally_connected
from helpers import (
    adjacency_dict,
    bfs_distance_oracle,
    reference_canonical_key,
    reference_graph_from_key,
    reference_keys_for,
)


def masks_of(g: FiniteGraph, perm=None) -> list[int]:
    """Adjacency bit masks of g on 0..n-1, with vertex v renamed perm[v]."""
    perm = perm or list(range(len(g)))
    masks = [0] * len(g)
    for u, v in g.edges():
        masks[perm[u]] |= 1 << perm[v]
        masks[perm[v]] |= 1 << perm[u]
    return masks


def test_power_examples():
    p3sq = graph_power(path_graph(3), 2)
    assert p3sq.edge_count() == 3  # a triangle
    c4sq = graph_power(cycle_graph(4), 2)
    assert c4sq.edge_count() == 6  # complete on 4
    p6sq = graph_power(path_graph(6), 2)
    assert is_claw_free(p6sq).holds and is_locally_connected(p6sq).holds


def test_power_one_is_identity_and_diameter_completes():
    for g in (path_graph(5), cycle_graph(6), petersen_graph()):
        assert graph_power(g, 1) == g
        diam = max(
            max(bfs_distance_oracle(adjacency_dict(g), [v]).values())
            for v in g.vertices
        )
        assert graph_power(g, diam) == complete_graph(len(g))


def test_power_distance_semantics():
    g = path_graph(7)
    cube = graph_power(g, 3)
    dist = bfs_distance_oracle(adjacency_dict(g), [0])
    for v in range(1, 7):
        assert cube.has_edge(0, v) == (dist[v] <= 3)


def test_line_graph_examples():
    assert line_graph(complete_graph(3)).graph == complete_graph(3)
    assert line_graph(star_graph(3)).graph == complete_graph(3)
    lp4 = line_graph(path_graph(4)).graph
    assert lp4 == path_graph(3)


def test_line_graph_labels_read_back():
    lg = line_graph(cycle_graph(5))
    assert len(lg.graph) == 5
    labels = lg.edges_of_cycle(lg.graph.vertices)
    assert sorted(labels) == sorted(cycle_graph(5).edges())


def _line_graph_outcome(build, g):
    try:
        return build(g)
    except DomainError as exc:
        return str(exc)


def test_line_graph_matches_reference():
    """``line_graph`` reads its adjacency from ``line_graph_of`` and builds
    the graph and edge labels of the construction from incident edge pairs."""
    from helpers import reference_line_graph, seeded_random_graphs

    fixed = ("petersen", "octahedron", "cube", "glued-triangles")
    families = constructions.NAMED_GRAPHS
    graphs = seeded_random_graphs() + [families[name]() for name in fixed] + [
        family(n) for name, family in sorted(families.items()) if name not in fixed
        for n in (3, 4, 7)
    ]
    assert any(g.edge_count() == 0 for g in graphs)
    for g in graphs:
        want = _line_graph_outcome(reference_line_graph, g)
        assert _line_graph_outcome(line_graph, g) == want


def test_line_graph_of_reproduces_the_bench_oracles():
    """Over their base graphs, ``line_graph_of`` answers as the two
    line-graph oracles of the benchmark: ``tripod-line`` with the same
    labels, ``tri-lattice-line`` under its (x, y, k) edge labels."""
    from helpers import bench_oracles

    from clawham.presentations import GraphPresentation

    bench = bench_oracles()
    tripod = line_graph_of(bench._tripod_neighbors)
    root = ((0, 0, 0), (1, 0, 0))
    ref = GraphPresentation("tripod-line", bench._tripod_line_neighbors, root)
    for label in ref.extract_ball(40).labels:
        assert tripod(label) == bench._tripod_line_neighbors(label)

    steps = bench._TRI_STEPS

    def lattice(p):
        return tuple((p[0] + dx, p[1] + dy) for dx, dy in steps)

    def edge_of(label):
        x, y, k = label
        dx, dy = steps[k]
        return tuple(sorted(((x, y), (x + dx, y + dy))))

    tri = line_graph_of(lattice)
    ref = GraphPresentation("tri-lattice-line", bench._tri_lattice_line_neighbors, (0, 0, 0))
    for label in ref.extract_ball(13).labels:
        want = tuple(sorted(map(edge_of, bench._tri_lattice_line_neighbors(label))))
        assert tri(edge_of(label)) == want


def test_line_graph_rejects_edgeless():
    with pytest.raises(DomainError):
        line_graph(FiniteGraph(range(3), []))


def test_enumeration_counts_match_literature(small_graphs, graphs_on_eight):
    # numbers of graphs / connected graphs per vertex count, up to isomorphism
    graphs = {**small_graphs, 8: graphs_on_eight}
    assert [len(graphs[n]) for n in range(1, 9)] == [1, 2, 4, 11, 34, 156, 1044, 12346]
    connected = [len([g for g in graphs[n] if is_connected(g)]) for n in range(1, 9)]
    assert connected == [1, 1, 2, 6, 21, 112, 853, 11117]
    # claw-free graphs, connected or not (OEIS A086991)
    claw_free = [len([g for g in graphs[n] if is_claw_free(g).holds]) for n in range(3, 9)]
    assert claw_free == [4, 10, 26, 85, 302, 1285]


def test_graphs_built_from_keys_match_the_validating_constructor():
    for n in range(1, 9):
        for key in constructions._keys_for(n):
            g = constructions._graph_from_key(n, key)
            want = reference_graph_from_key(n, key)
            assert g.vertices == want.vertices == tuple(range(n))
            for v in range(n):
                assert g.neighbors(v) == want.neighbors(v), (n, key, v)
                assert g.neighbor_set(v) == want.neighbor_set(v), (n, key, v)


def test_enumeration_builds_new_graphs_on_every_call():
    for enumerate_n in (enumerate_graphs, enumerate_connected_graphs):
        a, b = enumerate_n(5), enumerate_n(5)
        assert a == b
        assert a[0] is not b[0]


@pytest.mark.parametrize("enumerate_n", [enumerate_graphs, enumerate_connected_graphs])
@pytest.mark.parametrize("n", [0, -1])
def test_enumeration_rejects_sizes_below_one(enumerate_n, n):
    with pytest.raises(DomainError):
        enumerate_n(n)


def _live_graphs() -> int:
    gc.collect()
    return sum(isinstance(x, FiniteGraph) for x in gc.get_objects())


def test_enumeration_keeps_no_graphs(monkeypatch):
    # cold caches, so the calls below build every level they need
    monkeypatch.setattr(constructions, "_KEY_CACHE", {1: [0]})
    monkeypatch.setattr(constructions, "_AUTOMORPHISMS", {})
    monkeypatch.setattr(constructions, "_ENUM_CACHE", {}, raising=False)
    before = _live_graphs()
    assert len(enumerate_graphs(6)) == 156
    assert len(enumerate_connected_graphs(6)) == 112
    assert _live_graphs() <= before


def test_enumeration_on_eight_vertices_is_pinned():
    # SHA-256 of the n = 8 key list as the unpruned search produced it
    digest = hashlib.sha256(repr(constructions._keys_for(8)).encode()).hexdigest()
    assert digest == "728bc1276dd89fb7d6706013da92ab6e1d532f14c446b0ec86028d90f694153d"


def test_keys_match_the_unfiltered_generator():
    for n in range(1, 8):
        assert constructions._keys_for(n) == reference_keys_for(n), n


def _last_root_cell(n: int, masks: list[int]) -> set[int]:
    colors, _ = constructions._refine(
        n, constructions._neighbor_lists(n, masks), (0,) * n, 1
    )
    return {v for v in range(n) if colors[v] == max(colors)}


def test_last_root_cell_is_invariant_under_relabeling(small_graphs):
    rng = random.Random(5)
    for n in range(1, 8):
        for g in small_graphs[n]:
            cell = _last_root_cell(n, masks_of(g))
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                assert _last_root_cell(n, masks_of(g, perm)) == {perm[v] for v in cell}


def _cold_sweep(monkeypatch):
    """Build the keys for n <= 7 from empty caches, recording every search
    ``_keys_for`` makes as (n, masks, seeds, key), the number of ``_refine``
    calls, and the automorphisms stored for each n before the next level
    consumes them."""
    monkeypatch.setattr(constructions, "_KEY_CACHE", {1: [0]})
    monkeypatch.setattr(constructions, "_AUTOMORPHISMS", {})
    searches = []
    search = constructions._search

    def recording_search(n, adj_masks, nbrs, root, known):
        key, autos = search(n, adj_masks, nbrs, root, known)
        searches.append((n, list(adj_masks), list(known), key))
        return key, autos

    refines = []
    refine = constructions._refine
    monkeypatch.setattr(constructions, "_search", recording_search)
    monkeypatch.setattr(constructions, "_refine", lambda *args: refines.append(1) or refine(*args))
    stored = {}
    for n in range(2, 8):
        constructions._keys_for(n)
        stored[n] = dict(constructions._AUTOMORPHISMS[n])
    monkeypatch.undo()
    return searches, len(refines), stored


def test_keys_for_searches_about_once_per_class(monkeypatch):
    searches, refines, _ = _cold_sweep(monkeypatch)
    classes = sum(len(constructions._keys_for(n)) for n in range(1, 8))
    assert classes == 1252
    # of the 5758 attachment orbit representatives, the last-cell filter
    # keeps 1253 for a search
    assert len(searches) == 1253
    # 9838 calls when the searches start without the parent's automorphisms
    # and refine the root again, and 4531 when every root starts from one
    # cell and every discrete split is refined once more; 3211 now
    assert refines <= 3500


def test_seeded_searches_keep_keys(monkeypatch):
    searches, _, stored = _cold_sweep(monkeypatch)
    for n, found in stored.items():
        assert sorted(found) == constructions._keys_for(n)
        for key, autos in found.items():
            edges = set(constructions._graph_from_key(n, key).edges())
            for a in autos:
                assert sorted(a) == list(range(n))
                assert {tuple(sorted((a[u], a[v]))) for u, v in edges} == edges
    assert any(seeds for _, _, seeds, _ in searches)
    for n, masks, seeds, key in searches:
        for g in seeds:
            assert g[n - 1] == n - 1
            assert [sum(1 << g[u] for u in range(n) if masks[v] >> u & 1)
                    for v in range(n)] == [masks[g[v]] for v in range(n)]
        assert key == canonical_key(n, masks), (n, masks)


def test_enumeration_is_isomorphism_free(small_graphs):
    for n in range(1, 8):
        keys = {canonical_key(n, masks_of(g)) for g in small_graphs[n]}
        assert len(keys) == len(small_graphs[n])
        for key in constructions._keys_for(n):
            g = constructions._graph_from_key(n, key)
            assert canonical_key(n, masks_of(g)) == key


def test_canonical_key_matches_reference_on_every_small_graph(small_graphs):
    rng = random.Random(11)
    for n in range(1, 8):
        for g in small_graphs[n]:
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                masks = masks_of(g, perm)
                assert canonical_key(n, masks) == reference_canonical_key(n, masks), (n, perm)


def _disjoint_triangles(k: int) -> FiniteGraph:
    edges = [(3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (0, 2), (1, 2))]
    return FiniteGraph(range(3 * k), edges)


SYMMETRIC = {
    **{f"empty-{n}": FiniteGraph(range(n), []) for n in range(1, 8)},
    **{f"complete-{n}": complete_graph(n) for n in range(1, 8)},
    "cycle-7": cycle_graph(7),
    "k33": complete_multipartite(3, 3),
    "k222": complete_multipartite(2, 2, 2),
    "cube": cube_graph(),
    "wheel-6": wheel_graph(6),
    **{f"triangles-{k}": _disjoint_triangles(k) for k in (1, 2, 3)},
}


@pytest.mark.parametrize("name", SYMMETRIC)
def test_canonical_key_matches_reference_on_symmetric_graphs(name):
    g = SYMMETRIC[name]
    n = len(g)
    rng = random.Random(n)
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        masks = masks_of(g, perm)
        assert canonical_key(n, masks) == reference_canonical_key(n, masks)


@pytest.mark.parametrize("name", [*SYMMETRIC, "petersen", "star-5"])
def test_reported_automorphisms_fix_the_canonical_form(name):
    g = {**SYMMETRIC, "petersen": petersen_graph(), "star-5": star_graph(5)}[name]
    n = len(g)
    perm = list(range(n))
    random.Random(3).shuffle(perm)
    autos: list[tuple[int, ...]] = []
    key = canonical_key(n, masks_of(g, perm), autos)
    canon = constructions._graph_from_key(n, key)
    edges = set(canon.edges())
    for a in autos:
        assert sorted(a) == list(range(n))
        assert {tuple(sorted((a[u], a[v]))) for u, v in edges} == edges
    # The regular graphs here are vertex-transitive: the subtrees of the first
    # two root children hold equal least leaves, so the search meets a tie.
    if n > 1 and len({g.degree(v) for v in g.vertices}) == 1:
        assert autos


def test_attachment_orbits_match_brute_force(small_graphs):
    from itertools import permutations

    for n in range(1, 6):
        for g in small_graphs[n]:
            edges = set(g.edges())
            group = [p for p in permutations(range(n))
                     if {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges]

            def image(p, mask):
                return sum(1 << p[u] for u in range(n) if mask >> u & 1)

            least = sorted({min(image(p, mask) for p in group) for mask in range(1 << n)})
            assert constructions._attachment_orbits(n, group) == least
            # one generator of largest order: its powers have to be followed
            def powers(gen):
                out, p = [], tuple(range(n))
                while not out or p != out[0]:
                    out.append(p)
                    p = tuple(gen[x] for x in p)
                return out

            gen = max(group, key=lambda p: len(powers(p)))
            cyclic = sorted({min(image(p, mask) for p in powers(gen)) for mask in range(1 << n)})
            assert constructions._attachment_orbits(n, [gen]) == cyclic
            found: list[tuple[int, ...]] = []
            key = canonical_key(n, masks_of(g), found)
            assert constructions._graph_from_key(n, key) == g
            assert set(least) <= set(constructions._attachment_orbits(n, found))


@pytest.mark.parametrize(
    "n, masks",
    [
        (3, [0b10]),  # too few masks
        (2, [0b10, 0b01, 0]),  # too many masks
        (3, [0b001, 0, 0]),  # self-loop
        (2, [0b01, 0]),  # self-loop
        (1, [0b1]),  # self-loop on one vertex
        (2, [0b110, 0b001]),  # bit at n
        (2, [-1, 0b01]),  # negative mask
        (3, [0b010, 0, 0]),  # 0 -> 1 without 1 -> 0
    ],
)
def test_canonical_key_rejects_malformed_masks(n, masks):
    with pytest.raises(DomainError):
        canonical_key(n, masks)


def test_canonical_key_invariant_under_relabeling():
    import random

    rng = random.Random(7)
    g = petersen_graph()
    n = len(g)

    def key_of(perm):
        return canonical_key(n, masks_of(g, perm))

    base = key_of(list(range(n)))
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        assert key_of(perm) == base


def test_named_graphs_shapes():
    assert wheel_graph(5).degree(0) == 5
    assert cube_graph().edge_count() == 12
    tl = triangular_ladder(5)
    # every edge lies in a triangle
    for u, v in tl.edges():
        assert any(tl.has_edge(u, w) and tl.has_edge(v, w) for w in tl.vertices)
