"""Finite graph constructions: powers, line graphs, named families, and an
exhaustive isomorphism-free generator for small graphs.

The generator grows graphs one vertex at a time and deduplicates through a
canonical adjacency form (color refinement plus individualization search),
so each isomorphism class appears exactly once and in a stable order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError
from .graph import Edge, FiniteGraph, edge_key, neighborhood_k


def graph_power(g: FiniteGraph, k: int) -> FiniteGraph:
    """Same vertices, adjacency = graph distance between 1 and k."""
    if k < 1:
        raise DomainError(f"power exponent must be >= 1, got {k}")
    edges = [(v, u) for v in g.vertices for u in neighborhood_k(g, [v], k) if v < u]
    return FiniteGraph(g.vertices, edges)


@dataclass(frozen=True)
class LineGraph:
    """Line graph plus the labeling back to the source edges.

    Vertex ``i`` of ``graph`` stands for ``edge_labels[i]`` in the source
    graph, so cycles found in the line graph read back as edge sequences.
    """

    graph: FiniteGraph
    edge_labels: tuple[Edge, ...]

    def edges_of_cycle(self, order) -> tuple[Edge, ...]:
        return tuple(self.edge_labels[v] for v in order)


def line_graph(g: FiniteGraph) -> LineGraph:
    """Vertices are the edges of g, adjacency is sharing an endpoint."""
    base_edges = g.edges()
    if not base_edges:
        raise DomainError("line graph of an edgeless graph is undefined here")
    index = {e: i for i, e in enumerate(base_edges)}
    edges = []
    for v in g.vertices:
        incident = [edge_key(v, w) for w in g.neighbors(v)]
        for e, f in combinations(sorted(incident), 2):
            edges.append((index[e], index[f]))
    return LineGraph(FiniteGraph(range(len(base_edges)), set(edges)), base_edges)


# -- named graphs ------------------------------------------------------------


def path_graph(n: int) -> FiniteGraph:
    return FiniteGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> FiniteGraph:
    if n < 3:
        raise DomainError("cycle graphs need at least 3 vertices")
    return FiniteGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> FiniteGraph:
    return FiniteGraph(range(n), list(combinations(range(n), 2)))


def complete_multipartite(*sizes: int) -> FiniteGraph:
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(range(start, start + s))
        start += s
    edges = [
        (u, v)
        for i, bi in enumerate(blocks)
        for bj in blocks[i + 1 :]
        for u in bi
        for v in bj
    ]
    return FiniteGraph(range(start), edges)


def star_graph(leaves: int) -> FiniteGraph:
    return FiniteGraph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def wheel_graph(rim: int) -> FiniteGraph:
    """Hub vertex 0 joined to a rim cycle on ``rim`` vertices."""
    if rim < 3:
        raise DomainError("wheel rims need at least 3 vertices")
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return FiniteGraph(range(rim + 1), edges)


def petersen_graph() -> FiniteGraph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return FiniteGraph(range(10), edges)


def cube_graph() -> FiniteGraph:
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return FiniteGraph(range(8), edges)


def glued_triangles() -> FiniteGraph:
    """Two triangles sharing the edge 0-1."""
    return FiniteGraph(range(4), [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])


def triangular_ladder(rungs: int) -> FiniteGraph:
    """A finite ladder with one diagonal per square, so every edge lies in
    a triangle.  Vertices 2i / 2i+1 are the two rails of rung i."""
    if rungs < 2:
        raise DomainError("need at least 2 rungs")
    edges = []
    for i in range(rungs):
        edges.append((2 * i, 2 * i + 1))
        if i + 1 < rungs:
            edges.append((2 * i, 2 * i + 2))
            edges.append((2 * i + 1, 2 * i + 3))
            edges.append((2 * i + 1, 2 * i + 2))
    return FiniteGraph(range(2 * rungs), edges)


NAMED_GRAPHS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "star": star_graph,
    "wheel": wheel_graph,
    "petersen": petersen_graph,
    "octahedron": lambda: complete_multipartite(2, 2, 2),
    "cube": cube_graph,
    "glued-triangles": glued_triangles,
    "triangular-ladder": triangular_ladder,
}


# -- canonical enumeration ---------------------------------------------------


def _refine(n: int, nbrs: list[tuple[int, ...]], colors: tuple[int, ...]) -> tuple[int, ...]:
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(n)
        ]
        mapping = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(mapping[s] for s in sigs)
        if new == colors:
            return colors
        colors = new


def canonical_key(n: int, adj_masks: list[int]) -> int:
    """Canonical upper-triangle adjacency bits, as an integer.

    Works by color refinement and branching on the first non-singleton color
    class; the result is invariant under relabeling.
    """
    if n == 1:
        return 0
    nbrs = [tuple(u for u in range(n) if adj_masks[v] >> u & 1) for v in range(n)]
    best: int | None = None

    def leaf_value(perm: list[int]) -> int:
        bits = 0
        for i in range(n):
            row = adj_masks[perm[i]]
            for j in range(i + 1, n):
                bits = (bits << 1) | (row >> perm[j] & 1)
        return bits

    def descend(colors: tuple[int, ...]) -> None:
        nonlocal best
        cells: dict[int, list[int]] = defaultdict(list)
        for v in range(n):
            cells[colors[v]].append(v)
        target = None
        for color in sorted(cells):
            if len(cells[color]) > 1:
                target = cells[color]
                break
        if target is None:
            perm = sorted(range(n), key=colors.__getitem__)
            value = leaf_value(perm)
            if best is None or value < best:
                best = value
            return
        for v in target:
            split = tuple(
                c * 2 if u != v else c * 2 - 1 for u, c in zip(range(n), colors)
            )
            descend(_refine(n, nbrs, split))

    descend(_refine(n, nbrs, tuple(0 for _ in range(n))))
    assert best is not None
    return best


def _graph_from_key(n: int, key: int) -> FiniteGraph:
    edges = []
    pos = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            pos -= 1
            if key >> pos & 1:
                edges.append((i, j))
    return FiniteGraph(range(n), edges)


_ENUM_CACHE: dict[int, list[FiniteGraph]] = {}
_KEY_CACHE: dict[int, list[int]] = {1: [0]}


def _keys_for(n: int) -> list[int]:
    if n in _KEY_CACHE:
        return _KEY_CACHE[n]
    prev = _keys_for(n - 1)
    found: set[int] = set()
    for key in prev:
        base = _graph_from_key(n - 1, key)
        masks = [0] * n
        for u, v in base.edges():
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        for attach in range(1 << (n - 1)):
            masks2 = list(masks)
            masks2[n - 1] = attach
            for u in range(n - 1):
                if attach >> u & 1:
                    masks2[u] |= 1 << (n - 1)
            found.add(canonical_key(n, masks2))
    keys = sorted(found)
    _KEY_CACHE[n] = keys
    return keys


def enumerate_graphs(n: int) -> list[FiniteGraph]:
    """All graphs on n vertices, one canonical representative per class."""
    if n < 1:
        raise DomainError("need n >= 1")
    if n not in _ENUM_CACHE:
        _ENUM_CACHE[n] = [_graph_from_key(n, key) for key in _keys_for(n)]
    return list(_ENUM_CACHE[n])


def enumerate_connected_graphs(n: int) -> list[FiniteGraph]:
    from .graph import is_connected

    return [g for g in enumerate_graphs(n) if is_connected(g)]


# -- corollary pipeline -------------------------------------------------------


@dataclass(frozen=True)
class CorollaryInstance:
    """One input for a corollary of the main result, already transformed
    (powered / line-graphed) into the hypothesis class, together with the
    predicate profile the pipeline must confirm before constructing.

    ``presentation_preset`` is set instead of ``graph`` for the infinite
    instances; those are profiled on a truncation-ball interior.
    """

    name: str
    corollary: str
    profile: tuple[tuple[str, bool], ...]
    graph: FiniteGraph | None = None
    presentation_preset: str | None = None


def corollary_instances() -> list[CorollaryInstance]:
    """One finite instance per corollary, plus presentations where an
    infinite analogue is built in."""
    in_class = (("claw_free", True), ("locally_connected", True), ("connected", True))
    k4_minus_edge = FiniteGraph(range(4), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    entries = [
        CorollaryInstance(
            name="square-of-path",
            corollary="claw-free square",
            profile=in_class,
            graph=graph_power(path_graph(6), 2),
        ),
        CorollaryInstance(
            name="square-of-double-ray",
            corollary="claw-free square",
            profile=in_class,
            presentation_preset="double-ray-square",
        ),
        CorollaryInstance(
            name="locally-connected-line-graph",
            corollary="locally connected line graph",
            profile=in_class,
            graph=line_graph(complete_graph(4)).graph,
        ),
        CorollaryInstance(
            name="line-graph-of-locally-connected",
            corollary="line graph of a locally connected graph",
            profile=in_class,
            graph=line_graph(wheel_graph(5)).graph,
        ),
        CorollaryInstance(
            name="line-graph-of-triangular-ladder",
            corollary="line graph of a locally connected graph",
            profile=in_class,
            presentation_preset="ladder-line-graph",
        ),
        CorollaryInstance(
            name="line-graph-of-square",
            corollary="line graph of a square",
            profile=in_class,
            graph=line_graph(graph_power(path_graph(5), 2)).graph,
        ),
        CorollaryInstance(
            name="line-graph-of-line-graph",
            corollary="iterated line graph, min degree 3",
            profile=in_class,
            graph=line_graph(line_graph(cube_graph()).graph).graph,
        ),
        CorollaryInstance(
            name="chordal-claw-free-diamond",
            corollary="2-connected chordal claw-free",
            profile=in_class + (("two_connected", True), ("chordal", True)),
            graph=k4_minus_edge,
        ),
        CorollaryInstance(
            name="chordal-claw-free-path-square",
            corollary="2-connected chordal claw-free",
            profile=in_class + (("two_connected", True), ("chordal", True)),
            graph=graph_power(path_graph(7), 2),
        ),
    ]
    return entries
