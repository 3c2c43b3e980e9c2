"""Finite graph constructions: powers, line graphs, named families, and an
exhaustive isomorphism-free generator for small graphs.

``line_graph_of`` is the one line-graph adjacency rule.  It maps a neighbor
function to the line graph's neighbor function, labelling each line-graph
vertex by the sorted pair of its end labels, so it serves finite graphs
(``line_graph`` reads its adjacency from it) and neighbor-oracle
presentations alike (``presentations``' ``ladder-line-graph``).

The generator grows graphs one vertex at a time and deduplicates through a
canonical adjacency form (color refinement plus individualization search),
so each isomorphism class appears exactly once and in a stable order.  A
class is kept as its canonical key, a plain int that fixes the graph: the
keys of every size built are cached for the life of the process, and each
call of ``enumerate_graphs`` builds its graphs from them anew, so no
enumerated graph outlives the caller's list.

The search is pruned by the automorphisms it finds (McKay & Piperno,
*Practical graph isomorphism II*, 2014).  Two leaves with equal bit strings
give an automorphism g; a child v of a node with individualized prefix
(v1..vk) is skipped when such automorphisms fixing v1..vk carry an explored
sibling to v.  g maps the sibling's subtree onto v's leaf by leaf and keeps
each leaf's bit string, so v's subtree holds no smaller value and the key is
the one the full search gives.  Growth keys one attachment set per orbit of
the parent's found automorphisms (McKay, *Isomorph-free exhaustive
generation*, 1998): sets in one orbit give isomorphic children.

A child is keyed only when its new vertex lies in the last cell of its root
equitable refinement, so most classes are keyed once rather than once per
parent.  That cell is an isomorphism invariant, because refinement commutes
with relabeling.  No class is lost: every graph has a vertex v in its last
cell, the graph minus v is a parent, and the attachment orbit
representative's child is isomorphic to that child by a map fixing the new
vertex.

Each child's search starts with the parent automorphisms that map its
attachment set S onto itself.  Such a g, extended by n-1 -> n-1, is an
automorphism of the child: it keeps the parent's edges, and it maps an edge
{u, n-1} with u in S to {g(u), n-1} with g(u) in S.  The pruning needs only
automorphisms fixing the prefix, so the seeded search returns the same key;
it skips sibling subtrees the unseeded search would explore before it
finds the swap.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations, repeat

from .errors import DomainError
from .graph import Edge, FiniteGraph, is_connected, neighborhood_k


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


def line_graph_of(neighbors: Callable[[Hashable], Iterable]) -> Callable[[tuple], tuple]:
    """The neighbor function of the line graph of the graph ``neighbors``
    describes.  A line-graph vertex is the sorted pair of its end labels,
    and two are adjacent when they share an end."""

    def line_neighbors(edge: tuple) -> tuple:
        u, v = edge
        out = {tuple(sorted((u, w))) for w in neighbors(u) if w != v}
        out |= {tuple(sorted((v, w))) for w in neighbors(v) if w != u}
        return tuple(sorted(out))

    return line_neighbors


def line_graph(g: FiniteGraph) -> LineGraph:
    """Vertices are the edges of g, adjacency is sharing an endpoint."""
    base_edges = g.edges()
    if not base_edges:
        raise DomainError("line graph of an edgeless graph is undefined here")
    index = {e: i for i, e in enumerate(base_edges)}
    line_neighbors = line_graph_of(g.neighbors)
    edges = [(i, index[f]) for i, e in enumerate(base_edges) for f in line_neighbors(e)]
    return LineGraph(FiniteGraph(range(len(base_edges)), edges), base_edges)


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


def _refine(
    n: int, nbrs: list[tuple[int, ...]], colors: tuple[int, ...], cells: int
) -> tuple[tuple[int, ...], int]:
    """Equitable refinement of ``colors``, which has ``cells`` distinct
    values, and its number of cells.

    Each pass recolors a vertex by its color and the sorted colors of its
    neighbors.  That refines the partition, so the first pass that adds no
    cell leaves it stable and ends the loop.  The colors returned need not
    be 0..k-1; callers compare them only by order, and every pass keeps it.
    """
    while True:
        sigs = [(colors[v], tuple(sorted([colors[u] for u in nbrs[v]]))) for v in range(n)]
        order = sorted(set(sigs))
        if len(order) == cells:
            return colors, cells
        mapping = {s: i for i, s in enumerate(order)}
        colors = tuple([mapping[s] for s in sigs])
        cells = len(order)


def _root(n: int, nbrs: list[tuple[int, ...]]) -> tuple[tuple[int, ...], int]:
    """``_refine(n, nbrs, (0,) * n, 1)``, the root of the search.

    Its first pass from one cell ranks the vertices by degree, so this
    starts from the degree ranks; a regular graph is stable at once.
    """
    degrees = [len(row) for row in nbrs]
    distinct = sorted(set(degrees))
    if len(distinct) == 1:
        return (0,) * n, 1
    rank = {d: i for i, d in enumerate(distinct)}
    return _refine(n, nbrs, tuple([rank[d] for d in degrees]), len(distinct))


def _neighbor_lists(n: int, adj_masks: list[int]) -> list[tuple[int, ...]]:
    """Neighbor tuples of a simple graph given as adjacency bit masks,
    which are checked to describe one."""
    if len(adj_masks) != n:
        raise DomainError(f"need {n} adjacency masks, got {len(adj_masks)}")
    nbrs = _neighbor_rows(n, adj_masks)
    for v, mask in enumerate(adj_masks):
        if mask < 0 or mask >> n:
            raise DomainError(f"adjacency mask of vertex {v} has a bit outside 0..{n - 1}")
        if mask >> v & 1:
            raise DomainError(f"self-loop at vertex {v}")
        for u in nbrs[v]:
            if not adj_masks[u] >> v & 1:
                raise DomainError(f"adjacency masks are not symmetric: {v} -> {u} only")
    return nbrs


def _neighbor_rows(n: int, masks: list[int]) -> list[tuple[int, ...]]:
    """Sorted neighbor tuples of masks known to describe a simple graph."""
    return [tuple(u for u in range(n) if mask >> u & 1) for mask in masks]


def canonical_key(
    n: int, adj_masks: list[int], automorphisms: list[tuple[int, ...]] | None = None
) -> int:
    """Canonical upper-triangle adjacency bits, as an integer.

    ``adj_masks[v]`` holds bit u when u ~ v; the masks must describe a simple
    graph on 0..n-1 (DomainError otherwise).  The search refines colors to an
    equitable partition, individualizes each vertex of the first
    non-singleton cell in turn, and refines again; every leaf of this tree
    orders the vertices, and the key is the least upper-triangle bit string
    over the leaves.  Refinement and the cell rule commute with relabeling,
    so the key is invariant under it.

    Automorphism pruning: when a leaf ties with the best leaf so far, the
    map best_perm[i] -> perm[i] is an automorphism and is kept.  At a node
    whose individualized prefix is (v1..vk), a child v is skipped when the
    kept automorphisms that fix v1..vk pointwise carry an explored sibling w
    to v.  The key is unchanged: such an automorphism g maps the node
    (v1..vk, w) to (v1..vk, v), so it maps every leaf order perm below w to
    the leaf order g(perm) below v, and g(perm) has the same bit string as
    perm because g preserves adjacency.  The subtree below v therefore holds
    no value smaller than the one below w, which the search has seen.

    If ``automorphisms`` is a list, the kept automorphisms are appended to
    it, relabeled onto ``_graph_from_key(n, key)``: entry i of each tuple is
    the image of vertex i.  They generate a subgroup of its automorphism
    group, possibly a proper one.
    """
    nbrs = _neighbor_lists(n, adj_masks)
    if n <= 1:
        return 0
    key, found = _search(n, adj_masks, nbrs, _root(n, nbrs), ())
    if automorphisms is not None:
        automorphisms.extend(found)
    return key


def _search(
    n: int,
    adj_masks: list[int],
    nbrs: list[tuple[int, ...]],
    root: tuple[tuple[int, ...], int],
    known: Sequence[tuple[int, ...]],
) -> tuple[int, list[tuple[int, ...]]]:
    """The search of ``canonical_key`` on valid masks with n >= 2, started
    from ``root = _root(n, nbrs)``.  A split that individualizes one of two
    vertices in the only non-singleton cell leaves n cells, so it is a leaf
    as it stands and is not refined.

    ``known`` holds automorphisms of the graph, as image tuples; the pruning
    uses them as if the search had found them.  Its argument needs only that
    each is an automorphism, so the key is the same for every ``known``.
    Returns the key and the known and found automorphisms, relabeled onto
    ``_graph_from_key(n, key)``.
    """
    best = -1
    best_perm: list[int] = []
    found = list(known)

    def leaf_value(perm: list[int]) -> int:
        bits = 0
        for i in range(n):
            row = adj_masks[perm[i]]
            for j in range(i + 1, n):
                bits = (bits << 1) | (row >> perm[j] & 1)
        return bits

    def descend(colors: tuple[int, ...], cells: int, prefix: tuple[int, ...]) -> None:
        nonlocal best, best_perm
        if cells == n:
            perm = sorted(range(n), key=colors.__getitem__)
            value = leaf_value(perm)
            if best < 0 or value < best:
                best, best_perm = value, perm
            elif value == best:
                image = [0] * n
                for u, w in zip(best_perm, perm):
                    image[u] = w
                found.append(tuple(image))
            return
        cell_color = min(c for c in set(colors) if colors.count(c) > 1)
        target = [v for v in range(n) if colors[v] == cell_color]
        # explored children and their images under the known and found
        # automorphisms that fix the prefix
        covered: set[int] = set()
        for v in target:
            if v in covered:
                continue
            split = tuple(c * 2 if u != v else c * 2 - 1 for u, c in enumerate(colors))
            if cells + 1 < n:
                descend(*_refine(n, nbrs, split, cells + 1), prefix + (v,))
            else:
                descend(split, n, prefix + (v,))
            covered.add(v)
            gens = [g for g in found if all(g[x] == x for x in prefix)]
            stack = list(covered)
            while stack:
                u = stack.pop()
                for g in gens:
                    if g[u] not in covered:
                        covered.add(g[u])
                        stack.append(g[u])

    descend(*root, ())
    position = [0] * n
    for i, u in enumerate(best_perm):
        position[u] = i
    return best, [tuple(position[g[u]] for u in best_perm) for g in found]


def _key_masks(n: int, key: int) -> list[int]:
    """Adjacency bit masks of the graph whose upper-triangle bits are
    ``key``, the pair (0, 1) in the highest bit."""
    masks = [0] * n
    pos = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            pos -= 1
            if key >> pos & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def _graph_from_key(n: int, key: int) -> FiniteGraph:
    # a key's masks are symmetric, loop-free and within 0..n-1, so the
    # graph is built without the validating constructor; each frozenset is
    # copied from a set, which keeps its table as small as the
    # constructor's
    rows = _neighbor_rows(n, _key_masks(n, key))
    return FiniteGraph._from_neighbor_sets([frozenset(set(row)) for row in rows])


_KEY_CACHE: dict[int, list[int]] = {1: [0]}
# key -> automorphisms of _graph_from_key(n, key) that its search found, for
# the largest n built so far; the next level uses them to skip attachments.
_AUTOMORPHISMS: dict[int, dict[int, list[tuple[int, ...]]]] = {}


def _attachment_orbits(m: int, gens: list[tuple[int, ...]]) -> list[int]:
    """The least subset mask of each orbit of subsets of 0..m-1 under the
    group ``gens`` generates, ascending."""
    size = 1 << m
    if not gens:
        return list(range(size))
    images = []
    for g in gens:
        image = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << g[low.bit_length() - 1]
        images.append(image)
    seen = bytearray(size)
    reps = []
    for mask in range(size):
        if seen[mask]:
            continue
        reps.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            for image in images:
                y = image[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return reps


def _keys_for(n: int) -> list[int]:
    """Canonical keys of all graphs on n vertices, ascending.

    Each graph on n - 1 vertices gets a new vertex n - 1 joined to every
    subset of the old ones.  Subsets in one orbit of the parent's known
    automorphisms give isomorphic children, so one per orbit is considered.
    A child is keyed only when n - 1 lies in its last cell, the cell of
    largest color in ``_root(n, nbrs)``.  No class is lost:
    refinement commutes with relabeling, so the last cell is an isomorphism
    invariant; every graph G' on n vertices has a vertex v in it, and G' - v
    is one of the parents; and the children of one attachment orbit are
    isomorphic by maps that fix n - 1, so the representative's n - 1 is in
    its last cell too.  The root starts from the degree ranks, so a child
    whose new vertex has less than the largest degree is dropped before it
    is built: a vertex u of the parent has degree deg(u) + [u in S] there.

    The search of a child with attachment set S is seeded with the parent's
    stored automorphisms g with g(S) = S, extended by n - 1 -> n - 1.  g
    maps the parent's edges onto themselves and the new vertex's edges
    {u, n - 1}, u in S, onto {g(u), n - 1} with g(u) in S, so it is an
    automorphism of the child.  ``canonical_key``'s pruning argument asks
    only that, so the key does not change.  The parent's masks and
    neighbor tuples are read from its key, the child's extend them, and its
    root refinement, already computed for the last-cell filter, starts the
    search.
    """
    if n in _KEY_CACHE:
        return _KEY_CACHE[n]
    prev = _keys_for(n - 1)
    parent_autos = _AUTOMORPHISMS.pop(n - 1, {})
    found: dict[int, list[tuple[int, ...]]] = {}
    for key in prev:
        parent = _key_masks(n - 1, key)
        base_nbrs = _neighbor_rows(n - 1, parent)
        masks = parent + [0]
        top = max(map(len, base_nbrs))
        at_top = sum(1 << u for u, row in enumerate(base_nbrs) if len(row) == top)
        gens = parent_autos.get(key, [])
        for attach in _attachment_orbits(n - 1, gens):
            size = attach.bit_count()
            if top > size or (top == size and attach & at_top):
                continue
            masks2 = list(masks)
            masks2[n - 1] = attach
            attached = [u for u in range(n - 1) if attach >> u & 1]
            for u in attached:
                masks2[u] |= 1 << (n - 1)
            nbrs = [row + (n - 1,) if attach >> u & 1 else row for u, row in enumerate(base_nbrs)]
            nbrs.append(tuple(attached))
            root = _root(n, nbrs)
            if root[0][n - 1] != max(root[0]):
                continue
            seeds = [g + (n - 1,) for g in gens if sum(1 << g[u] for u in attached) == attach]
            child_key, autos = _search(n, masks2, nbrs, root, seeds)
            found.setdefault(child_key, autos)
    keys = sorted(found)
    _KEY_CACHE[n] = keys
    _AUTOMORPHISMS[n] = found
    return keys


def _graphs(n: int) -> Iterator[FiniteGraph]:
    """The graphs of ``_keys_for(n)``, each built when it is reached."""
    if n < 1:
        raise DomainError("need n >= 1")
    return map(_graph_from_key, repeat(n), _keys_for(n))


def enumerate_graphs(n: int) -> list[FiniteGraph]:
    """All graphs on n vertices, one canonical representative per class.

    Only the keys are cached; every call builds new graphs from them."""
    return list(_graphs(n))


def enumerate_connected_graphs(n: int) -> list[FiniteGraph]:
    """The connected graphs of ``enumerate_graphs(n)``, in the same order;
    no disconnected graph is kept."""
    return list(filter(is_connected, _graphs(n)))


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
