"""Immutable finite graphs and the neighborhood/cut/component primitives.

Graphs are simple and undirected, with non-negative integer vertex ids and
sorted adjacency.  Every public operation returns sorted tuples so outputs
are deterministic and directly comparable in tests.

All traversal goes through one primitive, ``bfs(g, sources, within)``: a
breadth-first search in sorted-adjacency order, optionally confined to a
vertex set.  It runs eagerly and returns the parent of every vertex it
reached, keyed in visit order, sources first with parent None.  It stops
early once it has reached every vertex of a goal set, or with
``any_goal`` the first one, which is then the last key; and a depth bound
keeps it within that distance of the sources.  Neighborhoods, distances,
shortest paths and components are thin reads of it, so no connectivity
question builds a throwaway ``FiniteGraph``.  ``label_components`` labels
the components of the subgraph induced on a vertex set that meet some
seeds, with an owner map, and ``components_within`` reads its list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .errors import DomainError, GraphInputError

Edge = tuple[int, int]
VertexSet = tuple[int, ...]
EdgeSet = tuple[Edge, ...]


def edge_key(u: int, v: int) -> Edge:
    """Canonical unordered pair, smaller id first."""
    return (u, v) if u < v else (v, u)


def _is_vertex_id(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


class FiniteGraph:
    """Immutable simple undirected graph over non-negative integer ids."""

    __slots__ = ("_vertices", "_adj", "_sets")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Sequence[int]]):
        verts = sorted(set(vertices))
        for v in verts:
            if not _is_vertex_id(v):
                raise GraphInputError(f"vertex ids must be non-negative integers, got {v!r}")
        vset = set(verts)
        adj: dict[int, set[int]] = {v: set() for v in verts}
        for e in edges:
            u, v = e
            # ``True`` and ``2.0`` would pass the membership test below as 1
            # and 2; plain ints skip the full rule
            if (type(u) is not int or type(v) is not int) and not (
                _is_vertex_id(u) and _is_vertex_id(v)
            ):
                raise GraphInputError(
                    f"edge ({u!r}, {v!r}): vertex ids must be non-negative integers"
                )
            if u == v:
                raise GraphInputError(f"self-loop at vertex {u} is not allowed")
            if u not in vset or v not in vset:
                raise GraphInputError(f"edge ({u}, {v}) uses an unknown vertex id")
            adj[u].add(v)
            adj[v].add(u)
        self._vertices: VertexSet = tuple(verts)
        self._adj: dict[int, tuple[int, ...]] = {v: tuple(sorted(adj[v])) for v in verts}
        self._sets: dict[int, frozenset[int]] = {v: frozenset(adj[v]) for v in verts}

    @classmethod
    def _from_neighbor_sets(cls, sets: Sequence[frozenset[int]]) -> "FiniteGraph":
        """The graph on ids 0..len(sets) - 1 in which ``sets[v]`` is N(v).

        For callers that assigned the dense ids themselves and checked that
        the sets are symmetric and name no loop and no id out of range;
        nothing is validated again."""
        g = cls.__new__(cls)
        ids = range(len(sets))
        g._vertices = tuple(ids)
        g._adj = dict(zip(ids, map(tuple, map(sorted, sets))))
        g._sets = dict(zip(ids, sets))
        return g

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> VertexSet:
        return self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    # The accessors are the hottest calls in the package: one dict lookup
    # when v is present, and ``_require``'s DomainError on a miss.
    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            self._require(v)
            raise

    def neighbor_set(self, v: int) -> frozenset[int]:
        try:
            return self._sets[v]
        except KeyError:
            self._require(v)
            raise

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._sets[u]

    def edges(self) -> EdgeSet:
        out = [(u, v) for u in self._vertices for v in self._adj[u] if u < v]
        return tuple(out)

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self._adj.values()) // 2

    def _require(self, v: int) -> None:
        if v not in self._adj:
            raise DomainError(f"vertex {v} is not in the graph") from None

    def require_subset(self, x: Iterable[int]) -> frozenset[int]:
        xs = frozenset(x)
        if not xs <= self._adj.keys():
            for v in xs:  # name the first offender
                self._require(v)
        return xs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteGraph)
            and self._vertices == other._vertices
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self._vertices, tuple(self._adj[v] for v in self._vertices)))

    def __repr__(self) -> str:
        return f"FiniteGraph(n={len(self._vertices)}, m={self.edge_count()})"


def bfs(
    g: FiniteGraph,
    sources: Iterable[int],
    within: Collection[int] | None = None,
    goals: Collection[int] = (),
    any_goal: bool = False,
    depth: int | None = None,
) -> dict[int, int | None]:
    """Breadth-first search: the parent of every vertex reached, in the
    order the vertices are reached.

    Sources come first, in the order given, with parent None.  Every other
    vertex is reached from the first vertex of the previous layer that has
    it as a neighbor, scanning neighbors in sorted-adjacency order.
    ``within`` confines the search to those vertices (sources are always
    reached).  The search stops early once it has reached every vertex of
    ``goals``, or with ``any_goal`` the first one, so that goal is the last
    key; and it reaches no vertex beyond distance ``depth``.
    """
    adj = g._adj
    parent: dict[int, int | None] = dict.fromkeys(sources)
    if not parent.keys() <= adj.keys():
        for s in parent:
            g._require(s)
    goalset = goals if isinstance(goals, (set, frozenset)) else frozenset(goals)
    if goalset:
        left = (1 if any_goal else len(goalset)) - len(goalset & parent.keys())
        if left <= 0:
            return parent
    frontier = list(parent)
    for _ in range(len(adj) if depth is None else depth):
        nxt: list[int] = []
        add = nxt.append
        for u in frontier:
            for w in adj[u]:
                if w not in parent and (within is None or w in within):
                    parent[w] = u
                    add(w)
                    if w in goalset:
                        left -= 1
                        if not left:
                            return parent
        if not nxt:
            break
        frontier = nxt
    return parent


def neighborhood_k(g: FiniteGraph, x: Iterable[int], k: int) -> VertexSet:
    """Vertices at distance between 1 and k from the set ``x``.

    Distance to a set is the minimum over its members, so members of ``x``
    are never part of the result.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    sources = dict.fromkeys(x)
    return tuple(sorted(bfs(g, sources, depth=k).keys() - sources.keys()))


def cut(g: FiniteGraph, x: Iterable[int]) -> EdgeSet:
    """Edges with exactly one endpoint in ``x``; symmetric in x vs complement."""
    xs = g.require_subset(x)
    out = []
    for u in sorted(xs):
        for v in g.neighbors(u):
            if v not in xs:
                out.append(edge_key(u, v))
    return tuple(sorted(out))


def induced_subgraph(g: FiniteGraph, x: Iterable[int]) -> FiniteGraph:
    xs = g.require_subset(x)
    edges = [(u, v) for u in xs for v in g.neighbors(u) if v in xs and u < v]
    return FiniteGraph(xs, edges)


def label_components(
    g: FiniteGraph, allowed: Iterable[int], seeds: Iterable[int] | None = None
) -> tuple[tuple[VertexSet, ...], dict[int, int]]:
    """The components of the subgraph induced on ``allowed`` that meet
    ``seeds`` (all of them when ``seeds`` is None), sorted by minimum id,
    and a map from each of their vertices to the index of its component.
    Seeds outside ``allowed`` are ignored."""
    xs = g.require_subset(allowed)
    starts = sorted(xs) if seeds is None else [s for s in seeds if s in xs]
    comps: list[VertexSet] = []
    seen: set[int] = set()
    for start in starts:
        if start not in seen:
            comps.append(tuple(sorted(bfs(g, [start], within=xs))))
            seen.update(comps[-1])
    comps.sort()
    owner: dict[int, int] = {}
    for i, comp in enumerate(comps):
        owner.update(dict.fromkeys(comp, i))
    return tuple(comps), owner


def components_within(g: FiniteGraph, allowed: Iterable[int]) -> tuple[VertexSet, ...]:
    """Components of the subgraph induced on ``allowed``, sorted by minimum
    id, without building that subgraph."""
    return label_components(g, allowed)[0]


def components(g: FiniteGraph) -> tuple[VertexSet, ...]:
    """Maximal connected vertex sets, sorted by minimum id."""
    return components_within(g, g.vertices)


def is_connected(g: FiniteGraph) -> bool:
    """Whether one breadth-first search from the least vertex reaches all."""
    return len(bfs(g, g.vertices[:1])) == len(g)


def bfs_distances(g: FiniteGraph, sources: Iterable[int]) -> dict[int, int]:
    """Distance from the source set to every reachable vertex."""
    dist: dict[int, int] = {}
    for v, u in bfs(g, sources).items():
        dist[v] = 0 if u is None else dist[u] + 1
    return dist


def shortest_path(
    g: FiniteGraph,
    start: int,
    goals: Iterable[int],
    allowed: Iterable[int] | None = None,
) -> list[int] | None:
    """BFS path from ``start`` to the nearest goal, smallest-id tie-break.

    ``allowed`` restricts the search to an induced vertex set (it must
    contain ``start``).  Returns None when no goal is reachable.
    """
    goalset = frozenset(goals)
    allow = None if allowed is None else frozenset(allowed)
    if allow is not None and start not in allow:
        raise DomainError("start vertex is excluded from the allowed set")
    parent = bfs(g, [start], within=allow, goals=goalset, any_goal=True)
    path = [next(reversed(parent))]
    if path[0] not in goalset:
        return None
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class CycleEmbedding:
    """A cycle as a canonical cyclic vertex sequence with fixed orientation.

    The stored order starts at the minimum id and proceeds toward the
    smaller of that vertex's two cycle-neighbors, which pins down the
    successor/predecessor maps.  The cycle is immutable, so its vertex set
    is kept from the duplicate check and its edge set is built on first use
    and kept.  Vertex ids follow ``FiniteGraph``'s rule: non-negative ints
    that are not bools.
    """

    __slots__ = ("_order", "_index", "_vertex_set", "_edges")

    def __init__(self, order: Sequence[int]):
        seq = list(order)
        if set(map(type, seq)) != {int}:  # rare: name the first id that is not an int
            for v in seq:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise DomainError(f"vertex ids must be non-negative integers, got {v!r}")
        if len(seq) < 3:
            raise DomainError(f"a cycle needs at least 3 vertices, got {len(seq)}")
        self._vertex_set = frozenset(seq)
        if len(self._vertex_set) != len(seq):
            raise DomainError("cycle order contains duplicate vertices")
        self._order = _canonical_rotation(seq)
        if self._order[0] < 0:
            raise DomainError(
                f"vertex ids must be non-negative integers, got {self._order[0]!r}"
            )
        self._index = {v: i for i, v in enumerate(self._order)}
        self._edges: frozenset[Edge] | None = None

    @property
    def order(self) -> tuple[int, ...]:
        return self._order

    @property
    def vertex_set(self) -> frozenset[int]:
        return self._vertex_set

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, v: int) -> bool:
        return v in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, CycleEmbedding) and self._order == other._order

    def __hash__(self) -> int:
        return hash(self._order)

    def __repr__(self) -> str:
        return f"CycleEmbedding({list(self._order)})"

    def succ(self, v: int) -> int:
        i = self._require(v)
        return self._order[(i + 1) % len(self._order)]

    def pred(self, v: int) -> int:
        i = self._require(v)
        return self._order[i - 1]

    def edge_set(self) -> frozenset[Edge]:
        if self._edges is None:
            order = self._order
            self._edges = frozenset(map(edge_key, order, order[1:] + order[:1]))
        return self._edges

    def _require(self, v: int) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise DomainError(f"vertex {v} is not on the cycle") from None


def _canonical_rotation(seq: list[int]) -> tuple[int, ...]:
    i = seq.index(min(seq))
    rotated = seq[i:] + seq[:i]
    if rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return tuple(rotated)


@dataclass(frozen=True)
class CycleCheck:
    """Outcome of validating a cycle candidate against a graph."""

    ok: bool
    reason: str = ""
    witness: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_cycle(g: FiniteGraph, c: CycleEmbedding | Sequence[int]) -> CycleCheck:
    """Check that ``c`` is a cycle of ``g``; report the violated piece if not."""
    order = tuple(c.order if isinstance(c, CycleEmbedding) else c)
    if len(order) < 3:
        return CycleCheck(False, "too-short", (len(order),))
    seen: set[int] = set()
    for v in order:
        if v in seen:
            return CycleCheck(False, "duplicate-vertex", (v,))
        seen.add(v)
        if v not in g:
            return CycleCheck(False, "unknown-vertex", (v,))
    n = len(order)
    for i in range(n):
        u, v = order[i], order[(i + 1) % n]
        if not g.has_edge(u, v):
            return CycleCheck(False, "missing-edge", edge_key(u, v))
    return CycleCheck(True)
