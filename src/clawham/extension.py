"""Cycle surgery: path extensions and the finite Hamilton-cycle algorithm.

A path extension splices a path through the neighborhood of a cycle vertex
(the base) into the cycle, gaining one new vertex (the target).  Cycle
vertices that sit inside the spliced path leave their old position and
rejoin through the path; their former cycle-neighbors are joined directly
(which is always possible in a claw-free graph).  No vertex is ever lost:
the new cycle covers the old one plus the target.

Both extension cases are one delete-and-insert on a successor/predecessor
map: the bridged vertices are unlinked, then one segment is inserted between
two cycle-adjacent vertices.  A splice therefore costs O(path length), not
O(cycle length).  Its checks are local too.  Most splices are plain
insertions: case one, bridging nothing, an off-cycle path put between the
base and one of its cycle-neighbors.  At benchmark seed 7 they are 1428 of
the 1450 finite-families splices, 1704 of 1786 on small-sweep, 607 of 769
on engine-1d and 732 of 975 on engine-2d.  A plain insertion is checked and
linked in one pass: its path lies in N(base), starts at the target, repeats
no vertex, follows edges of the graph, has only its last vertex on the
cycle, and ends at a cycle-neighbor of the base.  These are
``validate_extension``'s case-one conditions with nothing bridged, and they
imply every backstop below: the new edges lie in N[base], the insertion
ends are cycle-adjacent, and the cycle grows by exactly the fresh path
vertices.  Every other splice, and a plain one failing a condition, runs
``validate_extension`` in full; then every edge the splice adds must be an
edge of the graph within distance 2 of the base, every bridge must join two
distinct vertices, every insertion must go between cycle-adjacent vertices
and add only vertices off the cycle, and the cycle must grow by exactly the
new path vertices.  With the input cycle validated once, these keep every
intermediate cycle a single cycle of the graph.

Finding an extension walks inside N(base) from the target to the base's
cycle-successor.  At a claw-free base it has at most three edges, and it is
read from set intersections that give the breadth-first search's walk
(``find_path_extension``); a search runs only to report a hypothesis that
fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from heapq import heapify, heappop, heappush
from itertools import combinations

from .errors import (
    DomainError,
    HypothesisError,
    InternalConsistencyError,
    ProgressError,
)
from .graph import (
    CycleEmbedding,
    Edge,
    FiniteGraph,
    bfs,
    edge_key,
    shortest_path,
    validate_cycle,
)
from .predicates import _confirmed_claw, _local_reports, claw_at, connected_report


class ExtensionCase(Enum):
    ONE = "one"
    TWO = "two"


@dataclass(frozen=True)
class PathExtension:
    """One splice step.

    ``extension_path`` runs from the target to the final endvertex and lies
    entirely in the neighborhood of the base.  ``bridged`` lists the cycle
    vertices whose two cycle edges are replaced by the direct edge between
    their cycle-neighbors (in case TWO this includes the base itself).
    ``reattach`` is the cycle-neighbor of the path's endvertex through which
    the base is re-inserted (case TWO only).
    """

    case: ExtensionCase
    target: int
    base: int
    extension_path: tuple[int, ...]
    bridged: tuple[int, ...]
    reattach: int | None = None

    @property
    def endvertex(self) -> int:
        return self.extension_path[-1]

    def to_json_obj(self) -> dict:
        return {
            "case": self.case.value,
            "target": self.target,
            "base": self.base,
            "path": list(self.extension_path),
            "bridged": list(self.bridged),
            "reattach": self.reattach,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PathExtension":
        try:
            return cls(
                case=ExtensionCase(obj["case"]),
                target=_vertex_id(obj["target"]),
                base=_vertex_id(obj["base"]),
                extension_path=tuple(map(_vertex_id, obj["path"])),
                bridged=tuple(map(_vertex_id, obj["bridged"])),
                reattach=None if obj.get("reattach") is None else _vertex_id(obj["reattach"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed extension record: {exc}") from exc


def _vertex_id(v) -> int:
    """A vertex id read from a record, under ``FiniteGraph``'s rule: an int
    that is not a bool and is non-negative."""
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise DomainError(f"vertex ids must be non-negative integers, got {v!r}")
    return v


def validate_extension(g: FiniteGraph, c: CycleEmbedding, ext: PathExtension) -> list[str]:
    """All invariant violations of ``ext`` against (g, c); empty means valid."""
    problems: list[str] = []
    path = ext.extension_path
    if len(path) < 2:
        return [f"extension path too short: {path}"]
    on_path, bridged = set(path), set(ext.bridged)
    if len(on_path) != len(path):
        problems.append("extension path repeats a vertex")
    if len(bridged) != len(ext.bridged):
        problems.append("bridged set repeats a vertex")
    if path[0] != ext.target:
        problems.append("path must start at the target")
    for v in path:
        if v not in g:
            return [f"unknown vertex {v} on path"]
    base = ext.base
    if ext.target in c:
        problems.append("target already on the cycle")
    if base not in c:
        problems.append("base not on the cycle")
        return problems
    base_nbrs = g.neighbor_set(base)
    if ext.target not in base_nbrs:
        problems.append("base is not adjacent to the target")
    for v in path:
        if v not in base_nbrs:
            problems.append(f"path vertex {v} is outside the base neighborhood")
    for u, v in zip(path, path[1:]):
        if not g.has_edge(u, v):
            problems.append(f"path uses the non-edge ({u}, {v})")
    up, um = c.succ(base), c.pred(base)
    ends = {up, um}
    interior_on_cycle = {v for v in path[1:-1] if v in c}
    last = path[-1]
    if ext.case is ExtensionCase.ONE:
        if last not in ends:
            problems.append("case-one endvertex is not a cycle-neighbor of the base")
        if on_path & ends != {last}:
            problems.append("path meets the base's cycle-neighbors off its endpoint")
        if bridged != interior_on_cycle:
            problems.append("bridged set must be the interior path vertices on the cycle")
    else:
        if not g.has_edge(up, um):
            problems.append("case two requires the base's cycle-neighbors adjacent")
        last_on_cycle = last in c
        if not last_on_cycle or last in ends or last not in base_nbrs:
            problems.append("case-two endvertex must be a cycle neighbor of the base "
                            "other than its cycle-neighbors")
        forbidden = ends
        if last_on_cycle:
            around_last = (c.succ(last), c.pred(last))
            forbidden = ends.union(around_last)
            if ext.reattach is None or ext.reattach not in around_last:
                problems.append("reattach vertex must neighbor the endvertex on the cycle")
            elif ext.reattach not in base_nbrs:
                problems.append("reattach vertex must be adjacent to the base")
        if not forbidden.isdisjoint(on_path):
            problems.append("path meets a vertex the splice needs to keep in place")
        if bridged != interior_on_cycle | {base}:
            problems.append("case-two bridged set must be interior cycle vertices plus the base")
    for z in sorted(interior_on_cycle):
        zs, zp = c.succ(z), c.pred(z)
        if zs in on_path or zp in on_path:
            problems.append(f"cycle-neighbors of bridged vertex {z} lie on the path")
        if not g.has_edge(zs, zp):
            problems.append(f"bridged vertex {z} has non-adjacent cycle-neighbors")
    return problems


def find_path_extension(
    g: FiniteGraph, c: CycleEmbedding, target: int, base: int
) -> PathExtension:
    """Build a path extension of ``c`` acquiring ``target`` through ``base``.

    Follows the constructive argument: walk from the target toward the
    base's cycle-successor inside the base's neighborhood, cut at the first
    cycle-neighbor of the base, and fall back to re-routing the base when an
    interior cycle vertex has a cycle-neighbor adjacent to the base.
    Structural hypotheses are only consumed lazily: a missing edge, a
    disconnected neighborhood or a claw at the base raises a hypothesis
    error with a witness.

    The walk is the breadth-first search's from the target to ``up`` =
    succ(base) within N(base), read without a search.  Depth 1 is the edge
    (target, up), when the target sees ``up``.  Else layer 1 is
    N(target) & N(base) in sorted order, and the search reaches ``up`` from
    the first vertex of it that sees ``up``: the walk is [target, x, up]
    for x = min(N(target) & N(up) & N(base)).  Else ``near_up`` =
    N(base) & N(up) misses the target and layer 1, and layer 2 lists the
    unreached neighbors of each layer-1 vertex in turn, sorted: the walk is
    [target, x1, min(N(x1) & near_up), up] for the first x1 of layer 1
    that sees ``near_up``.  The cut at the first of ``up`` and ``um``
    applies unchanged.  A shortest walk p0 … p4 would make p0, p2, p4 and
    the base a claw, so with no walk of three or fewer edges a flood from
    the target inside N(base) either misses ``up`` or the base centers a
    claw; only this error path searches.
    """
    if target in c or target not in g.neighbor_set(base) or base not in c:
        raise DomainError(
            f"need target off the cycle and base on it with an edge between; "
            f"got target={target}, base={base}"
        )
    nbrs = g.neighbor_set(base)
    up, um = c.succ(base), c.pred(base)
    if up in g.neighbor_set(target):
        # the walk's first step reaches up: case one, bridging nothing
        return PathExtension(ExtensionCase.ONE, target, base, (target, up), ())
    via = nbrs.intersection(g.neighbor_set(target), g.neighbor_set(up))
    if via:
        walk = [target, min(via), up]
    else:
        near_up = nbrs & g.neighbor_set(up)
        walk = next(([target, x1, min(hit), up] for x1 in g.neighbors(target)
                     if x1 in nbrs and (hit := near_up & g.neighbor_set(x1))), None)
    if walk is None:
        comp = set(bfs(g, [target], within=nbrs))
        if up not in comp:
            raise HypothesisError(
                "locally_connected",
                sorted({base} | comp | {up}),
                f"neighborhood of {base} does not connect {target} to {up}",
            )
        triple = _confirmed_claw(base, claw_at(g, base))
        raise HypothesisError(
            "claw_free", sorted((base,) + triple), f"induced claw centered at {base}"
        )
    stop = next(i for i, v in enumerate(walk) if v in (up, um))
    path = tuple(walk[: stop + 1])
    interior_on_cycle = [v for v in path[1:-1] if v in c]
    nonsingular = [
        z for z in interior_on_cycle if c.succ(z) in nbrs or c.pred(z) in nbrs
    ]
    if not nonsingular:
        _require_bridgeable(g, c, base, interior_on_cycle)
        return PathExtension(
            ExtensionCase.ONE, target, base, path, tuple(sorted(interior_on_cycle))
        )
    if not g.has_edge(up, um):
        # The target must see one of the base's cycle-neighbors, else the
        # four of them induce a claw; it misses up, or the shortcut above
        # would have returned.
        if g.has_edge(target, um):
            return PathExtension(ExtensionCase.ONE, target, base, (target, um), ())
        raise HypothesisError(
            "claw_free",
            sorted((base, target, up, um)),
            f"induced claw centered at {base}",
        )
    w = nonsingular[0]
    cut_at = path.index(w)
    pw = path[: cut_at + 1]
    interior_w = [v for v in pw[1:-1] if v in c]
    _require_bridgeable(g, c, base, interior_w)
    ws, wp = c.succ(w), c.pred(w)
    reattach = ws if ws in nbrs else wp
    bridged = tuple(sorted(interior_w + [base]))
    return PathExtension(ExtensionCase.TWO, target, base, pw, bridged, reattach)


def _require_bridgeable(g, c, base, interior_on_cycle) -> None:
    """Interior cycle vertices must have adjacent cycle-neighbors; a missing
    edge exhibits an induced claw at the vertex."""
    for z in interior_on_cycle:
        zs, zp = c.succ(z), c.pred(z)
        if not g.has_edge(zs, zp):
            raise HypothesisError(
                "claw_free",
                sorted((z, zs, zp, base)),
                f"induced claw centered at {z}",
            )


def truncate_extension(
    g: FiniteGraph, c: CycleEmbedding, ext: PathExtension, new_target: int
) -> PathExtension:
    """Retarget an extension at an interior path vertex, keeping the suffix.

    The suffix of a valid extension path is again a valid extension path as
    long as the new target is off the cycle.
    """
    if new_target == ext.target:
        return ext
    path = ext.extension_path
    if new_target not in path[1:-1]:
        raise DomainError(f"{new_target} is not an interior vertex of the path")
    if new_target in c:
        raise DomainError("the new target already lies on the cycle")
    return repath_extension(c, ext, path[path.index(new_target):])


def repath_extension(
    c: CycleEmbedding, ext: PathExtension, path: tuple[int, ...]
) -> PathExtension:
    """``ext`` along ``path``, a new path from a new target to its endvertex:
    same case, base and reattach vertex, with the bridged vertices of ``c``
    recomputed (the path's interior cycle vertices, and the base in case TWO)."""
    bridged = {v for v in path[1:-1] if v in c}
    if ext.case is ExtensionCase.TWO:
        bridged.add(ext.base)
    return replace(
        ext, target=path[0], extension_path=tuple(path), bridged=tuple(sorted(bridged))
    )


class _SpliceCycle:
    """A cycle under construction, as successor and predecessor maps.

    ``succ`` and ``pred`` always follow the canonical orientation of
    ``CycleEmbedding``: from the minimum vertex toward the smaller of its two
    cycle-neighbors.  ``find_path_extension`` walks toward ``succ(base)``,
    so the orientation decides which extension is found.

    ``edits``, when a caller sets it to a dict, is the log of what changed:
    ``_link`` and ``_bridge``, the only writers of the maps, count each
    cycle edge they add as +1 and each they remove as −1.  An edge removed
    and added back nets to 0.  It is None by default, and then nothing is
    counted.
    """

    __slots__ = ("_succ", "_pred", "_low", "edits")

    def __init__(self, c: CycleEmbedding):
        order = c.order
        self._succ = dict(zip(order, order[1:] + order[:1]))
        self._pred = dict(zip(order, order[-1:] + order[:-1]))
        self._low = order[0]
        self.edits: dict[Edge, int] | None = None

    def __contains__(self, v: int) -> bool:
        return v in self._succ

    def succ(self, v: int) -> int:
        return self._succ[v]

    def pred(self, v: int) -> int:
        return self._pred[v]

    def on_cycle(self, vertices) -> set[int]:
        """The given vertices that lie on the cycle, in one intersection."""
        return self._succ.keys() & vertices

    def edges_at(self, vertices) -> set[Edge]:
        """The cycle edges with an endpoint in ``vertices``."""
        succ, pred = self._succ, self._pred
        edges = set()
        for v in vertices:
            if v in succ:
                w, u = succ[v], pred[v]
                edges.add((v, w) if v < w else (w, v))
                edges.add((u, v) if u < v else (v, u))
        return edges

    def freeze(self) -> CycleEmbedding:
        """The current cycle as an immutable ``CycleEmbedding``, in O(n)."""
        succ, low = self._succ, self._low
        order = [low]
        v = succ[low]
        while v != low:
            order.append(v)
            v = succ[v]
        if len(order) != len(succ):  # pragma: no cover - splices keep one cycle
            raise InternalConsistencyError("the spliced cycle fell apart")
        return CycleEmbedding(order)

    def splice(self, g: FiniteGraph, ext: PathExtension) -> tuple[int, ...]:
        """Apply a path extension in place; return the vertices it added.

        A plain insertion, case one bridging nothing, is checked and linked
        in one pass: the base is on the cycle, the path has two or more
        vertices and starts at the target, lies in N(base), has no vertex
        but its last on the cycle, repeats no vertex, follows edges of
        ``g``, and ends at the base's successor or predecessor.  These are
        ``validate_extension``'s case-one conditions with nothing bridged:
        off the cycle, the target sees the base and the path meets the
        base's cycle-neighbors at its end alone, with no interior cycle
        vertex to bridge.  They also imply every backstop of the general
        path: each new edge (the base to the target, the path's edges, the
        last fresh vertex to the end) joins vertices of N[base]; nothing is
        bridged; the insertion ends, the base and the end, are
        cycle-adjacent; the inserted vertices ``path[:-1]`` are distinct
        and off the cycle; so the cycle grows by exactly them.  Any other
        extension, or one that fails a condition, goes through
        ``validate_extension`` and the checked bridge-and-insert, so each
        refusal keeps its exception and message.
        """
        path, base = ext.extension_path, ext.base
        succ = self._succ
        if ext.case is ExtensionCase.ONE and not ext.bridged and base in succ and len(path) > 1:
            fresh, end = path[:-1], path[-1]
            if (path[0] == ext.target
                    and g.neighbor_set(base).issuperset(path)
                    and succ.keys().isdisjoint(fresh)
                    and len(set(path)) == len(path)
                    and all(map(g.has_edge, fresh, path[1:]))):
                if succ[base] == end:
                    self._link((base, *fresh, end))
                    return fresh
                if self._pred[base] == end:
                    self._link((end, *fresh[::-1], base))
                    return fresh
        problems = validate_extension(g, self, ext)
        if problems:
            raise DomainError("invalid path extension: " + "; ".join(problems))
        fresh = tuple(v for v in path if v not in succ)
        size = len(succ)
        gained = [self._bridge(g, b) for b in ext.bridged]
        if ext.case is ExtensionCase.ONE:
            gained += self.insert(g, base, path[-1], path[:-1])
        else:
            gained += self.insert(g, ext.reattach, path[-1], (base,) + path[:-1])
        nbrs = g.neighbor_set(base)
        for u, v in gained:
            for p in (u, v):
                if p != base and p not in nbrs and nbrs.isdisjoint(g.neighbor_set(p)):
                    raise InternalConsistencyError(
                        f"new edge ({u}, {v}) strays farther than distance 2 from base {base}"
                    )
        if len(self._succ) != size + len(fresh):
            raise InternalConsistencyError(
                "splicing a validated extension did not produce a spanning cycle",
                witness=ext.to_json_obj(),
            )
        return fresh

    def _bridge(self, g: FiniteGraph, b: int) -> Edge:
        """Unlink ``b`` and join its two cycle-neighbors."""
        p, s = self._pred.pop(b), self._succ.pop(b)
        if p == s:
            raise InternalConsistencyError(f"bridging {b} would leave a 2-cycle")
        if not g.has_edge(p, s):
            raise InternalConsistencyError(f"the splice adds the non-edge {edge_key(p, s)}")
        self._succ[p] = s
        self._pred[s] = p
        edits = self.edits
        if edits is not None:
            for e, d in ((edge_key(p, b), -1), (edge_key(b, s), -1), (edge_key(p, s), 1)):
                edits[e] = edits.get(e, 0) + d
        return edge_key(p, s)

    def insert(self, g: FiniteGraph, a: int, b: int, seq) -> list[Edge]:
        """Insert the off-cycle vertices ``seq`` between the cycle-adjacent
        ``a`` and ``b`` (``seq[0]`` next to ``a``); return the new edges,
        after checking that each is an edge of ``g``."""
        succ, pred = self._succ, self._pred
        if succ.get(a) != b:
            if succ.get(b) != a:
                raise InternalConsistencyError(
                    f"insertion ends {a} and {b} are not adjacent on the cycle"
                )
            a, b, seq = b, a, seq[::-1]
        if not seq or len(set(seq)) != len(seq) or not succ.keys().isdisjoint(seq):
            raise InternalConsistencyError(
                f"inserted vertices {list(seq)} are not distinct and off the cycle"
            )
        chain = (a, *seq, b)
        links = list(zip(chain, chain[1:]))
        for u, v in links:
            if not g.has_edge(u, v):
                raise InternalConsistencyError(
                    f"the splice adds the non-edge {edge_key(u, v)}"
                )
        self._link(chain)
        return [edge_key(u, v) for u, v in links]

    def _link(self, chain) -> None:
        """Link ``chain`` in order, its ends ``chain[0]`` and then
        ``chain[-1]`` consecutive on the cycle and its interior off it, and
        turn the maps round if the canonical orientation asks for it.  The
        edge between the ends is removed, and the chain's edges are added."""
        succ, pred = self._succ, self._pred
        for u, v in zip(chain, chain[1:]):
            succ[u] = v
            pred[v] = u
        edits = self.edits
        if edits is not None:
            e = edge_key(chain[0], chain[-1])
            edits[e] = edits.get(e, 0) - 1
            for u, v in zip(chain, chain[1:]):
                e = edge_key(u, v)
                edits[e] = edits.get(e, 0) + 1
        self._low = low = min(self._low, min(chain))
        if succ[low] > pred[low]:
            self._succ, self._pred = pred, succ


def apply_path_extension(
    g: FiniteGraph, c: CycleEmbedding, ext: PathExtension
) -> CycleEmbedding:
    """Splice an extension into the cycle and return the enlarged cycle."""
    _require_cycle(g, c)
    cycle = _SpliceCycle(c)
    cycle.splice(g, ext)
    return cycle.freeze()


def _require_cycle(g: FiniteGraph, c: CycleEmbedding) -> None:
    check = validate_cycle(g, c)
    if not check.ok:
        raise DomainError(f"not a cycle of the graph: {check.reason} {check.witness}")


def extend_to_cover(
    g: FiniteGraph, c: CycleEmbedding, goal
) -> tuple[CycleEmbedding, list[PathExtension]]:
    """Grow the cycle by path extensions until it covers ``goal``.

    Every target is a vertex of ``goal``: among the uncovered goal vertices
    adjacent to the current cycle, the smallest id is taken first, and the
    base is its smallest neighbor on the cycle.  Admissible targets wait in
    a min-heap; a target stays admissible until it joins the cycle, because
    splices never drop a cycle vertex.
    """
    goalset = g.require_subset(goal)
    _require_cycle(g, c)
    cycle = _SpliceCycle(c)
    log = _cover(g, cycle, goalset, frozenset(g.vertices))
    return cycle.freeze(), log


def _cover(g, cycle: _SpliceCycle, goal, bases, splice=None):
    """The loop of ``extend_to_cover`` on a live cycle, grown in place,
    with bases restricted to the set ``bases``.

    The frontier starts from the uncovered goal vertices next to a base on
    the cycle, and each splice admits the uncovered goal vertices next to
    the bases it added.  ``splice(ext)`` applies each extension and returns
    the vertices it added; by default it is ``cycle.splice``.  Returns the
    extensions in the order applied.
    """
    if splice is None:
        def splice(ext):
            return cycle.splice(g, ext)

    def bases_at(t: int) -> set[int]:
        return cycle.on_cycle(g.neighbor_set(t)) & bases

    missing = set(goal) - cycle.on_cycle(goal)
    frontier = [t for t in missing if bases_at(t)]
    heapify(frontier)
    queued = set(frontier)
    log: list[PathExtension] = []
    while missing:
        while frontier and frontier[0] not in missing:
            heappop(frontier)
        if not frontier:
            raise ProgressError(
                f"no admissible (target, base) pair while {sorted(missing)} is uncovered"
            )
        t = frontier[0]
        ext = find_path_extension(g, cycle, t, min(bases_at(t)))
        fresh = splice(ext)
        missing.difference_update(fresh)
        for b in bases.intersection(fresh):
            for w in g.neighbors(b):
                if w in missing and w not in queued:
                    queued.add(w)
                    heappush(frontier, w)
        log.append(ext)
    return log


def shortest_cycle_through(g: FiniteGraph, v: int) -> CycleEmbedding:
    """Shortest cycle through v.  The first adjacent pair of neighbors, in
    order, closes a triangle, and no cycle is shorter, so it is returned
    without a search.  Otherwise each neighbor pair in turn is joined by a
    BFS in g - v, and the first strictly shortest path is kept."""
    nbrs = g.neighbors(v)
    for a, b in combinations(nbrs, 2):
        if g.has_edge(a, b):
            return CycleEmbedding([v, a, b])
    best: list[int] | None = None
    others = frozenset(u for u in g.vertices if u != v)
    for a, b in combinations(nbrs, 2):
        path = shortest_path(g, a, {b}, allowed=others)
        if path is not None and (best is None or len(path) < len(best)):
            best = path
    if best is None:
        raise DomainError(f"no cycle passes through vertex {v}")
    return CycleEmbedding([v] + best)


@dataclass(frozen=True)
class HamiltonCertificate:
    """Replayable construction: initial cycle plus the splice log."""

    initial_cycle: CycleEmbedding
    extensions: tuple[PathExtension, ...]
    cycle: CycleEmbedding

    def to_json_obj(self) -> dict:
        return {
            "initial_cycle": list(self.initial_cycle.order),
            "extensions": [e.to_json_obj() for e in self.extensions],
            "final_cycle": list(self.cycle.order),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "HamiltonCertificate":
        try:
            return cls(
                initial_cycle=CycleEmbedding(obj["initial_cycle"]),
                extensions=tuple(
                    PathExtension.from_json_obj(e) for e in obj["extensions"]
                ),
                cycle=CycleEmbedding(obj["final_cycle"]),
            )
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed certificate: {exc}") from exc


@dataclass(frozen=True)
class ReplayReport:
    ok: bool
    steps_ok: int
    failure: str = ""

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "steps_ok": self.steps_ok, "failure": self.failure}


def replay_certificate(g: FiniteGraph, cert: HamiltonCertificate) -> ReplayReport:
    """Re-run the splice log, confirm it lands on the recorded spanning
    cycle, and validate that cycle with code the splices do not use."""
    check = validate_cycle(g, cert.initial_cycle)
    if not check.ok:
        return ReplayReport(False, 0, f"initial cycle invalid: {check.reason} {check.witness}")
    spliced = _SpliceCycle(cert.initial_cycle)
    for i, ext in enumerate(cert.extensions):
        try:
            spliced.splice(g, ext)
        except (DomainError, InternalConsistencyError) as exc:
            return ReplayReport(False, i, f"step {i}: {exc}")
    cycle = spliced.freeze()
    if cycle != cert.cycle:
        return ReplayReport(False, len(cert.extensions), "final cycle differs from the record")
    check = validate_cycle(g, cycle)
    if not check.ok:
        return ReplayReport(False, len(cert.extensions),
                            f"final cycle is not a cycle of the graph: {check.reason} {check.witness}")
    if cycle.vertex_set != frozenset(g.vertices):
        return ReplayReport(False, len(cert.extensions), "final cycle does not span the graph")
    return ReplayReport(True, len(cert.extensions))


def finite_hamilton(g: FiniteGraph) -> HamiltonCertificate:
    """Hamilton cycle for a connected, locally connected, claw-free graph.

    The hypotheses are checked up front (hypothesis error with witness when
    they fail): connectivity, then claw-freeness and local connectivity from
    one sweep, a claw reported first.  Afterwards the construction cannot
    get stuck, so any stuck-state is converted into an internal-consistency
    report.
    """
    if len(g) < 3:
        raise DomainError("need at least 3 vertices")
    report = connected_report(g)
    if not report.holds:
        raise HypothesisError("connected", report.witness, report.note)
    for name, report in zip(("claw_free", "locally_connected"), _local_reports(g)):
        if not report.holds:
            raise HypothesisError(name, report.witness, report.note)
    start = shortest_cycle_through(g, g.vertices[0])
    try:
        cycle, log = extend_to_cover(g, start, g.vertices)
    except (HypothesisError, ProgressError) as exc:
        raise InternalConsistencyError(
            f"construction failed although all hypotheses were verified: {exc}"
        ) from exc
    return HamiltonCertificate(start, tuple(log), cycle)
