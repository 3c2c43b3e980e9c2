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
O(cycle length).  Its checks are local too.  ``validate_extension`` runs in
full; then every edge the splice adds must be an edge of the graph within
distance 2 of the base, every bridge must join two distinct vertices, every
insertion must go between cycle-adjacent vertices and add only vertices off
the cycle, and the cycle must grow by exactly the new path vertices.  With
the input cycle validated once, these keep every intermediate cycle a single
cycle of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush

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
    components,
    edge_key,
    shortest_path,
    validate_cycle,
)
from .predicates import is_claw_free, is_locally_connected


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
                target=int(obj["target"]),
                base=int(obj["base"]),
                extension_path=tuple(int(v) for v in obj["path"]),
                bridged=tuple(int(v) for v in obj["bridged"]),
                reattach=None if obj.get("reattach") is None else int(obj["reattach"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed extension record: {exc}") from exc


def validate_extension(g: FiniteGraph, c: CycleEmbedding, ext: PathExtension) -> list[str]:
    """All invariant violations of ``ext`` against (g, c); empty means valid."""
    problems: list[str] = []
    path = ext.extension_path
    if len(path) < 2:
        return [f"extension path too short: {path}"]
    if len(set(path)) != len(path):
        problems.append("extension path repeats a vertex")
    if path[0] != ext.target:
        problems.append("path must start at the target")
    for v in path:
        if v not in g:
            return [f"unknown vertex {v} on path"]
    if ext.target in c:
        problems.append("target already on the cycle")
    if ext.base not in c:
        problems.append("base not on the cycle")
        return problems
    if not g.has_edge(ext.base, ext.target):
        problems.append("base is not adjacent to the target")
    base_nbrs = g.neighbor_set(ext.base)
    for v in path:
        if v not in base_nbrs:
            problems.append(f"path vertex {v} is outside the base neighborhood")
    for u, v in zip(path, path[1:]):
        if not g.has_edge(u, v):
            problems.append(f"path uses the non-edge ({u}, {v})")
    up, um = c.succ(ext.base), c.pred(ext.base)
    interior_on_cycle = {v for v in path[1:-1] if v in c}
    if ext.case is ExtensionCase.ONE:
        x = path[-1]
        if x not in (up, um):
            problems.append("case-one endvertex is not a cycle-neighbor of the base")
        hits = {v for v in path if v in (up, um)}
        if hits != {x}:
            problems.append("path meets the base's cycle-neighbors off its endpoint")
        if set(ext.bridged) != interior_on_cycle:
            problems.append("bridged set must be the interior path vertices on the cycle")
    else:
        w = path[-1]
        if not g.has_edge(up, um):
            problems.append("case two requires the base's cycle-neighbors adjacent")
        if w not in c or w in (up, um) or w not in base_nbrs:
            problems.append("case-two endvertex must be a cycle neighbor of the base "
                            "other than its cycle-neighbors")
        forbidden = {up, um}
        if w in c:
            forbidden |= {c.succ(w), c.pred(w)}
            if ext.reattach is None or ext.reattach not in (c.succ(w), c.pred(w)):
                problems.append("reattach vertex must neighbor the endvertex on the cycle")
            elif ext.reattach not in base_nbrs:
                problems.append("reattach vertex must be adjacent to the base")
        if forbidden & set(path):
            problems.append("path meets a vertex the splice needs to keep in place")
        if set(ext.bridged) != interior_on_cycle | {ext.base}:
            problems.append("case-two bridged set must be interior cycle vertices plus the base")
    for z in sorted(interior_on_cycle):
        zs, zp = c.succ(z), c.pred(z)
        if zs in path or zp in path:
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
    Structural hypotheses are only consumed lazily: a missing edge or a
    disconnected neighborhood raises a hypothesis error with a witness.
    """
    if target in c or target not in g.neighbor_set(base) or base not in c:
        raise DomainError(
            f"need target off the cycle and base on it with an edge between; "
            f"got target={target}, base={base}"
        )
    nbrs = g.neighbor_set(base)
    up, um = c.succ(base), c.pred(base)
    walk = shortest_path(g, target, {up}, allowed=nbrs)
    if walk is None:
        comp = {v for v, _, _ in bfs(g, [target], within=nbrs)}
        raise HypothesisError(
            "locally_connected",
            sorted({base} | comp | {up}),
            f"neighborhood of {base} does not connect {target} to {up}",
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
        # four of them induce a claw.  Prefer the predecessor side.
        for x in (um, up):
            if g.has_edge(target, x):
                return PathExtension(ExtensionCase.ONE, target, base, (target, x), ())
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
    suffix = path[path.index(new_target):]
    interior_on_cycle = tuple(sorted(v for v in suffix[1:-1] if v in c))
    if ext.case is ExtensionCase.ONE:
        return PathExtension(
            ExtensionCase.ONE, new_target, ext.base, suffix, interior_on_cycle
        )
    bridged = tuple(sorted(set(interior_on_cycle) | {ext.base}))
    return PathExtension(
        ExtensionCase.TWO, new_target, ext.base, suffix, bridged, ext.reattach
    )


class _SpliceCycle:
    """A cycle under construction, as successor and predecessor maps.

    ``succ`` and ``pred`` always follow the canonical orientation of
    ``CycleEmbedding``: from the minimum vertex toward the smaller of its two
    cycle-neighbors.  ``find_path_extension`` walks toward ``succ(base)``,
    so the orientation decides which extension is found.
    """

    __slots__ = ("_succ", "_pred", "_low")

    def __init__(self, c: CycleEmbedding):
        order = c.order
        self._succ = dict(zip(order, order[1:] + order[:1]))
        self._pred = dict(zip(order, order[-1:] + order[:-1]))
        self._low = order[0]

    def __contains__(self, v: int) -> bool:
        return v in self._succ

    def succ(self, v: int) -> int:
        return self._succ[v]

    def pred(self, v: int) -> int:
        return self._pred[v]

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
        """Apply a path extension in place; return the vertices it added."""
        problems = validate_extension(g, self, ext)
        if problems:
            raise DomainError("invalid path extension: " + "; ".join(problems))
        path = ext.extension_path
        fresh = tuple(v for v in path if v not in self._succ)
        size = len(self._succ)
        gained = [self._bridge(g, b) for b in ext.bridged]
        if ext.case is ExtensionCase.ONE:
            gained += self.insert(g, ext.base, path[-1], path[:-1])
        else:
            gained += self.insert(g, ext.reattach, path[-1], (ext.base,) + path[:-1])
        base, nbrs = ext.base, g.neighbor_set(ext.base)
        for u, v in gained:
            if not all(
                p == base or p in nbrs or not nbrs.isdisjoint(g.neighbor_set(p))
                for p in (u, v)
            ):
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
        if not seq or len(set(seq)) != len(seq) or any(v in succ for v in seq):
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
        for u, v in links:
            succ[u] = v
            pred[v] = u
        self._low = low = min(self._low, min(seq))
        if succ[low] > pred[low]:
            self._succ, self._pred = pred, succ
        return [edge_key(u, v) for u, v in links]


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
    g: FiniteGraph,
    c: CycleEmbedding,
    goal,
    target_pool=None,
    base_pool=None,
) -> tuple[CycleEmbedding, list[PathExtension]]:
    """Grow the cycle by path extensions until it covers ``goal``.

    Targets are restricted to ``target_pool`` and bases to ``base_pool``
    (None means unrestricted).  Among admissible targets, vertices adjacent
    to the current cycle are taken smallest id first; the base is the
    smallest admissible neighbor on the cycle.  Admissible targets wait in a
    min-heap; a target stays admissible until it joins the cycle, because
    splices never drop a cycle vertex.
    """
    goalset = g.require_subset(goal)
    targets = g.require_subset(target_pool) if target_pool is not None else None
    bases = g.require_subset(base_pool) if base_pool is not None else None
    _require_cycle(g, c)
    cycle = _SpliceCycle(c)
    missing = set(goalset).difference(c.order)
    frontier: list[int] = []
    queued: set[int] = set()

    def admit(new_vertices) -> None:
        for b in new_vertices:
            if bases is not None and b not in bases:
                continue
            for t in g.neighbors(b):
                if t not in queued and t not in cycle and (targets is None or t in targets):
                    queued.add(t)
                    heappush(frontier, t)

    admit(c.order)
    log: list[PathExtension] = []
    while missing:
        while frontier and frontier[0] in cycle:
            heappop(frontier)
        if not frontier:
            raise ProgressError(
                f"no admissible (target, base) pair while {sorted(missing)} is uncovered"
            )
        t = frontier[0]
        base = next(
            b for b in g.neighbors(t) if b in cycle and (bases is None or b in bases)
        )
        ext = find_path_extension(g, cycle, t, base)
        fresh = cycle.splice(g, ext)
        missing.difference_update(fresh)
        admit(fresh)
        log.append(ext)
    return cycle.freeze(), log


def shortest_cycle_through(g: FiniteGraph, v: int) -> CycleEmbedding:
    """Shortest cycle through v: two internally disjoint legs between a
    neighbor pair, found by BFS in g - v."""
    nbrs = g.neighbors(v)
    best: list[int] | None = None
    others = frozenset(u for u in g.vertices if u != v)
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1 :]:
            path = shortest_path(g, a, {b}, allowed=others)
            if path is None:
                continue
            if best is None or len(path) < len(best):
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
    """Re-run the splice log and confirm it lands on the recorded spanning cycle."""
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
    if cycle.vertex_set != frozenset(g.vertices):
        return ReplayReport(False, len(cert.extensions), "final cycle does not span the graph")
    return ReplayReport(True, len(cert.extensions))


def finite_hamilton(g: FiniteGraph) -> HamiltonCertificate:
    """Hamilton cycle for a connected, locally connected, claw-free graph.

    The hypotheses are checked up front (hypothesis error with witness when
    they fail); afterwards the construction cannot get stuck, so any
    stuck-state is converted into an internal-consistency report.
    """
    if len(g) < 3:
        raise DomainError("need at least 3 vertices")
    parts = components(g)
    if len(parts) > 1:
        raise HypothesisError(
            "connected", (parts[0][0], parts[1][0]), "graph is disconnected"
        )
    for name, report in (("claw_free", is_claw_free(g)), ("locally_connected", is_locally_connected(g))):
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
