"""Minimal vertex separators and the structure decomposition used by the
infinite engine.

On a truncation ball, "every ray starting in the cycle meets the separator"
is operationalized as "every path from the cycle to the boundary layer meets
the separator"; components touching the boundary stand in for the infinite
components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InternalConsistencyError, RadiusTooSmallError
from .graph import (
    CycleEmbedding,
    FiniteGraph,
    VertexSet,
    bfs,
    components_within,
    neighborhood_k,
)


def _minimal_split(g: FiniteGraph, ss: frozenset[int]) -> tuple[VertexSet, ...] | None:
    """Components of g - ss if ss is an inclusion-minimal separator, else None."""
    comps = components_within(g, [v for v in g.vertices if v not in ss])
    if not ss or len(comps) < 2:
        return None
    owner = {v: i for i, comp in enumerate(comps) for v in comp}
    for v in ss:
        if len({owner[u] for u in g.neighbors(v) if u in owner}) < len(comps):
            return None
    return comps


def is_minimal_separator(g: FiniteGraph, s) -> bool:
    """Inclusion-minimal vertex set whose removal disconnects the graph.

    A nonempty S is one exactly when G - S has two or more components and
    each v in S has a neighbor in every one of them: then G - T is connected
    for each proper subset T, through any v in S - T; and if v misses a
    component K, K stays a component of G - (S - {v}), which still separates.
    """
    return _minimal_split(g, g.require_subset(s)) is not None


def minimal_separator_components(g: FiniteGraph, s) -> tuple[VertexSet, ...]:
    """Components of g - s for a minimal separator s.

    For claw-free graphs there are exactly two.  Every vertex of a minimal
    separator has a neighbor in each component, so with three or more the
    smallest separator vertex and its least neighbors in the first three
    components form an induced claw, which is reported as the witness.
    """
    ss = g.require_subset(s)
    comps = _minimal_split(g, ss)
    if comps is None:
        raise DomainError(f"{sorted(ss)} is not an inclusion-minimal separator")
    if len(comps) > 2:
        v = min(ss)
        nbrs = g.neighbor_set(v)
        hits = [min(nbrs.intersection(comp)) for comp in comps[:3]]
        raise InternalConsistencyError(
            "minimal separator leaves more than two components, "
            "so the graph cannot be claw-free",
            witness=tuple(sorted([v] + hits)),
        )
    return comps


def separates(g: FiniteGraph, blocker, sources, targets) -> bool:
    """True when every path from sources to targets passes through blocker."""
    blocked = frozenset(blocker)
    tgs = frozenset(targets) - blocked
    allowed = frozenset(g.vertices) - blocked
    src = [v for v in sources if v not in blocked]
    return not any(v in tgs for v, _, _ in bfs(g, src, within=allowed))


def shrink_to_minimal_ray_separator(
    g: FiniteGraph, c: CycleEmbedding, boundary
) -> VertexSet:
    """The inclusion-minimal subset of X = N(V(c)) separating c from the
    boundary layer: N(R), for R the vertices reached from the boundary in G - X.

    N(R) lies in X (R misses the cycle, and a neighbor of R outside X is in
    R), and every path from the boundary to the cycle leaves R through it, so
    N(R) separates.  Each v in N(R) is on a path cycle - v - R - boundary that
    meets X only at v, so every separating subset of X contains N(R).
    """
    bset = g.require_subset(boundary)
    cset = c.vertex_set
    if bset & cset:
        raise DomainError("the cycle touches the boundary layer")
    x = frozenset(neighborhood_k(g, cset, 1))
    if bset & x:
        raise DomainError("the boundary layer is adjacent to the cycle")
    beyond = bfs(g, bset, within=frozenset(g.vertices) - x)
    return tuple(sorted({u for v, _, _ in beyond for u in g.neighbors(v) if u in x}))


@dataclass(frozen=True)
class SeparatorDecomposition:
    """Separator split into per-end parts around one finite component.

    ``parts[i]`` consists of the separator vertices with a neighbor in
    ``infinite_components[i]``; "infinite" means touching the boundary layer
    of the truncation.
    """

    separator: VertexSet
    finite_component: VertexSet
    infinite_components: tuple[VertexSet, ...]
    parts: tuple[VertexSet, ...]

    @property
    def k(self) -> int:
        return len(self.infinite_components)

    def part_of_vertex(self, s: int) -> int:
        """1-based index of the part containing separator vertex s."""
        for i, part in enumerate(self.parts, start=1):
            if s in part:
                return i
        raise DomainError(f"{s} is not a separator vertex")

    def to_json_obj(self) -> dict:
        return {
            "separator": list(self.separator),
            "finite_component": list(self.finite_component),
            "infinite_components": [list(c) for c in self.infinite_components],
            "parts": [list(p) for p in self.parts],
        }


def decompose(
    g: FiniteGraph, c: CycleEmbedding, separator, boundary
) -> SeparatorDecomposition:
    """Split a minimal ray separator into per-end parts.

    The component containing the cycle is the finite one; every other
    component must touch the boundary (otherwise the truncation radius is
    too small to be faithful).  A separator vertex with neighbors in two
    boundary-touching components yields an induced claw, which is impossible
    in a claw-free graph and reported as an internal inconsistency.
    """
    sset = g.require_subset(separator)
    bset = g.require_subset(boundary)
    cset = c.vertex_set
    if sset & cset:
        raise DomainError("separator vertices must avoid the cycle")
    rest = [v for v in g.vertices if v not in sset]
    comps = components_within(g, rest)
    finite_comp = None
    boundary_comps = []
    for comp in comps:
        compset = set(comp)
        if cset <= compset:
            finite_comp = comp
        elif compset & bset:
            boundary_comps.append(comp)
        else:
            raise RadiusTooSmallError(
                "a component beyond the separator misses the boundary layer; "
                "enlarge the truncation radius",
                suggested_radius=2 * _depth_bound(g, bset),
            )
    if finite_comp is None:
        raise DomainError("no component contains the cycle")
    parts: list[list[int]] = [[] for _ in boundary_comps]
    compsets = [set(comp) for comp in boundary_comps]
    finite_set = set(finite_comp)
    for s in sorted(sset):
        nbrs = set(g.neighbors(s))
        hit = [i for i, compset in enumerate(compsets) if nbrs & compset]
        if len(hit) >= 2:
            a = min(nbrs & compsets[hit[0]])
            b = min(nbrs & compsets[hit[1]])
            k0 = min(nbrs & finite_set) if nbrs & finite_set else None
            witness = tuple(sorted({s, a, b} | ({k0} if k0 is not None else set())))
            raise InternalConsistencyError(
                f"separator vertex {s} reaches two boundary components, "
                "which forces an induced claw in a claw-free graph",
                witness=witness,
            )
        if not hit:
            raise InternalConsistencyError(
                f"separator vertex {s} has no neighbor beyond the separator, "
                "contradicting minimality"
            )
        if not (nbrs & finite_set):
            raise InternalConsistencyError(
                f"separator vertex {s} has no neighbor in the finite component, "
                "contradicting minimality"
            )
        parts[hit[0]].append(s)
    return SeparatorDecomposition(
        separator=tuple(sorted(sset)),
        finite_component=finite_comp,
        infinite_components=tuple(boundary_comps),
        parts=tuple(tuple(sorted(p)) for p in parts),
    )


def _depth_bound(g: FiniteGraph, bset) -> int:
    return max(1, len(g) // max(1, len(bset)))


def check_complete_neighborhood(g: FiniteGraph, s_vertex: int, component) -> bool:
    """Whether the neighbors of s inside the component induce a complete graph."""
    compset = g.require_subset(component)
    inside = sorted(set(g.neighbors(s_vertex)) & compset)
    for i, u in enumerate(inside):
        for v in inside[i + 1 :]:
            if not g.has_edge(u, v):
                return False
    return True
