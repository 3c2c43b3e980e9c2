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
    components_within,
    neighborhood_k,
)


def is_minimal_separator(g: FiniteGraph, s) -> bool:
    """Inclusion-minimal vertex set whose removal disconnects the graph."""
    ss = g.require_subset(s)
    if not ss or len(ss) >= len(g):
        return False
    rest = [v for v in g.vertices if v not in ss]
    if not rest or len(components_within(g, rest)) < 2:
        return False
    for v in sorted(ss):
        sub = [u for u in g.vertices if u not in ss or u == v]
        if len(components_within(g, sub)) >= 2:
            return False
    return True


def minimal_separator_components(g: FiniteGraph, s) -> tuple[VertexSet, ...]:
    """Components of g - s for a minimal separator s.

    For claw-free graphs there are exactly two; three or more would force an
    induced claw at some separator vertex, which is reported as the witness.
    """
    ss = g.require_subset(s)
    if not is_minimal_separator(g, ss):
        raise DomainError(f"{sorted(ss)} is not an inclusion-minimal separator")
    rest = [v for v in g.vertices if v not in ss]
    comps = components_within(g, rest)
    if len(comps) > 2:
        for v in sorted(ss):
            hits = []
            for comp in comps:
                nb = sorted(set(g.neighbors(v)) & set(comp))
                if nb:
                    hits.append(nb[0])
            if len(hits) >= 3:
                raise InternalConsistencyError(
                    "minimal separator leaves more than two components, "
                    "so the graph cannot be claw-free",
                    witness=tuple(sorted([v] + hits[:3])),
                )
        raise InternalConsistencyError(
            "minimal separator leaves more than two components"
        )  # pragma: no cover - minimality forces a 3-component vertex
    return comps


def separates(g: FiniteGraph, blocker, sources, targets) -> bool:
    """True when every path from sources to targets passes through blocker."""
    blocked = frozenset(blocker)
    src = [v for v in sources if v not in blocked]
    tgs = frozenset(targets) - blocked
    if not src or not tgs:
        return True
    seen = set(src)
    stack = list(src)
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in blocked or w in seen:
                continue
            if w in tgs:
                return False
            seen.add(w)
            stack.append(w)
    return True


def shrink_to_minimal_ray_separator(
    g: FiniteGraph, c: CycleEmbedding, boundary
) -> VertexSet:
    """Shrink N(V(c)) to an inclusion-minimal set separating c from the
    boundary layer.

    Removal is attempted in ascending id order and greedily kept when the
    remainder still separates, which makes the result deterministic.
    """
    bset = g.require_subset(boundary)
    cset = c.vertex_set
    if bset & cset:
        raise DomainError("the cycle touches the boundary layer")
    candidate = set(neighborhood_k(g, cset, 1))
    if bset & candidate:
        raise DomainError("the boundary layer is adjacent to the cycle")
    if not separates(g, candidate, cset, bset):
        raise DomainError(
            "the cycle neighborhood does not separate the cycle from the boundary"
        )  # pragma: no cover - impossible once boundary is disjoint from N(c)
    for v in sorted(candidate):
        trial = candidate - {v}
        if separates(g, trial, cset, bset):
            candidate = trial
    return tuple(sorted(candidate))


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
