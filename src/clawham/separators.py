"""Minimal vertex separators and the structure decomposition used by the
infinite engine.

On a truncation ball, "every ray starting in the cycle meets the separator"
is operationalized as "every path from the cycle to the boundary layer meets
the separator"; components touching the boundary stand in for the infinite
components.

One search decides a round's separator and decomposition.  Let C be the
cycle, X = N(C), B the boundary layer (missing C and X), R the vertices
reached from B in G - X, and S = N(R) ∩ X, the minimal ray separator.  A
component of G - X that meets B lies in R, and its neighbors outside it lie
in X, hence in S: it is a component of G - S.  Conversely a component of
G - S that meets B holds a vertex of R and so is that vertex's component of
G - X.  So the boundary components of G - S are exactly the components of
G - X that meet B, and one ``graph.label_components`` call, which labels
the components of G - X seeded at B, yields both S and them
(``ray_decomposition``).  What is left, V - R - S, must be the one
component of G - S that holds C: a search from C avoiding S and the count
|F| + |R| + |S| = |V| for its result F confirm it, and a failed count means
some component misses both C and B, so the radius is too small.

Within ``engine.run`` each round after the first carries the previous
round's decomposition over (``_carry``), at a cost in proportion to what
the round added.  Round m's cycle C covers the previous cycle and F' ∪ S',
the previous finite component and separator.  So N[C] grows, and
R ⊆ R': a component of G - N[C] lies in one of G - N[C'], which meets B
if it does.  Also N(C) ⊆ R', since F' ∪ S' lies on C, and S ⊆ R'.
F' ⊆ F, because F' is connected, holds C', and has no neighbor in R (its
neighbors outside it lie in S', on C).  Hence each old component K only
loses its vertices D in N[C], and what is left of K is a union of new
components, each next to D; once one search of it from a vertex next to D
(its rim) reaches the whole rim, it is one component, and it meets B.  A
vertex of D ∩ N(C) joins S when it has a neighbor left in K, its only
neighbors in R.  F is F' plus what one search from S' reaches without
entering F' or S: every vertex of F - F' reaches F' through S'.  And N(C)
is N(C') plus the neighbors of C - C', less C.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse

from .errors import DomainError, InternalConsistencyError, RadiusTooSmallError
from .graph import (
    CycleEmbedding,
    FiniteGraph,
    VertexSet,
    bfs,
    label_components,
    neighborhood_k,
)


def _minimal_split(g: FiniteGraph, ss: frozenset[int]) -> tuple[VertexSet, ...] | None:
    """Components of g - ss if ss is an inclusion-minimal separator, else None."""
    comps, owner = label_components(g, [v for v in g.vertices if v not in ss])
    if not ss or len(comps) < 2:
        return None
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
    return bfs(g, src, within=allowed, goals=tgs, any_goal=True).keys().isdisjoint(tgs)


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


def ray_decomposition(g: FiniteGraph, c: CycleEmbedding, boundary) -> SeparatorDecomposition:
    """The minimal ray separator of the cycle ``c`` and its split into
    per-end parts, from one search beyond N(V(c)), which it computes.

    The separator is the inclusion-minimal subset of N(V(c)) that meets
    every path from the cycle to the ``boundary`` layer; see the module
    docstring.  The boundary side is one ``label_components`` call: the
    components of G - N(V(c)) that meet the boundary, with their owner
    map.  The component of G - S holding the cycle is the finite one, and
    every other component must touch the boundary, otherwise the
    truncation radius is too small to be faithful.  A separator vertex with
    neighbors in two boundary-touching components yields an induced claw,
    which is impossible in a claw-free graph and reported as an internal
    inconsistency.  Both failures put an induced claw at a separator vertex,
    so ``engine.run``, whose depth rule keeps N[V(c)] interior, meets neither.
    """
    return split_cycle(g, c, boundary).dec


@dataclass(frozen=True)
class CycleSplit:
    """The result of ``split_cycle``, a round's one input: the cycle c,
    its decomposition, N(V(c)), each boundary component and F as sets,
    ``gained``, the vertices of F ∪ S that the previous round's F ∪ S
    lacked, and ``previous_separator``, the separator it was carried from
    (all of F ∪ S and empty, from scratch)."""

    dec: SeparatorDecomposition
    cycle: CycleEmbedding
    near: frozenset[int]
    component_sets: tuple[frozenset[int], ...]
    finite: frozenset[int]
    gained: frozenset[int]
    previous_separator: VertexSet = ()


def split_cycle(
    g: FiniteGraph, c: CycleEmbedding, boundary, prev: CycleSplit | None = None
) -> CycleSplit:
    """The decomposition step: ``ray_decomposition`` of the cycle ``c``
    with its sets, from scratch or, given the previous round's ``prev``,
    carried over from it (see ``_carry``).  Its result is the one input of
    ``engine.cut_lemma_round`` and ``GoodTupleContext.build``."""
    bset = g.require_subset(boundary)
    cset = c.vertex_set
    if prev is None:
        near = frozenset(neighborhood_k(g, c.order, 1))
    else:
        grown = map(g.neighbor_set, cset - prev.cycle.vertex_set)
        near = prev.near.union(*grown).difference(cset)
    if bset & cset:
        raise DomainError("the cycle touches the boundary layer")
    if not bset.isdisjoint(near):
        raise DomainError("the boundary layer is adjacent to the cycle")
    if prev is not None:
        return _carry(g, c, bset, near, prev)
    comps, owner = label_components(g, frozenset(g.vertices).difference(near), bset)
    sset = frozenset(s for s in near if any(u in owner for u in g.neighbors(s)))
    # F, the component of G - S holding the cycle
    finite = frozenset(bfs(g, c.order[:1], within=frozenset(g.vertices).difference(sset)))
    if not cset <= finite:
        raise DomainError("no component contains the cycle")
    dec = _split(g, sset, bset, finite, tuple(sorted(finite)), comps, owner)
    return CycleSplit(dec, c, near, tuple(map(frozenset, comps)), finite, finite | sset)


def _carry(
    g: FiniteGraph,
    c: CycleEmbedding,
    bset: frozenset[int],
    near: frozenset[int],
    prev: CycleSplit,
) -> CycleSplit:
    """The decomposition of the cycle ``c`` carried over from ``prev``,
    that of a cycle whose vertices, finite component and separator ``c``
    covers, as every round of ``engine.run`` leaves them; it equals the one
    from scratch (see the module docstring).

    Each old boundary component K loses its vertices D in N[V(c)]; the
    vertices of D ∩ N(V(c)) with a neighbor left in K join the separator.
    The rest of K is searched from its rim, the vertices next to D, until
    the rim is joined: then it is one component, and otherwise it alone is
    labelled from scratch, seeded at the boundary.  The finite component
    grows from the old one by a search from the old separator through what
    the boundary side lost, avoiding the new separator."""
    touched = c.vertex_set | near
    pieces: list[tuple[VertexSet, frozenset[int], list[int]]] = []
    separator: list[int] = []
    gone = set(prev.dec.separator)
    for comp, kset in zip(prev.dec.infinite_components, prev.component_sets):
        lost = kset & touched
        if not lost:
            pieces.append((comp, kset, []))
            continue
        rest = kset - lost
        gone |= lost
        rim: set[int] = set()
        seps = []
        for v in lost:
            inside = [u for u in g.neighbors(v) if u in rest]
            rim.update(inside)
            if inside and v in near:
                seps.append(v)
        if bfs(g, [min(rim)], within=rest, goals=rim).keys() >= rim:
            pieces.append((tuple(filterfalse(lost.__contains__, comp)), rest, seps))
        else:
            split, labels = label_components(g, rest, bset & rest)
            seps = [v for v in seps if any(u in labels for u in g.neighbors(v))]
            gone |= rest.difference(labels)
            pieces += [(piece, frozenset(piece), seps) for piece in split]
        separator += seps
    pieces.sort(key=lambda piece: piece[0])
    owner = {}
    for i, (_, kset, seps) in enumerate(pieces):
        for v in seps:
            owner.update(dict.fromkeys([u for u in g.neighbors(v) if u in kset], i))
    sset = frozenset(separator)
    reached = bfs(g, prev.dec.separator, within=gone.difference(sset))
    finite = prev.finite.union(reached)
    if not c.vertex_set <= finite:
        raise DomainError("no component contains the cycle")
    # F' is sorted already, so this sort is one merge
    order = tuple(sorted([*prev.dec.finite_component, *sorted(reached)]))
    comps = tuple(piece for piece, _, _ in pieces)
    dec = _split(g, sset, bset, finite, order, comps, owner)
    return CycleSplit(
        dec, c, near, tuple(kset for _, kset, _ in pieces), finite,
        sset.union(reached).difference(prev.dec.separator), prev.dec.separator,
    )


def _split(
    g: FiniteGraph,
    sset: frozenset[int],
    bset: frozenset[int],
    finite,
    finite_order: VertexSet,
    comps: tuple[VertexSet, ...],
    owner: dict[int, int],
) -> SeparatorDecomposition:
    """The decomposition of g - ``sset`` into the cycle's component
    ``finite`` (sorted: ``finite_order``) and the boundary components
    ``comps``, after checking that nothing else is left and that every
    separator vertex reaches one boundary component and ``finite``.
    ``owner`` maps each neighbor of the separator in the boundary
    components to the index of its component."""
    if len(finite) + sum(map(len, comps)) + len(sset) != len(g):
        raise RadiusTooSmallError(
            "a component beyond the separator misses the boundary layer; "
            "enlarge the truncation radius",
            suggested_radius=2 * max(1, len(g) // max(1, len(bset))),
        )
    parts: list[list[int]] = [[] for _ in comps]
    for s in sorted(sset):
        nbrs = g.neighbors(s)
        hit = sorted({owner[u] for u in nbrs if u in owner})
        if len(hit) >= 2:
            a, b = (next(u for u in nbrs if owner.get(u) == i) for i in hit[:2])
            k0 = next((u for u in nbrs if u in finite), None)
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
        if finite.isdisjoint(nbrs):
            raise InternalConsistencyError(
                f"separator vertex {s} has no neighbor in the finite component, "
                "contradicting minimality"
            )
        parts[hit[0]].append(s)
    return SeparatorDecomposition(
        separator=tuple(sorted(sset)),
        finite_component=finite_order,
        infinite_components=comps,
        parts=tuple(map(tuple, parts)),
    )


def check_complete_neighborhood(g: FiniteGraph, s_vertex: int, component) -> bool:
    """Whether the neighbors of s inside the component induce a complete graph."""
    compset = g.require_subset(component)
    inside = sorted(set(g.neighbors(s_vertex)) & compset)
    for i, u in enumerate(inside):
        for v in inside[i + 1 :]:
            if not g.has_edge(u, v):
                return False
    return True
