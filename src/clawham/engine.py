"""Desk-scale engine for the infinite construction.

Each round takes the current cycle of a truncation ball, shrinks the cycle
neighborhood to a minimal set separating the cycle from the boundary,
decomposes it into per-end parts, and enlarges the cycle so that it covers
the finite component, the separator, and a 3-neighborhood of the separator
on each infinite side.  Alongside the cycle the round produces one witness
vertex set per end proxy; the pair must satisfy six machine-checkable
properties (the engine's inductive invariant), and the sequence of rounds
must satisfy five extraction conditions that certify, on the generated
prefix, the shape of a limit circle through all ends.

A round validates its input cycle once, then edits one live cycle and one
dict of witness sets.  Every splice goes through ``_tracked``, which reads
the cycle edges a splice removed and added off its footprint F and the old
cycle-neighbors of F.  After every capture and finite-component splice,
``_good_splice`` decides the six properties from those edges, in
O(k·|F|·deg) for k witness sets, plus a search inside a witness set in the
one case that needs it, a set that sheds part of F; the search stops as soon
as it has joined the set's neighbors of F.  A part's spine and zone-cover
splices only collect their net edge changes.  At the part boundary,
``_good_part`` decides the six properties from those changes and the new
and absorbing sets, in O(|Z|·deg + k·|P|) for the part's zone Z and the
part and its edited cycle-neighbors P, never walking the part's component.
The full ``check_good_tuple`` runs once, at the round end, on a frozen copy,
at O(k·(|C| + |M|) + k²) for cycle length |C| and witness-set sizes |M|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    DomainError,
    HypothesisError,
    InternalConsistencyError,
    ProgressError,
    RadiusTooSmallError,
)
from .extension import (
    ExtensionCase,
    PathExtension,
    _cover,
    _require_cycle,
    _SpliceCycle,
    apply_path_extension,
    extend_to_cover,
    find_path_extension,
    shortest_cycle_through,
    truncate_extension,
)
from .graph import (
    CycleEmbedding,
    Edge,
    FiniteGraph,
    bfs,
    components_within,
    cut,
    neighborhood_k,
)
from .predicates import claw_at, locally_connected_at
from .presentations import Ball, GraphPresentation
from .separators import (
    SeparatorDecomposition,
    decompose,
    shrink_to_minimal_ray_separator,
)

# -- good tuples --------------------------------------------------------------


@dataclass(frozen=True)
class GoodTupleContext:
    """Frozen per-round data every good-tuple check refers to: the round's
    base cycle, its separator decomposition, and derived neighborhoods."""

    graph: FiniteGraph
    base_cycle: CycleEmbedding
    dec: SeparatorDecomposition
    near_cycle_2: frozenset[int]
    around_finite_4: frozenset[int]
    part_zones: tuple[frozenset[int], ...]

    @classmethod
    def build(
        cls, g: FiniteGraph, c: CycleEmbedding, dec: SeparatorDecomposition
    ) -> "GoodTupleContext":
        nc = neighborhood_k(g, c.order, 1)
        near2 = frozenset(neighborhood_k(g, nc, 2))
        k0 = set(dec.finite_component)
        around4 = frozenset(neighborhood_k(g, dec.finite_component, 4)) | frozenset(k0)
        zones = tuple(
            frozenset(neighborhood_k(g, part, 3)) & frozenset(comp)
            for part, comp in zip(dec.parts, dec.infinite_components)
        )
        return cls(g, c, dec, near2, around4, zones)

    @cached_property
    def deep_base(self) -> frozenset[int]:
        """The base-cycle vertices beyond distance 2 of the cycle
        neighborhood.  Witness sets may lie anywhere else: x is in their
        room exactly when x is off the base cycle or in ``near_cycle_2``."""
        return self.base_cycle.vertex_set - self.near_cycle_2

    @cached_property
    def component_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(c) for c in self.dec.infinite_components)

    @cached_property
    def allowed(self) -> frozenset[int]:
        """Where a witness-preserving extension may reach: the finite
        component off the base cycle, the separator, and the finite
        component's part of the 2-neighborhood of the cycle neighborhood."""
        k0 = frozenset(self.dec.finite_component)
        return (
            (k0 - self.base_cycle.vertex_set)
            | frozenset(self.dec.separator)
            | (self.near_cycle_2 & k0)
        )


@dataclass(frozen=True)
class GoodTuple:
    """A cycle plus one witness set per covered end, with the six checkable
    properties relative to a fixed context."""

    context: GoodTupleContext
    cycle: CycleEmbedding
    witness_sets: dict[int, frozenset[int]]  # 1-based part index -> set

    def check(self) -> list[str]:
        return check_good_tuple(self.context, self.cycle, self.witness_sets)


def check_good_tuple(
    ctx: GoodTupleContext,
    cycle: CycleEmbedding,
    witness_sets: dict[int, frozenset[int]],
) -> list[str]:
    """All violations of the six witness properties; empty means good."""
    g = ctx.graph
    problems: list[str] = []
    on_cycle = cycle.vertex_set
    base_set = ctx.base_cycle.vertex_set
    if not base_set <= on_cycle:
        problems.append("(a) the cycle lost vertices of the round's base cycle")
    for j in sorted(witness_sets):
        part = frozenset(ctx.dec.parts[j - 1])
        comp = ctx.component_sets[j - 1]
        zone = ctx.part_zones[j - 1]
        m = witness_sets[j]
        if not (part | zone) <= on_cycle:
            problems.append(f"(a) part {j}: separator part or its 3-zone not on the cycle")
        if not comp <= m:
            problems.append(f"(b) part {j}: witness set misses component vertices")
        if not m.isdisjoint(ctx.deep_base):
            problems.append(f"(b) part {j}: witness set strays onto the deep base cycle")
        inside = [v in m for v in cycle.order]
        crossings = sum(a != b for a, b in zip(inside, inside[1:] + inside[:1]))
        if crossings != 2:
            problems.append(
                f"(c) part {j}: cycle crosses the witness cut {crossings} times"
            )
        stray = {v for v in m & ctx.around_finite_4 if v not in on_cycle}
        if stray:
            problems.append(
                f"(d) part {j}: witness vertices {sorted(stray)[:4]} are off the cycle "
                "but near the finite component"
            )
        if m and sum(1 for _ in bfs(g, [min(m)], within=m)) != len(m):
            problems.append(f"(e) part {j}: witness set induces a disconnected graph")
        for p, compp in enumerate(ctx.component_sets, start=1):
            inter = m & compp
            if inter and inter != compp:
                problems.append(
                    f"(f) part {j}: witness set contains part of component {p} only"
                )
    return problems


def good_extend(tup: GoodTuple, ext: PathExtension) -> GoodTuple:
    """Apply a path extension to a good tuple, rewriting the witness sets.

    The extension must stay in the allowed region (finite component off the
    base cycle, the separator, or the 2-neighborhood of the cycle
    neighborhood inside the finite component).  Each witness set absorbs the
    path and base when the path ends inside it, and sheds them otherwise;
    the updated tuple is re-verified and any violation is reported as an
    internal inconsistency, because the theory guarantees success.
    """
    ctx = tup.context
    footprint = _footprint(ctx, ext)
    new_cycle = apply_path_extension(ctx.graph, tup.cycle, ext)
    z = ext.endvertex
    updated: dict[int, frozenset[int]] = {}
    for j, m in tup.witness_sets.items():
        if z in m:
            updated[j] = m | footprint
        else:
            updated[j] = m - footprint
    new_tup = GoodTuple(ctx, new_cycle, updated)
    problems = new_tup.check()
    if problems:
        raise InternalConsistencyError(
            "extension broke the witness properties: " + "; ".join(problems),
            witness=ext.to_json_obj(),
        )
    return new_tup


def _footprint(ctx: GoodTupleContext, ext: PathExtension) -> frozenset[int]:
    """F = extension path plus base, required to lie in the allowed region."""
    footprint = frozenset(ext.extension_path) | {ext.base}
    stray = footprint - ctx.allowed
    if stray:
        raise DomainError(
            f"extension footprint {sorted(stray)} leaves the allowed region "
            "for witness-preserving extensions"
        )
    return footprint


def _witness_rule(
    witness: dict[int, set[int]], footprint: frozenset[int], z: int
) -> None:
    """The update rule, in place: a set absorbs the footprint when it holds
    the path's endvertex ``z`` and sheds it otherwise."""
    for m in witness.values():
        if z in m:
            m |= footprint
        else:
            m -= footprint


def _good_splice(
    ctx: GoodTupleContext,
    cycle: _SpliceCycle,
    witness: dict[int, set[int]],
    ext: PathExtension,
) -> tuple[tuple[int, ...], list[str]]:
    """Splice ``ext`` into the live cycle, update the witness sets in place,
    and return the vertices added plus the good-tuple violations, read off
    the footprint F = extension path plus base.

    Premises: the tuple was good before the splice; F lies in the allowed
    region, so inside the finite component and the separator; and only
    vertices of F change membership in a witness set.  Let ``near`` be F
    with the old cycle-neighbors of its cycle vertices.  Then the verdict
    names the same properties as ``check_good_tuple`` on the result:

    * (a), (d): a splice removes only bridged vertices, all in F, so the
      cycle lost nothing iff F is on the cycle afterwards.  Then the base
      cycle, the parts and the zones are still on it, and every vertex a set
      gains is on the cycle.  Vertices a set already held stay on it.
    * (b), (f): F misses every infinite component, so ``comp ⊆ m`` and the
      way m meets each component cannot change.  A set gains only vertices
      of F, so it stays in ``witness_room`` iff its gains do.
    * (c): every removed cycle edge is incident to F (a bridged b and the
      insertion end ``path[-1]`` lie in F).  Every added edge is incident to
      F or is a bridge edge (pred b, succ b), whose ends are old
      cycle-neighbors of F.  So the edges away from ``near`` are the same
      before and after, with unchanged membership at both ends, and the new
      count is 2 − (old count at ``near``) + (new count at ``near``).
    * (e): a set that absorbs F and met it before stays connected: F is a
      path plus a base adjacent to all of it, and it shares a vertex with
      the connected m.  A set that sheds F ∩ m: every component of m ∖ F
      contains a neighbor of F ∩ m (m was connected), so m ∖ F is connected
      iff one search inside it from such a neighbor reaches all of them; it
      stops as soon as it has.  A set with the same F ∩ m is unchanged.  Any
      other change, which the rule never makes, is searched in full.
    """
    g = ctx.graph
    footprint = _footprint(ctx, ext)
    fresh, old_edges, new_edges = _tracked(cycle, footprint, lambda: cycle.splice(g, ext))
    before = {j: footprint & m for j, m in witness.items()}
    crossed = {j: _crossings(old_edges, m) for j, m in witness.items()}
    _witness_rule(witness, footprint, ext.endvertex)

    problems: list[str] = []
    if not all(v in cycle for v in footprint):
        problems.append("(a) the splice dropped footprint vertices from the cycle")
    for j in sorted(witness):
        m = witness[j]
        was, now = before[j], footprint & m
        if not (now - was).isdisjoint(ctx.deep_base):
            problems.append(f"(b) part {j}: witness set strays onto the deep base cycle")
        crossings = 2 - crossed[j] + _crossings(new_edges, m)
        if crossings != 2:
            problems.append(
                f"(c) part {j}: cycle crosses the witness cut {crossings} times"
            )
        if now == was or (now == footprint and was):
            connected = True
        elif not now:
            connected = _reaches_all(g, m, {w for v in was for w in g.neighbors(v) if w in m})
        else:
            connected = not m or _reaches_all(g, m, m)
        if not connected:
            problems.append(f"(e) part {j}: witness set induces a disconnected graph")
    return fresh, problems


def _near(cycle: _SpliceCycle, footprint) -> set[int]:
    """The footprint plus the cycle-neighbors of its cycle vertices.  A
    splice or insertion that touches only the footprint removes and adds
    only cycle edges between vertices of this set (see ``_good_splice``)."""
    near = set(footprint)
    for v in footprint:
        if v in cycle:
            near.update((cycle.succ(v), cycle.pred(v)))
    return near


def _tracked(cycle: _SpliceCycle, footprint, edit):
    """Run ``edit()``, a splice or insertion on the live cycle that touches
    only ``footprint``; return its result and the cycle edges at
    ``_near(cycle, footprint)`` before and after it."""
    near = _near(cycle, footprint)
    old_edges = cycle.edges_at(near)
    result = edit()
    return result, old_edges, cycle.edges_at(near)


def _crossings(edges, m) -> int:
    return sum((a in m) != (b in m) for a, b in edges)


def _reaches_all(g: FiniteGraph, m, goal) -> bool:
    """Whether one search inside ``m`` from ``min(goal)`` reaches all of
    ``goal``, stopping as soon as it has; true for an empty goal."""
    left = len(goal)
    if not left:
        return True
    for v, _, _ in bfs(g, [min(goal)], within=m):
        if v in goal:
            left -= 1
            if not left:
                return True
    return False


def _part_edit(first: dict[int, set[Edge]], cycle: _SpliceCycle, footprint, edit):
    """Run ``edit()``, one of a part's splices that touches only
    ``footprint``, after noting the cycle edges at each vertex of its
    ``_near`` set that no earlier splice of the part touched.  Those are
    still edges of the cycle the part started from, since a splice changes
    only edges between vertices of its near set.  Returns the result."""
    for v in _near(cycle, footprint):
        if v not in first:
            first[v] = cycle.edges_at((v,))
    return edit()


def _part_edits(first: dict[int, set[Edge]], cycle: _SpliceCycle) -> dict[Edge, int]:
    """A part's net cycle-edge changes, -1 for an edge it removed and +1 for
    one it added: every changed edge joins two vertices the part touched, so
    compare their edges at first touch with their edges now."""
    old = set().union(*first.values())
    new = cycle.edges_at(first)
    return {**dict.fromkeys(old - new, -1), **dict.fromkeys(new - old, 1)}


def _part_rule(witness: dict[int, set[int]], ell: int, new_m: set[int], s: int) -> None:
    """The part-boundary update, in place: every set that holds the
    captured separator vertex ``s`` absorbs ``new_m`` = part ∪ component,
    and part ``ell`` gets ``new_m`` as its own set."""
    for m in witness.values():
        if s in m:
            m |= new_m
    witness[ell] = new_m


def _good_part(
    ctx: GoodTupleContext,
    cycle: _SpliceCycle,
    witness: dict[int, set[int]],
    ell: int,
    s: int,
    edits: dict[Edge, int],
) -> list[str]:
    """Apply the part-boundary update for part ``ell`` in place and return
    the good-tuple violations, read off what the part changed since its
    last checked splice (the second capture): the net cycle-edge changes
    ``edits`` of its spine and zone-cover splices, and the sets the update
    changed.

    Write P and K for the part and its component, Z for its 3-zone, N for
    P ∪ K, C0, W0 for the cycle and sets at the second capture and C1, W1
    for them now.  Premises: the context is built by
    ``GoodTupleContext.build`` from a decomposition of ``decompose``; the
    tuple (C0, W0) was good; the part's splices and the spine add only
    vertices of N, since their bases lie in K and N(K) ⊆ N; and the update
    only adds vertices of N to sets and makes the new set a subset of N.
    Every earlier splice added vertices of the allowed region or of another
    part and its component, so K misses C0.  An older set m0 misses K: by
    (f) it would hold all of K, including a neighbor of a part vertex, which
    lies within distance 2 of the finite component and off C0, against (d).
    Then the verdict names the same properties as ``check_good_tuple``:

    * (a): splices and insertions never drop a vertex, so C0 ⊆ C1 and only
      P ∪ Z ⊆ C1 is new, at O(|Z|).
    * (b), (f): a set the update leaves alone keeps them.  A changed set
      gains only vertices of N, which misses the base cycle (the separator
      avoids it, and K lies outside the finite component that holds it), so
      the set stays in the room.  N meets no other component, so the set
      can break (b) or (f) only by holding part of K.  How many vertices of
      K it gained follows from its size change and its gained part
      vertices, without walking K.
    * (c): a set's crossings change only on the edges the part added or
      removed (the net count in ``edits``) and, for a changed set, on the
      edges at N ∩ C1, the only cycle vertices whose membership changed.
      N ∩ C1 is P ∩ C1 plus the endpoints in K of added edges, since K
      misses C0.  The new set lies in N, so all its crossings are at N ∩ C1.
      The endpoints in K are held by no older set, so an unchanged set is
      recounted only if it holds an endpoint outside K.
    * (d): the cycle only grows, so a set the update leaves alone keeps it.
      A changed set's new off-cycle vertices near the finite component lie
      in P ∪ Z: a vertex of K within distance 4 of the finite component is
      within distance 3 of P, since every path to it enters K from P.
    * (e): K is a component, so a changed set is connected when each gained
      part vertex has a neighbor in K and the old set, if any, holds a part
      vertex next to K or a neighbor of a gained part vertex.  A set that
      gained only part of K, which the rule never does, is searched in full.
      A set the update leaves alone keeps its members.

    The cost is O(|Z|·deg) for the changed sets, and O(k·|P'|) for
    selecting the unchanged sets to recount, P' being P and the endpoints
    outside K of the edited edges; K is never walked.
    """
    g = ctx.graph
    part = frozenset(ctx.dec.parts[ell - 1])
    comp = ctx.component_sets[ell - 1]
    zone = ctx.part_zones[ell - 1]
    ends = {v for e in edits for v in e}
    outside = {v for v in ends if v not in comp} | part
    held = {j: m & outside for j, m in witness.items()}
    sizes = {j: len(m) for j, m in witness.items()}
    _part_rule(witness, ell, set(comp).union(part), s)

    problems: list[str] = []
    covered = part | zone
    if not all(v in cycle for v in covered):
        problems.append(f"(a) part {ell}: separator part or its 3-zone not on the cycle")
    changed_edges = cycle.edges_at(part | (ends & comp))
    for j in sorted(witness):
        m, h = witness[j], held.get(j, set())
        if j != ell and len(m) == sizes[j]:
            if not h.isdisjoint(ends):
                crossings = 2 + sum(d * ((a in m) != (b in m)) for (a, b), d in edits.items())
                if crossings != 2:
                    problems.append(
                        f"(c) part {j}: cycle crosses the witness cut {crossings} times"
                    )
            continue

        def was(v: int) -> bool:
            return v in h if v in outside else v not in comp and v in m

        gained = [p for p in part if p in m and p not in h]
        got = len(m) - sizes.get(j, 0) - len(gained)
        if j == ell and got != len(comp):
            problems.append(f"(b) part {j}: witness set misses component vertices")
        crossings = _crossings(changed_edges, m)
        if j in sizes:  # absorbing: the old count, moved by the edits and by N
            crossings += (
                2
                + sum(d * (was(a) != was(b)) for (a, b), d in edits.items())
                - sum(was(a) != was(b) for a, b in changed_edges)
            )
        if crossings != 2:
            problems.append(f"(c) part {j}: cycle crosses the witness cut {crossings} times")
        stray = [v for v in covered if v in m and v not in cycle and v in ctx.around_finite_4]
        if stray:
            problems.append(
                f"(d) part {j}: witness vertices {sorted(stray)[:4]} are off the cycle "
                "but near the finite component"
            )
        if got != len(comp):
            connected = _reaches_all(g, m, m)
        else:
            connected = all(not comp.isdisjoint(g.neighbor_set(p)) for p in gained) and (
                not sizes.get(j)
                or any(not comp.isdisjoint(g.neighbor_set(p)) for p in h & part)
                or any(was(w) for p in gained for w in g.neighbors(p))
            )
        if not connected:
            problems.append(f"(e) part {j}: witness set induces a disconnected graph")
        if 0 < got < len(comp):
            problems.append(f"(f) part {j}: witness set contains part of component {ell} only")
    return problems


# -- one round of the construction -------------------------------------------


@dataclass
class RoundRecord:
    """Everything one round produced, plus its recorded verdicts."""

    index: int
    dec: SeparatorDecomposition
    part_order: tuple[int, ...]
    cycle: CycleEmbedding
    witness_sets: dict[int, frozenset[int]]
    extension_count: int
    checks: dict[str, bool] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "round": self.index,
            "decomposition": self.dec.to_json_obj(),
            "part_order": list(self.part_order),
            "cycle": list(self.cycle.order),
            "witness_sets": {str(j): sorted(m) for j, m in self.witness_sets.items()},
            "extension_count": self.extension_count,
            "checks": dict(sorted(self.checks.items())),
        }


def _at_least_four_apart(g: FiniteGraph, a, b) -> bool:
    """Whether every vertex of ``b`` is at distance at least 4 from ``a``:
    ``b`` misses ``a`` and its 3-neighborhood, a search of depth 3."""
    return set(a).isdisjoint(b) and set(neighborhood_k(g, a, 3)).isdisjoint(b)


def _assert_deep_vertex(g: FiniteGraph, c: CycleEmbedding) -> None:
    nc = neighborhood_k(g, c.order, 1)
    if not nc:
        raise DomainError("the cycle already spans its component")
    if c.vertex_set <= frozenset(neighborhood_k(g, nc, 2)):
        raise DomainError(
            "the cycle has no vertex at distance 3 from its neighborhood; "
            "cover the 2-neighborhood first"
        )


def _grow_part_tree(
    g: FiniteGraph, dec: SeparatorDecomposition, ell: int
) -> tuple[dict[int, int | None], frozenset[int]]:
    """BFS tree inside the part's component spanning the 3-zone of the part,
    pruned of branches that do not lead to the zone."""
    comp = frozenset(dec.infinite_components[ell - 1])
    part = dec.parts[ell - 1]
    zone = set(neighborhood_k(g, part, 3)) & comp
    root = min(set(neighborhood_k(g, part, 1)) & comp)
    parent: dict[int, int | None] = {}
    remaining = set(zone)
    for v, u, _ in bfs(g, [root], within=comp):
        parent[v] = u
        remaining.discard(v)
        if not remaining:
            break
    if remaining:
        raise InternalConsistencyError(
            f"the 3-zone of part {ell} is not reachable inside its component; "
            f"missing {sorted(remaining)[:4]}"
        )
    keep: set[int] = set()
    for v in zone | {root}:
        while v is not None and v not in keep:
            keep.add(v)
            v = parent[v]
    tree_parent = {v: parent[v] for v in keep}
    return tree_parent, frozenset(keep)


def _tree_path(tree_parent: dict[int, int | None], a: int, b: int) -> list[int]:
    ancestors = []
    v: int | None = a
    while v is not None:
        ancestors.append(v)
        v = tree_parent[v]
    up_index = {v: i for i, v in enumerate(ancestors)}
    tail = []
    v = b
    while v not in up_index:
        tail.append(v)
        v = tree_parent[v]
        assert v is not None
    return ancestors[: up_index[v] + 1] + list(reversed(tail))


def cut_lemma_round(
    g: FiniteGraph, c: CycleEmbedding, dec: SeparatorDecomposition, index: int = 1
) -> RoundRecord:
    """Enlarge the cycle across every separator part and the finite
    component, producing the per-end witness sets.

    Per part, the round first captures exactly one separator vertex of the
    part (retargeting a path extension at the last uncovered separator
    vertex on its path), then a second one adjacent on the cycle (using the
    completeness of separator neighborhoods to shortcut the path), splices
    a spanning tree of the part's 3-zone between the two, and finishes the
    zone by pooled extensions.  A final pooled pass covers the finite
    component.  Witness sets follow the two displayed update rules.

    The input cycle is validated once.  All splices then edit one live
    cycle and one dict of witness sets.  Each capture and finite-component
    splice is checked by ``_good_splice`` from its footprint, each part by
    ``_good_part`` from its net edge changes and the sets it changed; the
    full ``check_good_tuple`` runs once, on a frozen copy at the round end.
    """
    _require_cycle(g, c)
    _assert_deep_vertex(g, c)
    ctx = GoodTupleContext.build(g, c, dec)
    cycle = _SpliceCycle(c)
    witness: dict[int, set[int]] = {}
    ext_count = 0
    order: list[int] = []
    uncovered = set(range(1, dec.k + 1))
    base_edges = c.edge_set()

    def uncovered_sep() -> set[int]:
        return {v for i in uncovered for v in dec.parts[i - 1]}

    def good_splice(ext: PathExtension) -> tuple[int, ...]:
        fresh, problems = _good_splice(ctx, cycle, witness, ext)
        if problems:
            raise InternalConsistencyError(
                "extension broke the witness properties: " + "; ".join(problems),
                witness=ext.to_json_obj(),
            )
        return fresh

    while uncovered:
        # -- capture one separator vertex of some uncovered part
        unc = uncovered_sep()
        if any(v in cycle for v in unc):
            raise InternalConsistencyError(
                "the cycle already meets an uncovered separator part"
            )
        v = min(unc)
        u = min(w for w in g.neighbors(v) if w in c)
        ext = find_path_extension(g, cycle, v, u)
        s = [p for p in ext.extension_path if p in unc][-1]
        ext = truncate_extension(g, cycle, ext, s)
        good_splice(ext)
        ext_count += 1
        ell = dec.part_of_vertex(s)
        part = frozenset(dec.parts[ell - 1])
        comp = ctx.component_sets[ell - 1]
        if {p for p in unc if p in cycle} != {s}:
            raise InternalConsistencyError(
                f"expected exactly one uncovered separator vertex {s} on the cycle"
            )

        # -- capture a second vertex of the same part, adjacent on the cycle
        v2 = min(set(g.neighbors(s)) & comp)
        ext2 = find_path_extension(g, cycle, v2, s)
        walk = ext2.extension_path
        in_part = [p for p in walk if p in part]
        if not in_part:
            raise InternalConsistencyError(
                f"a path from component {ell} back to the cycle avoided part {ell}"
            )
        t = in_part[-1]
        after = walk[walk.index(t) + 1]
        z = walk[-1]
        if after == z:
            short: tuple[int, ...] = (t, z)
        else:
            if not g.has_edge(after, z):
                raise InternalConsistencyError(
                    "separator-neighborhood completeness failed "
                    f"at {s} for {after}, {z}",
                    witness=sorted({s, after, z, v2}),
                )
            if after in uncovered_sep() - part:
                if not g.has_edge(t, z):
                    other = dec.part_of_vertex(after)
                    x = min(
                        set(g.neighbors(after))
                        & set(dec.infinite_components[other - 1])
                    )
                    raise InternalConsistencyError(
                        "separator-neighborhood completeness failed "
                        f"at {after} for {t}, {z}",
                        witness=sorted({after, t, z, x}),
                    )
                short = (t, z)
            else:
                short = (t, after, z)
        interior_on_cycle = tuple(sorted(p for p in short[1:-1] if p in cycle))
        if ext2.case is ExtensionCase.ONE:
            ext2 = PathExtension(ExtensionCase.ONE, t, s, short, interior_on_cycle)
        else:
            bridged = tuple(sorted(set(interior_on_cycle) | {s}))
            ext2 = PathExtension(
                ExtensionCase.TWO, t, s, short, bridged, ext2.reattach
            )
        good_splice(ext2)
        ext_count += 1
        if not g.has_edge(s, t) or (cycle.succ(s) != t and cycle.pred(s) != t):
            raise InternalConsistencyError(
                f"the two captured separator vertices {s}, {t} are not cycle-adjacent"
            )

        # -- splice a spanning tree of the part's 3-zone between s and t,
        #    then cover the zone; both are checked at the part boundary
        first: dict[int, set[Edge]] = {}
        tree_parent, tree_vertices = _grow_part_tree(g, dec, ell)
        n_s = min(set(g.neighbors(s)) & tree_vertices)
        n_t = min(set(g.neighbors(t)) & tree_vertices)
        spine = _tree_path(tree_parent, n_s, n_t)
        try:
            _part_edit(first, cycle, {s, t, *spine}, lambda: cycle.insert(g, s, t, spine))
        except InternalConsistencyError as exc:
            raise InternalConsistencyError(
                f"splicing the part-{ell} tree spine between {s} and {t} "
                f"did not yield a cycle: {exc}"
            ) from exc
        covered_goal = part | tree_vertices
        log = _cover(
            g, cycle, covered_goal, covered_goal, tree_vertices,
            splice=lambda ext: _part_edit(
                first, cycle, {ext.base, *ext.extension_path}, lambda: cycle.splice(g, ext)
            ),
        )
        ext_count += len(log)

        # -- witness updates: new part set, and absorb into older sets that
        #    contain the two captured vertices
        for j, m in witness.items():
            if (s in m) != (t in m):
                raise InternalConsistencyError(
                    f"witness set {j} separates the adjacent pair {s}, {t}"
                )
        problems = _good_part(ctx, cycle, witness, ell, s, _part_edits(first, cycle))
        if problems:
            raise InternalConsistencyError(
                f"round {index}, part {ell}: " + "; ".join(problems)
            )
        order.append(ell)
        uncovered.discard(ell)

    # -- cover the finite component, keeping the witness sets current
    k0 = frozenset(dec.finite_component)
    try:
        log = _cover(g, cycle, k0, k0, k0, splice=good_splice)
    except ProgressError as exc:
        raise InternalConsistencyError(
            "the finite component cannot be finished by pooled extensions"
        ) from exc
    ext_count += len(log)

    tup = GoodTuple(ctx, cycle.freeze(), {j: frozenset(m) for j, m in witness.items()})
    checks = _round_conclusions(g, c, dec, tup, base_edges)
    return RoundRecord(
        index=index,
        dec=dec,
        part_order=tuple(order),
        cycle=tup.cycle,
        witness_sets=tup.witness_sets,
        extension_count=ext_count,
        checks=checks,
    )


def _round_conclusions(g, c, dec, tup, base_edges) -> dict[str, bool]:
    """The three round conclusions, recorded (not raised) for the run log."""
    new_cycle = tup.cycle
    nc = neighborhood_k(g, c.order, 1)
    n3_sep = set(neighborhood_k(g, dec.separator, 3))
    want = set(dec.finite_component) | set(dec.separator) | n3_sep
    containment = want <= new_cycle.vertex_set

    near2 = set(neighborhood_k(g, nc, 2))
    new_edges = new_cycle.edge_set()
    keep_ok = True
    for e in base_edges:
        if e[0] not in near2 and e[1] not in near2:
            if e not in new_edges:
                keep_ok = False
                break

    near3 = set(neighborhood_k(g, nc, 3))
    loc_ok = True
    for u, v in new_edges - base_edges:
        for p in (u, v):
            if p in c and p not in near3:
                loc_ok = False
    good = not tup.check()
    return {
        "containment": containment,
        "kept_deep_edges": keep_ok,
        "new_edge_location": loc_ok,
        "good_tuple": good,
    }


# -- the run loop --------------------------------------------------------------


@dataclass
class RunState:
    """Cycles and witness data of a finished (or partial) run."""

    ball: Ball
    initial_cycle: CycleEmbedding
    rounds: list[RoundRecord]

    @property
    def graph(self) -> FiniteGraph:
        return self.ball.graph

    def cycles(self) -> list[CycleEmbedding]:
        return [self.initial_cycle] + [r.cycle for r in self.rounds]

    def to_json_lines(self) -> list[dict]:
        head = {
            "preset": self.ball.presentation_name,
            "radius": self.ball.radius,
            "vertices": len(self.graph),
            "boundary": list(self.ball.boundary),
            "labels": [repr(x) for x in self.ball.labels],
            "initial_cycle": list(self.initial_cycle.order),
        }
        return [head] + [r.to_json_obj() for r in self.rounds]


def end_proxies(ball: Ball, skirt: int = 3) -> tuple[tuple[int, ...], ...]:
    """Boundary components, computed with a thick skirt so that same-side
    boundary vertices connected just inside the ball stay together."""
    shell = [
        v for v in ball.graph.vertices if ball.depth_of(v) >= ball.radius - skirt
    ]
    comps = components_within(ball.graph, shell)
    bset = set(ball.boundary)
    return tuple(c for c in comps if set(c) & bset)


def _stability_gate(ball: Ball) -> None:
    """End proxies must map injectively into the components four layers
    deeper, otherwise boundary components misrepresent the ends."""
    proxies = end_proxies(ball)
    deep = [
        v for v in ball.graph.vertices if ball.depth_of(v) >= ball.radius - 7
    ]
    deep_comps = components_within(ball.graph, deep)
    owner = {}
    for i, comp in enumerate(deep_comps):
        for v in comp:
            owner[v] = i
    seen: dict[int, tuple] = {}
    for proxy in proxies:
        ids = {owner[v] for v in proxy}
        if len(ids) != 1:  # pragma: no cover - a connected set has one owner
            raise RadiusTooSmallError(
                "an end proxy spans several deep shell components",
                suggested_radius=ball.radius * 2,
            )
        i = ids.pop()
        if i in seen:
            raise RadiusTooSmallError(
                f"end proxies {seen[i][:3]} and {proxy[:3]} merge four layers "
                "deeper; the radius cannot distinguish the ends yet",
                suggested_radius=ball.radius * 2,
            )
        seen[i] = proxy


def _radius_gate(ball: Ball, dec: SeparatorDecomposition, margin: int = 5) -> None:
    deepest = max(
        ball.depth_of(v)
        for v in list(dec.finite_component) + list(dec.separator)
    )
    if deepest + margin > ball.radius:
        raise RadiusTooSmallError(
            f"the construction reached depth {deepest} of radius {ball.radius}; "
            "neighborhood computations are no longer faithful",
            suggested_radius=deepest + margin + 4,
        )


def run(pres: GraphPresentation, rounds: int, radius: int) -> RunState:
    """Extract a ball, verify the hypotheses on its interior, build the
    initial cycle covering its own 2-neighborhood, then run the requested
    number of enlargement rounds."""
    if rounds < 0:
        raise DomainError("rounds must be >= 0")
    ball = pres.extract_ball(radius)
    g = ball.graph
    if len(g) < 3:
        raise DomainError("the ball has fewer than 3 vertices")
    for v in ball.interior:
        triple = claw_at(g, v)
        if triple is not None:
            raise HypothesisError(
                "claw_free", sorted((v,) + triple), f"induced claw at interior vertex {v}"
            )
        if not locally_connected_at(g, v):
            raise HypothesisError(
                "locally_connected",
                sorted({v} | set(g.neighbors(v))),
                f"disconnected neighborhood at interior vertex {v}",
            )
    seed = shortest_cycle_through(g, ball.graph.vertices[0])
    pool = set(seed.order) | set(neighborhood_k(g, seed.order, 2))
    c0, _ = extend_to_cover(g, seed, pool, target_pool=pool)
    state = RunState(ball, c0, [])
    cycle = c0
    prev_sep: tuple[int, ...] | None = None
    if rounds >= 1:
        _stability_gate(ball)
    for m in range(1, rounds + 1):
        fringe = set(neighborhood_k(g, cycle.order, 2)) | cycle.vertex_set
        if fringe & set(ball.boundary):
            deepest = max(ball.depth_of(v) for v in cycle.order)
            raise RadiusTooSmallError(
                f"round {m}: the cycle reached within two steps of the "
                "boundary; the ball interior is exhausted",
                suggested_radius=deepest + 9 * (rounds - m + 1),
            )
        sep = shrink_to_minimal_ray_separator(g, cycle, ball.boundary)
        dec = decompose(g, cycle, sep, ball.boundary)
        _radius_gate(ball, dec)
        record = cut_lemma_round(g, cycle, dec, index=m)
        if not cycle.vertex_set <= record.cycle.vertex_set:
            raise InternalConsistencyError(
                f"round {m} lost vertices of the previous cycle"
            )
        record.checks["separator_gap"] = (
            prev_sep is None or _at_least_four_apart(g, prev_sep, sep)
        )
        if not all(record.checks.values()):
            bad = sorted(k for k, v in record.checks.items() if not v)
            raise InternalConsistencyError(
                f"round {m} recorded failing conclusions: {', '.join(bad)}"
            )
        state.rounds.append(record)
        cycle = record.cycle
        prev_sep = sep
    return state


# -- extraction-condition checking ---------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    witnesses: tuple = ()

    def to_json_obj(self) -> dict:
        return {"holds": self.holds, "witnesses": [list(w) if isinstance(w, (tuple, list)) else w for w in self.witnesses]}


@dataclass(frozen=True)
class ExtractionReport:
    """Per-condition verdicts of the extraction lemma on the generated
    prefix, plus the stable (limit) vertex and edge sets."""

    vertex_persistence: ConditionReport
    finite_cuts: ConditionReport
    nested_chains: ConditionReport
    edge_persistence: ConditionReport
    two_edge_cuts: ConditionReport
    stable_degree: ConditionReport
    stable_vertices: tuple[int, ...]
    stable_edges: tuple[Edge, ...]
    stable_region: tuple[int, ...]
    ambiguous_ends: tuple = ()

    def all_pass(self) -> bool:
        return all(
            r.holds
            for r in (
                self.vertex_persistence,
                self.finite_cuts,
                self.nested_chains,
                self.edge_persistence,
                self.two_edge_cuts,
                self.stable_degree,
            )
        ) and not self.ambiguous_ends

    def to_json_obj(self) -> dict:
        return {
            "conditions": {
                "i_vertex_persistence": self.vertex_persistence.to_json_obj(),
                "ii_finite_cuts": self.finite_cuts.to_json_obj(),
                "iii_nested_chains": self.nested_chains.to_json_obj(),
                "iv_edge_persistence": self.edge_persistence.to_json_obj(),
                "v_two_edge_cuts": self.two_edge_cuts.to_json_obj(),
            },
            "stable_degree": self.stable_degree.to_json_obj(),
            "stable_vertices": list(self.stable_vertices),
            "stable_edges": [list(e) for e in self.stable_edges],
            "stable_region": list(self.stable_region),
            "ambiguous_ends": list(self.ambiguous_ends),
            "all_pass": self.all_pass(),
        }


def stable_edge_set(cycles: list[CycleEmbedding]) -> frozenset[Edge]:
    """Edges on at least two of the cycles (with edge persistence these are
    exactly the edges of every late cycle)."""
    seen: dict[Edge, int] = {}
    stable = set()
    for c in cycles:
        for e in c.edge_set():
            seen[e] = seen.get(e, 0) + 1
            if seen[e] >= 2:
                stable.add(e)
    return frozenset(stable)


def check_extraction_conditions(state: RunState) -> ExtractionReport:
    """Verify the five conditions on the generated prefix and collect the
    stable sets; failures are reported with witnesses, never raised."""
    if len(state.rounds) < 2:
        raise DomainError("need at least 2 rounds to check the conditions")
    g = state.graph
    cycles = state.cycles()
    last = len(cycles) - 1

    # (i) vertices persist
    w1 = []
    for i in range(last):
        lost = cycles[i].vertex_set - cycles[i + 1].vertex_set
        if lost:
            w1.append((i, tuple(sorted(lost))))
    cond1 = ConditionReport(not w1, tuple(w1))

    # cuts of every recorded witness set
    cuts: dict[tuple[int, int], frozenset[Edge]] = {}
    for r, record in enumerate(state.rounds, start=1):
        for j, m in record.witness_sets.items():
            cuts[(r, j)] = frozenset(cut(g, m))

    # (ii) cuts finite in the truncation and clear of the boundary layer
    w2 = []
    bset = set(state.ball.boundary)
    for (r, j), edges in sorted(cuts.items()):
        touching = [e for e in sorted(edges) if e[0] in bset or e[1] in bset]
        if touching:
            w2.append((r, j, tuple(touching)))
    cond2 = ConditionReport(not w2, tuple(w2))

    # (iii) one nested chain per end proxy, shrinking away from the interior
    proxies = end_proxies(state.ball)
    w3 = []
    ambiguous = []
    chains: list[tuple[tuple[int, ...], list[int]]] = []
    for proxy in proxies:
        pset = set(proxy)
        chain: list[int] = []
        for record in state.rounds:
            hosts = [
                j
                for j, compv in enumerate(record.dec.infinite_components, start=1)
                if pset & set(compv)
            ]
            if len(hosts) != 1 or not pset <= set(
                record.dec.infinite_components[hosts[0] - 1]
            ):
                ambiguous.append((proxy[0], record.index, tuple(hosts)))
                chain = []
                break
            chain.append(hosts[0])
        if chain:
            chains.append((proxy, chain))
    for proxy, chain in chains:
        for i in range(1, len(state.rounds)):
            m_prev = state.rounds[i - 1].witness_sets[chain[i - 1]]
            m_next = state.rounds[i].witness_sets[chain[i]]
            if not m_next <= m_prev:
                w3.append(
                    ("not-nested", proxy[0], i + 1, tuple(sorted(m_next - m_prev))[:4])
                )
            shed = set(state.rounds[i - 1].dec.finite_component) | set(
                state.rounds[i - 1].dec.separator
            )
            if m_next & shed:
                w3.append(
                    ("not-shrinking", proxy[0], i + 1, tuple(sorted(m_next & shed))[:4])
                )
        for record, j in zip(state.rounds, chain):
            if not set(proxy) & set(state.ball.boundary) <= record.witness_sets[j]:
                w3.append(("proxy-escapes", proxy[0], record.index))
    cond3 = ConditionReport(not w3 and not ambiguous, tuple(w3))

    # (iv) settled edges stay
    w4 = []
    for j in range(1, last):
        for i in range(j):
            settled = cycles[i].edge_set() & cycles[j].edge_set()
            lost = settled - cycles[j + 1].edge_set()
            if lost:
                w4.append((i, j, tuple(sorted(lost))))
    cond4 = ConditionReport(not w4, tuple(w4))

    # (v) every later cycle meets every recorded cut in the same two edges
    w5 = []
    for (r, j), cut_edges in sorted(cuts.items()):
        fixed = cycles[r].edge_set() & cut_edges
        if len(fixed) != 2:
            w5.append((r, j, "count", tuple(sorted(fixed))))
            continue
        for i in range(r, last + 1):
            hit = cycles[i].edge_set() & cut_edges
            if hit != fixed:
                w5.append((r, j, f"cycle-{i}", tuple(sorted(hit))))
    cond5 = ConditionReport(not w5, tuple(w5))

    stable = stable_edge_set(cycles)
    region = state.rounds[-2].dec.finite_component if len(state.rounds) >= 2 else ()
    degree: dict[int, int] = {}
    for e in stable:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    w6 = [(v, degree.get(v, 0)) for v in region if degree.get(v, 0) != 2]
    cond6 = ConditionReport(not w6, tuple(w6))

    return ExtractionReport(
        vertex_persistence=cond1,
        finite_cuts=cond2,
        nested_chains=cond3,
        edge_persistence=cond4,
        two_edge_cuts=cond5,
        stable_degree=cond6,
        stable_vertices=tuple(sorted(cycles[-1].vertex_set)),
        stable_edges=tuple(sorted(stable)),
        stable_region=tuple(region),
        ambiguous_ends=tuple(ambiguous),
    )
