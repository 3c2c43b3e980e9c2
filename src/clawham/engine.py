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
dict of witness sets in steps.  A step is a capture or finite-component
splice, or a part's spine and zone-cover splices; it ends with a witness
update.  The live cycle logs its own edits, and the engine gives it an
empty log at the start of each step; one check, ``_good_step``, decides
the six properties from the step's net edge changes in that log and from
the sets' changes inside the vertices the update may move (the footprint
F of a splice, or a part P with its component K).  Its premises are that
the tuple was good before the step, that no edit drops a vertex, and that
the update moves only those vertices.  It costs O(k) C-level set operations for
k witness sets, plus Python work in O(deg) per edited, gained or lost
vertex outside a component held whole; a set that sheds vertices is
searched only until their neighbors in it are joined.  The full
``check_good_tuple`` runs once, at the round end, on a frozen copy.  For a
set m that holds its component K whole it does O(|m|) set work in C and
Python work in O(|m ∩ C| + deg·|m - K|) for the cycle C.
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
    PathExtension,
    _cover,
    _require_cycle,
    _SpliceCycle,
    apply_path_extension,  # noqa: F401 - bench/test_tracer.py checks this binding
    extend_to_cover,
    find_path_extension,
    repath_extension,
    shortest_cycle_through,
    truncate_extension,
)
from .graph import (
    CycleEmbedding,
    Edge,
    FiniteGraph,
    bfs,
    cut,
    edge_key,
    label_components,
    neighborhood_k,
)
from .predicates import (
    _confirmed_claw,
    _confirmed_split,
    claw_at,
    hypothesis_failures,
    neighborhood_components,
)
from .presentations import Ball, GraphPresentation
from .separators import CycleSplit, SeparatorDecomposition, split_cycle

# -- good tuples --------------------------------------------------------------


def _within_three(g: FiniteGraph, a) -> frozenset[int]:
    """The vertices at distance at most 3 from ``a``: a vertex set is at
    distance at least 4 from ``a`` exactly when it misses this one."""
    return frozenset(a).union(neighborhood_k(g, a, 3))


@dataclass(frozen=True)
class GoodTupleContext:
    """Frozen per-round data every good-tuple check refers to: the round's
    base cycle, its separator decomposition, and derived neighborhoods,
    among them ``separator_reach``, S ∪ N³(S), which the round's gap check
    reads."""

    graph: FiniteGraph
    base_cycle: CycleEmbedding
    dec: SeparatorDecomposition
    near_cycle_2: frozenset[int]
    around_finite_4: frozenset[int]
    component_sets: tuple[frozenset[int], ...]
    part_zones: tuple[frozenset[int], ...]
    separator_reach: frozenset[int] = frozenset()

    @classmethod
    def build(cls, g: FiniteGraph, split: CycleSplit) -> "GoodTupleContext":
        """The context of ``split``, the decomposition step's result for the
        round's base cycle c, with N(V(c)) and the component sets.  The
        finite component F is a component of G - S and every separator
        vertex has a neighbor in it, so F ∪ N⁴(F) is F ∪ S ∪ N³(S)."""
        dec, comps = split.dec, split.component_sets
        near2 = frozenset(neighborhood_k(g, split.near, 2))
        reach = _within_three(g, dec.separator)
        zones = tuple(
            comp.intersection(neighborhood_k(g, part, 3))
            for part, comp in zip(dec.parts, comps)
        )
        return cls(g, split.cycle, dec, near2, reach.union(dec.finite_component), comps, zones, reach)

    @cached_property
    def deep_base(self) -> frozenset[int]:
        """The base-cycle vertices beyond distance 2 of the cycle
        neighborhood.  Witness sets may lie anywhere else: x is in their
        room exactly when x is off the base cycle or in ``near_cycle_2``."""
        return self.base_cycle.vertex_set - self.near_cycle_2

    @cached_property
    def finite_set(self) -> frozenset[int]:
        return frozenset(self.dec.finite_component)

    @cached_property
    def allowed(self) -> frozenset[int]:
        """Where a witness-preserving extension may reach: the finite
        component off the base cycle, the separator, and the finite
        component's part of the 2-neighborhood of the cycle neighborhood."""
        k0 = self.finite_set
        return (
            (k0 - self.base_cycle.vertex_set)
            | frozenset(self.dec.separator)
            | (self.near_cycle_2 & k0)
        )


def check_good_tuple(
    ctx: GoodTupleContext,
    cycle: CycleEmbedding,
    witness_sets: dict[int, frozenset[int]],
) -> list[str]:
    """All violations of the six witness properties; empty means good.  A
    set whose index names no separator part is reported as such.

    A set m that holds its (nonempty) component K whole is read around K:
    K is connected, as a component of G - S, so for (e) one search of
    m - K from its vertices next to K decides whether m is connected; and
    the components are disjoint and miss F and S, so for (f) only
    m - K - F - S can meet another component, and usually it is empty.
    Any other set gets the search of all of m and an intersection with
    every component.
    """
    g = ctx.graph
    problems: list[str] = []
    on_cycle = cycle.vertex_set
    base_set = ctx.base_cycle.vertex_set
    if not base_set <= on_cycle:
        problems.append("(a) the cycle lost vertices of the round's base cycle")
    for j in sorted(witness_sets):
        if not 1 <= j <= ctx.dec.k:
            problems.append(f"part {j}: no such separator part, of {ctx.dec.k}")
            continue
        part = frozenset(ctx.dec.parts[j - 1])
        comp = ctx.component_sets[j - 1]
        zone = ctx.part_zones[j - 1]
        m = witness_sets[j]
        if not (part | zone) <= on_cycle:
            problems.append(f"(a) part {j}: separator part or its 3-zone not on the cycle")
        held = comp <= m
        if not held:
            problems.append(f"(b) part {j}: witness set misses component vertices")
        if not m.isdisjoint(ctx.deep_base):
            problems.append(f"(b) part {j}: witness set strays onto the deep base cycle")
        # each cycle edge with one end in m is counted once, at that end
        crossings = sum(
            (cycle.succ(v) not in m) + (cycle.pred(v) not in m) for v in m & on_cycle
        )
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
        if held and comp:
            rest = m - comp
            starts = [v for v in rest if not comp.isdisjoint(g.neighbor_set(v))]
            joined = len(bfs(g, starts, within=rest)) == len(rest)
            loose = rest.difference(ctx.finite_set, ctx.dec.separator)
        else:
            joined = not m or len(bfs(g, [min(m)], within=m)) == len(m)
            loose = m
        if not joined:
            problems.append(f"(e) part {j}: witness set induces a disconnected graph")
        for p, compp in enumerate(ctx.component_sets if loose else (), start=1):
            inter = loose & compp
            if inter and inter != compp:
                problems.append(
                    f"(f) part {j}: witness set contains part of component {p} only"
                )
    return problems


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


def _part_rule(witness: dict[int, set[int]], ell: int, new_m: set[int], s: int) -> None:
    """The part-boundary update, in place: every set that holds the
    captured separator vertex ``s`` absorbs ``new_m`` = part ∪ component,
    and part ``ell`` gets ``new_m`` as its own set."""
    for m in witness.values():
        if s in m:
            m |= new_m
    witness[ell] = new_m


def _splice_step(
    ctx: GoodTupleContext,
    cycle: _SpliceCycle,
    witness: dict[int, set[int]],
    ext: PathExtension,
) -> tuple[tuple[int, ...], list[str]]:
    """Splice ``ext`` into the live cycle, a step of one edit whose update
    is the witness rule on the footprint F = extension path plus base;
    return the vertices added and the step's violations."""
    footprint = _footprint(ctx, ext)
    cycle.edits = {}
    fresh = cycle.splice(ctx.graph, ext)
    problems = _good_step(
        ctx, cycle, witness, footprint, (),
        lambda: _witness_rule(witness, footprint, ext.endvertex),
    )
    return fresh, problems


def _part_step(
    ctx: GoodTupleContext,
    cycle: _SpliceCycle,
    witness: dict[int, set[int]],
    ell: int,
    s: int,
) -> list[str]:
    """End the step of part ``ell``, whose spine and zone-cover edits are
    in the cycle's log: its update is the part rule, which moves vertices
    of the part P and its component K; return the step's violations."""
    moved = ctx.component_sets[ell - 1].union(ctx.dec.parts[ell - 1])
    return _good_step(
        ctx, cycle, witness, moved, (ell,),
        lambda: _part_rule(witness, ell, set(moved), s),
    )


def _good_step(
    ctx: GoodTupleContext,
    cycle: _SpliceCycle,
    witness: dict[int, set[int]],
    moved: frozenset[int],
    met: tuple[int, ...],
    rule,
) -> list[str]:
    """Run ``rule()``, the witness update that ends a step, and return the
    good-tuple violations of the result, read off what the step changed.

    A step is one or more edits of the live cycle, counted in its log
    ``cycle.edits`` from an empty dict, and then the update.  ``moved``
    holds the vertices the update may move, and ``met`` the components it
    meets: the footprint F and none for a splice (F lies in the allowed
    region), P ∪ K and K's index for a part P with component K.  Premises:
    the tuple was good before the step; the context is built by
    ``GoodTupleContext.build`` from a decomposition of ``split_cycle``, so a
    component's neighbors outside it lie in its part; no edit drops a cycle
    vertex (``_SpliceCycle.splice`` raises when one would); and the update
    changes sets only inside ``moved``, where it also puts every set it
    creates.
    For a set W before and m after the update (W = ∅ for a new set), let
    was = W ∩ moved, gained = m ∩ moved − was and lost = was − m.  Then the
    verdict names the same properties as ``check_good_tuple``:

    * (a): the cycle only grows, so only a new set's part and zone can be
      off it.
    * (b): a set holds its component iff it lost none of it, or for a new
      set iff it holds it now.  It stays off the deep base cycle, which
      ``moved`` misses: F lies in the allowed region, P in the separator
      and K outside the finite component.
    * (c): exact.  Only the net edits (+1 added, −1 removed; an edge that
      nets to 0 is dropped) change which edges are on the cycle, and only
      edges at changed vertices change whether they cross.  So the count
      is 2 (0 for a new set), plus Σ d·x(e) over the edits for
      x(e) = [e crosses m], plus, for a changed set, Σ x(e) − x_W(e) over
      the starting cycle's edges at ``moved``: the edges there now, less
      the added ones, plus the removed ones at ``moved``.
    * (d): kept vertices were on the smaller cycle, so only gained vertices
      near the finite component can be off it.
    * (e): a set that only gained is connected iff ``_joined`` joins its
      gains to W, with W and each component held whole as one block.  In a
      set that lost vertices, every piece holds a gained vertex or a
      neighbor of a lost one, since W was connected; one search inside m
      joins them (``_reaches_all``).
    * (f): only the components in ``met`` can be split.

    A set that did not change and holds no endpoint of an edit keeps all
    six, after one ``isdisjoint``.  The cost is O(k) set operations against
    ``moved``, in C, plus Python work in O(deg) per edited vertex, per
    gained vertex outside a component held whole, and per lost vertex; the
    search in a set that lost vertices stops as soon as it has joined them.
    """
    g = ctx.graph
    before = {j: m & moved for j, m in witness.items()}
    rule()
    edits = {e: d for e, d in cycle.edits.items() if d}
    ends = {v for e in edits for v in e}
    at_moved = cycle.edges_at(cycle.on_cycle(moved))
    for e, d in edits.items():
        if d > 0:
            at_moved.discard(e)
        elif e[0] in moved or e[1] in moved:
            at_moved.add(e)

    problems: list[str] = []
    for j in sorted(witness):
        m, is_new = witness[j], j not in before
        was = before.get(j, frozenset())
        now = m & moved
        gained, lost = now - was if was else now, was - m
        changed = gained or lost
        if not (is_new or changed or not m.isdisjoint(ends)):
            continue
        comp, zone = ctx.component_sets[j - 1], ctx.part_zones[j - 1]
        if is_new and not all(v in cycle for v in zone.union(ctx.dec.parts[j - 1])):
            problems.append(f"(a) part {j}: separator part or its 3-zone not on the cycle")
        if not (comp <= m if is_new else lost.isdisjoint(comp)):
            problems.append(f"(b) part {j}: witness set misses component vertices")
        crossings = (0 if is_new else 2) + sum(
            d * ((a in m) != (b in m)) for (a, b), d in edits.items()
        )
        if changed:
            def in_w(v: int) -> bool:
                return v in was if v in moved else v in m

            crossings += sum(((a in m) != (b in m)) - (in_w(a) != in_w(b)) for a, b in at_moved)
        if crossings != 2:
            problems.append(f"(c) part {j}: cycle crosses the witness cut {crossings} times")
        if not changed:
            continue
        whole = {p: ctx.component_sets[p - 1] <= m for p in met}
        stray = [v for v in gained & ctx.around_finite_4 if v not in cycle]
        if stray:
            problems.append(
                f"(d) part {j}: witness vertices {sorted(stray)[:4]} are off the cycle "
                "but near the finite component"
            )
        if lost:
            goal = {w for v in lost for w in g.neighbors(v) if w in m} | gained
            joined = _reaches_all(g, m, goal)
        else:
            blocks = [
                (ctx.component_sets[p - 1], ctx.dec.parts[p - 1])
                for p in met
                if whole[p] and ctx.component_sets[p - 1].isdisjoint(was)
            ]
            joined = _joined(g, m, gained, blocks)
        if not joined:
            problems.append(f"(e) part {j}: witness set induces a disconnected graph")
        for p in met:
            if not whole[p] and not ctx.component_sets[p - 1].isdisjoint(m):
                problems.append(f"(f) part {j}: witness set contains part of component {p} only")
    return problems


def _joined(g: FiniteGraph, m, gained, blocks) -> bool:
    """Whether ``m`` is connected, given that m − ``gained`` is, and that
    each (component, part) of ``blocks`` is a component held whole in
    ``gained`` whose neighbors outside it lie in its part.  Only the gained
    vertices outside the blocks are walked: m − gained is one node (None),
    and a block joins the held vertices of its part next to it."""
    loose = gained.difference(*(comp for comp, _ in blocks))
    root: dict = {}

    def find(v):
        while v in root:
            v = root[v]
        return v

    def join(u, v) -> None:
        u, v = find(u), find(v)
        if u != v:
            root[u] = v

    for x in loose:
        for w in g.neighbors(x):
            if w in loose:
                join(x, w)
            elif w in m and w not in gained:
                join(x, None)
    for comp, part in blocks:
        touching = [
            q if q in loose else None
            for q in part
            if q in m and not comp.isdisjoint(g.neighbor_set(q))
        ]
        if not touching:
            return len(m) == len(comp)
        for q in touching:
            join(q, touching[0])
    nodes = loose | ({None} if len(m) > len(gained) else set())
    return len({find(v) for v in nodes}) <= 1


def _reaches_all(g: FiniteGraph, m, goal) -> bool:
    """Whether one search inside ``m`` from ``min(goal)`` reaches all of
    ``goal``, stopping as soon as it has; true for an empty goal."""
    return not goal or bfs(g, [min(goal)], within=m, goals=goal).keys() >= goal


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


def _assert_deep_vertex(ctx: GoodTupleContext) -> None:
    """The round precondition, read from the context: some base-cycle
    vertex is at distance 3 or more from the cycle neighborhood N(C).
    ``near_cycle_2`` is empty exactly when N(C) is, since a vertex of N(C)
    next to C puts that cycle vertex in it."""
    if not ctx.near_cycle_2:
        raise DomainError("the cycle already spans its component")
    if not ctx.deep_base:
        raise DomainError(
            "the cycle has no vertex at distance 3 from its neighborhood; "
            "cover the 2-neighborhood first"
        )


def _grow_part_tree(
    g: FiniteGraph, ctx: GoodTupleContext, ell: int
) -> tuple[dict[int, int | None], frozenset[int]]:
    """BFS tree inside the part's component spanning the 3-zone of the part,
    pruned of branches that do not lead to the zone."""
    comp = ctx.component_sets[ell - 1]
    zone = ctx.part_zones[ell - 1]
    root = min(w for p in ctx.dec.parts[ell - 1] for w in g.neighbors(p) if w in comp)
    parent = bfs(g, [root], within=comp, goals=zone)
    remaining = [v for v in zone if v not in parent]
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


def cut_lemma_round(g: FiniteGraph, split: CycleSplit, index: int = 1) -> RoundRecord:
    """Enlarge the cycle of ``split``, the result of
    ``separators.split_cycle``, across every separator part and the finite
    component, producing the per-end witness sets.

    Per part, the round first captures exactly one separator vertex of the
    part (retargeting a path extension at the last uncovered separator
    vertex on its path), then a second one adjacent on the cycle (using the
    completeness of separator neighborhoods to shortcut the path), splices
    a spanning tree of the part's 3-zone between the two, and covers the
    rest of the part and the tree.  A final cover takes the finite
    component.  Witness sets follow the two displayed update rules.

    The input cycle is validated once.  All splices then edit one live
    cycle and one dict of witness sets, in steps: each capture and each
    finite-component splice is a step of one edit, and each part's spine
    and zone covers are one step.  Each step starts the cycle's edit log
    afresh and ends with its update rule and the check ``_good_step``,
    which reads the log and costs what the step changed; the full
    ``check_good_tuple`` runs once, on a frozen copy at the round end.
    The recorded separator gap holds when S ∪ N³(S) misses the separator
    ``split`` was carried from: the two lie at distance 4 or more.
    """
    c, dec = split.cycle, split.dec
    _require_cycle(g, c)
    ctx = GoodTupleContext.build(g, split)
    _assert_deep_vertex(ctx)
    cycle = _SpliceCycle(c)
    witness: dict[int, set[int]] = {}
    ext_count = 0
    order: list[int] = []
    uncovered = set(range(1, dec.k + 1))

    def uncovered_sep() -> set[int]:
        return {v for i in uncovered for v in dec.parts[i - 1]}

    def good_splice(ext: PathExtension) -> tuple[int, ...]:
        fresh, problems = _splice_step(ctx, cycle, witness, ext)
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
                    x = min(g.neighbor_set(after) & ctx.component_sets[other - 1])
                    raise InternalConsistencyError(
                        "separator-neighborhood completeness failed "
                        f"at {after} for {t}, {z}",
                        witness=sorted({after, t, z, x}),
                    )
                short = (t, z)
            else:
                short = (t, after, z)
        good_splice(repath_extension(cycle, ext2, short))
        ext_count += 1
        if not g.has_edge(s, t) or (cycle.succ(s) != t and cycle.pred(s) != t):
            raise InternalConsistencyError(
                f"the two captured separator vertices {s}, {t} are not cycle-adjacent"
            )

        # -- splice a spanning tree of the part's 3-zone between s and t,
        #    then cover the zone; one step, checked at the part boundary
        tree_parent, tree_vertices = _grow_part_tree(g, ctx, ell)
        n_s = min(set(g.neighbors(s)) & tree_vertices)
        n_t = min(set(g.neighbors(t)) & tree_vertices)
        spine = _tree_path(tree_parent, n_s, n_t)
        cycle.edits = {}
        try:
            cycle.insert(g, s, t, spine)
        except InternalConsistencyError as exc:
            raise InternalConsistencyError(
                f"splicing the part-{ell} tree spine between {s} and {t} "
                f"did not yield a cycle: {exc}"
            ) from exc
        log = _cover(g, cycle, part | tree_vertices, tree_vertices)
        ext_count += len(log)

        # -- witness updates: new part set, and absorb into older sets that
        #    contain the two captured vertices
        for j, m in witness.items():
            if (s in m) != (t in m):
                raise InternalConsistencyError(
                    f"witness set {j} separates the adjacent pair {s}, {t}"
                )
        problems = _part_step(ctx, cycle, witness, ell, s)
        if problems:
            raise InternalConsistencyError(
                f"round {index}, part {ell}: " + "; ".join(problems)
            )
        order.append(ell)
        uncovered.discard(ell)

    # -- cover the finite component, keeping the witness sets current
    k0 = frozenset(dec.finite_component)
    try:
        log = _cover(g, cycle, k0, k0, splice=good_splice)
    except ProgressError as exc:
        raise InternalConsistencyError(
            "the finite component cannot be finished by pooled extensions"
        ) from exc
    ext_count += len(log)

    new_cycle = cycle.freeze()
    sets = {j: frozenset(m) for j, m in witness.items()}
    checks = _round_conclusions(ctx, new_cycle, sets)
    checks["separator_gap"] = ctx.separator_reach.isdisjoint(split.previous_separator)
    return RoundRecord(
        index=index,
        dec=dec,
        part_order=tuple(order),
        cycle=new_cycle,
        witness_sets=sets,
        extension_count=ext_count,
        checks=checks,
    )


def _round_conclusions(ctx, new_cycle, sets) -> dict[str, bool]:
    """The three round conclusions and the good-tuple verdict of the round's
    cycle and witness sets, recorded (not raised) for the run log."""
    g, c = ctx.graph, ctx.base_cycle
    base_edges = c.edge_set()
    near2 = ctx.near_cycle_2  # distance 1 to 2 from N(C), C ∩ N(C) = ∅
    containment = ctx.around_finite_4 <= new_cycle.vertex_set  # F ∪ S ∪ N³(S)

    new_edges = new_cycle.edge_set()
    # a base edge may leave the cycle only with an end in near2
    keep_ok = all(u in near2 or v in near2 for u, v in base_edges - new_edges)

    # a vertex of C, being outside N(C), is within distance 3 of N(C) iff it
    # is in near2 or next to it
    near3 = near2.union(neighborhood_k(g, near2, 1))
    loc_ok = True
    for u, v in new_edges - base_edges:
        for p in (u, v):
            if p in c and p not in near3:
                loc_ok = False
    good = not check_good_tuple(ctx, new_cycle, sets)
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


# End proxies are read in the outermost END_SKIRT + 1 layers of the ball.  Every
# vertex a round reads lies RADIUS_MARGIN layers inside it, and each round
# reads ROUND_DEPTH (the separator gap) layers deeper than the one before.
END_SKIRT = 3
RADIUS_MARGIN = 5
ROUND_DEPTH = 4


def end_proxies(ball: Ball) -> tuple[tuple[int, ...], ...]:
    """Boundary components, computed with a thick skirt so that same-side
    boundary vertices connected just inside the ball stay together."""
    shell = [
        v for v in ball.graph.vertices if ball.depth_of(v) >= ball.radius - END_SKIRT
    ]
    return label_components(ball.graph, shell, ball.boundary)[0]


def _suggested_radius(deepest: int, rounds_left: int) -> int:
    """The radius for a round that reads depth ``deepest`` and the rounds after it."""
    return deepest + RADIUS_MARGIN + ROUND_DEPTH * rounds_left


def _stability_gate(ball: Ball, least: int) -> None:
    """End proxies must map injectively into the components four layers
    deeper, otherwise boundary components misrepresent the ends.  A proxy
    is connected inside the skirt, which lies inside the deeper shell, so
    its first vertex names its one deep component.  It suggests 2R, or
    ``least`` if larger."""
    proxies = end_proxies(ball)
    deep = [
        v for v in ball.graph.vertices
        if ball.depth_of(v) >= ball.radius - END_SKIRT - 4
    ]
    _, owner = label_components(ball.graph, deep)
    seen: dict[int, tuple] = {}
    for proxy in proxies:
        i = owner[proxy[0]]
        if i in seen:
            raise RadiusTooSmallError(
                f"end proxies {seen[i][:3]} and {proxy[:3]} merge four layers "
                "deeper; the radius cannot distinguish the ends yet",
                suggested_radius=max(ball.radius * 2, least),
            )
        seen[i] = proxy


def _radius_gate(ball: Ball, deepest: int, m: int, rounds: int) -> None:
    """The one depth check of a round: ``deepest``, the depth round ``m``
    reads, lies RADIUS_MARGIN layers inside the ball."""
    if deepest + RADIUS_MARGIN > ball.radius:
        raise RadiusTooSmallError(
            f"round {m}: the construction reached depth {deepest} of radius "
            f"{ball.radius}; neighborhood computations are no longer faithful",
            suggested_radius=_suggested_radius(deepest, rounds - m),
        )


def _read_depth(ball: Ball, vertices) -> int:
    """The depth of the deepest neighbor of ``vertices``."""
    depths, g = ball.depths, ball.graph
    return max((depths[w] for v in vertices for w in g.neighbors(v)), default=0)


def _initial_cycle(g: FiniteGraph) -> CycleEmbedding:
    """The shortest cycle through the root, extended to cover its own
    2-neighborhood."""
    seed = shortest_cycle_through(g, g.vertices[0])
    pool = set(seed.order) | set(neighborhood_k(g, seed.order, 2))
    return extend_to_cover(g, seed, pool)[0]


def run(pres: GraphPresentation, rounds: int, radius: int) -> RunState:
    """Extract a ball, verify the hypotheses on its interior, build the
    initial cycle covering its own 2-neighborhood, then run the requested
    number of enlargement rounds.  The interior is checked by one
    ``hypothesis_failures`` sweep, which decides a vertex of degree 4 or less
    from the local degrees of its neighbors and a line-graph vertex of degree
    7 or more by one two-clique split; only the first vertex that fails pays
    for a witness, confirmed by ``claw_at`` or ``neighborhood_components``.
    Round 1 decomposes from scratch (``split_cycle``), and each later round
    carries the previous round's decomposition over, which gives the same
    one.  The depth rule is checked on N[C] before the decomposition and on
    F ∪ S after it; both sets only grow, so each depth is a running maximum
    over the vertices a round adds.  A round m too deep suggests deepest +
    RADIUS_MARGIN + ROUND_DEPTH·(rounds − m), so k rounds need R ≥ 4k + 5
    on every preset.  A read of round 1's N[C] that reaches the ball's last
    layer may be clipped, so only then is it read again in a ball of the
    suggested radius.  ``extract_ball`` refuses a radius that is not an
    integer before it asks the oracle anything."""
    if not isinstance(rounds, int) or isinstance(rounds, bool):
        raise DomainError(f"rounds must be an integer, got {rounds!r}")
    if rounds < 0:
        raise DomainError("rounds must be >= 0")
    ball = pres.extract_ball(radius)
    g = ball.graph
    if len(g) < 3:
        raise DomainError("the ball has fewer than 3 vertices")
    failures = hypothesis_failures(g, ball.interior)
    if failures:
        v, claw_free, _ = failures[0]
        if not claw_free:
            triple = _confirmed_claw(v, claw_at(g, v))
            raise HypothesisError(
                "claw_free", sorted((v,) + triple), f"induced claw at interior vertex {v}"
            )
        _confirmed_split(v, neighborhood_components(g, v))
        raise HypothesisError(
            "locally_connected",
            sorted({v} | set(g.neighbors(v))),
            f"disconnected neighborhood at interior vertex {v}",
        )
    c0 = _initial_cycle(g)
    state = RunState(ball, c0, [])
    cycle, added = c0, ()
    split = None
    near_depth, inner_depth = _read_depth(ball, c0.order), 0
    probe = radius
    while rounds and near_depth >= probe:
        probe = _suggested_radius(near_depth, rounds - 1)
        wider = pres.extract_ball(probe)
        near_depth = max(near_depth, _read_depth(wider, _initial_cycle(wider.graph).order))
    depths = ball.depths
    for m in range(1, rounds + 1):
        # N[C] and F ∪ S only grow, so each depth is a running maximum
        near_depth = max(near_depth, _read_depth(ball, added))
        if m == 1:
            _stability_gate(ball, _suggested_radius(near_depth, rounds - 1))
        _radius_gate(ball, near_depth, m, rounds)
        split = split_cycle(g, cycle, ball.boundary, split)
        inner_depth = max(inner_depth, max(map(depths.__getitem__, split.gained), default=0))
        _radius_gate(ball, inner_depth, m, rounds)
        record = cut_lemma_round(g, split, index=m)
        added = record.cycle.vertex_set - cycle.vertex_set
        if len(added) != len(record.cycle) - len(cycle):
            raise InternalConsistencyError(
                f"round {m} lost vertices of the previous cycle"
            )
        if not all(record.checks.values()):
            bad = sorted(k for k, v in record.checks.items() if not v)
            raise InternalConsistencyError(
                f"round {m} recorded failing conclusions: {', '.join(bad)}"
            )
        state.rounds.append(record)
        cycle = record.cycle
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
    earlier: set[Edge] = set()  # the edges of the cycles before c
    stable: set[Edge] = set()
    for c in cycles:
        edges = c.edge_set()
        stable |= edges & earlier
        earlier |= edges
    return frozenset(stable)


def _witness_cut(
    g: FiniteGraph, dec: SeparatorDecomposition, j: int, m: frozenset[int]
) -> frozenset[Edge]:
    """The edges of ``cut(g, m)``.  When ``m`` holds the ``j``-th infinite
    component K whole, K's neighbors outside it lie in the separator S, so
    the cut is the edges leaving m - K plus the edges from S - m into K."""
    if not 1 <= j <= dec.k or not m.issuperset(dec.infinite_components[j - 1]):
        return frozenset(cut(g, m))
    rest = m.difference(dec.infinite_components[j - 1])
    edges = {edge_key(u, w) for u in rest for w in g.neighbors(u) if w not in m}
    edges.update(
        edge_key(s, w)
        for s in dec.separator
        if s not in m
        for w in g.neighbors(s)
        if w in m and w not in rest
    )
    return frozenset(edges)


def _proxy_chains(rounds: list[RoundRecord], proxies):
    """Each end proxy's chain of host components, one 1-based index per
    round, for the proxies that lie inside one infinite component in every
    round; and for each other proxy, its first vertex, the index of the
    first round where it does not, and the components it meets there.  One
    owner map per round gives the hosts of a proxy in O(|proxy|)."""
    chains: dict[int, list[int]] = {i: [] for i in range(len(proxies))}
    ambiguous: dict[int, tuple] = {}
    for record in rounds:
        owner = {
            v: j
            for j, comp in enumerate(record.dec.infinite_components, start=1)
            for v in comp
        }
        for i in list(chains):
            hosts = {owner.get(v) for v in proxies[i]}
            if len(hosts) == 1 and None not in hosts:
                chains[i].append(hosts.pop())
            else:
                hosts.discard(None)
                ambiguous[i] = (proxies[i][0], record.index, tuple(sorted(hosts)))
                del chains[i]
    return (
        [(proxies[i], chain) for i, chain in chains.items()],
        [ambiguous[i] for i in sorted(ambiguous)],
    )


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
            cuts[(r, j)] = _witness_cut(g, record.dec, j, m)

    # (ii) cuts finite in the truncation and clear of the boundary layer
    w2 = []
    bset = set(state.ball.boundary)
    for (r, j), edges in sorted(cuts.items()):
        touching = [e for e in sorted(edges) if e[0] in bset or e[1] in bset]
        if touching:
            w2.append((r, j, tuple(touching)))
    cond2 = ConditionReport(not w2, tuple(w2))

    # (iii) one nested chain per end proxy, shrinking away from the interior
    chains, ambiguous = _proxy_chains(state.rounds, end_proxies(state.ball))
    # F ∪ S of each round but the last, which the next round's sets must miss
    sheds = [
        frozenset(r.dec.finite_component).union(r.dec.separator) for r in state.rounds[:-1]
    ]
    w3 = []
    for proxy, chain in chains:
        sets = [r.witness_sets.get(j) for r, j in zip(state.rounds, chain)]
        missing = [(r.index, j) for r, j, m in zip(state.rounds, chain, sets) if m is None]
        if missing:
            w3.append(("missing-set", proxy[0], tuple(missing)))
            continue
        for i in range(1, len(state.rounds)):
            m_prev, m_next = sets[i - 1], sets[i]
            if not m_next <= m_prev:
                w3.append(
                    ("not-nested", proxy[0], i + 1, tuple(sorted(m_next - m_prev))[:4])
                )
            shed = m_next & sheds[i - 1]
            if shed:
                w3.append(("not-shrinking", proxy[0], i + 1, tuple(sorted(shed))[:4]))
        on_boundary = bset.intersection(proxy)
        for record, m in zip(state.rounds, sets):
            if not on_boundary <= m:
                w3.append(("proxy-escapes", proxy[0], record.index))
    cond3 = ConditionReport(not w3 and not ambiguous, tuple(w3))

    # (iv) settled edges stay: an edge of cycle j that an earlier cycle has
    # is settled, and the pairs (i, j) are listed only for a j that loses one
    w4 = []
    earlier = set(cycles[0].edge_set())
    for j in range(1, last):
        edges, after = cycles[j].edge_set(), cycles[j + 1].edge_set()
        if (edges & earlier) - after:
            for i in range(j):
                lost = (cycles[i].edge_set() & edges) - after
                if lost:
                    w4.append((i, j, tuple(sorted(lost))))
        earlier |= edges
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
    region = state.rounds[-2].dec.finite_component
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
