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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    DomainError,
    HypothesisError,
    InternalConsistencyError,
    RadiusTooSmallError,
)
from .extension import (
    ExtensionCase,
    PathExtension,
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
    bfs_distances,
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
    def witness_room(self) -> frozenset[int]:
        """Where witness sets may lie: off the base cycle, or within
        distance 2 of its neighborhood."""
        return (frozenset(self.graph.vertices) - self.base_cycle.vertex_set) | self.near_cycle_2

    @cached_property
    def far_from_finite(self) -> frozenset[int]:
        return frozenset(self.graph.vertices) - self.around_finite_4

    @cached_property
    def component_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(c) for c in self.dec.infinite_components)


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
        if not m <= ctx.witness_room:
            problems.append(f"(b) part {j}: witness set strays onto the deep base cycle")
        inside = [v in m for v in cycle.order]
        crossings = sum(a != b for a, b in zip(inside, inside[1:] + inside[:1]))
        if crossings != 2:
            problems.append(
                f"(c) part {j}: cycle crosses the witness cut {crossings} times"
            )
        stray = m - on_cycle - ctx.far_from_finite
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
    allowed = (
        (frozenset(ctx.dec.finite_component) - ctx.base_cycle.vertex_set)
        | frozenset(ctx.dec.separator)
        | (ctx.near_cycle_2 & frozenset(ctx.dec.finite_component))
    )
    footprint = set(ext.extension_path) | {ext.base}
    stray = footprint - allowed
    if stray:
        raise DomainError(
            f"extension footprint {sorted(stray)} leaves the allowed region "
            "for witness-preserving extensions"
        )
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


def _set_distance(g: FiniteGraph, a, b) -> int:
    dist = bfs_distances(g, a)
    return min((dist[v] for v in b if v in dist), default=len(g) + 1)


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
    """
    _assert_deep_vertex(g, c)
    ctx = GoodTupleContext.build(g, c, dec)
    tup = GoodTuple(ctx, c, {})
    ext_count = 0
    order: list[int] = []
    uncovered = set(range(1, dec.k + 1))
    base_edges = c.edge_set()

    def uncovered_sep() -> set[int]:
        return {v for i in uncovered for v in dec.parts[i - 1]}

    while uncovered:
        # -- capture one separator vertex of some uncovered part
        unc = uncovered_sep()
        if tup.cycle.vertex_set & unc:
            raise InternalConsistencyError(
                "the cycle already meets an uncovered separator part"
            )
        v = min(unc)
        u = min(set(g.neighbors(v)) & c.vertex_set)
        ext = find_path_extension(g, tup.cycle, v, u)
        s = [p for p in ext.extension_path if p in unc][-1]
        ext = truncate_extension(g, tup.cycle, ext, s)
        tup = good_extend(tup, ext)
        ext_count += 1
        ell = dec.part_of_vertex(s)
        part = frozenset(dec.parts[ell - 1])
        comp = frozenset(dec.infinite_components[ell - 1])
        if tup.cycle.vertex_set & unc != {s}:
            raise InternalConsistencyError(
                f"expected exactly one uncovered separator vertex {s} on the cycle"
            )

        # -- capture a second vertex of the same part, adjacent on the cycle
        v2 = min(set(g.neighbors(s)) & comp)
        ext2 = find_path_extension(g, tup.cycle, v2, s)
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
        interior_on_cycle = tuple(
            sorted(p for p in short[1:-1] if p in tup.cycle)
        )
        if ext2.case is ExtensionCase.ONE:
            ext2 = PathExtension(ExtensionCase.ONE, t, s, short, interior_on_cycle)
        else:
            bridged = tuple(sorted(set(interior_on_cycle) | {s}))
            ext2 = PathExtension(
                ExtensionCase.TWO, t, s, short, bridged, ext2.reattach
            )
        tup = good_extend(tup, ext2)
        ext_count += 1
        if not g.has_edge(s, t) or (tup.cycle.succ(s) != t and tup.cycle.pred(s) != t):
            raise InternalConsistencyError(
                f"the two captured separator vertices {s}, {t} are not cycle-adjacent"
            )

        # -- splice a spanning tree of the part's 3-zone between s and t
        tree_parent, tree_vertices = _grow_part_tree(g, dec, ell)
        n_s = min(set(g.neighbors(s)) & tree_vertices)
        n_t = min(set(g.neighbors(t)) & tree_vertices)
        spine = _tree_path(tree_parent, n_s, n_t)
        spliced = _SpliceCycle(tup.cycle)
        try:
            spliced.insert(g, s, t, spine)
        except InternalConsistencyError as exc:
            raise InternalConsistencyError(
                f"splicing the part-{ell} tree spine between {s} and {t} "
                f"did not yield a cycle: {exc}"
            ) from exc
        covered_goal = part | tree_vertices
        cycle2, log = extend_to_cover(
            g,
            spliced.freeze(),
            covered_goal,
            target_pool=covered_goal,
            base_pool=tree_vertices,
        )
        ext_count += len(log)

        # -- witness updates: new part set, and absorb into older sets that
        #    contain the two captured vertices
        new_m = part | comp
        updated: dict[int, frozenset[int]] = {}
        for j, m in tup.witness_sets.items():
            if (s in m) != (t in m):
                raise InternalConsistencyError(
                    f"witness set {j} separates the adjacent pair {s}, {t}"
                )
            updated[j] = m | new_m if s in m else m
        updated[ell] = new_m
        tup = GoodTuple(ctx, cycle2, updated)
        problems = tup.check()
        if problems:
            raise InternalConsistencyError(
                f"round {index}, part {ell}: " + "; ".join(problems)
            )
        order.append(ell)
        uncovered.discard(ell)

    # -- cover the finite component, keeping the witness sets current
    k0 = frozenset(dec.finite_component)
    while not k0 <= tup.cycle.vertex_set:
        step = None
        for target in sorted(k0 - tup.cycle.vertex_set):
            choices = [
                b for b in g.neighbors(target) if b in tup.cycle and b in k0
            ]
            if choices:
                step = (target, min(choices))
                break
        if step is None:
            raise InternalConsistencyError(
                "the finite component cannot be finished by pooled extensions"
            )
        ext = find_path_extension(g, tup.cycle, step[0], step[1])
        tup = good_extend(tup, ext)
        ext_count += 1

    checks = _round_conclusions(g, c, dec, tup, base_edges)
    return RoundRecord(
        index=index,
        dec=dec,
        part_order=tuple(order),
        cycle=tup.cycle,
        witness_sets=dict(tup.witness_sets),
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
    for m in range(1, rounds + 1):
        _stability_gate(ball)
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
            prev_sep is None or _set_distance(g, prev_sep, sep) >= 4
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
    w6 = []
    for v in region:
        deg = sum(1 for e in stable if v in e)
        if deg != 2:
            w6.append((v, deg))
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
