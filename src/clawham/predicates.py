"""Hypothesis predicates with failure witnesses.

Every check returns a PredicateReport; when the property fails the report
carries a vertex set that re-checks as a genuine violation using only the
graph-core primitives.

Costs for n vertices, m edges and maximum degree d; the witnesses are
unchanged from the plain definitions:

* ``claw_at``: the pair scan alone.  It keeps, at C level, each neighbor
  a's r_a later non-neighbors in N(v), then tests them in turn against the
  rest of that list: sum of r_a^2 membership tests at v, which is about
  d^3 / 8 when N(v) is two disjoint cliques of d / 2 (a claw-free
  line-graph neighborhood).  Its answer, the lexicographically first claw,
  never consults the sweep's two-clique split.
* ``locally_connected_at``: O(d^2) at worst, one flood fill over N(v) by
  set differences that stops as soon as it has reached all of N(v) (on
  L(K_n) after two or three steps).
* ``hypothesis_failures``, both questions at every vertex in one sweep, with
  no witness: up to degree 4, at most six adjacency tests per vertex, since
  both verdicts follow from the local degrees |N(a) & N(v)|; from degree
  ``_COVER_MIN_DEGREE`` on, a split of N(v) into two cliques, which every
  line-graph neighborhood has (Krausz, 1943), proves v claw-free and
  decides local connectivity with O(d) C-level set operations and no flood
  fill.  Its two clique tests go through a store that the sweep shares,
  keyed by the clique plus v, so a clique of c vertices is tested once per
  sweep, with O(c^2) membership tests, and its entry is dropped once its
  other members have read it.  A line graph's Krausz cliques hold each edge
  once, so its clique tests cost O(m) in all, where testing both sides at
  every vertex cost O(n d^2).  Elsewhere ``claw_at`` and the flood fill.
  ``is_claw_free``, ``is_locally_connected``, ``check_all``,
  ``extension.finite_hamilton`` and ``engine.run`` read it, so O(n d^3) in
  all; only the first failing vertex of each kind pays for a witness, and
  ``claw_at`` or ``neighborhood_components`` there must confirm the sweep.
* ``connected_report``: O(n + m), one breadth-first search from the least
  vertex; that vertex and the least one it does not reach, the first vertex
  of each of the first two components.
* ``is_two_connected``: O(n + m), Hopcroft-Tarjan without recursion; the
  smallest cut vertex.
* ``is_chordal``: O(n + m), maximum cardinality search; only a non-chordal
  graph pays for the hole search behind its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, filterfalse
from typing import Iterable

from .errors import DomainError, InternalConsistencyError
from .graph import (
    FiniteGraph,
    VertexSet,
    bfs,
    components_within,
    shortest_path,
)


@dataclass(frozen=True)
class PredicateReport:
    holds: bool
    witness: VertexSet | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.holds

    def to_json_obj(self) -> dict:
        return {
            "holds": self.holds,
            "witness": list(self.witness) if self.witness is not None else None,
            "note": self.note,
        }


# The least degree at which the sweep, ``_hypotheses_at``, first tries the
# two-clique split.  A split that succeeds saves ``claw_at`` and the flood
# fill; one that fails adds to them.  Process time, CPython 3.11 on a shared
# 2-core Xeon VM: on the degree-6 line-graph vertices of the engine-1d
# benchmark's ``ladder-line-graph`` and ``tripod-line`` balls (793 and 841)
# the split took 0.6-0.8x the time of the scan and the flood (best of 5);
# but most vertices of degree 5 and 6 in the 994 connected graphs on 3..7
# vertices have no split, and trying it from degree 5 on raised their sweep
# from 7.7 to 9.1 ms (best of 15).  Whole small-sweep and engine passes
# with the gate at 5 and at 7 differed by less than their spread, so it
# stays at 7.
_COVER_MIN_DEGREE = 7


def _is_clique(s: frozenset[int], neighbor_sets: Iterable[frozenset[int]]) -> bool:
    """Whether s is a clique, given the neighbor sets of its members: each x
    in s misses only itself, so the sizes of s - N(x) add up to |s|."""
    return sum(map(len, map(s.difference, neighbor_sets))) == len(s)


def _two_clique_split(
    g: FiniteGraph, v: int, verdicts: dict | None = None
) -> tuple[bool, bool | None]:
    """Whether one greedy split of N(v) into two cliques P and Q succeeds,
    and whether G[N(v)] is connected, None where the attempt does not tell.

    With a = the first neighbor and b = its smallest non-neighbor in N(v),
    the non-neighbors of b (a among them) seed P and the non-neighbors of a
    (b among them) seed Q; a common neighbor of a and b joins P when it sees
    all of P's seed, and Q otherwise.  Two cliques covering N(v) leave no
    claw at v: any three neighbors have two in one clique.  They leave
    G[N(v)] connected exactly when an edge joins P and Q; a common neighbor
    of a and b is an end of one, and without one P and Q are the seeds, so
    one disjointness test per vertex of P decides.  A failed split says only
    that this split failed (a sees all of N(v), some neighbor sees neither a
    nor b, or P or Q is not a clique), not that v has a claw; when a sees
    all of N(v), N(v) is connected through a.  Each step is one C-level set
    operation over N(v) or a pass over P or Q.

    P is tested whole, seed and joiners at once: each joiner sees all of
    the seed, so P is a clique exactly when the seed and the joiners each
    are.  Each clique test goes through ``verdicts``, the store of one
    sweep (``_clique_verdict``); without one, the split tests both cliques
    itself.
    """
    if verdicts is None:
        verdicts = {}
    neighbor_set = g.neighbor_set
    around = neighbor_set(v)
    a = g.neighbors(v)[0]
    na = neighbor_set(a)
    q = around.difference(na, (a,))
    if not q:
        return False, True
    b = min(q)
    nb = neighbor_set(b)
    seed = around.difference(nb, (b,))
    seed_sets = list(map(neighbor_set, seed))
    common = around.intersection(na, nb)
    joins_p = common.intersection(*seed_sets)
    p = seed.union(joins_p)
    if not _clique_verdict(verdicts, v, p, chain(seed_sets, map(neighbor_set, joins_p))):
        return False, None
    q = q.union(common.difference(joins_p))
    if not _clique_verdict(verdicts, v, q, map(neighbor_set, q)):
        return False, None
    return True, bool(common) or not all(map(q.isdisjoint, seed_sets))


def _clique_verdict(verdicts: dict, v: int, s: frozenset[int],
                    neighbor_sets: Iterable[frozenset[int]]) -> bool:
    """Whether s, a set of neighbors of v, is a clique, tested at most once
    per sweep.

    Since v sees all of s, s is a clique exactly when s | {v} is.  So the
    verdict, True or False, also answers each later member w of s | {v}
    whose split meets s | {v} less w as one side.  ``verdicts`` maps
    s | {v} to the verdict and the number of its other members yet to read
    it, and drops the entry at the last read.  In a line graph each side is
    a Krausz clique less one vertex, so each clique is tested once and each
    vertex reads its two.  ``neighbor_sets`` are those of the members of s,
    read only on a miss."""
    key = s.union((v,))
    entry = verdicts.get(key)
    if entry is None:
        verdict = _is_clique(s, neighbor_sets)
        verdicts[key] = [verdict, len(s)]
        return verdict
    entry[1] -= 1
    if not entry[1]:
        del verdicts[key]
    return entry[0]


def claw_at(g: FiniteGraph, v: int) -> tuple[int, int, int] | None:
    """Three pairwise non-adjacent neighbors of v, lexicographically first,
    or None: the pair scan, which never consults the sweep's split."""
    nbrs = g.neighbors(v)
    neighbor_set = g.neighbor_set
    for i in range(len(nbrs) - 2):
        a = nbrs[i]
        rest = list(filterfalse(neighbor_set(a).__contains__, nbrs[i + 1 :]))
        while len(rest) > 1:
            b = rest.pop(0)
            nb = neighbor_set(b)
            if not nb.issuperset(rest):
                return (a, b, next(c for c in rest if c not in nb))
    return None


def neighborhood_components(g: FiniteGraph, v: int) -> tuple[VertexSet, ...]:
    return components_within(g, g.neighbors(v))


def locally_connected_at(g: FiniteGraph, v: int) -> bool:
    """Whether G[N(v)] is connected; empty and singleton neighborhoods count.
    One flood fill over N(v), stepping along ``N(u) & N(v)``, that stops as
    soon as it has reached all of N(v)."""
    nbrs = g.neighbor_set(v)
    if not nbrs:
        return True
    neighbor_set = g.neighbor_set
    start = g.neighbors(v)[0]
    seen = {start}
    stack = [start]
    while stack and len(seen) < len(nbrs):
        new = (neighbor_set(stack.pop()) & nbrs) - seen
        seen |= new
        stack += new
    return len(seen) == len(nbrs)


def _hypotheses_at(g: FiniteGraph, v: int, verdicts: dict | None = None) -> tuple[bool, bool]:
    """Whether v centers no claw, and whether G[N(v)] is connected: the
    values of ``claw_at(g, v) is None`` and ``locally_connected_at(g, v)``,
    with no witness.

    Up to degree 4 both follow from the local degrees |N(a) & N(v)| of the
    neighbors a, whose sum is twice the number m of edges in G[N(v)]; one
    adjacency test per pair of neighbors finds those edges.  Below
    degree 3 there is no claw, and N(v) is connected when it has fewer than
    two vertices or an edge.  At degree 3, a claw is three neighbors with no
    edge, and a graph on three vertices is connected when it has two edges.
    At degree 4, three neighbors are independent exactly when every edge of
    G[N(v)] meets the fourth, whose local degree is then m; and a graph on
    four vertices is connected with four or more edges, never with two or
    fewer, and with three unless they form a triangle, which leaves one
    neighbor of local degree 0.  From degree ``_COVER_MIN_DEGREE`` on, a
    two-clique split of N(v) that succeeds decides both, and one that finds
    the first neighbor adjacent to all of N(v) decides local connectivity;
    ``claw_at`` and the flood fill decide what is left.  ``verdicts`` is
    the sweep's clique store, which the split reads and fills."""
    nbrs = g.neighbors(v)
    d = len(nbrs)
    if d < 3:
        return True, d < 2 or nbrs[1] in g.neighbor_set(nbrs[0])
    if d <= 4:
        a, b, c = nbrs[:3]
        na, nb = g.neighbor_set(a), g.neighbor_set(b)
        ab, ac, bc = b in na, c in na, c in nb
        if d == 3:
            m = ab + ac + bc
            return m > 0, m >= 2
        x = nbrs[3]
        ax, bx, cx = x in na, x in nb, x in g.neighbor_set(c)
        m = ab + ac + bc + ax + bx + cx
        local = (ab + ac + ax, ab + bc + bx, ac + bc + cx, ax + bx + cx)
        return m not in local, m >= 4 or (m == 3 and 0 not in local)
    connected = None
    if d >= _COVER_MIN_DEGREE:
        covered, connected = _two_clique_split(g, v, verdicts)
        if covered:
            return True, connected
    if connected is None:
        connected = locally_connected_at(g, v)
    return claw_at(g, v) is None, connected


def hypothesis_failures(g: FiniteGraph, vertices) -> list[tuple[int, bool, bool]]:
    """``(v, claw_free, connected)`` at each of ``vertices``, in order, where
    v centers a claw or G[N(v)] is disconnected, up to the first vertex by
    which both kinds of failure have shown up: the first failure, and the
    first of each kind, are all any caller reads.  One step per vertex
    decides both hypotheses (``_hypotheses_at``); the list is built eagerly,
    so a span around this function times the whole sweep.  The steps share
    one store of clique verdicts, so each clique of a two-clique split is
    tested once in the sweep (``_clique_verdict``); the store lives for this
    call only."""
    failures = []
    seen_claw = seen_split = False
    verdicts: dict = {}
    for v in vertices:
        claw_free, connected = _hypotheses_at(g, v, verdicts)
        if claw_free and connected:
            continue
        failures.append((v, claw_free, connected))
        seen_claw = seen_claw or not claw_free
        seen_split = seen_split or not connected
        if seen_claw and seen_split:
            break
    return failures


def _confirmed_claw(v: int, triple: tuple[int, int, int] | None) -> tuple[int, int, int]:
    """``claw_at``'s triple at v, where the sweep reported a claw; None
    means the two disagree."""
    if triple is None:
        raise InternalConsistencyError(
            f"the hypothesis sweep reports a claw at {v} that claw_at does not find")
    return triple


def _confirmed_split(v: int, comps: tuple[VertexSet, ...]) -> tuple[VertexSet, ...]:
    """``neighborhood_components`` at v, where the sweep reported N(v)
    disconnected; fewer than two means the two disagree."""
    if len(comps) < 2:
        raise InternalConsistencyError(
            f"the hypothesis sweep reports the neighborhood of {v} disconnected, "
            f"but it has {len(comps)} component(s)")
    return comps


def _local_reports(g: FiniteGraph) -> tuple[PredicateReport, PredicateReport]:
    """The claw-freeness and local-connectivity reports from one sweep of
    ``hypothesis_failures``.  The first vertex with a claw gets the
    lexicographically first claw there as its witness; the first with a
    disconnected neighborhood gets its first two neighborhood components."""
    claw_free = locally_connected = PredicateReport(True)
    for v, no_claw, connected in hypothesis_failures(g, g.vertices):
        if not no_claw and claw_free.holds:
            triple = _confirmed_claw(v, claw_at(g, v))
            claw_free = PredicateReport(
                False, tuple(sorted((v,) + triple)), f"induced claw centered at {v}")
        if not connected and locally_connected.holds:
            comps = _confirmed_split(v, neighborhood_components(g, v))
            locally_connected = PredicateReport(
                False, tuple(sorted({v}.union(comps[0], comps[1]))),
                f"neighborhood of {v} splits into {len(comps)} parts")
    return claw_free, locally_connected


def is_claw_free(g: FiniteGraph) -> PredicateReport:
    return _local_reports(g)[0]


def is_locally_connected(g: FiniteGraph) -> PredicateReport:
    return _local_reports(g)[1]


def connected_report(g: FiniteGraph) -> PredicateReport:
    """One breadth-first search from the least vertex.  The witness of a
    disconnected graph is that vertex and the least one it does not reach,
    the first vertices of the first two components."""
    reached = bfs(g, g.vertices[:1])
    if len(reached) < len(g):
        missed = next(v for v in g.vertices if v not in reached)
        return PredicateReport(False, (g.vertices[0], missed), "graph is disconnected")
    return PredicateReport(True)


def is_two_connected(g: FiniteGraph) -> PredicateReport:
    if len(g) < 3:
        raise DomainError("2-connectivity is only defined here for >= 3 vertices")
    # Hopcroft-Tarjan without recursion: a stack-based depth-first search,
    # then low points folded up in reverse preorder.  A parent is listed
    # once for each child subtree that only it joins to the rest.
    root = g.vertices[0]
    parent: dict[int, int | None] = {root: None}
    disc: dict[int, int] = {}
    stack = [root]
    while stack:
        u = stack.pop()
        if u not in disc:
            disc[u] = len(disc)
            for w in g.neighbors(u):
                if w not in disc:
                    parent[w] = u
                    stack.append(w)
    if len(disc) < len(g):
        return connected_report(g)
    low = dict(disc)
    cuts = []
    for u in reversed(disc):
        p = parent[u]
        low[u] = min([low[u]] + [disc[w] for w in g.neighbors(u) if w != p])
        if p is not None:
            low[p] = min(low[p], low[u])
            if low[u] >= disc[p]:
                cuts.append(p)
    if cuts.count(root) == 1:  # the root cuts only with two or more children
        cuts.remove(root)
    if cuts:
        v = min(cuts)
        return PredicateReport(False, (v,), f"cutvertex {v}")
    return PredicateReport(True)


def _find_hole(g: FiniteGraph) -> VertexSet | None:
    """An induced cycle on >= 4 vertices, if one exists.

    Each vertex of a hole has two non-adjacent neighbors joined by a path
    avoiding the rest of its closed neighborhood, so scanning those triples
    is a complete search.
    """
    for v in g.vertices:
        nbrs = g.neighbors(v)
        closed = set(nbrs) | {v}
        for a, b in combinations(nbrs, 2):
            if g.has_edge(a, b):
                continue
            allowed = (set(g.vertices) - closed) | {a, b}
            path = shortest_path(g, a, {b}, allowed=allowed)
            if path is not None and len(path) >= 3:
                return tuple(sorted([v] + path))
    return None


def is_chordal(g: FiniteGraph) -> PredicateReport:
    """Maximum cardinality search (Tarjan-Yannakakis).  The graph is chordal
    exactly when the reversed visit order is a perfect elimination order:
    the neighbors each vertex has among those visited before it are all
    adjacent to the last of them.  The witness is an induced long cycle."""
    weight = dict.fromkeys(g.vertices, 0)
    buckets: list[set[int]] = [set(g.vertices)]  # unvisited vertices by weight
    visited: dict[int, int] = {}
    while weight:
        while not buckets[-1]:
            buckets.pop()
        v = buckets[-1].pop()
        del weight[v]
        before = [w for w in g.neighbors(v) if w in visited]
        if before:
            last = max(before, key=visited.__getitem__)
            if any(w != last and not g.has_edge(last, w) for w in before):
                hole = _find_hole(g)
                if hole is None:  # pragma: no cover - PEO failure implies a hole
                    raise AssertionError("elimination order failed but no hole found")
                return PredicateReport(False, hole, f"induced cycle on {len(hole)} vertices")
        visited[v] = len(visited)
        for w in g.neighbors(v):
            if w in weight:
                buckets[weight[w]].remove(w)
                weight[w] += 1
                if weight[w] == len(buckets):
                    buckets.append(set())
                buckets[weight[w]].add(w)
    return PredicateReport(True)


def check_all(g: FiniteGraph) -> dict[str, PredicateReport | None]:
    """Five reports, the CLI `check` payload: claw-freeness and local
    connectivity from one sweep, chordality, 2-connectivity (None below 3
    vertices) and connectivity."""
    claw_free, locally_connected = _local_reports(g)
    out: dict[str, PredicateReport | None] = {
        "claw_free": claw_free,
        "locally_connected": locally_connected,
        "chordal": is_chordal(g),
    }
    out["two_connected"] = is_two_connected(g) if len(g) >= 3 else None
    out["connected"] = connected_report(g)
    return out
