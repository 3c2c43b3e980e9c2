"""Hypothesis predicates with failure witnesses.

Every check returns a PredicateReport; when the property fails the report
carries a vertex set that re-checks as a genuine violation using only the
graph-core primitives.

Costs for n vertices, m edges and maximum degree d; the witnesses are
unchanged from the plain definitions:

* ``is_claw_free``: the pair scan keeps, at C level, each neighbor a's r_a
  later non-neighbors in N(v), then tests them in turn against the rest of
  that list: sum of r_a^2 membership tests at v, which is about d^3 / 8 when
  N(v) is two disjoint cliques of d / 2 (a claw-free line-graph
  neighborhood), so O(n d^3) in all.  From degree ``_COVER_MIN_DEGREE`` on,
  ``claw_at`` first tries to split N(v) into two cliques, which proves v
  claw-free with O(d) C-level set operations, O(d^2) membership tests; every
  neighborhood of a line graph has such a split (Krausz, 1943).  The
  witness, the lexicographically first claw, always comes from the scan.
* ``is_locally_connected``: O(n d^2) at worst, one flood fill over each
  N(v) by set differences that stops as soon as it has reached all of N(v)
  (on L(K_n) after two or three steps); only the first vertex that fails
  pays for listing its neighborhood components.
* ``hypotheses_hold_at``, both of the above at one vertex with no witness:
  from degree ``_COVER_MIN_DEGREE`` on, a two-clique split that succeeds
  also decides local connectivity, with O(d) more C-level set operations
  and no flood fill, so a line-graph vertex costs one split; elsewhere the
  pair scan and the flood fill.
* ``is_two_connected``: O(n + m), Hopcroft-Tarjan without recursion; the
  smallest cut vertex.
* ``is_chordal``: O(n + m), maximum cardinality search; only a non-chordal
  graph pays for the hole search behind its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, filterfalse
from typing import Iterable

from .errors import DomainError
from .graph import (
    FiniteGraph,
    VertexSet,
    components_within,
    is_connected,
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


# The least degree at which ``claw_at`` and ``hypotheses_hold_at`` first try
# the two-clique cover.
# Below it the cover's fixed set-up outweighs the scan it saves.  Per vertex
# on L(K_{a,b}) and L(K_n), CPython 3.11 on a shared 2-core Xeon VM, the cover
# took 1.0-1.4x the scan's time at degree 6, 0.75-1.05x at degrees 7 and 8,
# 0.55-0.9x at degree 10 and 0.25x at degree 28.
_COVER_MIN_DEGREE = 7


def _is_clique(s: frozenset[int], neighbor_sets: Iterable[frozenset[int]]) -> bool:
    """Whether s is a clique, given the neighbor sets of its members: each x
    in s misses only itself, so the sizes of s - N(x) add up to |s|."""
    return sum(map(len, map(s.difference, neighbor_sets))) == len(s)


def _two_clique_split(g: FiniteGraph, v: int) -> tuple[bool, bool | None]:
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
    """
    neighbor_set = g.neighbor_set
    around = neighbor_set(v)
    a = g.neighbors(v)[0]
    na = neighbor_set(a)
    q = around.difference(na, (a,))
    if not q:
        return False, True
    b = min(q)
    nb = neighbor_set(b)
    p = around.difference(nb, (b,))
    p_sets = list(map(neighbor_set, p))
    if not _is_clique(p, p_sets):
        return False, None
    common = around.intersection(na, nb)
    joins_p = common.intersection(*p_sets)
    if len(joins_p) > 1 and not _is_clique(joins_p, map(neighbor_set, joins_p)):
        return False, None
    q = q.union(common.difference(joins_p))
    if not _is_clique(q, map(neighbor_set, q)):
        return False, None
    return True, bool(common) or not all(map(q.isdisjoint, p_sets))


def _claw_scan(g: FiniteGraph, v: int) -> tuple[int, int, int] | None:
    """The pair scan: the lexicographically first claw at v, or None."""
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


def claw_at(g: FiniteGraph, v: int) -> tuple[int, int, int] | None:
    """Three pairwise non-adjacent neighbors of v, lexicographically first.

    From degree ``_COVER_MIN_DEGREE`` on, a two-clique cover of N(v) (every
    neighborhood of a line graph has one) proves there is none; otherwise
    the pair scan decides, and only it names a claw."""
    if len(g.neighbors(v)) >= _COVER_MIN_DEGREE and _two_clique_split(g, v)[0]:
        return None
    return _claw_scan(g, v)


def is_claw_free(g: FiniteGraph) -> PredicateReport:
    for v in g.vertices:
        triple = claw_at(g, v)
        if triple is not None:
            witness = tuple(sorted((v,) + triple))
            return PredicateReport(False, witness, f"induced claw centered at {v}")
    return PredicateReport(True)


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


def hypotheses_hold_at(g: FiniteGraph, v: int) -> bool:
    """Whether v centers no claw and G[N(v)] is connected: the value of
    ``claw_at(g, v) is None and locally_connected_at(g, v)``, with no
    witness.  From degree ``_COVER_MIN_DEGREE`` on, a two-clique split of
    N(v) that succeeds decides both, and one that finds the first neighbor
    adjacent to all of N(v) decides local connectivity; the pair scan and the
    flood fill decide what is left."""
    connected = None
    if len(g.neighbors(v)) >= _COVER_MIN_DEGREE:
        covered, connected = _two_clique_split(g, v)
        if covered:
            return connected
    if connected is None:
        connected = locally_connected_at(g, v)
    return connected and _claw_scan(g, v) is None


def is_locally_connected(g: FiniteGraph) -> PredicateReport:
    for v in g.vertices:
        if not locally_connected_at(g, v):
            comps = neighborhood_components(g, v)
            witness = tuple(sorted({v} | set(comps[0]) | set(comps[1])))
            return PredicateReport(
                False, witness, f"neighborhood of {v} splits into {len(comps)} parts"
            )
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
        other = min(v for v in g.vertices if v not in disc)
        return PredicateReport(False, (root, other), "graph is disconnected")
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
    """The four hypothesis predicates and connectivity in one sweep: five
    reports, ``two_connected`` None below 3 vertices (CLI `check` payload)."""
    out: dict[str, PredicateReport | None] = {
        "claw_free": is_claw_free(g),
        "locally_connected": is_locally_connected(g),
        "chordal": is_chordal(g),
    }
    out["two_connected"] = is_two_connected(g) if len(g) >= 3 else None
    out["connected"] = PredicateReport(is_connected(g))
    return out
