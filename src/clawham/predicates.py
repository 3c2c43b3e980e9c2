"""Hypothesis predicates with failure witnesses.

Every check returns a PredicateReport; when the property fails the report
carries a vertex set that re-checks as a genuine violation using only the
graph-core primitives.

Costs for n vertices, m edges and maximum degree d; the witnesses are
unchanged from the plain definitions:

* ``is_claw_free``: O(n d^2) steps plus an O(d) subset test per
  non-adjacent pair of neighbors; the lexicographically first claw.
* ``is_locally_connected``: O(m d), one ``components_within`` per vertex.
* ``is_two_connected``: O(n + m), Hopcroft-Tarjan without recursion; the
  smallest cut vertex.
* ``is_chordal``: O(n + m), maximum cardinality search; only a non-chordal
  graph pays for the hole search behind its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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


def claw_at(g: FiniteGraph, v: int) -> tuple[int, int, int] | None:
    """Three pairwise non-adjacent neighbors of v, lexicographically first."""
    nbrs = g.neighbors(v)
    for i in range(len(nbrs) - 2):
        a = nbrs[i]
        na = g.neighbor_set(a)
        rest = [b for b in nbrs[i + 1 :] if b not in na]
        while len(rest) > 1:
            b = rest.pop(0)
            nb = g.neighbor_set(b)
            if not nb.issuperset(rest):
                return (a, b, next(c for c in rest if c not in nb))
    return None


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
    """Whether G[N(v)] is connected; empty and singleton neighborhoods count."""
    return len(neighborhood_components(g, v)) <= 1


def is_locally_connected(g: FiniteGraph) -> PredicateReport:
    for v in g.vertices:
        comps = neighborhood_components(g, v)
        if len(comps) > 1:
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
    """The four hypothesis predicates in one sweep (CLI `check` payload)."""
    out: dict[str, PredicateReport | None] = {
        "claw_free": is_claw_free(g),
        "locally_connected": is_locally_connected(g),
        "chordal": is_chordal(g),
    }
    out["two_connected"] = is_two_connected(g) if len(g) >= 3 else None
    out["connected"] = PredicateReport(is_connected(g))
    return out
