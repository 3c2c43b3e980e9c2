"""Independent oracles used to pin expected values.

Everything here is deliberately written against raw adjacency data with its
own search logic, so a bug in the package cannot hide in the tests.
"""

from __future__ import annotations

import importlib.util
from collections import defaultdict, deque
from functools import cache
from itertools import combinations
from pathlib import Path

from clawham.constructions import _attachment_orbits, _graph_from_key, canonical_key
from clawham.errors import DomainError, InternalConsistencyError, ProgressError
from clawham.extension import (
    ExtensionCase,
    HamiltonCertificate,
    ReplayReport,
    find_path_extension,
    validate_extension,
)
from clawham.graph import (
    CycleEmbedding,
    FiniteGraph,
    edge_key,
    induced_subgraph,
    neighborhood_k,
    validate_cycle,
)
from clawham.predicates import PredicateReport


def adjacency_dict(g: FiniteGraph) -> dict[int, set[int]]:
    return {v: set(g.neighbors(v)) for v in g.vertices}


def bfs_distance_oracle(adj: dict[int, set[int]], sources) -> dict[int, int]:
    dist = {v: 0 for v in sources}
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def neighborhood_oracle(g: FiniteGraph, x, k: int) -> set[int]:
    dist = bfs_distance_oracle(adjacency_dict(g), list(x))
    return {v for v, d in dist.items() if 1 <= d <= k}


def hamilton_cycle_oracle(g: FiniteGraph) -> list[int] | None:
    """Bitmask DP for a Hamilton cycle; None when none exists."""
    verts = list(g.vertices)
    n = len(verts)
    if n < 3:
        return None
    idx = {v: i for i, v in enumerate(verts)}
    masks = [0] * n
    for u, v in g.edges():
        masks[idx[u]] |= 1 << idx[v]
        masks[idx[v]] |= 1 << idx[u]
    full = (1 << n) - 1
    # dp[mask] = bitset of possible last vertices for paths over mask from 0
    dp = [0] * (1 << n)
    dp[1] = 1
    for mask in range(1, 1 << n):
        if not mask & 1:
            continue
        lasts = dp[mask]
        if not lasts:
            continue
        last_bits = lasts
        while last_bits:
            low = last_bits & -last_bits
            i = low.bit_length() - 1
            last_bits ^= low
            ext = masks[i] & ~mask
            while ext:
                elow = ext & -ext
                j = elow.bit_length() - 1
                ext ^= elow
                dp[mask | elow] |= elow
    if not dp[full] & masks[0]:
        return None
    # reconstruct
    order = []
    mask, cur = full, None
    cands = dp[full] & masks[0]
    cur = (cands & -cands).bit_length() - 1
    while mask:
        order.append(verts[cur])
        prev_mask = mask ^ (1 << cur)
        if not prev_mask:
            break
        found = False
        bits = dp[prev_mask] & masks[cur]
        while bits:
            low = bits & -bits
            j = low.bit_length() - 1
            bits ^= low
            cur, mask = j, prev_mask
            found = True
            break
        if not found:
            return None
    order.reverse()
    return order


def is_hamiltonian_oracle(g: FiniteGraph) -> bool:
    return hamilton_cycle_oracle(g) is not None


def has_induced_claw_oracle(g: FiniteGraph) -> bool:
    """Scan all 4-subsets for an induced star with three leaves."""
    adj = adjacency_dict(g)
    for quad in combinations(g.vertices, 4):
        inside = [(a, b) for a, b in combinations(quad, 2) if b in adj[a]]
        if len(inside) != 3:
            continue
        deg = {v: 0 for v in quad}
        for a, b in inside:
            deg[a] += 1
            deg[b] += 1
        if sorted(deg.values()) == [1, 1, 1, 3]:
            return True
    return False


def locally_connected_oracle(g: FiniteGraph) -> bool:
    """Union-find over each open neighborhood."""
    adj = adjacency_dict(g)
    for v in g.vertices:
        nbrs = sorted(adj[v])
        parent = {u: u for u in nbrs}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in combinations(nbrs, 2):
            if b in adj[a]:
                parent[find(a)] = find(b)
        if len({find(u) for u in nbrs}) > 1:
            return False
    return True


def two_connected_oracle(g: FiniteGraph) -> bool:
    adj = adjacency_dict(g)

    def connected_without(skip) -> bool:
        left = [v for v in g.vertices if v not in skip]
        if not left:
            return True
        seen = {left[0]}
        stack = [left[0]]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in skip and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(left)

    if not connected_without(set()):
        return False
    return all(connected_without({v}) for v in g.vertices)


def chordal_oracle(g: FiniteGraph) -> bool:
    """Repeatedly eliminate simplicial vertices; chordal iff all go."""
    adj = adjacency_dict(g)
    alive = set(g.vertices)
    changed = True
    while alive and changed:
        changed = False
        for v in sorted(alive):
            nbrs = [u for u in adj[v] if u in alive]
            if all(b in adj[a] for a, b in combinations(nbrs, 2)):
                alive.discard(v)
                changed = True
                break
    return not alive


def brute_minimal_separators(g: FiniteGraph) -> list[frozenset[int]]:
    """All inclusion-minimal disconnecting vertex sets, by subset scan."""
    adj = adjacency_dict(g)
    verts = list(g.vertices)

    def disconnected_without(skip: frozenset[int]) -> bool:
        left = [v for v in verts if v not in skip]
        if len(left) <= 1:
            return False
        seen = {left[0]}
        stack = [left[0]]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in skip and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) != len(left)

    out = []
    for r in range(1, len(verts) - 1):
        for sub in combinations(verts, r):
            s = frozenset(sub)
            if not disconnected_without(s):
                continue
            if all(disconnected_without(s - {v}) is False for v in s):
                out.append(s)
    return out


def girth_oracle(g: FiniteGraph) -> int | None:
    """Length of a shortest cycle, by BFS from every vertex."""
    adj = adjacency_dict(g)
    best = None
    for root in g.vertices:
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cand = dist[u] + dist[w] + 1
                    best = cand if best is None else min(best, cand)
    return best


def check_claw_witness(g: FiniteGraph, witness) -> bool:
    """The witness must contain a center adjacent to three vertices that are
    pairwise non-adjacent."""
    ws = sorted(witness)
    if len(ws) != 4:
        return False
    for center in ws:
        leaves = [v for v in ws if v != center]
        if all(g.has_edge(center, v) for v in leaves) and not any(
            g.has_edge(a, b) for a, b in combinations(leaves, 2)
        ):
            return True
    return False


def check_local_connectivity_witness(g: FiniteGraph, witness) -> bool:
    """Some witness vertex must have the remaining witness vertices inside
    its neighborhood, spread over at least two components of it."""
    from clawham.predicates import neighborhood_components

    ws = set(witness)
    for center in sorted(ws):
        rest = ws - {center}
        if not rest <= set(g.neighbors(center)):
            continue
        comps = neighborhood_components(g, center)
        touched = {i for i, comp in enumerate(comps) for v in rest if v in set(comp)}
        if len(touched) >= 2:
            return True
    return False


def check_hole_witness(g: FiniteGraph, witness) -> bool:
    """The witness set must induce a cycle on at least 4 vertices."""
    ws = sorted(set(witness))
    if len(ws) < 4:
        return False
    inside = {v: [u for u in g.neighbors(v) if u in set(ws)] for v in ws}
    if any(len(nb) != 2 for nb in inside.values()):
        return False
    seen = {ws[0]}
    stack = [ws[0]]
    while stack:
        u = stack.pop()
        for w in inside[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(ws)


# -- reference splice ----------------------------------------------------------
#
# The whole-cycle rebuild the package used before splices became local:
# remove and add edge keys, reassemble the cycle from its edge set, and
# re-validate all of it.  Differential tests compare the live splice with it.


def cycle_from_edge_set(edges) -> CycleEmbedding | None:
    """Reassemble a single cycle from an edge set, or None if it is not one."""
    adj: dict[int, list[int]] = {}
    count = 0
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
        count += 1
    if not adj or count != len(adj):
        return None
    if any(len(nb) != 2 for nb in adj.values()):
        return None
    start = min(adj)
    order = [start]
    prev, cur = None, start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
        if len(order) > len(adj):
            return None
    if len(order) != len(adj) or len(order) < 3:
        return None
    return CycleEmbedding(order)


def reference_apply(g: FiniteGraph, c: CycleEmbedding, ext) -> CycleEmbedding:
    problems = validate_extension(g, c, ext)
    if problems:
        raise DomainError("invalid path extension: " + "; ".join(problems))
    edges = set(c.edge_set())
    removed: set = set()
    added: set = set()
    path = ext.extension_path
    for b in ext.bridged:
        bs, bp = c.succ(b), c.pred(b)
        removed |= {edge_key(bp, b), edge_key(b, bs)}
        added.add(edge_key(bp, bs))
    added |= {edge_key(u, v) for u, v in zip(path, path[1:])}
    added.add(edge_key(ext.base, ext.target))
    if ext.case is ExtensionCase.ONE:
        removed.add(edge_key(ext.base, path[-1]))
    else:
        removed.add(edge_key(ext.reattach, path[-1]))
        added.add(edge_key(ext.reattach, ext.base))
    new_cycle = cycle_from_edge_set((edges - removed) | added)
    if new_cycle is None or new_cycle.vertex_set != c.vertex_set | set(path):
        raise InternalConsistencyError("splice did not produce a spanning cycle")
    check = validate_cycle(g, new_cycle)
    if not check.ok:
        raise InternalConsistencyError(f"spliced cycle is invalid: {check.reason}")
    near = set(neighborhood_k(g, [ext.base], 2)) | {ext.base}
    for u, v in new_cycle.edge_set() - c.edge_set():
        if u not in near or v not in near:
            raise InternalConsistencyError(f"new edge ({u}, {v}) strays from {ext.base}")
    return new_cycle


def reference_extend_to_cover(g, c, goal, target_pool=None):
    """The sorted-scan covering loop over ``reference_apply``."""
    goalset = frozenset(goal)
    pool = frozenset(g.vertices if target_pool is None else target_pool)
    log, cycle = [], c
    while not goalset <= cycle.vertex_set:
        step = None
        for t in sorted(pool - cycle.vertex_set):
            choices = [b for b in g.neighbors(t) if b in cycle]
            if choices:
                step = (t, min(choices))
                break
        if step is None:
            raise ProgressError("no admissible (target, base) pair")
        ext = find_path_extension(g, cycle, *step)
        cycle = reference_apply(g, cycle, ext)
        log.append(ext)
    return cycle, log


def reference_replay(g: FiniteGraph, cert: HamiltonCertificate) -> ReplayReport:
    check = validate_cycle(g, cert.initial_cycle)
    if not check.ok:
        return ReplayReport(False, 0, "initial cycle invalid")
    cycle = cert.initial_cycle
    for i, ext in enumerate(cert.extensions):
        try:
            cycle = reference_apply(g, cycle, ext)
        except (DomainError, InternalConsistencyError) as exc:
            return ReplayReport(False, i, f"step {i}: {exc}")
    if cycle != cert.cycle or cycle.vertex_set != frozenset(g.vertices):
        return ReplayReport(False, len(cert.extensions), "final cycle differs")
    return ReplayReport(True, len(cert.extensions))


# -- reference traversal and predicates ----------------------------------------
#
# The implementations the package used before all traversal went through
# ``graph.bfs`` and the predicates became linear-time: deque BFS loops, a
# throwaway induced subgraph per connectivity question, vertex-removal
# 2-connectivity, the ``combinations`` claw scan and the quadratic
# lexicographic-BFS elimination order.  Differential tests compare the live
# code with them, report for report.


def reference_components(g: FiniteGraph) -> tuple[tuple[int, ...], ...]:
    seen: set[int] = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def reference_components_within(g: FiniteGraph, x) -> tuple[tuple[int, ...], ...]:
    return reference_components(induced_subgraph(g, x))


def reference_bfs_distances(g: FiniteGraph, sources) -> dict[int, int]:
    src = g.require_subset(sources)
    dist = {v: 0 for v in src}
    queue = deque(sorted(src))
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def reference_shortest_path(g: FiniteGraph, start, goals, allowed=None):
    goalset = frozenset(goals)
    allow = None if allowed is None else frozenset(allowed)
    if allow is not None and start not in allow:
        raise DomainError("start vertex is excluded from the allowed set")
    if start in goalset:
        return [start]
    parent = {start: start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w in parent or (allow is not None and w not in allow):
                continue
            parent[w] = u
            if w in goalset:
                path = [w]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(w)
    return None


def reference_claw_at(g: FiniteGraph, v: int):
    for a, b, c in combinations(g.neighbors(v), 3):
        if not g.has_edge(a, b) and not g.has_edge(a, c) and not g.has_edge(b, c):
            return (a, b, c)
    return None


def reference_is_claw_free(g: FiniteGraph) -> PredicateReport:
    for v in g.vertices:
        triple = reference_claw_at(g, v)
        if triple is not None:
            witness = tuple(sorted((v,) + triple))
            return PredicateReport(False, witness, f"induced claw centered at {v}")
    return PredicateReport(True)


def reference_neighborhood_components(g: FiniteGraph, v: int):
    return reference_components(induced_subgraph(g, g.neighbors(v)))


def reference_is_locally_connected(g: FiniteGraph) -> PredicateReport:
    for v in g.vertices:
        comps = reference_neighborhood_components(g, v)
        if len(comps) > 1:
            witness = tuple(sorted({v} | set(comps[0]) | set(comps[1])))
            return PredicateReport(
                False, witness, f"neighborhood of {v} splits into {len(comps)} parts"
            )
    return PredicateReport(True)


def reference_is_two_connected(g: FiniteGraph) -> PredicateReport:
    if len(g) < 3:
        raise DomainError("2-connectivity is only defined here for >= 3 vertices")
    comps = reference_components(g)
    if len(comps) > 1:
        return PredicateReport(False, (comps[0][0], comps[1][0]), "graph is disconnected")
    for v in g.vertices:
        rest = [u for u in g.vertices if u != v]
        if len(reference_components(induced_subgraph(g, rest))) > 1:
            return PredicateReport(False, (v,), f"cutvertex {v}")
    return PredicateReport(True)


def reference_peo_order(g: FiniteGraph) -> list[int]:
    labels: dict[int, list[int]] = {v: [] for v in g.vertices}
    order: list[int] = []
    remaining = set(g.vertices)
    counter = len(g)
    while remaining:
        v = max(sorted(remaining), key=lambda u: labels[u])
        remaining.discard(v)
        order.append(v)
        for w in g.neighbors(v):
            if w in remaining:
                labels[w].append(counter)
        counter -= 1
    order.reverse()
    return order


def reference_find_hole(g: FiniteGraph):
    for v in g.vertices:
        nbrs = g.neighbors(v)
        closed = set(nbrs) | {v}
        for a, b in combinations(nbrs, 2):
            if g.has_edge(a, b):
                continue
            allowed = (set(g.vertices) - closed) | {a, b}
            path = reference_shortest_path(g, a, {b}, allowed=allowed)
            if path is not None and len(path) >= 3:
                return tuple(sorted([v] + path))
    return None


def reference_is_chordal(g: FiniteGraph) -> PredicateReport:
    order = reference_peo_order(g)
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = [w for w in g.neighbors(v) if pos[w] > i]
        if not later:
            continue
        pivot = min(later, key=lambda w: pos[w])
        for w in later:
            if w != pivot and not g.has_edge(pivot, w):
                hole = reference_find_hole(g)
                return PredicateReport(False, hole, f"induced cycle on {len(hole)} vertices")
    return PredicateReport(True)


def seeded_random_graphs(seed: int = 2024) -> list[FiniteGraph]:
    """Graphs on up to 60 vertices from sparse to dense, plus disconnected
    unions, interval graphs (chordal), chains of blocks (cut vertices) and
    line graphs (claw-free)."""
    import random

    from clawham.constructions import line_graph

    rng = random.Random(seed)

    def gnp(n: int, p: float, offset: int = 0) -> list[tuple[int, int]]:
        return [(offset + i, offset + j) for i in range(n) for j in range(i + 1, n)
                if rng.random() < p]

    out = []
    for n in (5, 9, 16, 30, 45, 60):
        for p in (0.05, 0.12, 0.3, 0.6, 0.9):
            out.append(FiniteGraph(range(n), gnp(n, p)))
        a = rng.randint(2, n - 2)
        out.append(FiniteGraph(range(n), gnp(a, 0.5) + gnp(n - a, 0.5, offset=a)))
        spans = [sorted(rng.sample(range(3 * n), 2)) for _ in range(n)]
        out.append(FiniteGraph(range(n), [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]]))
        # Blocks hung at random earlier vertices, relabelled at random, so
        # the graph has several cut vertices in no particular id order.
        edges, top = [], 1
        while top < n:
            block = [rng.randrange(top)] + list(range(top, min(n, top + rng.randint(1, 5))))
            top = block[-1] + 1
            edges += list(zip(block, block[1:] + block[:1])) if len(block) > 2 else [block]
            edges += [e for e in combinations(block, 2) if rng.random() < 0.3]
        perm = rng.sample(range(n), n)
        out.append(FiniteGraph(range(n), [(perm[a], perm[b]) for a, b in edges]))
        src = FiniteGraph(range(n // 4 + 3), gnp(n // 4 + 3, 0.3))
        if 0 < src.edge_count() <= 60:
            out.append(line_graph(src).graph)
    return out


# -- reference separators --------------------------------------------------------
#
# The trial-and-error separator code the package used before the closed
# forms: a depth-first ``separates``, the greedy shrink that drops each
# candidate in ascending id order while the rest still separates, and the
# minimality test that puts back one separator vertex at a time.


def reference_separates(g: FiniteGraph, blocker, sources, targets) -> bool:
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


def reference_shrink(g: FiniteGraph, c: CycleEmbedding, boundary) -> tuple[int, ...]:
    bset = g.require_subset(boundary)
    cset = c.vertex_set
    if bset & cset:
        raise DomainError("the cycle touches the boundary layer")
    candidate = set(neighborhood_k(g, cset, 1))
    if bset & candidate:
        raise DomainError("the boundary layer is adjacent to the cycle")
    if not reference_separates(g, candidate, cset, bset):
        raise DomainError("the cycle neighborhood does not separate")
    for v in sorted(candidate):
        trial = candidate - {v}
        if reference_separates(g, trial, cset, bset):
            candidate = trial
    return tuple(sorted(candidate))


def reference_is_minimal_separator(g: FiniteGraph, s) -> bool:
    ss = g.require_subset(s)
    if not ss or len(ss) >= len(g):
        return False
    rest = [v for v in g.vertices if v not in ss]
    if not rest or len(reference_components_within(g, rest)) < 2:
        return False
    for v in sorted(ss):
        sub = [u for u in g.vertices if u not in ss or u == v]
        if len(reference_components_within(g, sub)) >= 2:
            return False
    return True


def reference_minimal_separator_components(g: FiniteGraph, s):
    ss = g.require_subset(s)
    if not reference_is_minimal_separator(g, ss):
        raise DomainError(f"{sorted(ss)} is not an inclusion-minimal separator")
    comps = reference_components_within(g, [v for v in g.vertices if v not in ss])
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
        raise InternalConsistencyError("minimal separator leaves more than two components")
    return comps


# -- reference canonical form ----------------------------------------------------
#
# The canonical form the package used before automorphism pruning: the whole
# individualization tree is searched, and refinement ends with a renaming pass.


def reference_refine(n: int, nbrs: list[tuple[int, ...]], colors: tuple[int, ...]) -> tuple[int, ...]:
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(n)
        ]
        mapping = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(mapping[s] for s in sigs)
        if new == colors:
            return colors
        colors = new


def reference_canonical_key(n: int, adj_masks: list[int]) -> int:
    """Canonical upper-triangle adjacency bits, as an integer.

    Works by color refinement and branching on the first non-singleton color
    class; the result is invariant under relabeling.
    """
    if n == 1:
        return 0
    nbrs = [tuple(u for u in range(n) if adj_masks[v] >> u & 1) for v in range(n)]
    best: int | None = None

    def leaf_value(perm: list[int]) -> int:
        bits = 0
        for i in range(n):
            row = adj_masks[perm[i]]
            for j in range(i + 1, n):
                bits = (bits << 1) | (row >> perm[j] & 1)
        return bits

    def descend(colors: tuple[int, ...]) -> None:
        nonlocal best
        cells: dict[int, list[int]] = defaultdict(list)
        for v in range(n):
            cells[colors[v]].append(v)
        target = None
        for color in sorted(cells):
            if len(cells[color]) > 1:
                target = cells[color]
                break
        if target is None:
            perm = sorted(range(n), key=colors.__getitem__)
            value = leaf_value(perm)
            if best is None or value < best:
                best = value
            return
        for v in target:
            split = tuple(
                c * 2 if u != v else c * 2 - 1 for u, c in zip(range(n), colors)
            )
            descend(reference_refine(n, nbrs, split))

    descend(reference_refine(n, nbrs, tuple(0 for _ in range(n))))
    assert best is not None
    return best


@cache
def _reference_level(n: int) -> tuple[tuple[int, ...], dict[int, list[tuple[int, ...]]]]:
    """Keys on n vertices and, per key, the automorphisms its search found."""
    if n == 1:
        return (0,), {}
    prev, parent_autos = _reference_level(n - 1)
    found: dict[int, list[tuple[int, ...]]] = {}
    for key in prev:
        masks = [0] * n
        for u, v in _graph_from_key(n - 1, key).edges():
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        for attach in _attachment_orbits(n - 1, parent_autos.get(key, [])):
            child = list(masks)
            child[n - 1] = attach
            for u in range(n - 1):
                if attach >> u & 1:
                    child[u] |= 1 << (n - 1)
            autos: list[tuple[int, ...]] = []
            found.setdefault(canonical_key(n, child, autos), autos)
    return tuple(sorted(found)), found


def reference_keys_for(n: int) -> list[int]:
    """The generator before its last-cell filter: every attachment orbit
    representative of every parent is keyed."""
    return list(_reference_level(n)[0])


# -- reference good-tuple property (c) ------------------------------------------


def reference_cut_crossings(cycle: CycleEmbedding, m) -> int:
    """How many cycle edges have exactly one end in ``m``, from a membership
    list over the whole cycle order (the count property (c) used before it
    was read from ``m`` alone)."""
    inside = [v in m for v in cycle.order]
    return sum(a != b for a, b in zip(inside, inside[1:] + inside[:1]))


# -- reference engine pieces ----------------------------------------------------
#
# What the engine computed before its checks became local: the separator gap
# as a whole-ball distance, and stable degrees by one scan of the stable
# edges per region vertex.


def reference_set_distance(g: FiniteGraph, a, b) -> int:
    """Distance between vertex sets ``a`` and ``b``; ``len(g) + 1`` when no
    vertex of ``b`` is reachable from ``a``."""
    dist = reference_bfs_distances(g, a)
    return min((dist[v] for v in b if v in dist), default=len(g) + 1)


def reference_stable_degree(stable, region) -> list[tuple[int, int]]:
    """(vertex, degree) for each region vertex whose stable degree is not 2,
    in region order."""
    out = []
    for v in region:
        deg = sum(1 for e in stable if v in e)
        if deg != 2:
            out.append((v, deg))
    return out


@cache
def bench_oracles():
    """``bench/oracles.py``, loaded by path without changing ``sys.path``:
    the ``tri-lattice-line`` and ``tripod-line`` presentations."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- the cactus-line oracle ------------------------------------------------------


def _cactus_triangles(v):
    """The two triangles at vertex v of the 4-regular triangle cactus.
    Vertices are tuples; the root () has the child triangles {(), (0,),
    (1,)} and {(), (2,), (3,)}, and every other v the child triangle
    {v, v + (0,), v + (1,)}."""
    if v == ():
        return (((), (0,), (1,)), ((), (2,), (3,)))
    p, i = v[:-1], v[-1]
    if p == ():
        parent = ((), (0,), (1,)) if i < 2 else ((), (2,), (3,))
    else:
        parent = (p, p + (0,), p + (1,))
    return (parent, (v, v + (0,), v + (1,)))


def _cactus_neighbors(v):
    return {w for tri in _cactus_triangles(v) for w in tri} - {v}


def cactus_line_presentation():
    """The line graph of the 4-regular triangle cactus: every vertex lies in
    exactly two triangles, so the line graph is claw-free, locally connected
    and 6-regular, and it has infinitely many ends."""
    from clawham.constructions import line_graph_of
    from clawham.presentations import GraphPresentation

    return GraphPresentation("cactus-line", line_graph_of(_cactus_neighbors), ((), (0,)))


# -- reference line graphs ---------------------------------------------------------
#
# The line-graph rules the package had before ``constructions.line_graph_of``:
# the finite construction from pairs of incident edges at each vertex, and the
# hand-derived table of the ``ladder-line-graph`` preset with its own labels.


def reference_line_graph(g: FiniteGraph):
    from clawham.constructions import LineGraph

    base_edges = g.edges()
    if not base_edges:
        raise DomainError("line graph of an edgeless graph is undefined here")
    index = {e: i for i, e in enumerate(base_edges)}
    edges = []
    for v in g.vertices:
        incident = [edge_key(v, w) for w in g.neighbors(v)]
        for e, f in combinations(sorted(incident), 2):
            edges.append((index[e], index[f]))
    return LineGraph(FiniteGraph(range(len(base_edges)), set(edges)), base_edges)


def reference_ladder_line_graph_neighbors(vertex):
    """Line graph of the two-way triangular ladder.  Line-graph vertices:
    ('g', i) rung i, ('a', i, s) rail from (i,s) to (i+1,s), ('d', i)
    diagonal from (i,1) to (i+1,0)."""
    kind = vertex[0]
    if kind == "g":
        _, i = vertex
        ends = ((i, 0), (i, 1))
    elif kind == "a":
        _, i, s = vertex
        ends = ((i, s), (i + 1, s))
    elif kind == "d":
        _, i = vertex
        ends = ((i, 1), (i + 1, 0))
    else:
        raise DomainError(f"unknown ladder edge {vertex!r}")
    out = set()
    for i, s in ends:
        # all ladder edges incident to (i, s)
        out.add(("g", i))
        out.add(("a", i, s))
        out.add(("a", i - 1, s))
        if s == 1:
            out.add(("d", i))
        else:
            out.add(("d", i - 1))
    out.discard(vertex)
    return tuple(sorted(out))


def ladder_edge_of(label):
    """The ladder edge, as a sorted pair of ends, that a label of
    ``reference_ladder_line_graph_neighbors`` names."""
    if label[0] == "g":
        return ((label[1], 0), (label[1], 1))
    if label[0] == "a":
        _, i, s = label
        return ((i, s), (i + 1, s))
    return ((label[1], 1), (label[1] + 1, 0))


# -- reference ray separator and decomposition ------------------------------------
#
# The round's separator and decomposition as the package computed them before
# one labelled search did both: the closed-form separator N(R) from a search
# of the outer region, then the components of the whole ball minus it.


def reference_ray_separator(g: FiniteGraph, c: CycleEmbedding, boundary) -> tuple[int, ...]:
    bset = g.require_subset(boundary)
    cset = c.vertex_set
    if bset & cset:
        raise DomainError("the cycle touches the boundary layer")
    x = neighborhood_oracle(g, cset, 1)
    if bset & x:
        raise DomainError("the boundary layer is adjacent to the cycle")
    adj = {v: set(g.neighbors(v)) - x for v in g.vertices if v not in x}
    beyond = bfs_distance_oracle(adj, sorted(bset))
    return tuple(sorted({u for v in beyond for u in g.neighbors(v) if u in x}))


def reference_decompose(g: FiniteGraph, c: CycleEmbedding, separator, boundary):
    from clawham.errors import RadiusTooSmallError
    from clawham.separators import SeparatorDecomposition

    sset = g.require_subset(separator)
    bset = g.require_subset(boundary)
    cset = c.vertex_set
    if sset & cset:
        raise DomainError("separator vertices must avoid the cycle")
    rest = [v for v in g.vertices if v not in sset]
    comps = reference_components_within(g, rest)
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
                suggested_radius=2 * max(1, len(g) // max(1, len(bset))),
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


# -- reference full good-tuple check ----------------------------------------------
#
# The round-end check before it read a set that holds its component whole
# around that component: (e) searches all of m, and (f) intersects m with
# every infinite component.


def reference_check_good_tuple(ctx, cycle: CycleEmbedding, witness_sets) -> list[str]:
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
        if m and len(bfs_distance_oracle({v: g.neighbor_set(v) & m for v in m}, [min(m)])) != len(m):
            problems.append(f"(e) part {j}: witness set induces a disconnected graph")
        for p, compp in enumerate(ctx.component_sets, start=1):
            inter = m & compp
            if inter and inter != compp:
                problems.append(
                    f"(f) part {j}: witness set contains part of component {p} only"
                )
    return problems


# -- reference ball extraction ----------------------------------------------------
#
# ``extract_ball`` before labels got their ids on discovery: answers are kept
# by label, and symmetry is checked by scanning the other end's answer.  A
# label among its own neighbors raises, after the repeat check and before the
# symmetry check of the same label.


def reference_extract_ball(pres, radius: int):
    from clawham.errors import GraphInputError
    from clawham.presentations import MAX_BALL_VERTICES, Ball

    if radius < 1:
        raise DomainError("radius must be >= 1")
    depth = {pres.root: 0}
    answers: dict = {}
    order = [pres.root]
    for u in order:
        answers[u] = nbrs = tuple(pres.neighbors(u))
        if depth[u] == radius:
            continue
        for w in nbrs:
            if w not in depth:
                depth[w] = depth[u] + 1
                order.append(w)
        if len(order) > MAX_BALL_VERTICES:
            raise DomainError(f"a ball of radius {radius} exceeds {MAX_BALL_VERTICES} vertices")
    ids = {label: i for i, label in enumerate(order)}
    edges = []
    interior = []
    boundary = []
    for label in order:
        nbrs = answers[label]
        if len(set(nbrs)) != len(nbrs):
            raise GraphInputError(f"oracle repeats a neighbor at {label!r}")
        if label in nbrs:
            raise GraphInputError(f"oracle gives a self-loop at {label!r}")
        full = True
        for w in nbrs:
            if w in ids:
                if label not in answers[w]:
                    raise GraphInputError(
                        f"oracle is asymmetric on the pair ({label!r}, {w!r})"
                    )
                if ids[label] < ids[w]:
                    edges.append((ids[label], ids[w]))
            else:
                full = False
        if full:
            interior.append(ids[label])
        if depth[label] == radius:
            boundary.append(ids[label])
    return Ball(
        graph=FiniteGraph(range(len(order)), edges),
        boundary=tuple(sorted(boundary)),
        interior=tuple(sorted(interior)),
        labels=tuple(order),
        radius=radius,
        depths=tuple(depth[label] for label in order),
        presentation_name=pres.name,
    )


# -- reference host lookup of extraction condition (iii) --------------------------
#
# Each end proxy's host components as ``check_extraction_conditions`` found
# them before one owner map per round: one set intersection per proxy, round
# and infinite component.


def reference_proxy_chains(rounds, proxies):
    chains = []
    ambiguous = []
    for proxy in proxies:
        pset = set(proxy)
        chain: list[int] = []
        for record in rounds:
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
    return chains, ambiguous


# -- extraction conditions comparing every pair of cycles ------------------------
#
# ``check_extraction_conditions`` and ``stable_edge_set`` as they were before
# condition (iv) and the stable edges kept a running union of the earlier
# cycles' edges: (iv) intersects every pair of cycles i < j, and the stable
# edges are counted per edge.


def reference_stable_edge_set(cycles) -> frozenset:
    seen: dict = {}
    stable = set()
    for c in cycles:
        for e in c.edge_set():
            seen[e] = seen.get(e, 0) + 1
            if seen[e] >= 2:
                stable.add(e)
    return frozenset(stable)


def reference_check_extraction_conditions(state):
    from clawham.engine import (
        ConditionReport,
        ExtractionReport,
        _proxy_chains,
        _witness_cut,
        end_proxies,
    )

    if len(state.rounds) < 2:
        raise DomainError("need at least 2 rounds to check the conditions")
    g = state.graph
    cycles = state.cycles()
    last = len(cycles) - 1

    w1 = []
    for i in range(last):
        lost = cycles[i].vertex_set - cycles[i + 1].vertex_set
        if lost:
            w1.append((i, tuple(sorted(lost))))
    cond1 = ConditionReport(not w1, tuple(w1))

    cuts = {}
    for r, record in enumerate(state.rounds, start=1):
        for j, m in record.witness_sets.items():
            cuts[(r, j)] = _witness_cut(g, record.dec, j, m)

    w2 = []
    bset = set(state.ball.boundary)
    for (r, j), edges in sorted(cuts.items()):
        touching = [e for e in sorted(edges) if e[0] in bset or e[1] in bset]
        if touching:
            w2.append((r, j, tuple(touching)))
    cond2 = ConditionReport(not w2, tuple(w2))

    chains, ambiguous = _proxy_chains(state.rounds, end_proxies(state.ball))
    w3 = []
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
        on_boundary = bset.intersection(proxy)
        for record, j in zip(state.rounds, chain):
            if not on_boundary <= record.witness_sets[j]:
                w3.append(("proxy-escapes", proxy[0], record.index))
    cond3 = ConditionReport(not w3 and not ambiguous, tuple(w3))

    w4 = []
    for j in range(1, last):
        for i in range(j):
            settled = cycles[i].edge_set() & cycles[j].edge_set()
            lost = settled - cycles[j + 1].edge_set()
            if lost:
                w4.append((i, j, tuple(sorted(lost))))
    cond4 = ConditionReport(not w4, tuple(w4))

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

    stable = reference_stable_edge_set(cycles)
    region = state.rounds[-2].dec.finite_component
    degree: dict = {}
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


# -- faulty rounds for the run loop's own checks -----------------------------------
#
# ``run`` checks each round's record after ``cut_lemma_round`` returns it.  A
# correct round passes both checks, so each fault edits the first round's
# record: its cycle drops the input cycle's first vertex, or it records a
# failing conclusion.  Each entry gives the fault and the message it raises.


def _drop_first_input_vertex(record, c) -> None:
    record.cycle = CycleEmbedding([v for v in record.cycle.order if v != c.order[0]])


def _fail_kept_deep_edges(record, c) -> None:
    record.checks["kept_deep_edges"] = False


ROUND_FAULTS = {
    "lost-vertex": (_drop_first_input_vertex, "round 1 lost vertices of the previous cycle"),
    "failing-conclusion": (
        _fail_kept_deep_edges,
        "round 1 recorded failing conclusions: kept_deep_edges",
    ),
}


def inject_round_fault(monkeypatch, kind: str) -> str:
    """Make ``engine.cut_lemma_round`` apply the fault ``kind`` to the record
    of round 1, and return the message ``run`` should raise."""
    import clawham.engine as engine

    fault, message = ROUND_FAULTS[kind]
    original = engine.cut_lemma_round

    def faulty(g, c, dec, index=1):
        record = original(g, c, dec, index=index)
        if index == 1:
            fault(record, c)
        return record

    monkeypatch.setattr(engine, "cut_lemma_round", faulty)
    return message


# -- the per-vertex checks before their early exits -------------------------------
#
# ``claw_at``, ``locally_connected_at`` and ``shortest_cycle_through`` as they
# were before they stopped once their answer was known: the claw scan filters
# each neighbor's later non-neighbors in Python, the flood fill pops every
# neighbor it reaches, and the seed-cycle search runs one BFS per neighbor pair.


def reference_claw_scan(g: FiniteGraph, v: int):
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


def reference_locally_connected_at(g: FiniteGraph, v: int) -> bool:
    nbrs = g.neighbor_set(v)
    if not nbrs:
        return True
    start = g.neighbors(v)[0]
    seen = {start}
    stack = [start]
    while stack:
        for w in g.neighbor_set(stack.pop()) & nbrs:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nbrs)


def reference_shortest_cycle_through(g: FiniteGraph, v: int) -> CycleEmbedding:
    from clawham.graph import shortest_path

    nbrs = g.neighbors(v)
    best = None
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


def finite_family_instances(seed: int = 7) -> list[FiniteGraph]:
    """The finite-families benchmark inputs: P_n^2, L(K_n) and triangular
    ladders at three doubling sizes each, each relabelled by a seeded
    permutation in the order ``bench/workloads.py`` draws them."""
    import random

    from clawham.constructions import (
        complete_graph,
        graph_power,
        line_graph,
        path_graph,
        triangular_ladder,
    )

    rng = random.Random(seed)
    bases = (
        [graph_power(path_graph(n), 2) for n in (64, 128, 256)]
        + [line_graph(complete_graph(n)).graph for n in (8, 12, 16)]
        + [triangular_ladder(rungs) for rungs in (32, 64, 128)]
    )
    out = []
    for g in bases:
        perm = list(range(len(g)))
        rng.shuffle(perm)
        out.append(FiniteGraph(range(len(g)), [(perm[u], perm[v]) for u, v in g.edges()]))
    return out


def dense_neighborhood_graphs() -> list[FiniteGraph]:
    """Graphs whose neighborhoods are large and mostly adjacent, where the
    early exits fire at once: L(K_n) for n = 4..16, L(K_{a,b}) of degree
    7..9, K_n, complete
    multipartite graphs, G(n, 0.9) up to n = 60 and the finite-families
    benchmark inputs."""
    import random

    from clawham.constructions import complete_graph, complete_multipartite, line_graph

    rng = random.Random(90)
    out = [line_graph(complete_graph(n)).graph for n in range(4, 17)]
    # degrees 7, 7, 8, 9: either side of the two-clique cover's gate
    out += [line_graph(complete_multipartite(a, b)).graph
            for a, b in ((3, 6), (4, 5), (5, 5), (5, 6))]
    out += [complete_graph(n) for n in range(1, 17)]
    out += [complete_multipartite(*sizes) for sizes in (
        (1, 1, 1), (2, 2, 2), (3, 3), (1, 5), (1, 2, 3), (2, 3, 4, 5), (4, 4, 4, 4),
        (1, 1, 1, 1, 6), (5, 5, 5, 5, 5))]
    for n in (10, 20, 30, 40, 50, 60):
        out.append(FiniteGraph(range(n), [
            (i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.9]))
    return out + finite_family_instances()
