"""Independent oracles used to pin expected values.

Everything here is deliberately written against raw adjacency data with its
own search logic, so a bug in the package cannot hide in the tests.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

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


def reference_extend_to_cover(g, c, goal, target_pool=None, base_pool=None):
    """The sorted-scan covering loop over ``reference_apply``."""
    goalset = frozenset(goal)
    pool = frozenset(g.vertices if target_pool is None else target_pool)
    bases = None if base_pool is None else frozenset(base_pool)
    log, cycle = [], c
    while not goalset <= cycle.vertex_set:
        step = None
        for t in sorted(pool - cycle.vertex_set):
            choices = [b for b in g.neighbors(t)
                       if b in cycle and (bases is None or b in bases)]
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
