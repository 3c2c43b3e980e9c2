"""Benchmark-side neighbor oracles and the wrappers that count and reorder
their answers.

The two oracles below extend the engine's test surface beyond the built-in
one-dimensional presets without touching ``clawham.presentations``:

* ``tri-lattice-line`` is the line graph of the triangular lattice: one end
  and two-dimensional growth, so truncation balls and cycles get large.
* ``tripod-line`` is the line graph of three one-way triangular ladders
  glued around a central triangle: three ends, so every round splits the
  separator into k = 3 parts.

Every edge of both base graphs lies in a triangle, so both line graphs are
connected, claw-free and locally connected.
"""

from __future__ import annotations

import zlib

from clawham import GraphPresentation, preset

# Triangular-lattice steps; the first three name the canonical edge
# directions, the last three are their reverses.
_TRI_STEPS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _tri_edge(x: int, y: int, j: int) -> tuple[int, int, int]:
    """Canonical label of the lattice edge leaving (x, y) by step j."""
    if j < 3:
        return (x, y, j)
    dx, dy = _TRI_STEPS[j]
    return (x + dx, y + dy, j - 3)


def _tri_lattice_line_neighbors(edge):
    x, y, k = edge
    dx, dy = _TRI_STEPS[k]
    out = {_tri_edge(px, py, j) for px, py in ((x, y), (x + dx, y + dy)) for j in range(6)}
    out.discard(edge)
    return tuple(sorted(out))


def _tripod_canonical(v):
    # Rung 0 of arm a is the central-triangle side T_a T_{a+1}; its second
    # end is stored under arm a + 1.
    a, i, s = v
    return ((a + 1) % 3, 0, 0) if i == 0 and s == 1 else v


def _tripod_arm_neighbors(a: int, i: int, s: int):
    """Neighbors of (a, i, s) inside the one-way triangular ladder of arm a:
    rung, rails and the diagonal (i, 1)-(i + 1, 0)."""
    out = [(a, i, 1 - s), (a, i + 1, s)]
    if i > 0:
        out.append((a, i - 1, s))
    out.append((a, i + 1, 0) if s == 1 else (a, i - 1, 1))
    return [w for w in out if w[1] >= 0]


def _tripod_neighbors(v):
    a, i, s = v
    if i == 0:
        # a central vertex is (a, 0, 0) of arm a and (a - 1, 0, 1) of arm a - 1
        raw = _tripod_arm_neighbors(a, 0, 0) + _tripod_arm_neighbors((a - 1) % 3, 0, 1)
    else:
        raw = _tripod_arm_neighbors(a, i, s)
    return {_tripod_canonical(w) for w in raw} - {v}


def _tripod_line_neighbors(edge):
    u, v = edge
    out = {tuple(sorted((u, w))) for w in _tripod_neighbors(u) if w != v}
    out |= {tuple(sorted((v, w))) for w in _tripod_neighbors(v) if w != u}
    return tuple(sorted(out))


class CountedOracle:
    """A neighbor function that counts its calls and returns its answers in
    a seeded order.

    The order decides the ids ``extract_ball`` assigns, so each seed hands
    the engine a different labelling of the same graph.  The ordered answers
    for every label within ``radius`` of ``root`` are tabulated at set-up,
    which is every label ``extract_ball(radius)`` asks about; a call is then
    a count and a table lookup, so neither the oracle rule nor the
    reordering is timed as the engine's work.
    """

    def __init__(self, neighbors, root, radius: int, seed: int):
        self._neighbors = neighbors
        salt = zlib.crc32(str(seed).encode())
        keys: dict = {}

        def key(label) -> int:
            if label not in keys:
                keys[label] = zlib.crc32(repr(label).encode(), salt)
            return keys[label]

        self._table = {}
        depth = {root: 0}
        queue = [root]
        for u in queue:
            nbrs = self._table[u] = tuple(sorted(neighbors(u), key=key))
            if depth[u] < radius:
                for w in nbrs:
                    if w not in depth:
                        depth[w] = depth[u] + 1
                        queue.append(w)
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        return self._table[v]

    def adjacent(self, u, v) -> bool:
        """Adjacency straight from the defining rule, uncounted, for checks."""
        return v in self._neighbors(u)


def presentation(name: str, seed: int, radius: int) -> tuple[GraphPresentation, CountedOracle]:
    """The named presentation with a counted, seed-ordered neighbor function
    that answers for labels within ``radius`` of the root.

    ``tri-lattice-line`` and ``tripod-line`` are defined here; other names
    are ``clawham`` presets.  For ``tri-lattice-line`` the seed also picks
    the root edge among the six lattice directions at the origin.
    """
    if name == "tri-lattice-line":
        neighbors, root = _tri_lattice_line_neighbors, _tri_edge(0, 0, seed % 6)
    elif name == "tripod-line":
        neighbors, root = _tripod_line_neighbors, ((0, 0, 0), (1, 0, 0))
    else:
        base = preset(name)
        neighbors, root = base.neighbors, base.root
    oracle = CountedOracle(neighbors, root, radius, seed)
    return GraphPresentation(name, oracle, root), oracle
