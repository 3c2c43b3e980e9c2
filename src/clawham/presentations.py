"""Neighbor-oracle presentations of locally finite graphs and their
truncation balls.

A presentation is a total neighbor function over hashable vertex labels
plus a root.  Extracting a ball materializes the finite graph induced on
all vertices within a given graph distance of the root, relabeled to dense
non-negative ids in BFS discovery order.  The last BFS layer is the
boundary; components of the boundary act as stand-ins for the ends of the
infinite graph.

The built-in presets are squares of the double ray and the ray, integer
lattices with custom offsets, and ``ladder-line-graph``: the line graph of
the two-way triangular ladder, built by ``constructions.line_graph_of``.
Its labels are sorted pairs of ladder vertices (i, s), and its root is
rung 0, ((0, 0), (0, 1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from .constructions import line_graph_of
from .errors import DomainError, GraphInputError
from .graph import FiniteGraph, VertexSet

# Largest ball ``extract_ball`` builds: about 12 times the largest preset,
# test or benchmark ball, so an oversized radius fails fast.
MAX_BALL_VERTICES = 100_000


@dataclass(frozen=True)
class GraphPresentation:
    """Oracle description of a locally finite graph."""

    name: str
    neighbors: Callable[[Hashable], tuple]
    root: Hashable

    def extract_ball(self, radius: int) -> "Ball":
        """Materialize the ball of the given graph-distance radius.

        The oracle is asked once per label, and each label gets its id when
        it is discovered, so every answer is mapped to ids once, as it
        arrives (None for a label beyond the ball).  Symmetry of the oracle
        is verified on every in-ball edge against the ids of the other end's
        answer, and the returned neighbor lists must be finite (local
        finiteness).  A ball with more than ``MAX_BALL_VERTICES`` vertices is
        refused.
        """
        if radius < 1:
            raise DomainError("radius must be >= 1")
        ids = {self.root: 0}
        order = [self.root]  # discovery order, scanned as the BFS queue
        depths = [0]
        rows: list[tuple] = []  # neighbor ids per id, None beyond the ball
        repeats: list[bool] = []
        for i, u in enumerate(order):
            nbrs = tuple(self.neighbors(u))
            if depths[i] < radius:
                row = []
                for w in nbrs:
                    j = ids.setdefault(w, len(order))
                    if j == len(order):
                        order.append(w)
                        depths.append(depths[i] + 1)
                    row.append(j)
                if len(order) > MAX_BALL_VERTICES:
                    raise DomainError(f"a ball of radius {radius} exceeds {MAX_BALL_VERTICES} vertices")
                rows.append(tuple(row))
                repeats.append(len(set(row)) != len(row))
            else:
                rows.append(tuple(map(ids.get, nbrs)))
                repeats.append(len(set(nbrs)) != len(nbrs))
        edges = []
        interior = []
        for i, row in enumerate(rows):
            if repeats[i]:
                raise GraphInputError(f"oracle repeats a neighbor at {order[i]!r}")
            for j in row:
                if j is None:
                    continue
                if i not in rows[j]:
                    raise GraphInputError(
                        f"oracle is asymmetric on the pair ({order[i]!r}, {order[j]!r})"
                    )
                if i < j:
                    edges.append((i, j))
            if None not in row:
                interior.append(i)
        boundary = [i for i, d in enumerate(depths) if d == radius]
        graph = FiniteGraph(range(len(order)), edges)
        return Ball(
            graph=graph,
            boundary=tuple(boundary),
            interior=tuple(interior),
            labels=tuple(order),
            radius=radius,
            depths=tuple(depths),
            presentation_name=self.name,
        )


@dataclass(frozen=True)
class Ball:
    """A truncation ball: finite graph, boundary layer and label map."""

    graph: FiniteGraph
    boundary: VertexSet
    interior: VertexSet
    labels: tuple
    radius: int
    depths: tuple[int, ...]
    presentation_name: str = ""

    def label_of(self, v: int):
        return self.labels[v]

    def depth_of(self, v: int) -> int:
        return self.depths[v]


# -- built-in presentations ---------------------------------------------------


@dataclass(frozen=True)
class _IntegerLattice:
    """Neighbors v ± d for each offset d, kept ≥ 0 when ``one_way``; data,
    so that equal rules compare and hash equal."""

    offsets: tuple[int, ...]
    one_way: bool = False

    def __call__(self, v) -> tuple:
        out = {w for d in self.offsets for w in (v - d, v + d)}
        return tuple(sorted(w for w in out if w >= 0 or not self.one_way))


def _ladder_neighbors(v):
    """The two-way triangular ladder: vertices (i, 0) and (i, 1), joined by
    rung i, the two rails and one diagonal (i, 1)-(i + 1, 0) per square, so
    every edge lies in a triangle and the line graph is locally connected."""
    i, s = v
    return ((i, 1 - s), (i - 1, s), (i + 1, s), (i + 1, 0) if s else (i - 1, 1))


_ladder_line_neighbors = line_graph_of(_ladder_neighbors)

PRESET_NAMES = ("double-ray-square", "ray-square", "ladder-line-graph", "custom-oracle")


def preset(name: str, offsets: Iterable[int] = (1, 2)) -> GraphPresentation:
    """Built-in presentations, equal when built alike; ``offsets`` only
    applies to custom-oracle."""
    if name == "double-ray-square":
        return GraphPresentation(name, _IntegerLattice((1, 2)), 0)
    if name == "ray-square":
        return GraphPresentation(name, _IntegerLattice((1, 2), one_way=True), 0)
    if name == "ladder-line-graph":
        return GraphPresentation(name, _ladder_line_neighbors, ((0, 0), (0, 1)))
    if name == "custom-oracle":
        offsets = tuple(offsets)
        for d in offsets:
            if not isinstance(d, int) or isinstance(d, bool):
                raise DomainError(f"offsets must be integers, got {d!r}")
        offs = tuple(sorted({abs(d) for d in offsets} - {0}))
        if not offs:
            raise DomainError("offsets must contain a non-zero value")
        return GraphPresentation(name, _IntegerLattice(offs), 0)
    raise DomainError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
