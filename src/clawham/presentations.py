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
from itertools import repeat
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
        it is discovered, so every answer becomes one set of neighbor ids as
        it arrives, leaving out labels beyond the ball.  Each vertex in
        discovery order is then checked on its set: the oracle must not
        repeat a neighbor, list the vertex itself or name an in-ball
        neighbor that does not name it back, and the returned neighbor lists
        must be finite (local finiteness).  The checked sets become the
        graph as they are, with no edge list sorted and validated again.  A
        ball with more than ``MAX_BALL_VERTICES`` vertices is refused.
        """
        if not isinstance(radius, int) or isinstance(radius, bool):
            raise DomainError(f"radius must be an integer, got {radius!r}")
        if radius < 1:
            raise DomainError("radius must be >= 1")
        ids = {self.root: 0}
        order = [self.root]  # discovery order, scanned as the BFS queue
        depths = [0]
        answers: list[tuple] = []  # the oracle's answer per id
        sets: list[frozenset[int]] = []  # in-ball neighbor ids per id
        interior = []
        for i, u in enumerate(order):
            nbrs = tuple(self.neighbors(u))
            answers.append(nbrs)
            row = list(map(ids.get, nbrs))  # None for a label without an id yet
            if None not in row:
                interior.append(i)
            elif depths[i] == radius:  # a neighbor lies beyond the ball
                row = [j for j in row if j is not None]
            else:
                for k, j in enumerate(row):
                    if j is None:
                        w = nbrs[k]
                        j = ids.get(w)  # not None when w repeats a label found here
                        if j is None:
                            j = ids[w] = len(order)
                            order.append(w)
                            depths.append(depths[i] + 1)
                        row[k] = j
                if len(order) > MAX_BALL_VERTICES:
                    raise DomainError(f"a ball of radius {radius} exceeds {MAX_BALL_VERTICES} vertices")
                interior.append(i)
            # copied from a set, a frozenset's table fits its members; built
            # straight from 5 to 7 of them it would be half as large again
            sets.append(frozenset(set(row)))
        for i, s in enumerate(sets):
            nbrs = answers[i]
            # fewer ids than labels: a repeat, or labels beyond the ball
            if len(s) != len(nbrs) and len(set(nbrs)) != len(nbrs):
                raise GraphInputError(f"oracle repeats a neighbor at {order[i]!r}")
            if i in s:
                raise GraphInputError(f"oracle gives a self-loop at {order[i]!r}")
            if not all(map(frozenset.__contains__, map(sets.__getitem__, s), repeat(i))):
                j = next(ids[w] for w in nbrs if w in ids and i not in sets[ids[w]])
                raise GraphInputError(
                    f"oracle is asymmetric on the pair ({order[i]!r}, {order[j]!r})"
                )
        boundary = [i for i, d in enumerate(depths) if d == radius]
        return Ball(
            graph=FiniteGraph._from_neighbor_sets(sets),
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
