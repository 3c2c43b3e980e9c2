"""Neighbor-oracle presentations of locally finite graphs and their
truncation balls.

A presentation is a total neighbor function over hashable vertex labels
plus a root.  Extracting a ball materializes the finite graph induced on
all vertices within a given graph distance of the root, relabeled to dense
non-negative ids in BFS discovery order.  The last BFS layer is the
boundary; components of the boundary act as stand-ins for the ends of the
infinite graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

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

        Symmetry of the oracle is verified on every in-ball edge and the
        returned neighbor lists must be finite (local finiteness).  A ball
        with more than ``MAX_BALL_VERTICES`` vertices is refused.
        """
        if radius < 1:
            raise DomainError("radius must be >= 1")
        depth = {self.root: 0}
        order = [self.root]  # discovery order, scanned as the BFS queue
        for u in order:
            if depth[u] == radius:
                continue
            for w in self.neighbors(u):
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
            nbrs = tuple(self.neighbors(label))
            if len(set(nbrs)) != len(nbrs):
                raise GraphInputError(f"oracle repeats a neighbor at {label!r}")
            full = True
            for w in nbrs:
                if w in ids:
                    if label not in self.neighbors(w):
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
        graph = FiniteGraph(range(len(order)), edges)
        return Ball(
            graph=graph,
            boundary=tuple(sorted(boundary)),
            interior=tuple(sorted(interior)),
            labels=tuple(order),
            radius=radius,
            depths=tuple(depth[label] for label in order),
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


def _integer_lattice(offsets: tuple[int, ...], one_way: bool) -> Callable:
    offs = tuple(sorted(set(abs(int(d)) for d in offsets) - {0}))
    if not offs:
        raise DomainError("offsets must contain a non-zero value")

    def nbrs(v):
        out = []
        for d in offs:
            for w in (v - d, v + d):
                if one_way and w < 0:
                    continue
                out.append(w)
        return tuple(sorted(set(out)))

    return nbrs


def _ladder_line_graph_neighbors(vertex):
    """Line graph of the two-way triangular ladder.

    Ladder vertices are (i, 0) and (i, 1); edges are the rungs, the two
    rails and a diagonal per square, so every ladder edge lies in a
    triangle and the line graph is locally connected.  Line-graph vertices:
    ('g', i) rung i, ('a', i, s) rail from (i,s) to (i+1,s), ('d', i)
    diagonal from (i,1) to (i+1,0).
    """
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


PRESET_NAMES = ("double-ray-square", "ray-square", "ladder-line-graph", "custom-oracle")


def preset(name: str, offsets: Iterable[int] = (1, 2)) -> GraphPresentation:
    """Built-in presentations; ``offsets`` only applies to custom-oracle."""
    if name == "double-ray-square":
        return GraphPresentation(name, _integer_lattice((1, 2), one_way=False), 0)
    if name == "ray-square":
        return GraphPresentation(name, _integer_lattice((1, 2), one_way=True), 0)
    if name == "ladder-line-graph":
        return GraphPresentation(name, _ladder_line_graph_neighbors, ("g", 0))
    if name == "custom-oracle":
        return GraphPresentation(name, _integer_lattice(tuple(offsets), one_way=False), 0)
    raise DomainError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
