from __future__ import annotations

import pytest

from clawham.constructions import enumerate_graphs
from clawham.graph import FiniteGraph
from clawham.predicates import is_claw_free, is_locally_connected


def double_ray_square_truncation(lo: int, hi: int) -> tuple[FiniteGraph, dict[int, int]]:
    """Integers lo..hi with i ~ j iff 1 <= |i - j| <= 2, shifted to ids
    0..hi-lo.  Returns the graph and the map original -> id."""
    ids = {i: i - lo for i in range(lo, hi + 1)}
    edges = []
    for i in range(lo, hi + 1):
        for d in (1, 2):
            if i + d <= hi:
                edges.append((ids[i], ids[i + d]))
    return FiniteGraph(ids.values(), edges), ids


@pytest.fixture(scope="session")
def small_graphs():
    """All graphs up to 7 vertices, one per isomorphism class."""
    return {n: enumerate_graphs(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def graphs_on_eight():
    """All 12346 graphs on 8 vertices, one per isomorphism class.  The
    enumeration builds new graphs on every call, so the tests that need
    them share this list."""
    return enumerate_graphs(8)


@pytest.fixture(scope="session")
def connected_small_graphs(small_graphs):
    return {n: [g for g in small_graphs[n] if _connected(g)] for n in range(1, 8)}


def _connected(g: FiniteGraph) -> bool:
    from clawham.graph import is_connected

    return is_connected(g)


@pytest.fixture(scope="session")
def hypothesis_class_small(connected_small_graphs):
    """Connected, locally connected, claw-free graphs on 3..7 vertices."""
    out = []
    for n in range(3, 8):
        for g in connected_small_graphs[n]:
            if is_claw_free(g).holds and is_locally_connected(g).holds:
                out.append(g)
    return out
