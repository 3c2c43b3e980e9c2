from __future__ import annotations

import re

import pytest

from clawham import presentations
from clawham.errors import DomainError, GraphInputError
from clawham.graph import is_connected
from clawham.predicates import (
    claw_at,
    hypotheses_hold_at,
    is_claw_free,
    locally_connected_at,
)
from clawham.presentations import PRESET_NAMES, GraphPresentation, preset


def test_unknown_preset():
    with pytest.raises(DomainError):
        preset("moebius-kantor")


def test_double_ray_square_ball():
    ball = preset("double-ray-square").extract_ball(5)
    g = ball.graph
    assert is_connected(g)
    # interior is claw-free and locally connected
    for v in ball.interior:
        assert claw_at(g, v) is None
        assert locally_connected_at(g, v)
    # underlying labels are the integers within graph distance 5 of 0
    labels = sorted(ball.labels)
    assert labels == list(range(-10, 11))
    # boundary = both ends of the interval
    assert sorted(ball.label_of(v) for v in ball.boundary) == [-10, -9, 9, 10]


def test_ray_square_ball_root_neighborhood():
    ball = preset("ray-square").extract_ball(5)
    g = ball.graph
    root = 0
    assert ball.label_of(root) == 0
    nbr_labels = sorted(ball.label_of(v) for v in g.neighbors(root))
    assert nbr_labels == [1, 2]
    assert g.has_edge(*g.neighbors(root))  # 1 ~ 2, so the neighborhood is connected


def test_ladder_line_graph_ball_claw_free():
    ball = preset("ladder-line-graph").extract_ball(4)
    assert is_claw_free(ball.graph).holds  # line graphs never contain claws
    for v in ball.interior:
        assert locally_connected_at(ball.graph, v)


def test_custom_oracle_offsets():
    ball = preset("custom-oracle", offsets=(1, 3)).extract_ball(3)
    g = ball.graph
    root_nbrs = sorted(ball.label_of(v) for v in g.neighbors(0))
    assert root_nbrs == [-3, -1, 1, 3]
    # offsets are read by magnitude, and 0 is dropped
    assert preset("custom-oracle", offsets=(-3, 1, 0)).neighbors(0) == (-3, -1, 1, 3)


@pytest.mark.parametrize("offsets, offender", [
    ((0.5, 2.9), "0.5"),  # no longer truncated to (2,)
    ((1, 2.9), "2.9"),
    ((True, "3"), "True"),  # no longer read as (1, 3)
    ((2, "3"), "'3'"),
    ((1, None), "None"),
])
def test_custom_oracle_rejects_non_integer_offsets(offsets, offender):
    with pytest.raises(DomainError, match=f"got {re.escape(offender)}$"):
        preset("custom-oracle", offsets=offsets)


def test_ladder_line_graph_is_the_reference_table_relabelled():
    """The preset is ``line_graph_of`` over the ladder; the hand-derived
    table it replaced gives the same neighbors under ('g', i) -> rung i,
    ('a', i, s) -> rail and ('d', i) -> diagonal, and the same balls."""
    from helpers import ladder_edge_of, reference_ladder_line_graph_neighbors

    new = preset("ladder-line-graph")
    old = GraphPresentation("ladder-line-graph", reference_ladder_line_graph_neighbors, ("g", 0))
    assert new.root == ladder_edge_of(old.root) == ((0, 0), (0, 1))
    for label in old.extract_ball(30).labels:
        want = tuple(sorted(map(ladder_edge_of, old.neighbors(label))))
        assert new.neighbors(ladder_edge_of(label)) == want
    for radius, size in ((5, 39), (30, 239), (100, 799)):
        a, b = old.extract_ball(radius), new.extract_ball(radius)
        assert len(a.graph) == len(b.graph) == size
        assert sorted(map(a.graph.degree, a.graph.vertices)) == sorted(
            map(b.graph.degree, b.graph.vertices))
        assert set(map(ladder_edge_of, a.labels)) == set(b.labels)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_equal_presets_compare_and_hash_equal(name):
    """Each preset's neighbor rule is a module-level function or data, so
    two calls give equal presentations, usable as one dict key."""
    a, b = preset(name), preset(name)
    assert a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1


def test_custom_offsets_compare_by_their_normalised_value():
    base = preset("custom-oracle", offsets=(1, 3))
    assert preset("custom-oracle", offsets=(-3, 0, 1, 3)) == base
    assert hash(preset("custom-oracle", offsets=(3, 1))) == hash(base)
    assert preset("custom-oracle", offsets=(1, 2)) != base
    assert preset("custom-oracle", offsets=(1, 2)) == preset("custom-oracle")
    assert preset("custom-oracle") != preset("double-ray-square")
    assert preset("double-ray-square") != preset("ray-square")


def test_oracle_symmetry_enforced():
    def broken(v):
        return (v + 1,)  # v+1 never lists v back

    pres = GraphPresentation("broken", broken, 0)
    with pytest.raises(GraphInputError):
        pres.extract_ball(2)


def test_interior_vertices_have_full_neighborhoods():
    ball = preset("double-ray-square").extract_ball(4)
    pres = preset("double-ray-square")
    for v in ball.interior:
        oracle_nbrs = set(pres.neighbors(ball.label_of(v)))
        ball_nbrs = {ball.label_of(u) for u in ball.graph.neighbors(v)}
        assert oracle_nbrs == ball_nbrs


def test_ball_over_the_vertex_budget_is_refused(monkeypatch):
    pres = preset("double-ray-square")
    assert len(pres.extract_ball(10).graph) == 41
    monkeypatch.setattr(presentations, "MAX_BALL_VERTICES", 40)
    with pytest.raises(DomainError, match="exceeds 40 vertices"):
        pres.extract_ball(10)
    assert len(pres.extract_ball(9).graph) == 37


def test_oracle_repeating_a_neighbor_is_refused():
    def repeats(v):
        return (v - 1, v + 1, v + 1)

    with pytest.raises(GraphInputError, match="repeats a neighbor"):
        GraphPresentation("repeats", repeats, 0).extract_ball(2)


@pytest.mark.parametrize("name, radius", [("double-ray-square", 6), ("ladder-line-graph", 5)])
def test_extract_ball_asks_the_oracle_once_per_label(name, radius):
    base = preset(name)
    asked = []

    def counted(v):
        asked.append(v)
        return base.neighbors(v)

    ball = GraphPresentation(name, counted, base.root).extract_ball(radius)
    assert sorted(map(repr, asked)) == sorted(map(repr, ball.labels))
    assert ball == base.extract_ball(radius)


def _ball_outcome(extract, pres, radius):
    try:
        return extract(pres, radius)
    except (DomainError, GraphInputError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "name, radius",
    [("double-ray-square", 40), ("ray-square", 40), ("ladder-line-graph", 30),
     ("custom-oracle", 30), ("tri-lattice-line", 13), ("tripod-line", 40),
     ("cactus-line", 9)],
)
def test_extract_ball_matches_reference(name, radius):
    """Ids given on discovery build the same ball as answers kept by label,
    on every preset, both bench oracles and cactus-line.  The graph built
    from the checked neighbor sets answers ``neighbor_set`` as the sorted
    lists do, and on every interior vertex the fused hypothesis verdict
    equals the claw and flood checks it stands for."""
    from helpers import bench_oracles, cactus_line_presentation, reference_extract_ball

    if name in presentations.PRESET_NAMES:
        pres = preset(name)
    elif name == "cactus-line":
        pres = cactus_line_presentation()
    else:
        pres = bench_oracles().presentation(name, 7, radius)[0]
    ball = pres.extract_ball(radius)
    assert ball == reference_extract_ball(pres, radius)
    g = ball.graph
    assert all(g.neighbor_set(v) == frozenset(g.neighbors(v)) for v in g.vertices)
    for v in ball.interior:
        assert hypotheses_hold_at(g, v) == (
            claw_at(g, v) is None and locally_connected_at(g, v)), v


def test_extract_ball_errors_match_reference(monkeypatch):
    """Repeats, self-loops, asymmetry and the vertex budget raise the
    reference's first error, with its message, also where one oracle has
    several faults: per vertex in discovery order, a repeat before a
    self-loop before an asymmetric pair."""
    from helpers import reference_extract_ball

    def faulty(repeat_at=None, drop_at=None, beyond=None, loop_at=None, far_at=None):
        def nbrs(v):
            out = [v - 1, v + 1, v + 2, v - 2]
            if v == drop_at:
                out.remove(v + 1)  # v + 1 still names v: asymmetric
            if v == repeat_at:
                out.append(v - 1)
            if v == beyond:
                out += [v + 1000, v + 1000]  # a repeat beyond the ball
            if v == loop_at:
                out.insert(1, v)
            if v == far_at:
                out += [v + 3, v - 3]  # two asymmetric pairs, v + 3 named first
            return tuple(out)
        return nbrs

    def kind(outcome):
        if not isinstance(outcome, tuple):
            return "ok"
        return next(k for k in ("repeats", "self-loop", "asymmetric", "exceeds")
                    if k in outcome[1])

    # loop_at 4 lies on the boundary at radius 2 and inside it at 3 and 4,
    # where drop_at 3 makes it asymmetric too, and drop_at 3 makes 4, found
    # before 5, asymmetric; -7 lies beyond radius 3, so its loop is never
    # asked about there.  far_at 1 names 4 before -2, which got the smaller
    # id.
    cases = [dict(repeat_at=3, drop_at=5), dict(repeat_at=5, drop_at=3), dict(drop_at=4),
             dict(beyond=6), dict(), dict(repeat_at=-4, beyond=6), dict(loop_at=4),
             dict(repeat_at=4, loop_at=4), dict(drop_at=3, loop_at=4),
             dict(drop_at=3, loop_at=5), dict(loop_at=-7), dict(repeat_at=-3, loop_at=2),
             dict(far_at=1), dict(far_at=-1), dict(far_at=2, loop_at=2)]
    outcomes = set()
    for case in cases:
        pres = GraphPresentation("faulty", faulty(**case), 0)
        for radius in (2, 3, 4):
            want = _ball_outcome(reference_extract_ball, pres, radius)
            assert _ball_outcome(GraphPresentation.extract_ball, pres, radius) == want
            outcomes.add(kind(want))
        monkeypatch.setattr(presentations, "MAX_BALL_VERTICES", 6)
        want = _ball_outcome(reference_extract_ball, pres, 4)
        assert want[0] is DomainError
        assert _ball_outcome(GraphPresentation.extract_ball, pres, 4) == want
        monkeypatch.undo()
    assert outcomes == {"ok", "repeats", "self-loop", "asymmetric"}


def test_extract_ball_refuses_a_self_loop():
    pres = GraphPresentation("loop", lambda v: (v - 1, v + 1, v), 0)
    with pytest.raises(GraphInputError) as exc:
        pres.extract_ball(3)
    assert str(exc.value) == "oracle gives a self-loop at 0"
