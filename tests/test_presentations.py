from __future__ import annotations

import pytest

from clawham import presentations
from clawham.errors import DomainError, GraphInputError
from clawham.graph import is_connected
from clawham.predicates import claw_at, is_claw_free, locally_connected_at
from clawham.presentations import GraphPresentation, preset


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
