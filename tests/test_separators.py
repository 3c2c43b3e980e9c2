from __future__ import annotations

import random
from itertools import combinations

import pytest

from clawham.constructions import cycle_graph, glued_triangles, path_graph
from clawham.engine import run
from clawham.errors import (
    ClawhamError,
    DomainError,
    InternalConsistencyError,
    RadiusTooSmallError,
)
from clawham.graph import CycleEmbedding, FiniteGraph, components_within
from clawham.predicates import is_claw_free
from clawham.presentations import PRESET_NAMES, preset
from clawham.separators import (
    check_complete_neighborhood,
    is_minimal_separator,
    minimal_separator_components,
    separates,
    split_cycle,
)
from conftest import double_ray_square_truncation
from helpers import (
    assert_carry_matches_scratch,
    brute_minimal_separators,
    reference_is_minimal_separator,
    reference_minimal_separator_components,
    reference_decompose,
    reference_separates,
    reference_shrink,
)


def decomposition(g, c, boundary):
    """The decomposition of the cycle ``c`` that ``split_cycle`` computes from scratch."""
    return split_cycle(g, c, boundary).dec


def outcome(f, *args):
    """The value of f(*args), or the class, message and witness it raised."""
    try:
        return f(*args)
    except ClawhamError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def test_minimal_separator_components_paths_and_gluings():
    p3 = path_graph(3)
    assert minimal_separator_components(p3, [1]) == ((0,), (2,))
    g = glued_triangles()  # triangles share the edge 0-1
    comps = minimal_separator_components(g, [0, 1])
    assert comps == ((2,), (3,))
    c4 = cycle_graph(4)
    assert minimal_separator_components(c4, [0, 2]) == ((1,), (3,))


def test_minimal_separator_precondition_checked():
    with pytest.raises(DomainError):
        minimal_separator_components(path_graph(4), [0])  # not a separator
    with pytest.raises(DomainError):
        minimal_separator_components(path_graph(4), [1, 2])  # not minimal


def test_brute_force_separator_facts_small(connected_small_graphs):
    """On claw-free connected graphs up to 6 vertices: two components and
    complete separator neighborhoods (the exhaustive 7-vertex sweep lives in
    the acceptance suite)."""
    for n in range(3, 7):
        for g in connected_small_graphs[n]:
            if not is_claw_free(g).holds:
                continue
            for s in brute_minimal_separators(g):
                comps = minimal_separator_components(g, s)
                assert len(comps) == 2
                for v in s:
                    for comp in comps:
                        assert check_complete_neighborhood(g, v, comp)


def test_shrink_on_double_ray_square():
    g, ids = double_ray_square_truncation(-10, 10)
    c = CycleEmbedding([ids[0], ids[1], ids[2]])
    boundary = [ids[i] for i in (-10, -9, 9, 10)]
    sep = decomposition(g, c, boundary).separator
    assert sep == tuple(sorted(ids[i] for i in (-2, -1, 3, 4)))
    # oracle: every proper subset fails to separate
    sset = set(sep)
    for v in sep:
        assert not separates(g, sset - {v}, c.order, boundary)
    assert separates(g, sset, c.order, boundary)


def test_shrink_on_ray_square():
    g, ids = double_ray_square_truncation(0, 10)
    c = CycleEmbedding([ids[0], ids[1], ids[2]])
    boundary = [ids[9], ids[10]]
    sep = decomposition(g, c, boundary).separator
    assert sep == (ids[3], ids[4])
    for v in sep:
        assert not separates(g, set(sep) - {v}, c.order, boundary)


def test_shrink_rejects_cycle_touching_boundary():
    g, ids = double_ray_square_truncation(0, 4)
    c = CycleEmbedding([ids[2], ids[3], ids[4]])
    with pytest.raises(DomainError, match="the cycle touches the boundary layer"):
        decomposition(g, c, [ids[4]])


def test_decompose_double_ray_square():
    g, ids = double_ray_square_truncation(-10, 10)
    c = CycleEmbedding([ids[0], ids[1], ids[2]])
    boundary = [ids[i] for i in (-10, -9, 9, 10)]
    dec = decomposition(g, c, boundary)
    assert dec.k == 2
    assert dec.finite_component == tuple(sorted(ids[i] for i in (0, 1, 2)))
    assert dec.infinite_components == (
        tuple(ids[i] for i in range(-10, -2)),
        tuple(ids[i] for i in range(5, 11)),
    )
    assert dec.parts == (
        (ids[-2], ids[-1]),
        (ids[3], ids[4]),
    )
    # parts partition the separator
    flat = sorted(v for part in dec.parts for v in part)
    assert flat == sorted(dec.separator)
    # removing any single part vertex reconnects its side to the center
    for i, part in enumerate(dec.parts):
        for v in part:
            rest = set(dec.separator) - {v}
            assert not separates(g, rest, dec.finite_component, dec.infinite_components[i])
    # every separator vertex has a neighbor in the finite component
    for s in dec.separator:
        assert set(g.neighbors(s)) & set(dec.finite_component)


def test_decompose_ray_square():
    g, ids = double_ray_square_truncation(0, 10)
    c = CycleEmbedding([ids[0], ids[1], ids[2]])
    dec = decomposition(g, c, [ids[9], ids[10]])
    assert dec.k == 1
    assert dec.finite_component == (ids[0], ids[1], ids[2])
    assert dec.parts == ((ids[3], ids[4]),)
    assert dec.infinite_components == (tuple(ids[i] for i in range(5, 11)),)


def test_complete_neighborhood_examples():
    g, ids = double_ray_square_truncation(-10, 10)
    k2 = [ids[i] for i in range(5, 11)]
    assert check_complete_neighborhood(g, ids[3], k2)  # single neighbor 5
    k0 = [ids[i] for i in (0, 1, 2)]
    assert check_complete_neighborhood(g, ids[4], k0)  # single neighbor 2
    gt = glued_triangles()
    for comp in ((2,), (3,)):
        assert check_complete_neighborhood(gt, 0, comp)
        assert check_complete_neighborhood(gt, 1, comp)


def test_decompose_two_sided_separator_vertex_reports_claw():
    """A separator vertex reaching two boundary components would give an
    induced claw; the decomposition must refuse and exhibit it."""
    from clawham.errors import InternalConsistencyError

    # triangle 0-1-2, stem 2-3, and two legs from 3 out to the boundary
    g = FiniteGraph(
        range(8),
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 6), (3, 5), (5, 7)],
    )
    c = CycleEmbedding([0, 1, 2])
    with pytest.raises(InternalConsistencyError) as exc:
        decomposition(g, c, [6, 7])
    assert exc.value.exit_code == 3
    witness = exc.value.witness
    assert witness is not None
    from helpers import check_claw_witness

    assert check_claw_witness(g, witness)


def test_is_minimal_separator_agrees_with_bruteforce(connected_small_graphs):
    for g in connected_small_graphs[5]:
        brute = set(brute_minimal_separators(g))
        from itertools import combinations

        for r in range(1, 4):
            for sub in combinations(g.vertices, r):
                assert is_minimal_separator(g, sub) == (frozenset(sub) in brute)


# -- closed forms against the trial-and-error references ---------------------


def test_separates_sees_a_source_that_is_a_target():
    assert separates(path_graph(3), [], [0], [0]) is False
    assert separates(path_graph(3), [0], [0], [0]) is True


def random_graph(rng: random.Random, n: int) -> FiniteGraph:
    p = rng.choice((0.03, 0.08, 0.15, 0.3, 0.6, 0.9))
    return FiniteGraph(
        range(n), [(a, b) for a, b in combinations(range(n), 2) if rng.random() < p]
    )


def test_separates_matches_reference_on_random_inputs():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(2, 40)
        g = random_graph(rng, n)
        verts = rng.sample(range(n), n)
        cut_a, cut_b = sorted(rng.sample(range(1, n + 1), 2))
        sources, targets = verts[:cut_a], verts[cut_a:cut_b]
        blocker = rng.sample(range(n), rng.randint(0, n // 2))
        assert separates(g, blocker, sources, targets) == reference_separates(
            g, blocker, sources, targets
        )


def test_shrink_matches_greedy_reference_on_random_triples():
    """On empty boundaries, boundaries beyond N(c), some with vertices in
    components the cycle cannot reach, and boundaries that break a
    precondition, ``split_cycle`` raises the greedy reference's
    error, or its separator is the reference's: it decomposes as the
    whole-ball reference does with that separator, or fails as it does.
    The one exception is a cycle stand-in that meets several components
    of G - S, for which it reports that no component holds the cycle."""
    rng = random.Random(5)
    unreachable = nonempty = 0
    for i in range(1200):
        n = rng.randint(3, 40)
        g = random_graph(rng, n)
        c = CycleEmbedding(rng.sample(range(n), 3))
        kind = i % 3
        if kind == 0:
            boundary = []
        elif kind == 1:
            far = [v for v in range(n) if not (g.neighbor_set(v) | {v}) & c.vertex_set]
            boundary = rng.sample(far, rng.randint(0, len(far)))
            comps = components_within(g, range(n))
            cycle_side = {v for comp in comps if set(comp) & c.vertex_set for v in comp}
            unreachable += bool(set(boundary) - cycle_side)
        else:
            boundary = rng.sample(range(n), rng.randint(1, 3))
        sep = outcome(reference_shrink, g, c, boundary)
        got = outcome(decomposition, g, c, boundary)
        if sep and isinstance(sep[0], type):
            assert got == sep
            continue
        if isinstance(got, tuple) and got[:2] == (DomainError, "no component contains the cycle"):
            rest = components_within(g, [v for v in range(n) if v not in sep])
            assert sum(not c.vertex_set.isdisjoint(comp) for comp in rest) > 1
        else:
            assert got == outcome(reference_decompose, g, c, sep, boundary)
        nonempty += kind == 1 and bool(sep)
    assert unreachable > 50 and nonempty > 100


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_shrink_matches_greedy_reference_on_every_round(name):
    state = run(preset(name), rounds=5, radius=70)
    boundary = state.ball.boundary
    for cycle, record in zip(state.cycles()[:-1], state.rounds):
        dec = decomposition(state.graph, cycle, boundary)
        assert dec == record.dec
        assert dec.separator == reference_shrink(state.graph, cycle, boundary)


def test_shrink_preconditions_raise_as_before():
    g, ids = double_ray_square_truncation(0, 10)
    c = CycleEmbedding([ids[2], ids[3], ids[4]])
    for boundary in ([ids[4], ids[10]], [ids[5], ids[10]]):
        got = outcome(decomposition, g, c, boundary)
        assert got[0] is DomainError
        assert got == outcome(reference_shrink, g, c, boundary)


def test_minimality_matches_reference_on_every_subset(small_graphs):
    pairs = 0
    for n in range(1, 7):
        for g in small_graphs[n]:
            for mask in range(1 << n):
                sub = [v for v in g.vertices if mask >> v & 1]
                minimal = is_minimal_separator(g, sub)
                assert minimal == reference_is_minimal_separator(g, sub)
                pairs += 1
                if minimal:
                    assert outcome(minimal_separator_components, g, sub) == outcome(
                        reference_minimal_separator_components, g, sub
                    )
    assert pairs == 11290


# -- one labelled search against the whole-ball decomposition ----------------------


def full_outcome(f, *args):
    """``outcome`` plus the suggested radius of a RadiusTooSmallError."""
    try:
        return f(*args)
    except ClawhamError as exc:
        return (type(exc), str(exc), getattr(exc, "witness", None),
                getattr(exc, "suggested_radius", None))


def connected_triple(rng: random.Random, g: FiniteGraph):
    """Three vertices inducing a connected subgraph, as a CycleEmbedding of
    their ids (the decomposition reads only its vertex set), or None."""
    v = rng.choice(g.vertices)
    near = list(g.neighbors(v))
    if not near:
        return None
    u = rng.choice(near)
    third = sorted((set(g.neighbors(v)) | set(g.neighbors(u))) - {u, v})
    return CycleEmbedding([v, u, rng.choice(third)]) if third else None


def test_decompose_matches_whole_ball_reference_on_random_inputs():
    """``split_cycle`` gives the reference's result on the closed-form
    separator, or its error class, message, witness and suggested radius,
    on random graphs, connected cycle stand-ins and boundaries; stray
    components and two-sided separator vertices both occur."""
    from collections import Counter

    from helpers import neighborhood_oracle, reference_ray_separator

    rng = random.Random(29)
    seen = Counter()
    for _ in range(1500):
        n = rng.randint(5, 30)
        g = random_graph(rng, n)
        c = connected_triple(rng, g)
        if c is None:
            continue
        near = neighborhood_oracle(g, c.vertex_set, 1)
        far = [v for v in g.vertices if v not in near and v not in c]
        boundary = rng.sample(far, rng.randint(0, len(far)))
        want = full_outcome(
            reference_decompose, g, c, reference_ray_separator(g, c, boundary), boundary
        )
        assert full_outcome(decomposition, g, c, boundary) == want
        if isinstance(want, tuple):
            seen[want[0]] += 1
            seen["two-sided"] += "reaches two" in want[1]
        else:
            seen["ok"] += 1
    assert seen["ok"] > 100 and seen[RadiusTooSmallError] > 100
    assert seen[InternalConsistencyError] > 100 and seen["two-sided"] > 20


def test_stray_finite_component_means_the_radius_is_too_small():
    """Triangle 0-1-2 with separator {3}: beyond it the boundary path 4-5
    and the dead end 6, which meets neither the cycle nor the boundary."""
    g = FiniteGraph(range(7), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
    c = CycleEmbedding([0, 1, 2])
    want = full_outcome(reference_decompose, g, c, [3], [5])
    assert want[0] is RadiusTooSmallError
    assert full_outcome(decomposition, g, c, [5]) == want


def test_two_sided_separator_vertex_keeps_its_witness():
    """The claw of ``test_decompose_two_sided_separator_vertex_reports_claw``
    is the witness of the reference."""
    g = FiniteGraph(
        range(8),
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 6), (3, 5), (5, 7)],
    )
    c = CycleEmbedding([0, 1, 2])
    want = full_outcome(reference_decompose, g, c, [3], [6, 7])
    assert want[0] is InternalConsistencyError and want[2] == (2, 3, 4, 5)
    assert full_outcome(decomposition, g, c, [6, 7]) == want


def _tree_square(tree, extra=()):
    """The square of the tree on 0..30 with edges ``tree``, plus ``extra``."""
    adj = {v: set() for v in range(31)}
    for u, v in tree:
        adj[u].add(v)
        adj[v].add(u)
    edges = {(u, w) for u, v in tree for w in adj[v] | {v} if w != u}
    return FiniteGraph(range(31), edges | set(extra))


TRUNK = [(i, i + 1) for i in range(20)]
BRANCH = [(i, i + 1) for i in range(21, 30)]


@pytest.mark.parametrize("tree, extra, boundary", [
    # the branch 21..30 forks off the trunk at 10: two boundary components
    (TRUNK + [(10, 21)] + BRANCH, (), [20, 30]),
    # off 11, away from the boundary: its piece joins the finite component
    (TRUNK + [(11, 21)] + BRANCH, (), [20]),
    # the same, hanging on separator vertices only: a stray component
    (TRUNK + [(11, 21)] + BRANCH, [(13, 21)], [20]),
])
def test_carried_component_that_splits_is_labelled_again(tree, extra, boundary):
    """On the square of a tree whose trunk 0..20 has a branch 21..30, the
    boundary component beyond the triangle (0, 1, 2) splits once the cycle
    covers the trunk up to 10: the carried decomposition labels it again,
    and its result, or its error, is the one from scratch."""
    g = _tree_square(tree, extra)
    first = split_cycle(g, CycleEmbedding([0, 1, 2]), boundary)
    assert (first.dec.separator, first.dec.k) == ((3, 4), 1)
    trunk = CycleEmbedding([0, 1, 3, 5, 7, 9, 10, 8, 6, 4, 2])
    want = full_outcome(decomposition, g, trunk, boundary)
    got = full_outcome(split_cycle, g, trunk, boundary, first)
    if extra:
        assert want[0] is RadiusTooSmallError and got == want
        return
    assert_carry_matches_scratch(g, trunk, boundary, first, got)
    comps = got.dec.infinite_components
    if len(boundary) == 2:
        assert got.dec.separator == (11, 12, 21, 22)
        assert comps == (tuple(range(13, 21)), tuple(range(23, 31)))
    else:
        assert got.dec.separator == (11, 12) and comps == (tuple(range(13, 21)),)
        assert set(range(21, 31)) <= got.finite
