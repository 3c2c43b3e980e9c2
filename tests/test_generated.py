"""The finite construction on seeded draws beyond the exhaustive n <= 8.

``helpers.generated_draws`` gives line graphs of random 2- and 3-trees and
circular interval graphs of 50 to 300 vertices, in class by construction;
there case two, bridging and the confined search all happen, unlike on
P_n^2, L(K_n) and triangular ladders.  ``helpers.control_draws`` gives
circular interval graphs whose arcs may reach one point only, out of
class.  A failing draw is named by its family, size and seed.
"""

from __future__ import annotations

import random

import pytest

from clawham.errors import HypothesisError
from clawham.extension import ExtensionCase, finite_hamilton, replay_certificate
from clawham.graph import is_connected, validate_cycle
from clawham.predicates import check_all
from helpers import (
    check_local_connectivity_witness,
    control_draws,
    generated_draws,
    reference_components,
    reference_gate,
    reference_is_claw_free,
    reference_is_locally_connected,
    reference_replay,
    relabel,
)

DRAWS = generated_draws()
CONTROLS = control_draws()


def assert_reports_match_references(name, g) -> None:
    reports = check_all(g)
    assert reports["claw_free"] == reference_is_claw_free(g), name
    assert reports["locally_connected"] == reference_is_locally_connected(g), name
    assert reports["connected"].holds == (len(reference_components(g)) == 1), name


def assert_certifies(name, g):
    cert = finite_hamilton(g)
    assert replay_certificate(g, cert).ok, name
    assert reference_replay(g, cert).ok, name
    assert validate_cycle(g, cert.cycle).ok, name
    assert cert.cycle.vertex_set == frozenset(g.vertices), name
    return cert


def test_draws_span_the_intended_sizes():
    assert len(DRAWS) == 24 and len(CONTROLS) == 6
    sizes = [len(g) for _, g in DRAWS + CONTROLS]
    assert min(sizes) >= 50 and max(sizes) <= 300


def test_generated_draws_are_in_class_and_certify():
    """Each draw matches the reference predicates, certifies, replays
    (also through the whole-cycle reference splice) and ends on a valid
    spanning cycle, and so does a relabelled copy.  Over all draws, case
    two and bridging both happen."""
    rng = random.Random(12)
    case_two = bridged = 0
    for name, g in DRAWS:
        assert_reports_match_references(name, g)
        assert reference_gate(g) is None, name
        cert = assert_certifies(name, g)
        case_two += sum(e.case is ExtensionCase.TWO for e in cert.extensions)
        bridged += sum(bool(e.bridged) for e in cert.extensions if e.case is ExtensionCase.ONE)
        assert_certifies(name, relabel(g, rng))
    assert case_two > 100 and bridged > 15


def test_control_draws_fail_with_confirmed_witnesses():
    """Each control draw is connected and claw-free, as every circular
    interval graph is, but some vertex lies inside no arc: the gate fails
    with the reference loops' predicate, witness and message, and the
    witness re-checks as a split neighborhood."""
    for name, g in CONTROLS:
        assert_reports_match_references(name, g)
        assert is_connected(g), name
        expected = reference_gate(g)
        assert expected is not None and expected[0] == "locally_connected", name
        with pytest.raises(HypothesisError) as exc:
            finite_hamilton(g)
        assert (exc.value.predicate, exc.value.witness, str(exc.value)) == expected, name
        assert check_local_connectivity_witness(g, exc.value.witness), name
