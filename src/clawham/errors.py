"""Exception hierarchy shared by the whole package.

Exit-code mapping used by the CLI: hypothesis failures are 1, malformed
input and misuse of preconditions are 2, states that contradict the
guarantees of the construction itself are 3.
"""

from __future__ import annotations


class ClawhamError(Exception):
    """Base class; ``exit_code`` drives the CLI status."""

    exit_code = 2

    def payload(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class GraphInputError(ClawhamError):
    """Malformed graph input (bad ids, loops, unknown vertices, bad
    command-line graph parameters), and files that cannot be read or written
    or are not JSON, certificates included."""

    exit_code = 2


class DomainError(ClawhamError):
    """A caller violated a documented precondition, or a record broke a
    rule: a certificate or path extension with a missing field or a bad
    vertex id, or a cycle that is not one of the graph."""

    exit_code = 2


class RadiusTooSmallError(DomainError):
    """The truncation ball is too small for the requested computation."""

    exit_code = 2

    def __init__(self, message: str, suggested_radius: int):
        super().__init__(message)
        self.suggested_radius = suggested_radius

    def payload(self) -> dict:
        out = super().payload()
        out["suggested_radius"] = self.suggested_radius
        return out


class HypothesisError(ClawhamError):
    """An input graph fails one of the structural hypotheses.

    Carries the failing predicate name and a witness vertex set that
    demonstrates the violation.
    """

    exit_code = 1

    def __init__(self, predicate: str, witness, message: str = ""):
        super().__init__(message or f"hypothesis failure: {predicate}")
        self.predicate = predicate
        self.witness = tuple(sorted(witness)) if witness is not None else None

    def payload(self) -> dict:
        out = super().payload()
        out["predicate"] = self.predicate
        out["witness"] = list(self.witness) if self.witness is not None else None
        return out


class ProgressError(ClawhamError):
    """No admissible extension step exists although the goal is uncovered.

    Under intact hypotheses this cannot happen, so seeing it means some
    hypothesis was violated upstream of the construction loop.
    """

    exit_code = 1


class InternalConsistencyError(ClawhamError):
    """A state arose that the underlying theory rules out.

    The witness is always concrete (e.g. four vertices forming a claw) and
    the library is deterministic, so the witness alone reproduces the issue.
    """

    exit_code = 3

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness

    def payload(self) -> dict:
        out = super().payload()
        if self.witness is not None:
            out["witness"] = self.witness
        return out
