"""Command-line surface.

Subcommands: check | hamilton | verify-certificate | infinite run | gen.
Payloads go to stdout as JSON; diagnostics go to stderr.  Exit status:
0 success, 1 hypothesis failure, 2 bad input or precondition, 3 a state
the theory rules out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .constructions import NAMED_GRAPHS, graph_power, line_graph
from .engine import check_extraction_conditions, run
from .errors import ClawhamError, GraphInputError, HypothesisError
from .extension import HamiltonCertificate, finite_hamilton, replay_certificate
from .graph import FiniteGraph
from .graphio import (
    graph_to_dot,
    graph_to_edge_list,
    graph_to_json_obj,
    parse_graph,
)
from .predicates import check_all
from .presentations import PRESET_NAMES, preset


def _read_text(path: str | None) -> str:
    """The UTF-8 text of the file ``path``, or of stdin for None or '-'."""
    from_stdin = path is None or path == "-"
    source = "stdin" if from_stdin else path
    try:
        if from_stdin:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphInputError(f"{source} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise GraphInputError(f"cannot read {source}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GraphInputError(f"cannot write {path}: {exc}") from exc


def _load_graph(path: str | None) -> FiniteGraph:
    return parse_graph(_read_text(path))


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    reports = check_all(g)
    payload = {
        name: (rep.to_json_obj() if rep is not None else None)
        for name, rep in reports.items()
    }
    _emit(payload)
    return 0


def cmd_hamilton(args) -> int:
    g = _load_graph(args.graph)
    cert = finite_hamilton(g)
    obj = cert.to_json_obj()
    if args.certificate_out:
        _write_text(args.certificate_out, json.dumps(obj, sort_keys=True) + "\n")
    _emit(obj)
    return 0


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    try:
        cert_obj = json.loads(_read_text(args.certificate))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphInputError(f"certificate is not valid JSON: {exc}") from exc
    cert = HamiltonCertificate.from_json_obj(cert_obj)
    report = replay_certificate(g, cert)
    _emit(report.to_json_obj())
    if not report.ok:
        print(f"certificate replay failed: {report.failure}", file=sys.stderr)
        return 1
    return 0


def cmd_infinite_run(args) -> int:
    if args.offsets is None:
        pres = preset(args.preset)
    elif args.preset != "custom-oracle":
        raise GraphInputError(f"--offsets only applies to custom-oracle, not {args.preset}")
    else:
        try:
            offsets = tuple(int(x) for x in args.offsets.split(","))
        except ValueError:
            raise GraphInputError(
                f"--offsets must be comma-separated integers, got {args.offsets!r}"
            ) from None
        pres = preset("custom-oracle", offsets=offsets)
    state = run(pres, rounds=args.rounds, radius=args.radius)
    report = check_extraction_conditions(state) if len(state.rounds) >= 2 else None
    if args.log_out:
        lines = (json.dumps(rec, sort_keys=True) + "\n" for rec in state.to_json_lines())
        _write_text(args.log_out, "".join(lines))
    if args.stable_dot:
        stable = set(report.stable_edges) if report else set()
        other = set(e for c in state.cycles() for e in c.edge_set()) - stable
        dot = graph_to_dot(state.graph, highlight_edges=stable, dashed_edges=other)
        _write_text(args.stable_dot, dot)
    payload = {
        "preset": pres.name,
        "radius": args.radius,
        "rounds": len(state.rounds),
        "cycle_sizes": [len(c) for c in state.cycles()],
        "round_checks": [dict(sorted(r.checks.items())) for r in state.rounds],
        "extraction": report.to_json_obj() if report else None,
        "log": args.log_out,
    }
    _emit(payload)
    return 0


# ``gen`` refuses to build a graph of more vertices plus edges than this; each
# size is worked out before the graph that has it is built.
_MAX_GEN_SIZE = 1_000_000

# (vertices, edges) of each named family that takes a size parameter n;
# the others have at most 10 vertices
_FAMILY_SIZES = {
    "path": lambda n: (n, max(n - 1, 0)),
    "cycle": lambda n: (n, n),
    "complete": lambda n: (n, n * (n - 1) // 2),
    "star": lambda n: (n + 1, n),
    "wheel": lambda n: (n + 1, 2 * n),
    "triangular-ladder": lambda n: (2 * n, 4 * n - 3),
}


def _require_gen_size(claim: str, size: int) -> None:
    if size > _MAX_GEN_SIZE:
        raise GraphInputError(
            f"{claim} {size} vertices plus edges; gen builds at most {_MAX_GEN_SIZE}"
        )


def _ball_bound(degree: int, k: int, cap: int) -> int:
    """At most how many vertices lie at distance 1..k from one vertex when no
    vertex has more than ``degree`` neighbors, capped at ``cap``."""
    total, layer = 0, degree
    for _ in range(k):
        total += layer
        if total >= cap or layer == 0:
            break
        layer *= degree - 1
    return min(total, cap)


def cmd_gen(args) -> int:
    family = NAMED_GRAPHS.get(args.family)
    if family is None:
        raise GraphInputError(
            f"unknown family {args.family!r}; choose from {', '.join(sorted(NAMED_GRAPHS))}"
        )
    if args.n is not None and args.n < 0:
        raise GraphInputError(f"the size parameter must be non-negative, got {args.n}")
    if args.n is not None and args.family in _FAMILY_SIZES:
        _require_gen_size(f"{args.family} {args.n} has", sum(_FAMILY_SIZES[args.family](args.n)))
    try:
        g = family(args.n) if args.n is not None else family()
    except TypeError as exc:
        raise GraphInputError(f"family {args.family!r} and n={args.n} mismatch: {exc}") from exc
    if args.power is not None:
        order = len(g)
        degree = max(map(g.degree, g.vertices), default=0)
        reach = _ball_bound(degree, args.power, max(order - 1, 0))
        _require_gen_size(f"--power {args.power} can give up to", order + order * reach // 2)
        g = graph_power(g, args.power)
    if args.line:
        pairs = sum(d * (d - 1) // 2 for d in map(g.degree, g.vertices))
        _require_gen_size("--line gives", g.edge_count() + pairs)
        g = line_graph(g).graph
    if args.format == "json":
        _emit(graph_to_json_obj(g))
    elif args.format == "edges":
        sys.stdout.write(graph_to_edge_list(g))
    else:
        sys.stdout.write(graph_to_dot(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clawham",
        description="Hamilton cycles in claw-free locally connected graphs, "
        "finite and truncated-infinite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report claw-freeness, local connectivity, "
                       "chordality, 2-connectivity and connectivity, with witnesses")
    p.add_argument("graph", nargs="?", help="graph file (JSON or edge list); default stdin")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("hamilton", help="construct a Hamilton cycle with certificate")
    p.add_argument("graph", nargs="?")
    p.add_argument("--certificate-out", help="write the certificate JSON here")
    p.set_defaults(func=cmd_hamilton)

    p = sub.add_parser("verify-certificate", help="replay a certificate against a graph")
    p.add_argument("graph", nargs="?")
    p.add_argument("--certificate", required=True, help="certificate file ('-' for stdin)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("infinite", help="truncated-infinite constructions")
    isub = p.add_subparsers(dest="infinite_command", required=True)
    pr = isub.add_parser("run", help="run the cycle-sequence engine on a preset")
    pr.add_argument("--preset", required=True, choices=PRESET_NAMES)
    pr.add_argument("--rounds", type=int, required=True)
    pr.add_argument("--radius", type=int, required=True)
    pr.add_argument("--offsets", help="comma-separated offsets for custom-oracle")
    pr.add_argument("--log-out", help="write a JSON-lines run log here")
    pr.add_argument("--stable-dot", help="write DOT with stable edges bold here")
    pr.set_defaults(func=cmd_infinite_run)

    p = sub.add_parser("gen", help="emit a named finite graph")
    p.add_argument("family", help=f"one of: {', '.join(sorted(NAMED_GRAPHS))}")
    p.add_argument("n", nargs="?", type=int, help="size parameter, when the family takes one")
    p.add_argument("--power", type=int, help="emit the k-th power")
    p.add_argument("--line", action="store_true", help="emit the line graph")
    p.add_argument("--format", choices=("json", "edges", "dot"), default="json")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(args)
        except HypothesisError as exc:
            _emit(exc.payload())
            print(str(exc), file=sys.stderr)
            return exc.exit_code
        except ClawhamError as exc:
            print(json.dumps(exc.payload(), sort_keys=True), file=sys.stderr)
            return exc.exit_code
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``| head``); devnull absorbs the final flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
