"""The four benchmark workloads: seeded inputs, one timed pass, and checks of
every output that do not rely on ``clawham``'s own validators.

A workload's inputs are built once per process from the seed (the set-up),
then ``run_pass`` may be called repeatedly.  Every call into
``clawham`` goes through a module attribute, so a tracer that rebinds those
attributes sees it.  Each pass is closed-loop with one caller: a call starts only after the
previous one returned.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

import clawham
from clawham import predicates

import oracles
import tracer

# Connected graphs on n vertices (OEIS A001349).
CONNECTED_COUNTS = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# Of those, the claw-free, locally connected ones (the theorem's class);
# 95 in all.
IN_CLASS_COUNTS = {3: 1, 4: 2, 5: 5, 6: 18, 7: 69}
# Seeded relabellings under which small-sweep certifies each in-class graph.
RELABELLINGS = 3

PROFILE_KEYS = ("claw_free", "locally_connected", "connected", "two_connected", "chordal")


class Pass:
    """Timings, failures, output digest and counters of one pass."""

    def __init__(self):
        self.op_s: dict[str, float] = {}
        self.attempted = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.stats: dict[str, float] = {}
        self.last_s = 0.0
        self.entry_points: set[str] = set()
        self._digest = hashlib.sha256()

    def call(self, op: str, fn, *args):
        """Time one call into the package; an exception is a failed op."""
        self.entry_points.add(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
        self.attempted += 1
        start = tracer.CLOCK()
        try:
            return fn(*args)
        except Exception as exc:  # every failure is counted, none stops the run
            self.fail(f"{op}: {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = tracer.CLOCK() - start
            self.op_s[op] = self.op_s.get(op, 0.0) + elapsed
            self.last_s = elapsed

    def fail(self, message: str) -> None:
        """Mark the most recent operation as failed."""
        self.failed.add(self.attempted)
        if len(self.problems) < 20:
            self.problems.append(message)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def add(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    def record(self, obj) -> None:
        self._digest.update(json.dumps(obj, sort_keys=True).encode())
        self._digest.update(b"\n")

    def result(self) -> dict:
        return {
            "pass_s": sum(self.op_s.values()),
            "op_s": self.op_s,
            "attempted": self.attempted,
            "failed": len(self.failed),
            "problems": self.problems,
            "stats": self.stats,
            "digest": self._digest.hexdigest(),
        }


# -- independent checks ------------------------------------------------------


def hamilton_problem(order, vertices, edges: set) -> str:
    """Why ``order`` is not a Hamilton cycle of (vertices, edges); '' if it is."""
    if len(order) < 3 or len(set(order)) != len(order):
        return "cycle repeats a vertex or is too short"
    if set(order) != set(vertices):
        return "cycle does not span the graph"
    for u, v in zip(order, order[1:] + order[:1]):
        if (min(u, v), max(u, v)) not in edges:
            return f"cycle uses the non-edge ({u}, {v})"
    return ""


def brute_profile(n: int, edges: set) -> dict[str, bool]:
    """The five hypothesis predicates by exhaustive search (small n only)."""
    adj = {v: {w for e in edges for w in e if v in e and w != v} for v in range(n)}

    def connected(vs) -> bool:
        vs = set(vs)
        if not vs:
            return True
        seen, stack = set(), [min(vs)]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(adj[u] & vs - seen)
        return seen == vs

    def induced_cycle(vs) -> bool:
        sub = {v: adj[v] & set(vs) for v in vs}
        return all(len(nb) == 2 for nb in sub.values()) and connected(vs)

    return {
        "claw_free": not any(
            not (a in adj[b] or a in adj[c] or b in adj[c])
            for v in range(n) for a, b, c in combinations(sorted(adj[v]), 3)),
        "locally_connected": all(connected(adj[v]) for v in range(n)),
        "connected": connected(range(n)),
        "two_connected": all(connected(set(range(n)) - {v}) for v in range(n)),
        "chordal": not any(induced_cycle(vs) for k in range(4, n + 1)
                           for vs in combinations(range(n), k)),
    }


def check_profile(p: Pass, reports: dict, want: dict[str, bool], label: str) -> None:
    for key, expected in want.items():
        report = reports.get(key)
        got = None if report is None else bool(report.holds)
        p.require(got == expected, f"{label}: {key} is {got}, expected {expected}")


def relabelled(edges: list, n: int, rng: random.Random):
    """The graph with vertex v renamed perm[v], as a FiniteGraph and an edge set."""
    perm = list(range(n))
    rng.shuffle(perm)
    mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}
    return clawham.FiniteGraph(range(n), sorted(mapped)), mapped


def certify(p: Pass, g, edges: set, label: str) -> None:
    """finite_hamilton then replay_certificate, checked and digested."""
    cert = p.call("construct_s", clawham.finite_hamilton, g)
    if cert is None:
        return
    p.add(f"construct_s.{label}", p.last_s)
    problem = hamilton_problem(list(cert.cycle.order), g.vertices, edges)
    p.require(not problem, f"{label}: {problem}")
    obj = cert.to_json_obj()
    p.record(obj)
    p.add("splices", len(obj["extensions"]))
    p.add("case_two", sum(e["case"] == "two" for e in obj["extensions"]))
    p.add("path_len", sum(len(e["path"]) for e in obj["extensions"]))
    report = p.call("replay_s", clawham.replay_certificate, g, cert)
    p.require(report is not None and report.ok, f"{label}: replay rejected the certificate")


# -- finite-families ---------------------------------------------------------


def square_of_path(n: int) -> list:
    return [(i, i + d) for d in (1, 2) for i in range(n - d)]


def line_graph_of_complete(n: int) -> list:
    pairs = list(combinations(range(n), 2))
    return [(i, j) for (i, a), (j, b) in combinations(enumerate(pairs), 2) if set(a) & set(b)]


def triangular_ladder(rungs: int) -> list:
    """Rails 2i and 2i + 1, rungs, and one diagonal (2i + 1, 2i + 2) per square."""
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    for i in range(rungs - 1):
        edges += [(2 * i, 2 * i + 2), (2 * i + 1, 2 * i + 3), (2 * i + 1, 2 * i + 2)]
    return edges


class FiniteFamilies:
    """P_n^2, L(K_n) and triangular ladders at three doubling sizes each,
    relabelled by a seeded permutation.  Per instance: check_all, then
    finite_hamilton, then replay_certificate."""

    SIZES = {"P2": (64, 128, 256), "LK": (8, 12, 16), "ladder": (32, 64, 128)}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.instances = []
        for family, family_sizes in self.SIZES.items():
            for size in family_sizes:
                if family == "P2":
                    n, edges = size, square_of_path(size)
                elif family == "LK":
                    n, edges = size * (size - 1) // 2, line_graph_of_complete(size)
                else:
                    n, edges = 2 * size, triangular_ladder(size)
                g, edge_set = relabelled(edges, n, rng)
                want = {key: True for key in PROFILE_KEYS}
                want["chordal"] = family != "LK" or size < 4
                self.instances.append((f"{family}-{size}", g, edge_set, want))

    def run_pass(self) -> Pass:
        p = Pass()
        for label, g, edges, want in self.instances:
            reports = p.call("check_s", predicates.check_all, g)
            if reports is not None:
                check_profile(p, reports, want, label)
            certify(p, g, edges, label)
        return p


# -- small-sweep -------------------------------------------------------------


class SmallSweep:
    """Every connected graph on 3..7 vertices, enumerated inside the pass.

    ``enumerate_connected_graphs`` caches for the life of the process, so a
    pass is only cold in a fresh interpreter; the runner gives every pass
    its own process.  check_all runs on every graph; each in-class graph
    then gets finite_hamilton and replay_certificate under ``RELABELLINGS``
    seeded relabellings.
    """

    SIZES = (3, 4, 5, 6, 7)

    def __init__(self, seed: int):
        self.seed = seed

    def run_pass(self) -> Pass:
        p = Pass()
        rng = random.Random(self.seed)
        in_class = 0
        for n in self.SIZES:
            graphs = p.call("enumerate_s", clawham.enumerate_connected_graphs, n) or []
            p.require(len(graphs) == CONNECTED_COUNTS[n],
                      f"{len(graphs)} connected graphs on {n} vertices, "
                      f"expected {CONNECTED_COUNTS[n]}")
            for i, g in enumerate(graphs):
                label = f"n{n}-{i}"
                edges = set(g.edges())
                truth = brute_profile(n, edges)
                reports = p.call("check_s", predicates.check_all, g)
                if reports is not None:
                    check_profile(p, reports, truth, label)
                if not (truth["claw_free"] and truth["locally_connected"] and truth["connected"]):
                    continue
                in_class += 1
                for _ in range(RELABELLINGS):
                    h, h_edges = relabelled(sorted(edges), n, rng)
                    certify(p, h, h_edges, label)
        expected = sum(IN_CLASS_COUNTS[n] for n in self.SIZES)
        p.require(in_class == expected, f"{in_class} in-class graphs, expected {expected}")
        return p

    def classes_kept(self) -> int:
        """Isomorphism classes the enumeration kept, over every size it built
        (cached by then, so this computes no new keys)."""
        return sum(len(clawham.enumerate_graphs(n)) for n in range(2, max(self.SIZES) + 1))


# -- engine workloads --------------------------------------------------------


class Engine:
    """run plus check_extraction_conditions on each (oracle, radius, rounds)."""

    def __init__(self, seed: int, configs):
        self.runs = []
        for name, radius, rounds in configs:
            pres, oracle = oracles.presentation(name, seed, radius)
            self.runs.append((name, pres, oracle, radius, rounds))

    def run_pass(self) -> Pass:
        p = Pass()
        for name, pres, oracle, radius, rounds in self.runs:
            calls_before = oracle.calls
            state = p.call("run_s", clawham.run, pres, rounds, radius)
            p.add("oracle_calls", oracle.calls - calls_before)
            if state is None:
                continue
            self._check_run(p, name, oracle, state, rounds)
            report = p.call("extract_s", clawham.check_extraction_conditions, state)
            p.require(report is not None and report.all_pass(),
                      f"{name}: extraction conditions fail")
        return p

    @staticmethod
    def _check_run(p: Pass, name: str, oracle, state, rounds: int) -> None:
        labels = state.ball.labels
        g = state.graph
        p.require(len(state.rounds) == rounds, f"{name}: {len(state.rounds)} rounds")
        cycles = state.cycles()
        for i, cycle in enumerate(cycles):
            order = list(cycle.order)
            ok = len(order) >= 3 and len(set(order)) == len(order) and all(
                oracle.adjacent(labels[u], labels[v])
                for u, v in zip(order, order[1:] + order[:1]))
            p.require(ok, f"{name}: cycle {i} is not a cycle of the oracle graph")
            if i:
                p.require(set(cycles[i - 1].order) <= set(order),
                          f"{name}: cycle {i} dropped vertices")
        for record, prev in zip(state.rounds, cycles):
            bad = sorted(k for k, v in record.checks.items() if not v)
            p.require(not bad, f"{name}: round {record.index} checks failed: {bad}")
            on_cycle = set(prev.order)
            around = {w for v in on_cycle for w in g.neighbors(v)} - on_cycle
            p.add("separator_size", len(record.dec.separator))
            p.add("cycle_neighborhood", len(around))
            p.add("extensions", record.extension_count)
            if name == "tripod-line":
                p.require(len(record.dec.parts) == 3,
                          f"{name}: round {record.index} split into "
                          f"{len(record.dec.parts)} parts, expected 3")
        p.add("rounds", len(state.rounds))
        p.add("ball_vertices", len(g))
        for line in state.to_json_lines():
            p.record(line)


ENGINE_1D = (("double-ray-square", 120, 12), ("ray-square", 120, 12),
             ("ladder-line-graph", 100, 8), ("tripod-line", 72, 6))
ENGINE_2D = (("tri-lattice-line", 13, 2),)

# name -> the workload built from a seed
WORKLOADS = {
    "finite-families": FiniteFamilies,
    "small-sweep": SmallSweep,
    "engine-1d": lambda seed: Engine(seed, ENGINE_1D),
    "engine-2d": lambda seed: Engine(seed, ENGINE_2D),
}

