"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed in fresh interpreters, measures
passes for S seconds, checks every output, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``, measured with tracing
off; with ``--trace 1`` they are the per-layer ones, from passes run under
the tracer (``trace.overhead_ratio`` compares them with untraced passes run
in between).  Lines before the last are a readable summary: per-operation
times, the failure share and the output digest.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

# workload -> a new interpreter for every pass (cold package caches)
FRESH_PER_PASS = {"finite-families": False, "small-sweep": True,
                  "engine-1d": False, "engine-2d": False}
SETUP_SAMPLES = 8
WORKER_TIMEOUT_S = 170
OPS = ("check_s", "construct_s", "replay_s", "enumerate_s", "run_s", "extract_s")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, seed: int, budget: float, max_passes: int, plan: str) -> dict:
    """Run one worker to completion and return its final report."""
    # -S: the worker needs only the standard library and src/, so
    # site-packages start-up hooks are kept out of setup_s.
    cmd = [sys.executable, "-S", str(WORKER), workload, str(seed), str(budget),
           str(max_passes), plan]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_cpu_s(workload: str, seed: int) -> float:
    """CPU seconds of a worker that exits right after set-up: interpreter
    start, ``import clawham`` and input generation.  CPU time rather than
    wall time, because on a shared machine the wall time of a 0.2 s process
    varies mainly with how long it waits for a core."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawn(workload, seed, 0, 0, "0")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Set-up samples, half taken before the measured passes and half after,
    and the reports of the measuring workers."""
    setups = [setup_cpu_s(workload, seed) for _ in range(SETUP_SAMPLES // 2)]
    reports = []
    if FRESH_PER_PASS[workload]:
        start = time.perf_counter()
        # with tracing, at least one untraced and one traced pass
        while len(reports) < 1 + trace or time.perf_counter() - start < seconds:
            plan = "1" if trace and len(reports) % 2 else "0"
            reports.append(spawn(workload, seed, 0, 1, plan))
    else:
        reports.append(spawn(workload, seed, seconds, 10**6, "01" if trace else "0"))
    setups += [setup_cpu_s(workload, seed) for _ in range(SETUP_SAMPLES // 2)]
    return setups, reports


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def loglog_slope(points) -> float:
    """Least-squares slope of log(t) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(names: list[str], passes: list, reports: list) -> dict[str, float]:
    """The named per-layer values: medians over passes, 0 where the workload
    does not exercise the layer.  A name ending in ``.calls``, ``.self_s``
    or ``.total_s`` reads the spans of that function; the rest are derived
    from the counters each pass returns."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]

    def span(name: str, field: str) -> float:
        return median([p["layers"].get(name, {}).get(field, 0) for p in traced])

    def stat(fn) -> float:
        return median([fn(p["stats"]) for p in traced])

    prefix = "construct_s.P2-"
    p2_sizes = sorted({int(k[len(prefix):]) for p in plain for k in p["stats"]
                       if k.startswith(prefix)})
    sizes = [(n, median([p["stats"][f"{prefix}{n}"] for p in plain])) for n in p2_sizes]
    classes = median([r["classes_kept"] for r in reports if "classes_kept" in r])
    derived = {op: median([p["op_s"].get(op, 0.0) for p in plain]) for op in OPS}
    derived.update({
        "extension.construct_slope":
            loglog_slope(sizes) if len(sizes) > 1 else 0.0,
        "extension.splices": stat(lambda s: s.get("splices", 0)),
        "extension.case_two_frac":
            stat(lambda s: ratio(s.get("case_two", 0), s.get("splices", 0))),
        "extension.path_len_mean":
            stat(lambda s: ratio(s.get("path_len", 0), s.get("splices", 0))),
        "separators.kept_ratio":
            stat(lambda s: ratio(s.get("separator_size", 0), s.get("cycle_neighborhood", 0))),
        "engine.checks_per_splice": ratio(span("engine.check_good_tuple", "calls"),
                                          span("extension.apply_path_extension", "calls")),
        "engine.rounds": stat(lambda s: s.get("rounds", 0)),
        "engine.extensions_per_round":
            stat(lambda s: ratio(s.get("extensions", 0), s.get("rounds", 0))),
        "presentations.oracle_calls": stat(lambda s: s.get("oracle_calls", 0)),
        "presentations.ball_vertices": stat(lambda s: s.get("ball_vertices", 0)),
        "constructions.classes_per_key":
            ratio(classes, span("constructions.canonical_key", "calls")),
        "trace.overhead_ratio": ratio(median([p["pass_s"] for p in traced]),
                                      median([p["pass_s"] for p in plain])),
        "trace.covered_frac": median([ratio(p["root_s"], p["pass_s"]) for p in traced]),
    })
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        span_name, field = name.rsplit(".", 1)
        if field not in ("calls", "self_s", "total_s"):
            raise BenchError(f"per-layer metric {name!r} has no definition")
        out[name] = span(span_name, field)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "clawham" / "__init__.py").is_file():
            raise BenchError("the clawham sources (src/clawham) are missing")
        if args.workload not in FRESH_PER_PASS:
            raise BenchError(f"unknown workload {args.workload!r}")
        setups, reports = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    passes = [p for r in reports for p in r["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) != 1:
        failed += 1
        problems.append("passes on the same inputs gave different outputs")
    digest = digests[0]

    plain = [p for p in passes if not p["traced"]]
    ops = {op: median([p["op_s"][op] for p in plain if op in p["op_s"]]) for op in OPS}
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes "
          f"in {len(reports)} processes; failed_frac={ratio(failed, attempted)} "
          f"({failed}/{attempted})")
    print("# median per pass: " + ", ".join(
        f"{op}={value:.4f} s" for op, value in ops.items() if value))
    print(f"# output digest: {digest}")
    for msg in problems[:10]:
        print(f"# problem: {msg}")

    if args.trace:
        wanted = spec["per_layer"]
        try:
            values = per_layer([m["name"] for m in wanted], passes, reports)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
    else:
        values = {"setup_s": median(setups),
                  "pass_s": median([p["pass_s"] for p in plain]),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in reports])}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
