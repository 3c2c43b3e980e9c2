"""One benchmark process: set up a workload from its seed, then run passes.

Run by ``run.py``, one process per measurement unit:

    python3 bench/worker.py WORKLOAD SEED BUDGET_S MAX_PASSES PLAN

After set-up it runs passes until BUDGET_S seconds have passed or
MAX_PASSES are done, but at least once per PLAN entry.  PLAN is a string of
0s and 1s that the passes cycle through; a 1 means that pass runs under the
tracer.  The one line it prints is a JSON object with every pass and the
process's peak resident memory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracer  # noqa: E402  (needs the path set above)
import workloads  # noqa: E402


def traced_pass(workload) -> dict:
    with tracer.Tracer() as t:
        p = workload.run_pass()
    result = p.result()
    result["layers"], result["root_s"] = tracer.layer_stats(t.spans, p.entry_points)
    return result


def main(argv: list[str]) -> int:
    name, seed, budget, max_passes, plan = argv
    workload = workloads.WORKLOADS[name](int(seed))
    passes = []
    start = time.perf_counter()
    while len(passes) < int(max_passes) and (
            len(passes) < len(plan) or time.perf_counter() - start < float(budget)):
        traced = plan[len(passes) % len(plan)] == "1"
        result = traced_pass(workload) if traced else workload.run_pass().result()
        result["traced"] = traced
        passes.append(result)
    out = {"passes": passes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if hasattr(workload, "classes_kept") and passes:
        out["classes_kept"] = workload.classes_kept()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
