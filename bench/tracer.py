"""Spans around the public functions of each ``clawham`` layer, recorded from
outside the package.

``Tracer.install()`` wraps every public function defined in a layer module
and rebinds the wrapper wherever a ``clawham`` module holds the original by
name (``from .extension import apply_path_extension`` in ``engine`` makes a
second binding that a patch of ``clawham.extension`` alone would miss).
``Tracer.uninstall()`` puts every original back.  Spans stay in memory as
``(name, start, end, parent)`` tuples until ``layer_stats`` folds them into
per-name call counts, inclusive and self times.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

import clawham

LAYERS = ("graph", "predicates", "extension", "separators", "engine",
          "presentations", "constructions")

# Wrapped in addition to module-level functions: graph construction, which
# the engine pays for every throwaway subgraph, and ball extraction.
METHODS = (("graph", "FiniteGraph", "__init__", "graph.FiniteGraph"),
           ("presentations", "GraphPresentation", "extract_ball",
            "presentations.extract_ball"))

# Spans and the benchmark's timings are CPU seconds of the process.  The
# package runs in one thread and does no I/O, so on an idle machine this
# equals wall time; on a shared one it leaves out the time the process waited
# for a core, which would otherwise move run medians.
CLOCK = time.process_time

# One call per edge in the splice and cut loops; a wrapper would cost more
# than the body and inflate its callers' self times.
SKIP = frozenset({"graph.edge_key"})


def clawham_modules() -> list:
    """The package and every submodule, imported so all bindings exist."""
    for info in pkgutil.iter_modules(clawham.__path__):
        importlib.import_module(f"clawham.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "clawham" or name.startswith("clawham.")]


def layer_functions() -> dict[str, object]:
    """Span name -> original function for every traced module function."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"clawham.{layer}")
        for attr, value in sorted(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (not attr.startswith("_") and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == mod.__name__
                    and name not in SKIP):
                out[name] = value
    return out


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, CLOCK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        originals = layer_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod in clawham_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"clawham.{layer}"), cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_stats(spans: list, entry_points) -> tuple[dict[str, dict[str, float]], float]:
    """Per span name: ``calls``, ``total_s`` (inclusive, outermost calls only,
    so recursion is not counted twice) and ``self_s`` (duration minus the
    durations of direct children).  Also returns the summed duration of the
    root spans named in ``entry_points``, the calls the benchmark timed;
    other root spans come from input generation between those calls."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    root_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[i]
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][3]
        if outermost:
            entry["total_s"] += end - start
        if parent < 0 and name in entry_points:
            root_s += end - start
    return stats, root_s
