"""Graph, certificate and run-log serialization.

Supported graph formats:
  * JSON object ``{"vertices": [ids], "edges": [[u, v], ...]}``
  * plain edge-list text, one ``u v`` pair per line, vertices inferred
  * DOT (undirected, output only)
"""

from __future__ import annotations

import json
from typing import Iterable

from .errors import GraphInputError
from .graph import Edge, FiniteGraph


def graph_to_json_obj(g: FiniteGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges()],
    }


def graph_to_json(g: FiniteGraph) -> str:
    return json.dumps(graph_to_json_obj(g), sort_keys=True)


def graph_from_json_obj(obj) -> FiniteGraph:
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise GraphInputError("graph JSON must be an object with 'vertices' and 'edges'")
    try:
        return FiniteGraph(obj["vertices"], [tuple(e) for e in obj["edges"]])
    except (TypeError, ValueError) as exc:
        raise GraphInputError(f"malformed graph JSON: {exc}") from exc


def graph_from_edge_list(text: str) -> FiniteGraph:
    """Parse 'u v' lines; blank lines and '#' comments are skipped."""
    edges: list[Edge] = []
    vertices: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            try:
                vertices.add(int(parts[0]))
            except ValueError as exc:
                raise GraphInputError(f"line {lineno}: expected an integer vertex id") from exc
            continue
        if len(parts) != 2:
            raise GraphInputError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphInputError(f"line {lineno}: vertex ids must be integers") from exc
        vertices.update((u, v))
        edges.append((u, v))
    return FiniteGraph(vertices, edges)


def parse_graph(text: str) -> FiniteGraph:
    """Accept either the JSON format or the edge-list format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise GraphInputError(f"invalid JSON: {exc}") from exc
        return graph_from_json_obj(obj)
    return graph_from_edge_list(text)


def graph_to_edge_list(g: FiniteGraph) -> str:
    lines = [f"{u} {v}" for u, v in g.edges()]
    covered = {v for e in g.edges() for v in e}
    lines.extend(str(v) for v in g.vertices if v not in covered)
    return "\n".join(lines) + ("\n" if lines else "")


def graph_to_dot(
    g: FiniteGraph,
    highlight_edges: Iterable[Edge] = (),
    dashed_edges: Iterable[Edge] = (),
) -> str:
    """Undirected DOT output; highlighted edges are drawn bold, dashed dashed."""
    bold = set(highlight_edges)
    dashed = set(dashed_edges)
    lines = ["graph G {"]
    seen_in_edges = set()
    for u, v in g.edges():
        seen_in_edges.update((u, v))
        style = ""
        if (u, v) in bold:
            style = ' [style=bold color="black"]'
        elif (u, v) in dashed:
            style = " [style=dashed]"
        lines.append(f"  {u} -- {v}{style};")
    for v in g.vertices:
        if v not in seen_in_edges:
            lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
