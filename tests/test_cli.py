from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clawham.cli import main
from clawham.graphio import graph_to_json
from clawham.constructions import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    star_graph,
    wheel_graph,
)


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_check_claw(tmp_path, capsys):
    path = tmp_path / "claw.json"
    path.write_text(graph_to_json(star_graph(3)))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["claw_free"]["holds"] is False
    assert payload["claw_free"]["witness"] == [0, 1, 2, 3]


def test_check_disconnected_reports_a_connectivity_witness(monkeypatch, capsys):
    """The ``connected`` report names the first vertex of each of the first
    two components, the witness ``hamilton`` fails with."""
    text = "0 1\n2 3\n"
    code, out, _ = run_cli(capsys, "check", stdin=text, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["connected"] == {
        "holds": False, "witness": [0, 2], "note": "graph is disconnected"
    }
    assert payload["two_connected"]["witness"] == [0, 2]
    code, out, _ = run_cli(capsys, "hamilton", stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    assert (json.loads(out)["predicate"], json.loads(out)["witness"]) == ("connected", [0, 2])


def test_check_c5(tmp_path, capsys):
    path = tmp_path / "c5.json"
    path.write_text(graph_to_json(cycle_graph(5)))
    code, out, _ = run_cli(capsys, "check", str(path))
    payload = json.loads(out)
    assert payload["claw_free"]["holds"] is True
    assert payload["locally_connected"]["holds"] is False


def test_check_w5(tmp_path, capsys):
    path = tmp_path / "w5.json"
    path.write_text(graph_to_json(wheel_graph(5)))
    code, out, _ = run_cli(capsys, "check", str(path))
    payload = json.loads(out)
    assert payload["claw_free"]["holds"]
    assert payload["locally_connected"]["holds"]
    assert payload["two_connected"]["holds"]


def test_hamilton_k3_and_certificate_roundtrip(tmp_path, capsys):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(graph_to_json(complete_multipartite(2, 2, 2)))
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "hamilton", str(graph_path), "--certificate-out", str(cert_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["final_cycle"]) == 6
    code, out, _ = run_cli(
        capsys, "verify-certificate", str(graph_path), "--certificate", str(cert_path)
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_hamilton_rejects_c6_with_witness(tmp_path, capsys):
    graph_path = tmp_path / "c6.json"
    graph_path.write_text(graph_to_json(cycle_graph(6)))
    code, out, err = run_cli(capsys, "hamilton", str(graph_path))
    assert code == 1
    payload = json.loads(out)
    assert payload["predicate"] == "locally_connected"
    assert payload["witness"]


def test_verify_detects_tampering(tmp_path, capsys):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(graph_to_json(complete_multipartite(2, 2, 2)))
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "hamilton", str(graph_path), "--certificate-out", str(cert_path))
    cert = json.loads(cert_path.read_text())
    order = list(cert["final_cycle"])
    order[1], order[3] = order[3], order[1]
    cert["final_cycle"] = order
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(cert))
    code, out, err = run_cli(
        capsys, "verify-certificate", str(graph_path), "--certificate", str(bad_path)
    )
    assert code in (1, 2)


def test_verify_reports_a_repeated_bridged_vertex(tmp_path, capsys):
    """A certificate step that bridges the same vertex twice is a failed
    replay step: exit 1 with the JSON report, not a traceback."""
    from helpers import repeated_bridged_certificate

    g, cert = repeated_bridged_certificate()
    graph_path = tmp_path / "lk5.json"
    graph_path.write_text(graph_to_json(g))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, out, err = run_cli(
        capsys, "verify-certificate", str(graph_path), "--certificate", str(cert_path)
    )
    assert code == 1
    assert "Traceback" not in err
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["failure"].endswith("bridged set repeats a vertex")


K4_CERTIFICATE = {
    "initial_cycle": [0, 1, 2],
    "extensions": [{"case": "one", "target": 3, "base": 0, "path": [3, 1],
                    "bridged": [], "reattach": None}],
    "final_cycle": [0, 2, 1, 3],
}


# Vertex ids that are not non-negative ints: a string, and bools, floats and
# digit strings that ``int()`` would truncate to valid ids.  "path" edits the
# one extension's path.
NON_ID_EDITS = [
    pytest.param({"initial_cycle": ["a", 1, 2]}, id="string"),
    pytest.param({"initial_cycle": [False, True, "2"]}, id="bool"),
    pytest.param({"path": [3.5, "1"]}, id="float-path"),
    pytest.param({"final_cycle": [0.9, 2.2, "1", 3.0]}, id="float-final"),
    pytest.param({"final_cycle": [0, 2, 1, -3]}, id="negative"),
    pytest.param({"initial_cycle": [False, True, "2"], "path": [3.5, "1"],
                  "final_cycle": [0.9, 2.2, "1", 3.0]}, id="all"),
]


@pytest.mark.parametrize("edit", NON_ID_EDITS)
def test_verify_rejects_non_integer_vertex_ids(tmp_path, capsys, edit):
    graph_path = tmp_path / "k4.json"
    graph_path.write_text(graph_to_json(complete_graph(4)))
    cert = copy.deepcopy(K4_CERTIFICATE)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, out, err = run_cli(
        capsys, "verify-certificate", str(graph_path), "--certificate", str(cert_path)
    )
    assert (code, json.loads(out)["ok"]) == (0, True)
    edit = dict(edit)
    if "path" in edit:
        cert["extensions"][0]["path"] = edit.pop("path")
    cert.update(edit)
    cert_path.write_text(json.dumps(cert))
    code, out, err = run_cli(
        capsys, "verify-certificate", str(graph_path), "--certificate", str(cert_path)
    )
    assert code == 2
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert "vertex ids must be non-negative integers" in payload["message"]


NOT_UTF8 = b"\xff\xfe0 1\n"
NESTED = '{"vertices": ' + "[" * 100_000


@pytest.mark.parametrize("text, error", [
    ("{this is not json", "GraphInputError"),
    (json.dumps({**K4_CERTIFICATE, "initial_cycle": [0, 1.5, 2]}), "DomainError"),
    pytest.param(NOT_UTF8, "GraphInputError", id="not-utf8"),
    pytest.param("[" * 100_000, "GraphInputError", id="deeply-nested"),
])
def test_bad_certificate_error_names(tmp_path, capsys, text, error):
    # a file that is not UTF-8 JSON is bad input; a JSON record that breaks
    # a rule is a domain error; both exit 2
    graph_path = tmp_path / "k4.json"
    graph_path.write_text(graph_to_json(complete_graph(4)))
    cert_path = tmp_path / "cert.json"
    cert_path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run_cli(
        capsys, "verify-certificate", str(graph_path), "--certificate", str(cert_path)
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("graph_argv", [[], ["-"]], ids=["omitted", "dash"])
def test_verify_refuses_graph_and_certificate_both_from_stdin(capsys, monkeypatch,
                                                              graph_argv):
    """The graph read would take all of stdin, leaving the certificate an
    empty read and a message about JSON; the conflict is named instead."""
    code, out, err = run_cli(capsys, "verify-certificate", *graph_argv, "--certificate", "-",
                             stdin=graph_to_json(complete_graph(4)), monkeypatch=monkeypatch)
    assert_input_error(code, out, err,
                       "the graph and the certificate cannot both be read from stdin")


def test_malformed_graph_is_status_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{this is not json")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "error" in json.loads(err)


def assert_input_error(code, out, err, message):
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "GraphInputError"
    assert message in payload["message"]


@pytest.mark.parametrize("command", ["check", "hamilton", "verify-certificate"])
def test_graph_file_that_is_not_utf8_is_status_2(tmp_path, capsys, command):
    path = tmp_path / "g.txt"
    path.write_bytes(NOT_UTF8)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(K4_CERTIFICATE))
    extra = ["--certificate", str(cert)] if command == "verify-certificate" else []
    code, out, err = run_cli(capsys, command, str(path), *extra)
    assert_input_error(code, out, err, f"{path} is not UTF-8 text")


def test_stdin_that_is_not_utf8_is_status_2():
    """Under strict UTF-8 stdin, as under a UTF-8 locale, undecodable bytes
    on stdin are bad input, not a traceback."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict", PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "clawham.cli", "check"],
        input=NOT_UTF8, capture_output=True, env=env, timeout=60,
    )
    err = proc.stderr.decode()
    assert_input_error(proc.returncode, proc.stdout.decode(), err, "stdin is not UTF-8 text")


def test_stdin_that_is_not_utf8_is_refused_whatever_the_locale(tmp_path, capsys):
    """Under the C.UTF-8 locale and no PYTHONIOENCODING, the text stream of
    stdin would pass undecodable bytes on as lone surrogates; stdin is read
    as bytes and decoded strictly, so the refusal reads as a file's does."""
    path = tmp_path / "g.txt"
    path.write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, "check", str(path))
    assert_input_error(code, out, err, f"{path} is not UTF-8 text: ")
    reason = json.loads(err)["message"].split(" is not UTF-8 text: ", 1)[1]

    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env.update(LC_ALL="C.UTF-8", PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "clawham.cli", "check"],
        input=NOT_UTF8, capture_output=True, env=env, timeout=60,
    )
    err = proc.stderr.decode()
    assert_input_error(proc.returncode, proc.stdout.decode(), err, "stdin is not UTF-8 text: ")
    assert json.loads(err)["message"] == f"stdin is not UTF-8 text: {reason}"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_deeply_nested_graph_json_is_status_2(tmp_path, capsys, monkeypatch, source):
    if source == "file":
        path = tmp_path / "g.json"
        path.write_text(NESTED)
        code, out, err = run_cli(capsys, "check", str(path))
    else:
        code, out, err = run_cli(capsys, "check", stdin=NESTED, monkeypatch=monkeypatch)
    assert_input_error(code, out, err, "invalid JSON: maximum recursion depth exceeded")


def test_infinite_run_payload(tmp_path, capsys):
    log_path = tmp_path / "run.jsonl"
    dot_path = tmp_path / "stable.dot"
    code, out, _ = run_cli(
        capsys,
        "infinite", "run",
        "--preset", "ray-square",
        "--rounds", "2",
        "--radius", "20",
        "--log-out", str(log_path),
        "--stable-dot", str(dot_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["extraction"]["all_pass"] is True
    lines = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[1]["round"] == 1
    assert dot_path.read_text().startswith("graph G {")


def test_infinite_run_radius_too_small(capsys):
    code, out, err = run_cli(
        capsys, "infinite", "run", "--preset", "double-ray-square",
        "--rounds", "3", "--radius", "9",
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["suggested_radius"] > 9


def test_infinite_run_suggests_the_radius_that_finishes_the_run(capsys):
    """Twenty rounds need 4·20 + 5 = 85: the depth rule suggests it from a
    radius of 60, and the run at 85 succeeds."""
    args = ("infinite", "run", "--preset", "double-ray-square", "--rounds", "20")
    code, _, err = run_cli(capsys, *args, "--radius", "60")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "RadiusTooSmallError"
    assert payload["suggested_radius"] == 85
    code, _, _ = run_cli(capsys, *args, "--radius", "85")
    assert code == 0


@pytest.mark.parametrize("kind", ["lost-vertex", "failing-conclusion", "repeated-spine"])
def test_infinite_run_reports_a_faulty_round_with_exit_3(monkeypatch, capsys, kind):
    from helpers import inject_round_fault

    message = inject_round_fault(monkeypatch, kind)
    code, out, err = run_cli(
        capsys, "infinite", "run", "--preset", "double-ray-square",
        "--rounds", "2", "--radius", "20",
    )
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "InternalConsistencyError"
    assert payload["message"] == message
    assert "Traceback" not in err


def test_hamilton_past_a_gate_that_misses_the_bowtie_exits_3(monkeypatch, capsys):
    """A hypothesis sweep that passes the bowtie lets the construction meet
    the split neighborhood: exit 3, the JSON payload on stderr, no
    traceback."""
    import clawham.predicates as predicates
    from helpers import BOWTIE, BOWTIE_FAULT

    monkeypatch.setattr(predicates, "hypothesis_failures", lambda g, vertices: [])
    stdin = "".join(f"{u} {v}\n" for u, v in BOWTIE.edges())
    code, out, err = run_cli(capsys, "hamilton", stdin=stdin, monkeypatch=monkeypatch)
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "InternalConsistencyError", "message": BOWTIE_FAULT}
    assert "Traceback" not in err


def test_gen_roundtrips_into_other_commands(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "octahedron")
    assert code == 0
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "hamilton", str(path))
    assert code == 0
    code, edges, _ = run_cli(capsys, "gen", "wheel", "5", "--format", "edges")
    assert code == 0
    path2 = tmp_path / "w.txt"
    path2.write_text(edges)
    code, out3, _ = run_cli(capsys, "check", str(path2))
    assert code == 0 and json.loads(out3)["claw_free"]["holds"]


def test_gen_power_and_line_flags(capsys):
    code, out, _ = run_cli(capsys, "gen", "path", "6", "--power", "2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 6 and len(obj["edges"]) == 9
    code, out, _ = run_cli(capsys, "gen", "complete", "3", "--line")
    obj = json.loads(out)
    assert len(obj["vertices"]) == 3 and len(obj["edges"]) == 3


@pytest.mark.parametrize("power", ["0", "-2"])
def test_gen_rejects_power_below_one(capsys, power):
    code, out, err = run_cli(capsys, "gen", "path", "6", "--power", power)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_gen_power_one_is_the_graph_itself(capsys):
    _, plain, _ = run_cli(capsys, "gen", "wheel", "5")
    code, out, _ = run_cli(capsys, "gen", "wheel", "5", "--power", "1")
    assert code == 0 and out == plain


@pytest.mark.parametrize("argv", [
    ("hamilton", "{graph}", "--certificate-out", "{out}"),
    ("infinite", "run", "--preset", "ray-square", "--rounds", "2", "--radius", "20",
     "--log-out", "{out}"),
    ("infinite", "run", "--preset", "ray-square", "--rounds", "2", "--radius", "20",
     "--stable-dot", "{out}"),
], ids=["certificate-out", "log-out", "stable-dot"])
def test_unwritable_output_path_is_status_2(tmp_path, capsys, argv):
    graph = tmp_path / "k5.json"
    graph.write_text(graph_to_json(complete_graph(5)))
    out_path = tmp_path / "missing" / "out"
    code, out, err = run_cli(
        capsys, *(a.format(graph=graph, out=out_path) for a in argv)
    )
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "GraphInputError" and "cannot write" in payload["message"]


def test_payloads_are_byte_identical_across_runs(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(complete_multipartite(2, 2, 2)))
    _, out1, _ = run_cli(capsys, "hamilton", str(path))
    _, out2, _ = run_cli(capsys, "hamilton", str(path))
    assert out1 == out2
    _, c1, _ = run_cli(capsys, "infinite", "run", "--preset", "ray-square",
                       "--rounds", "2", "--radius", "16")
    _, c2, _ = run_cli(capsys, "infinite", "run", "--preset", "ray-square",
                       "--rounds", "2", "--radius", "16")
    assert c1 == c2


def test_infinite_run_rejects_non_integer_offsets(capsys):
    code, out, err = run_cli(
        capsys, "infinite", "run", "--preset", "custom-oracle",
        "--offsets", "1,x", "--rounds", "2", "--radius", "20",
    )
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "GraphInputError" and "1,x" in payload["message"]


@pytest.mark.parametrize("preset_name, offsets", [
    ("double-ray-square", "1,5"),  # offsets apply only to custom-oracle
    ("custom-oracle", ""),  # an empty list is not the default 1,2
])
def test_infinite_run_rejects_offsets_it_would_ignore(capsys, preset_name, offsets):
    code, out, err = run_cli(
        capsys, "infinite", "run", "--preset", preset_name,
        "--offsets", offsets, "--rounds", "0", "--radius", "5",
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "GraphInputError"


def test_gen_rejects_negative_size(capsys):
    code, out, err = run_cli(capsys, "gen", "path", "-5")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "GraphInputError"


def test_infinite_run_refuses_a_huge_ball(capsys):
    code, out, err = run_cli(
        capsys, "infinite", "run", "--preset", "ray-square",
        "--rounds", "2", "--radius", "100000000",
    )
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "DomainError" and "vertices" in payload["message"]


def test_reader_closing_the_pipe_early_is_quiet():
    """``clawham gen path 20000 | head -c 10``: exit 1, no traceback."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "clawham.cli", "gen", "path", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert head == b'{"edges": '
    assert code == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


@pytest.mark.parametrize("command", ["check", "hamilton"])
@pytest.mark.parametrize("edge", [[0, True], [1.0, 2]])
def test_edge_endpoints_that_are_not_ids_are_status_2(tmp_path, capsys, command, edge):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], edge]}))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload == {
        "error": "GraphInputError",
        "message": f"edge ({edge[0]!r}, {edge[1]!r}): vertex ids must be non-negative integers",
    }


def test_gen_size_closed_forms_match_the_families():
    from clawham.cli import _FAMILY_SIZES
    from clawham.constructions import NAMED_GRAPHS
    from clawham.errors import DomainError

    for name, size in _FAMILY_SIZES.items():
        for n in range(0, 12):
            try:
                g = NAMED_GRAPHS[name](n)
            except DomainError:  # below the family's least size
                continue
            assert size(n) == (len(g), g.edge_count()), (name, n)


def test_gen_power_bound_is_an_upper_bound():
    from clawham.cli import _ball_bound
    from clawham.constructions import NAMED_GRAPHS, graph_power

    for name in ("path", "cycle", "star", "wheel", "triangular-ladder"):
        g = NAMED_GRAPHS[name](9)
        degree = max(map(g.degree, g.vertices))
        for k in range(1, 6):
            power = graph_power(g, k)
            reach = _ball_bound(degree, k, len(g) - 1)
            assert max(map(power.degree, power.vertices)) <= reach, (name, k)
    g = NAMED_GRAPHS["petersen"]()
    assert _ball_bound(3, 2, 9) == 9 == graph_power(g, 2).degree(0)


def _refuse_to_build(*args):
    raise AssertionError("gen built a graph it should have refused")


@pytest.mark.parametrize("argv, message, patched", [
    (("complete", "100000"),
     "complete 100000 has 5000050000 vertices plus edges; gen builds at most 1000000",
     "complete"),
    (("star", "2000", "--power", "2"),
     "--power 2 can give up to 2003001 vertices plus edges; gen builds at most 1000000",
     "graph_power"),
    (("star", "2000", "--line"),
     "--line gives 2001000 vertices plus edges; gen builds at most 1000000",
     "line_graph"),
], ids=["family", "power", "line"])
def test_gen_refuses_oversized_graphs_before_building_them(monkeypatch, capsys, argv,
                                                           message, patched):
    import tracemalloc

    import clawham.cli as cli
    from clawham.constructions import NAMED_GRAPHS

    if patched == "complete":
        monkeypatch.setitem(NAMED_GRAPHS, "complete", _refuse_to_build)
    else:
        monkeypatch.setattr(cli, patched, _refuse_to_build)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "gen", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "GraphInputError", "message": message}
    assert peak < 4 * 2**20  # the star itself, not its square or line graph


def test_gen_limit_is_on_vertices_plus_edges(monkeypatch, capsys):
    import clawham.cli as cli

    monkeypatch.setattr(cli, "_MAX_GEN_SIZE", 19)
    code, out, _ = run_cli(capsys, "gen", "path", "10")  # 10 + 9
    assert code == 0 and len(json.loads(out)["edges"]) == 9
    code, out, err = run_cli(capsys, "gen", "path", "11")
    assert code == 2 and out == ""
    assert json.loads(err)["message"] == (
        "path 11 has 21 vertices plus edges; gen builds at most 19")


def test_readme_command_line_examples_run_in_ci():
    """The CI step that runs the installed ``clawham`` script runs every
    example of the README's command-line section."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()

    def commands(text):
        return [" ".join(line.split()) for line in text.replace("\\\n", " ").splitlines()
                if line.strip()]

    examples = commands(section)
    assert examples and all(c.startswith("clawham ") for c in examples)
    ci = "\n".join(commands(workflow))
    for example in examples:
        assert example in ci, example
