from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from clawham.cli import main
from clawham.graphio import graph_to_json
from clawham.constructions import complete_multipartite, cycle_graph, star_graph, wheel_graph


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


def test_malformed_graph_is_status_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{this is not json")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "error" in json.loads(err)


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
