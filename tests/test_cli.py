"""Tests for the command line interface and its exit-code contract."""

import importlib
import json
from collections import Counter

import pytest

from hyperspec import UniformHypergraph, generate, loose_path, parse_hypergraph, render_hypergraph
from hyperspec.blowup import BLOWUP_VERTEX_CAP
from hyperspec.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_complete(capsys):
    code, out, _ = run(capsys, ["spectrum", "--gen", "complete:5,3", "--kind", "adjacency"])
    assert code == 0
    assert "lambda      6" in out


def test_spectrum_loose_path_value(capsys):
    code, out, _ = run(capsys, ["spectrum", "--gen", "loose_path:3,2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["result"]["lambda"] - 2 ** (1 / 3)) < 1e-8
    assert payload["config"]["tolerance"] == 1e-10
    assert payload["kind"] == "adjacency"


def test_config_reports_the_shift_and_no_seed(capsys):
    code, out, _ = run(capsys, ["spectrum", "--gen", "single_edge:3", "--json"])
    assert code == 0
    config = json.loads(out)["config"]
    assert config == {"tolerance": 1e-10, "max_iterations": 100000, "shift": 1.0}
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--gen", "single_edge:3", "--seed", "1"])
    assert exc.value.code == 2


def test_spectrum_q_kind(capsys):
    code, out, _ = run(capsys, ["spectrum", "--gen", "single_edge:3", "--kind", "q", "--json"])
    assert code == 0
    assert abs(json.loads(out)["result"]["lambda"] - 2.0) < 1e-9


def test_spectrum_json_deterministic(capsys):
    args = ["spectrum", "--gen", "random:8,3,10,42", "--json"]
    _, first, _ = run(capsys, args)
    _, second, _ = run(capsys, args)
    assert first == second


def test_spectrum_nonconvergence_exit(capsys):
    code, _, _ = run(capsys, ["spectrum", "--gen", "loose_path:3,2", "--max-iter", "1"])
    assert code == 3


def test_bound_nonconvergence_exit(capsys):
    code, _, _ = run(capsys, ["bound", "--gen", "loose_path:3,2", "--max-iter", "1"])
    assert code == 3


def test_bound_loose_path(capsys):
    code, out, _ = run(capsys, ["bound", "--gen", "loose_path:3,2", "--json"])
    assert code == 0
    payload = json.loads(out)
    adj = next(rep for rep in payload["reports"] if rep["kind"] == "adjacency")
    assert abs(adj["bound"] - 1.2309312092285165) < 1e-9
    assert adj["gap"] > 0.02
    assert adj["equality"] is False


def test_bound_equality_on_regular(capsys):
    code, out, _ = run(capsys, ["bound", "--gen", "complete:5,3", "--json"])
    assert code == 0
    payload = json.loads(out)
    for rep in payload["reports"]:
        if rep["kind"] in ("adjacency", "signless-laplacian"):
            assert rep["equality"] is True


def test_bound_csv(capsys):
    code, out, _ = run(capsys, ["bound", "--gen", "single_edge:3", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "input,kind,bound,rho,gap,regular,equality,connected,consistent"
    assert len(lines) == 4  # adjacency, signless-laplacian, average-degree
    assert lines[1].startswith("gen:single_edge:3,adjacency,")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--gen", "single_edge:3", "--csv"],
        ["blowup", "--gen", "single_edge:3", "--csv"],
        ["verify", "--csv"],
    ],
)
def test_csv_is_refused_outside_bound(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err


def test_inline_hash_is_a_field_not_a_comment(tmp_path, capsys):
    path = tmp_path / "tail.hg"
    path.write_text("3 3\n1 2 3 # tail\n")
    code, _, err = run(capsys, ["spectrum", "--in", str(path)])
    assert code == 2
    assert "edge ['1', '2', '3', '#', 'tail'] must list exactly 3 vertices" in err


def test_input_file_and_bad_file(tmp_path, capsys):
    good = tmp_path / "good.hg"
    good.write_text(render_hypergraph(loose_path(3, 2)))
    code, out, _ = run(capsys, ["spectrum", "--in", str(good), "--json"])
    assert code == 0
    assert abs(json.loads(out)["result"]["lambda"] - 2 ** (1 / 3)) < 1e-8

    bad = tmp_path / "bad.hg"
    bad.write_text("5 3\n1 1 2\n")
    code, _, err = run(capsys, ["bound", "--in", str(bad)])
    assert code == 2
    assert "error" in err

    code, _, _ = run(capsys, ["bound", "--in", str(tmp_path / "missing.hg")])
    assert code == 2


def test_bad_generator_spec(capsys):
    code, _, err = run(capsys, ["spectrum", "--gen", "complete:2,3"])
    assert code == 2
    assert "error" in err


def test_blowup_writes_file(tmp_path, capsys):
    out_path = tmp_path / "tilde.hg"
    code, _, _ = run(capsys, ["blowup", "--gen", "loose_path:3,2", "--out", str(out_path)])
    assert code == 0
    tilde = parse_hypergraph(out_path.read_text())
    assert tilde.n == 15
    assert tilde.num_edges == 12


def test_blowup_verify_single_edge(capsys):
    code, out, _ = run(capsys, ["blowup", "--gen", "single_edge:3", "--verify", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verify"]["ok"] is True
    assert abs(payload["verify"]["scaling"]["tilde"]["lambda"] - 2.0) < 1e-9
    assert payload["tilde"] == {"n": 9, "r": 3, "edges": 6}


def test_blowup_capacity_exit(capsys):
    code, _, err = run(capsys, ["blowup", "--gen", "complete:24,5"])
    assert code == 5
    assert "cap" in err


@pytest.mark.parametrize("spec", ["complete:60,30", "random:100000,3,5000001,1"])
def test_generator_capacity_exit(capsys, spec):
    # refused before a single edge is enumerated or drawn
    code, _, err = run(capsys, ["spectrum", "--gen", spec, "--json"])
    assert code == 5
    assert "cap is 5000000" in err


def test_verify_corpus(tmp_path, capsys):
    (tmp_path / "a.hg").write_text(render_hypergraph(loose_path(3, 2)))
    (tmp_path / "b.hg").write_text("3 3\n1 2 3\n")
    code, out, _ = run(capsys, ["verify", str(tmp_path)])
    assert code == 0
    assert "FAIL" not in out
    assert "a.hg" in out and "b.hg" in out


def test_verify_skips_only_blowups_over_the_caps(tmp_path, capsys):
    # a blow-up on 400 vertices with 9,600 edges is verified; one vertex
    # over BLOWUP_VERTEX_CAP gets a skip row, and every other check runs
    (tmp_path / "a.hg").write_text(render_hypergraph(generate("random:100,4,400,1")))
    over = UniformHypergraph(BLOWUP_VERTEX_CAP // 3 + 1, 3, ((0, 1, 2),))
    (tmp_path / "b.hg").write_text(render_hypergraph(over))
    code, out, _ = run(capsys, ["verify", "--json", str(tmp_path)])
    assert code == 0
    rows = {(row["instance"], row["check"]): (row["status"], row["detail"])
            for row in json.loads(out)["results"]}
    assert rows[("a.hg", "blowup")][0] == "pass"
    assert rows[("b.hg", "blowup")] == ("skip", "skipped: size")
    assert [status for (name, _), (status, _) in rows.items() if name == "b.hg"] == [
        "pass", "pass", "skip", "pass"]


def test_verify_empty_corpus(tmp_path, capsys):
    code, _, err = run(capsys, ["verify", str(tmp_path)])
    assert code == 0
    assert "empty corpus" in err


def test_verify_fault_injection(tmp_path, capsys, monkeypatch):
    # plant a bound violation: inflate the bound used inside verify_bounds,
    # so the reported gap turns negative beyond tolerance
    import hyperspec.bounds as bounds_mod

    real = bounds_mod.degree_power_mean_bound
    monkeypatch.setattr(bounds_mod, "degree_power_mean_bound", lambda H: real(H) + 1.0)
    (tmp_path / "a.hg").write_text(render_hypergraph(loose_path(3, 2)))
    code, out, err = run(capsys, ["verify", str(tmp_path)])
    assert code == 4
    assert "FAIL" in out
    assert "failing instance" in err


def test_round_trip_through_cli_output(tmp_path, capsys):
    out_path = tmp_path / "again.hg"
    code, _, _ = run(capsys, ["blowup", "--gen", "single_edge:3", "--out", str(out_path)])
    assert code == 0
    H = parse_hypergraph(out_path.read_text())
    assert parse_hypergraph(render_hypergraph(H)) == H


def test_blowup_out_keeps_file_and_json_goes_to_stdout(tmp_path, capsys):
    out_path = tmp_path / "t.hg"
    code, out, _ = run(capsys, ["blowup", "--gen", "single_edge:3", "--out", str(out_path),
                                "--json"])
    assert code == 0
    tilde = parse_hypergraph(out_path.read_text())
    assert (tilde.n, tilde.num_edges) == (9, 6)
    payload = json.loads(out)
    assert payload["command"] == "blowup"
    assert payload["tilde"] == {"n": 9, "r": 3, "edges": 6}


def test_verify_solves_each_radius_once(capsys, monkeypatch):
    solved = Counter()
    original = importlib.import_module("hyperspec.solver").spectral_radius

    def counted(H, kind="adjacency", cfg=None):
        solved[(H, kind)] += 1
        return original(H, kind, cfg)

    for name in ("solver", "bounds", "blowup", "cli"):
        module = importlib.import_module(f"hyperspec.{name}")
        monkeypatch.setattr(module, "spectral_radius", counted)
    code, out, _ = run(capsys, ["verify", "--json"])
    assert code == 0
    assert json.loads(out)["failures"] == 0
    assert solved and max(solved.values()) == 1


BUILTIN_INSTANCES = [
    "complete:4,3", "complete:5,3", "complete:6,3",
    "single_edge:3", "single_edge:4", "single_edge:5",
    "loose_path:3,2", "loose_path:3,3", "loose_path:4,2",
    "random:8,3,10,1", "random:9,3,12,2", "random:10,4,8,3",
    "disjoint_pair:3",
]


def test_builtin_verify_rows_are_pinned(capsys):
    # every builtin instance runs every check, and every check passes
    code, out, _ = run(capsys, ["verify", "--json"])
    assert code == 0
    rows = [(row["instance"], row["check"], row["status"]) for row in json.loads(out)["results"]]
    assert rows == [
        (name, check, "pass")
        for name in BUILTIN_INSTANCES
        for check in ("bounds", "dominance", "blowup", "odd-coloring")
    ]


def test_bound_gate_is_shared(tmp_path, capsys, monkeypatch):
    import hyperspec.cli as cli_mod

    monkeypatch.setattr(cli_mod, "bounds_hold", lambda reports, tolerance: False)
    code, _, _ = run(capsys, ["bound", "--gen", "complete:5,3"])
    assert code == 4
    (tmp_path / "a.hg").write_text("3 3\n1 2 3\n")
    code, out, _ = run(capsys, ["verify", str(tmp_path)])
    assert code == 4
    row = next(line for line in out.splitlines() if line.split()[1:2] == ["bounds"])
    assert row.split()[2] == "FAIL"
