"""Tests for the command line interface and its exit-code contract."""

import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    # the shift is the solver's constant 1, so config reports neither it nor
    # a seed, and neither flag is taken
    code, out, _ = run(capsys, ["spectrum", "--gen", "single_edge:3", "--json"])
    assert code == 0
    config = json.loads(out)["config"]
    assert config == {"tolerance": 1e-10, "max_iterations": 100000}
    for flag in ("--shift", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--gen", "single_edge:3", flag, "1"])
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


@pytest.mark.parametrize("command", ["spectrum", "bound", "blowup", "verify"])
def test_nonconvergence_exit_in_every_command(tmp_path, capsys, command):
    # a check that read an unconverged solve decides nothing: 3 outranks 4
    if command == "verify":
        (tmp_path / "a.hg").write_text(render_hypergraph(loose_path(3, 2)))
        argv = ["verify", str(tmp_path)]
    else:
        argv = [command, "--gen", "loose_path:3,2"] + (["--verify"] if command == "blowup" else [])
    code, _, _ = run(capsys, [*argv, "--max-iter", "1"])
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


@pytest.mark.parametrize("spec", ["complete:70,3", "complete:28,4"])
def test_bound_passes_regular_inputs_of_large_degree(capsys, spec):
    # the power mean of a constant degree sequence is that degree exactly,
    # so it equals the average degree and the dominance rule holds
    code, out, _ = run(capsys, ["bound", "--gen", spec, "--json"])
    assert code == 0
    reports = json.loads(out)["reports"]
    assert reports[0]["bound"] == reports[2]["bound"]


def test_verify_passes_a_regular_input_of_large_degree(tmp_path, capsys):
    (tmp_path / "c70.hg").write_text(render_hypergraph(generate("complete:70,3")))
    code, out, _ = run(capsys, ["verify", str(tmp_path)])
    assert code == 0
    status = {line.split()[1]: line.split()[2] for line in out.splitlines()[1:-1]}
    assert status["bounds"] == status["dominance"] == "PASS"


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


def test_inline_hash_error_holds_around_comments_blank_lines_and_crlf(tmp_path, capsys):
    path = tmp_path / "tail.hg"
    path.write_bytes(b"\n  # a comment # with a hash\n\t\n3 3\r\n\r\n1 2 3 # tail\r\n")
    code, _, err = run(capsys, ["spectrum", "--in", str(path)])
    assert code == 2
    assert err == "error: edge ['1', '2', '3', '#', 'tail'] must list exactly 3 vertices\n"


def test_dropped_duplicates_print_one_warning_line(tmp_path, capsys):
    path = tmp_path / "dups.hg"
    path.write_text("4 3\n1 2 3\n3 2 1\n2 3 4\n4 3 2\n")
    code, out, err = run(capsys, ["bound", "--in", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["reports"][0]["regular"] is False
    assert err == "warning: dropped 2 duplicate edge(s)\n"
    code, _, err = run(capsys, ["verify", str(tmp_path)])
    assert code == 0
    assert err == "warning: dups.hg: dropped 2 duplicate edge(s)\n"


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


@pytest.mark.parametrize(
    "name,text,message",
    [("zero.hg", "0 3\n", "n=0 r=3"),
     ("one.hg", "3 1\n1\n", "n=3 r=1"),
     ("zero.json", '{"n": 0, "r": 3, "edges": []}', "n=0 r=3"),
     (None, "single_edge:1", "n=1 r=1"),
     (None, "complete:5,1", "n=5 r=1"),
     (None, "complete:5,-1", "n=5 r=-1")],
)
def test_header_out_of_range_is_one_input_error(tmp_path, capsys, name, text, message):
    # the constructor, both parsers and the generators share one header check
    if name is None:
        source = ["--gen", text]
    else:
        (tmp_path / name).write_text(text)
        source = ["--in", str(tmp_path / name)]
    code, _, err = run(capsys, ["spectrum", *source])
    assert code == 2
    assert err == f"error: need n >= 1 and r >= 2, got {message}\n"


def test_bad_generator_spec(capsys):
    code, _, err = run(capsys, ["spectrum", "--gen", "complete:2,3"])
    assert code == 2
    assert "error" in err


def test_loose_path_refusal_names_the_given_values(capsys):
    # n is derived from r and the length, so the check of r comes first
    code, _, err = run(capsys, ["spectrum", "--gen", "loose_path:0,3"])
    assert code == 2
    assert err == "error: loose_path(0,3) needs r >= 2\n"


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


@pytest.mark.parametrize(
    "spec", ["complete:60,30", "random:100000,3,5000001,1", "loose_path:3,5000001"]
)
def test_generator_capacity_exit(capsys, spec):
    # refused before a single edge is enumerated or drawn
    code, _, err = run(capsys, ["spectrum", "--gen", spec, "--json"])
    assert code == 5
    assert "cap is 5000000" in err


@pytest.mark.parametrize(
    "name,text",
    [("huge.hg", "10000000000000 3\n1 2 3\n"),
     ("huge.json", '{"n": 10000000000000, "r": 3, "edges": [[1, 2, 3]]}')],
)
def test_failed_allocation_exits_as_capacity(tmp_path, capsys, name, text):
    # the header's vertex count is refused by the allocator, not by a cap
    path = tmp_path / name
    path.write_text(text)
    code, _, err = run(capsys, ["spectrum", "--in", str(path), "--json"])
    assert code == 5
    assert err.startswith("error: ")


HUGE = 99999999999999999999


@pytest.mark.parametrize(
    "name,text",
    [("huge.hg", f"{HUGE} 3\n1 2 3\n"),
     ("huge.json", json.dumps({"n": HUGE, "r": 3, "edges": [[1, 2, 3]]})),
     (None, f"random:{HUGE},3,2,1"),
     (None, f"single_edge:{HUGE}"),
     (None, f"loose_path:{HUGE},1")],
)
def test_vertex_count_beyond_intp_is_an_input_error(tmp_path, capsys, name, text):
    if name is None:
        source = ["--gen", text]
    else:
        (tmp_path / name).write_text(text)
        source = ["--in", str(tmp_path / name)]
    for command in ("spectrum", "bound", "blowup"):
        code, _, err = run(capsys, [command, *source])
        assert code == 2
        assert "vertex count n=" in err and "does not fit" in err


@pytest.mark.parametrize(
    "name,text",
    [("huge.hg", f"3 {2**62}\n"),
     ("huge.json", json.dumps({"n": 3, "r": 2**63, "edges": []})),
     ("edge.hg", f"3 {2**60}\n")],
    ids=["text", "json", "boundary"],
)
def test_uniformity_beyond_edge_rows_is_an_input_error(tmp_path, capsys, name, text):
    # numpy cannot shape an (m, r) intp array for r >= 2**60
    (tmp_path / name).write_text(text)
    for command in ("spectrum", "bound", "blowup"):
        code, _, err = run(capsys, [command, "--in", str(tmp_path / name)])
        assert code == 2
        assert err.startswith("error: uniformity r=") and "exceeds" in err


def test_edgeless_input_costs_nothing_per_column(tmp_path):
    # an edgeless input is solved in closed form at every r an edge array
    # can hold, and only blowup's vertex cap refuses it.  The child's
    # address space is capped, so code that allocates per column of the
    # (0, r) edge array exits 5 instead of taking the machine's memory
    paths = [tmp_path / f"r{r}.hg" for r in (10**7, 2**30, 2**60 - 1)]
    for path in paths:
        path.write_text(f"3 {path.stem[1:]}\n")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from hyperspec.cli import main\n"
        "print([main([c, '--in', p]) for p in sys.argv[1:] for c in ('spectrum', 'bound', 'blowup')])\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, paths)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 5] * 3
    assert proc.stderr.count("error: blow-up needs") == 3


# Header values and vertex ids are drawn from valid ones five times in
# six; otherwise they are below 1, at or beyond 2**63 either way, or not
# integers.  No vertex count lies between 10**4 and 2**63, where numpy may
# commit gigabytes for it.
_INVALID = (st.integers(-2, 1) | st.integers(2**63, 2**66) | st.integers(-(2**66), -(2**63))
            | st.sampled_from([1.5, 3.0, True, False, "x", None]))


def _mostly(valid):
    return st.sampled_from([True] * 5 + [False]).flatmap(
        lambda ok: valid if ok else _INVALID)


@st.composite
def _malformed_inputs(draw):
    """(format, n, r, rows): a hypergraph file's contents, often invalid.
    Only an r of 2 to 6 gets rows of about r ids, most of them rows of
    valid ids; a larger or invalid r gets no rows, or one of the wrong
    length."""
    n = draw(_mostly(st.integers(1, 30) | st.integers(1, 10**4)))
    r = draw(_mostly(st.integers(2, 12)))
    rows = []
    if type(r) is int and 2 <= r <= 6:
        ids = st.integers(1, min(n, 30) if type(n) is int and n >= 1 else 30)
        for _ in range(draw(st.integers(0, 4))):
            length = r + draw(st.sampled_from([0] * 6 + [-1, 1]))
            row_ids = draw(st.sampled_from([ids, ids, ids, _mostly(ids)]))
            rows.append(draw(st.lists(row_ids, min_size=length, max_size=length)))
    elif draw(st.booleans()):
        rows.append(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    return draw(st.sampled_from(["text", "json"])), n, r, rows


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_malformed_inputs(), st.sampled_from(["spectrum", "bound", "blowup"]))
@example(("text", HUGE, 3, [[1, 2, 3]]), "spectrum")
@example(("json", HUGE, 3, [[1, 2, 3]]), "bound")
@example(("text", 12, 12, []), "blowup")
@example(("json", 11, 11, []), "blowup")
def test_malformed_input_gets_a_contract_exit_code(
    tmp_path, no_long_permutation_lists, case, command
):
    # ROADMAP aim 3: every input ends in one of the contract's exit codes,
    # and no exception escapes main
    fmt, n, r, rows = case
    if fmt == "json":
        text = json.dumps({"n": n, "r": r, "edges": rows})
    else:
        text = "\n".join(" ".join(map(str, row)) for row in [[n, r], *rows]) + "\n"
    path = tmp_path / f"input.{'json' if fmt == 'json' else 'hg'}"
    path.write_text(text)
    assert main([command, "--in", str(path)]) in {0, 2, 3, 4, 5}


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
        "pass", "pass", "skip", "skip"]


def test_verify_empty_corpus(tmp_path, capsys):
    code, out, err = run(capsys, ["verify", str(tmp_path)])
    assert code == 0
    assert "empty corpus" in err
    assert out.splitlines()[-1] == "instances=0 failures=0"
    code, out, err = run(capsys, ["verify", "--json", str(tmp_path)])
    assert code == 0
    assert "empty corpus" in err
    report = json.loads(out)
    assert (report["results"], report["failures"]) == ([], 0)


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


class _CountedName(str):
    """An instance name that counts the comparisons made with it."""

    compared = 0

    def __eq__(self, other):
        _CountedName.compared += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def test_verify_failure_bookkeeping_is_linear(capsys, monkeypatch):
    # each instance's failure is recorded while its rows are built, so no
    # row is compared with every instance; a skip row is not a failure
    import hyperspec.cli as cli_mod

    H = loose_path(3, 2)
    names = [_CountedName(f"i{k}") for k in range(300)]
    failing = {names[7], names[150]}

    def checks(name, H, cfg):
        return [(name, "bounds", name not in failing, ""), (name, "blowup", None, "skipped"),
                (name, "dominance", True, ""), (name, "odd-coloring", True, "")], True

    monkeypatch.setattr(cli_mod, "_builtin_instances", lambda: [(n, H) for n in names])
    monkeypatch.setattr(cli_mod, "_instance_checks", checks)
    _CountedName.compared = 0
    code, out, err = run(capsys, ["verify", "--json"])
    assert _CountedName.compared <= len(names)
    assert code == 4
    assert json.loads(out)["failures"] == 2
    assert [line for line in err.splitlines() if line.startswith("failing")] == [
        "failing instance i7:", "failing instance i150:"]


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


def test_verify_never_solves_a_blowup(tmp_path, capsys, monkeypatch):
    # the blow-up radius is lifted from the base solve: no power iteration
    # runs on an operator of a blow-up, in verify or in blowup --verify
    blowup_mod = importlib.import_module("hyperspec.blowup")
    solver_mod = importlib.import_module("hyperspec.solver")
    tildes, iterated = [], []
    build, iterate = blowup_mod.blowup, solver_mod.power_iterate

    def recorded_build(H, *args, **kwargs):
        bl = build(H, *args, **kwargs)
        tildes.append(bl.tilde)
        return bl

    def recorded_iterate(T, cfg=None):
        iterated.append(T)
        return iterate(T, cfg)

    monkeypatch.setattr(blowup_mod, "blowup", recorded_build)
    monkeypatch.setattr(solver_mod, "power_iterate", recorded_iterate)
    path = tmp_path / "base.hg"
    path.write_text(render_hypergraph(generate("random:10,4,8,3")))
    for argv in (["verify", "--json"], ["blowup", "--in", str(path), "--verify", "--json"]):
        code, _, _ = run(capsys, argv)
        assert code == 0
    assert len(tildes) == len(BUILTIN_INSTANCES) + 1 and iterated
    assert not any(T.hypergraph == tilde for T in iterated for tilde in tildes)


@pytest.mark.parametrize("spec", ["single_edge:3", "loose_path:3,2", "random:10,4,8,3",
                                  "disjoint_pair", "edgeless"])
def test_blowup_verify_json_pairs_are_pinned(tmp_path, capsys, spec):
    graphs = {"disjoint_pair": UniformHypergraph(6, 3, ((0, 1, 2), (3, 4, 5))),
              "edgeless": UniformHypergraph(4, 3)}
    if spec in graphs:
        path = tmp_path / "base.hg"
        path.write_text(render_hypergraph(graphs[spec]))
        source = ["--in", str(path)]
    else:
        source = ["--gen", spec]
    code, out, _ = run(capsys, ["blowup", *source, "--verify", "--json"])
    assert code == 0
    check = json.loads(out)["verify"]
    for scaling in (check["scaling"], check["q"]["scaling"]):
        for side in ("base", "tilde"):
            pair = scaling[side]
            assert set(pair) == {"lambda", "lower", "upper", "residual", "iterations",
                                 "converged"}
            assert pair["lower"] <= pair["lambda"] <= pair["upper"]
        assert scaling["tilde"]["iterations"] == 0
        assert scaling["tilde"]["converged"] is True


BUILTIN_INSTANCES = [
    "complete:4,3", "complete:5,3", "complete:6,3",
    "single_edge:3", "single_edge:4", "single_edge:5",
    "loose_path:3,2", "loose_path:3,3", "loose_path:4,2",
    "random:8,3,10,1", "random:9,3,12,2", "random:10,4,8,3",
    "disjoint_pair:3",
]


def test_builtin_verify_rows_are_pinned(capsys):
    # every builtin instance runs every check, and every check passes; odd
    # colorings exist only for even r, so for odd r that row is a skip
    even_r = {"single_edge:4", "loose_path:4,2", "random:10,4,8,3"}
    code, out, _ = run(capsys, ["verify", "--json"])
    assert code == 0
    rows = [(row["instance"], row["check"], row["status"]) for row in json.loads(out)["results"]]
    assert rows == [
        (name, check, "skip" if check == "odd-coloring" and name not in even_r else "pass")
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
