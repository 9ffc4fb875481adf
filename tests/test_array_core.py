"""The array-backed hypergraph core against the tuple implementation it
replaced (kept in ``oracles``), its caches, and the closed form for
isolated vertices."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperspec import (
    FormatError,
    SolverConfig,
    TensorOperator,
    UniformHypergraph,
    hypergraph_from_json,
    loose_path,
    parse_hypergraph,
    power_iterate,
    random_hypergraph,
    render_hypergraph,
    spectral_radius,
)
from hyperspec import hypergraph as hypergraph_mod
from hyperspec.cli import main

ROOT = Path(__file__).resolve().parents[1]


@st.composite
def _edge_rows(draw):
    """(n, r, rows): 0-based rows in any order, with their vertices in any
    order and some rows repeated."""
    shape = draw(st.sampled_from(["small", "shattered", "path"]))
    r = draw(st.integers(2, 5))
    if shape == "path":
        # a relabelled long loose path: deep chains for the pointer jumping
        length = draw(st.integers(1, 80))
        n = length * (r - 1) + 1
        perm = draw(st.permutations(range(n)))
        rows = [[perm[v] for v in range(k * (r - 1), k * (r - 1) + r)] for k in range(length)]
    else:
        # "shattered": many vertices, few edges, most vertices isolated
        n = draw(st.integers(1, 12) if shape == "small" else st.integers(40, 300))
        m = draw(st.integers(0, 25 if shape == "small" else 8)) if n >= r else 0
        row = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
        rows = [draw(row) for _ in range(m)]
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=5))
    rows = [list(draw(st.permutations(row))) for row in draw(st.permutations(rows))]
    return n, r, rows


@settings(max_examples=150, deadline=None)
@given(_edge_rows())
def test_array_core_matches_tuple_oracle(case):
    n, r, rows = case
    H = UniformHypergraph(n, r, rows)
    edges = oracles.canonical_edges(n, r, rows)
    assert H.edges == edges
    degrees = oracles.degrees(n, edges)
    assert H.degrees() == degrees
    assert H.is_regular() == (len(set(degrees)) <= 1)
    assert H.is_connected() == oracles.is_connected(n, edges)
    got = [(c.vertices, c.graph.n, c.graph.edges) for c in H.components()]
    assert got == [(vs, len(vs), local) for vs, local in oracles.components(n, edges)]
    # an integer array and the canonical edges build the same graph
    assert UniformHypergraph(n, r, np.array(rows, dtype=np.int64).reshape(-1, r)) == H
    assert UniformHypergraph(n, r, edges) == H
    # the parser drops the same duplicates
    text = f"{n} {r}\n" + "".join(" ".join(str(v + 1) for v in row) + "\n" for row in rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parse_hypergraph(text) == H
    _, dups = oracles.parse_rows([[v + 1 for v in row] for row in rows], n, r)
    expected = [f"dropped {dups} duplicate edge(s)"] if dups else []
    assert [str(w.message) for w in caught] == expected


@st.composite
def _rows_with_faults(draw, non_integers=()):
    """(n, r, 1-based rows) where rows may be too short or long, repeat a
    vertex, leave 1..n, or hold a value from ``non_integers``."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 9))
    ids = st.integers(1, n)
    good = st.lists(ids, min_size=r, max_size=r, unique=True)
    wrong_length = st.lists(ids, min_size=1, max_size=r + 2).filter(lambda row: len(row) != r)
    repeat = st.lists(ids, min_size=r, max_size=r).filter(lambda row: len(set(row)) < r)
    outside = st.lists(st.integers(-2, n + 3), min_size=r, max_size=r).filter(
        lambda row: min(row) < 1 or max(row) > n
    )

    @st.composite
    def non_integer(draw):
        row = list(draw(good))
        row[draw(st.integers(0, r - 1))] = draw(st.sampled_from(non_integers))
        return row

    faults = [wrong_length, repeat, outside] + ([non_integer()] if non_integers else [])
    row = st.one_of(good, good, *faults)
    return n, r, draw(st.lists(row, min_size=1, max_size=8))


def _outcome(fn, *args):
    """The edges ``fn`` parses, or its error message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = fn(*args)
        except FormatError as exc:
            return str(exc)
    return result[0] if isinstance(result, tuple) else result.edges


@settings(max_examples=150, deadline=None)
@given(_rows_with_faults(["x", "2.5", "1e3", "0x1"]))
def test_text_rows_fail_like_oracle(case):
    n, r, rows = case
    tokens = [[str(v) for v in row] for row in rows]
    text = f"{n} {r}\n" + "".join(" ".join(row) + "\n" for row in tokens)
    assert _outcome(parse_hypergraph, text) == _outcome(oracles.parse_rows, tokens, n, r)


@settings(max_examples=150, deadline=None)
@given(_rows_with_faults(["x", None, [1]]))
def test_json_rows_fail_like_oracle(case):
    n, r, rows = case
    text = json.dumps({"n": n, "r": r, "edges": rows})
    assert _outcome(hypergraph_from_json, text) == _outcome(oracles.parse_rows, rows, n, r)


@settings(max_examples=150, deadline=None)
@given(_rows_with_faults())
def test_constructor_rows_fail_like_oracle(case):
    n, r, rows = case
    rows = [[v - 1 for v in row] for row in rows]

    def outcome(fn):
        try:
            return fn(n, r, rows)
        except ValueError as exc:
            return str(exc)

    expected = outcome(oracles.canonical_edges)
    got = outcome(UniformHypergraph)
    assert (got if isinstance(got, str) else got.edges) == expected


# non-integer input is refused, not truncated


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 3, "r": 3, "edges": [[1.5, 2, 3]]}', "holds a non-integer vertex id"),
        ('{"n": 3, "r": 3, "edges": [[true, 2, 3]]}', "holds a non-integer vertex id"),
        ('{"n": 3.9, "r": 3, "edges": [[1, 2, 3]]}', "fields 'n' and 'r' must be integers"),
    ],
)
def test_json_non_integers_rejected(text, message):
    with pytest.raises(FormatError, match=message):
        hypergraph_from_json(text)


def test_constructor_non_integer_rejected():
    with pytest.raises(ValueError, match="non-integer"):
        UniformHypergraph(3, 3, ((0.7, 1, 2),))
    # integral values of any numeric type are still accepted
    assert UniformHypergraph(3, 3, ((2.0, np.int32(1), 0),)).edges == ((0, 1, 2),)


# rows that are not sequences are refused, not crashed on or read digit by digit


@pytest.mark.parametrize(
    "edges, message",
    [
        ("[1, 2, 3]", "edge 1 must be an array of 3 vertex ids"),
        ("7", "field 'edges' must be an array of edges"),
        ("[[1, 2, 3], 5]", "edge 5 must be an array of 3 vertex ids"),
        ('["123"]', 'edge "123" must be an array of 3 vertex ids'),
    ],
)
def test_json_edge_rows_must_be_arrays(edges, message, tmp_path, capsys):
    text = f'{{"n": 3, "r": 3, "edges": {edges}}}'
    with pytest.raises(FormatError, match=re.escape(message)):
        hypergraph_from_json(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["spectrum", "--in", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("rows", [["012"], [b"012"], [1, 2, 3], [(0, 1, 2), 5]])
def test_constructor_rows_must_be_sequences(rows):
    with pytest.raises(ValueError, match="must contain exactly 3 distinct vertices"):
        UniformHypergraph(3, 3, rows)


# isolated vertices are accounted for in closed form


def _solve_every_component(H, kind, cfg):
    """spectral_radius by hand, with a real solve for every component."""
    best, vertices = None, ()
    iterations, converged = 0, True
    lower = upper = float("-inf")
    for comp in H.components():
        pair = power_iterate(TensorOperator.for_hypergraph(comp.graph, kind), cfg)
        iterations += pair.iterations
        converged = converged and pair.converged
        lower, upper = max(lower, pair.lower), max(upper, pair.upper)
        if best is None or pair.value > best.value:
            best, vertices = pair, comp.vertices
    vector = np.zeros(H.n)
    vector[list(vertices)] = best.vector
    return best.value, lower, upper, iterations, converged, vector


@pytest.mark.parametrize("kind", ["adjacency", "signless-laplacian"])
@pytest.mark.parametrize(
    "cfg",
    [SolverConfig(), SolverConfig(shift=0.5), SolverConfig(seed=3)],
    ids=["default", "shift", "seed"],
)
@pytest.mark.parametrize(
    "H",
    [
        UniformHypergraph(12, 3, ((0, 1, 3), (1, 3, 4), (5, 6, 8), (8, 9, 10))),
        UniformHypergraph(5, 3),
    ],
    ids=["isolated", "edgeless"],
)
def test_isolated_closed_form_matches_real_solves(H, kind, cfg):
    pair = spectral_radius(H, kind, cfg)
    value, lower, upper, iterations, converged, vector = _solve_every_component(H, kind, cfg)
    assert (pair.value, pair.lower, pair.upper) == (value, lower, upper)
    assert (pair.iterations, pair.converged) == (iterations, converged)
    assert np.array_equal(pair.vector, vector)


def test_isolated_vertices_share_one_graph():
    H = UniformHypergraph(6, 3, ((1, 2, 4),))
    comps = H.components()
    assert [c.vertices for c in comps] == [(0,), (1, 2, 4), (3,), (5,)]
    assert comps[0].graph is comps[2].graph is comps[3].graph
    assert comps[0].graph == UniformHypergraph(1, 3)


def test_non_finite_shift_rejected():
    for shift in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(shift=shift)


# the column-at-a-time kernel and the caches


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_kernel_matches_cumprod_bit_for_bit(r, monkeypatch):
    rng = np.random.default_rng(r)
    H = random_hypergraph(10, r, 30, seed=r)
    # entries spanning ten decades
    x = 10.0 ** rng.uniform(-5.0, 5.0, H.n)
    v = rng.standard_normal(H.n)
    T = TensorOperator.adjacency(H)
    for got, want in zip(T._prefix_suffix(x[T._edges]),
                         oracles.prefix_suffix_cumprod(x[T._edges])):
        assert np.array_equal(got, want)
    ops = [TensorOperator.for_hypergraph(H, k) for k in ("adjacency", "signless-laplacian")]
    new = [(T.apply(x), T.jacobian_apply(x, v)) for T in ops]
    monkeypatch.setattr(TensorOperator, "_prefix_suffix",
                        staticmethod(oracles.prefix_suffix_cumprod))
    old = [(T.apply(x), T.jacobian_apply(x, v)) for T in ops]
    for (a_new, j_new), (a_old, j_old) in zip(new, old):
        assert np.array_equal(a_new, a_old)
        assert np.array_equal(j_new, j_old)


def test_bound_labels_components_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = hypergraph_mod._component_labels

    def counted(n, edges):
        calls.append(n)
        return real(n, edges)

    monkeypatch.setattr(hypergraph_mod, "_component_labels", counted)
    path = tmp_path / "path.hg"
    path.write_text(render_hypergraph(loose_path(3, 6)))
    assert main(["bound", "--in", str(path), "--json"]) == 0
    capsys.readouterr()
    assert calls == [13]


def test_operator_shares_the_read_only_edge_array():
    H = random_hypergraph(9, 3, 12, seed=4)
    assert H.edge_array.flags.c_contiguous and H.edge_array.dtype == np.intp
    for kind in ("adjacency", "signless-laplacian"):
        assert np.shares_memory(TensorOperator.for_hypergraph(H, kind)._edges, H.edge_array)
    with pytest.raises(ValueError):
        H.edge_array[0, 0] = 5
    with pytest.raises(ValueError):
        H.degree_array[0] = 5
    with pytest.raises(AttributeError):
        H.n = 4


def test_equality_and_hash_ignore_row_and_vertex_order():
    rows = [(0, 1, 2), (2, 3, 4), (1, 3, 5)]
    a = UniformHypergraph(6, 3, rows)
    b = UniformHypergraph(6, 3, [tuple(reversed(e)) for e in reversed(rows)])
    c = UniformHypergraph(6, 3, np.array([[5, 3, 1], [4, 2, 3], [2, 0, 1]]))
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a != UniformHypergraph(7, 3, rows)
    assert a != UniformHypergraph(6, 3, rows[:2])


def test_cli_import_adds_only_stdlib_numpy_and_hyperspec():
    # a third-party import on this path would show in every command's start-up
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hyperspec.cli\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "allowed = set(sys.stdlib_module_names) | {'numpy', 'hyperspec'}\n"
        "print(sorted(new - allowed))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
