"""The array-backed hypergraph core against the tuple implementation it
replaced (kept in ``oracles``), its caches, and the batched solve of
disconnected inputs against one solve per component."""

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
    random_hypergraph,
    render_hypergraph,
    spectral_radius,
)
from hyperspec import hypergraph as hypergraph_mod
from hyperspec import solver
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


def _key_limit(r):
    """The largest n with n**r <= 2**63: up to it, a row of ids in 0..n-1
    fits one int64 key, and above it the rows are lexsorted."""
    n = round(2 ** (63 / r))
    while n**r > 2**63:
        n -= 1
    while (n + 1) ** r <= 2**63:
        n += 1
    return n


@st.composite
def _canonical_cases(draw):
    """(n, r, rows) for r = 2..8, with n small or on either side of the
    key limit, ids often near n - 1, rows in any order with their vertices
    in any order, and some rows repeated; the edge set may be empty."""
    r = draw(st.integers(2, 8))
    limit = _key_limit(r)
    n = draw(st.sampled_from([r, r + 2, 30, limit, limit + 1]))
    ids = st.one_of(st.integers(0, n - 1), st.integers(max(0, n - r - 2), n - 1))
    rows = draw(st.lists(st.lists(ids, min_size=r, max_size=r, unique=True), max_size=12))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=5))
    rows = [list(draw(st.permutations(row))) for row in draw(st.permutations(rows))]
    return n, r, rows


@settings(max_examples=200, deadline=None)
@given(_canonical_cases())
def test_canonical_form_matches_tuple_oracle_on_both_sides_of_the_key_limit(case):
    n, r, rows = case
    edges = oracles.canonical_edges(n, r, rows)
    want = np.array(edges, dtype=np.intp).reshape(len(edges), r)
    for given_rows in (rows, np.array(rows, dtype=np.int64).reshape(len(rows), r)):
        H = UniformHypergraph(n, r, given_rows)
        assert H.edges == edges
        got = H.edge_array
        assert np.array_equal(got, want) and got.dtype == np.intp
        assert got.flags.c_contiguous and not got.flags.writeable


@pytest.mark.parametrize("n, lexsorts", [(2**21, 0), (2**21 + 1, 1)])
def test_rows_sort_by_one_integer_key_while_it_fits(n, lexsorts, monkeypatch):
    # n**3 == 2**63 at n = 2**21, where the row (n-3, n-2, n-1) has the
    # largest int64 key, 2**63 - 1; one vertex more and the rows are lexsorted
    calls = []
    real = np.lexsort

    def counted(keys):
        calls.append(1)
        return real(keys)

    monkeypatch.setattr(np, "lexsort", counted)
    rows = [(n - 1, n - 2, n - 3), (0, 1, 2), (n - 3, n - 1, n - 2), (0, n - 1, 1), (1, 0, 2)]
    H = UniformHypergraph(n, 3, rows)
    assert len(calls) == lexsorts
    assert H.edges == ((0, 1, 2), (0, 1, n - 1), (n - 3, n - 2, n - 1))


def test_a_callers_canonical_array_is_copied():
    # the caller may still write to its own array, whatever its layout
    for edges in (np.array([[0, 1, 2], [1, 2, 3]]), np.array([[0, 1], [1, 2], [2, 3]]).T):
        H = UniformHypergraph(4, 3, edges)
        assert not np.shares_memory(H.edge_array, edges)
        assert H.edge_array.flags.c_contiguous
        edges[0, 0] = 3
        assert H.edges == ((0, 1, 2), (1, 2, 3))


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


# the one-call read of the text format against the row-by-row parser

# edge lines for 3-graphs (2-graphs read them too): accepted ones, ones the
# one-call read refuses or reads to other than r columns, and ones int() and
# numpy read differently
_TEXT_LINES = [
    # well formed, in any vertex order and spacing
    "1 2 3", "3 2 1", "12 11 10", "4 5 6", "6 5 4", "  1 2 3  ", "1\t2\t3", "1  2   3",
    "01 02 03", "0001 2 3", "+1 2 3", "1 +2 +3",
    # whitespace str.split splits on; splitlines breaks the line at some of them
    "1\x0b2 3", "1\x0c2 3", "1\x1c2 3", "1\x1d2 3", "1\x1e2 3", "1\x1f2 3", "1\x852 3",
    "1\xa02 3", "1\u20002 3", "1\u30002 3", "1\u20282 3",
    # integers that int() reads and numpy does not
    "1_0 2 3", "1_2 3 4", "１ 2 3", "1 2 ３", "١ ٢ ٣", "٣ 2 1",
    # characters numpy reads as digits inside a field, where int() refuses them
    "1ǿ2 3", "1ǿ2 3 4", "1Ӿ 2 3", "∓ 2 3",
    # not integers
    "1.0 2 3", "1. 2 3", ".5 2 3", "1e0 2 3", "1E0 2 3", "0x1 2 3", "0b1 2 3", "0o1 2 3",
    "1j 2 3", "inf 2 3", "nan 2 3", "one 2 3", "1,2,3", "1, 2, 3", "1;2;3", "'1' 2 3",
    '"1" 2 3', "1 2 3,", "1\x002 3", "1 2 3\x00", "\ufeff1 2 3", "1\u200b2 3", "++1 2 3",
    "+-1 2 3", "--1 2 3", "- 1 2 3", "+ 2 3", "1- 2 3", "1+ 2 3",
    # a '#' is a comment only as the first non-blank character of a line
    "1 2 3 # tail", "1 2 3#", "1 2 #3", "1 2 3 #", "#1 2 3", "   # 1 2 3",
    "\t# 1 2 3", "# a # comment", "#", "  #",
    # blank and whitespace-only lines, and line ends other than LF
    "", "   ", "\t", " \t ", "\x1f", "\r", "1 2 3\r", "3 2 1\r", "\x0c", "1 2 3\x0c",
    "1 2 3\r\n", "\x0c1 2 3",
    # wrong lengths
    "1", "1 2", "1 2 3 4", "1 2 3 4 5 6", "1 2 3 4 5 6 7 8 9",
    # repeated and out-of-range vertices
    "1 1 2", "2 2 2", "3 1 3", "0 1 2", "-0 1 2", "1 2 13", "-1 2 3", "1 2 -3", "12 13 14",
    "100 2 3", "4731 4732 4733",
    # ids at and beyond the range of a 64-bit integer
    "12345678901234567890 2 3", "9223372036854775806 2 3", "9223372036854775807 2 3",
    "9223372036854775808 2 3", "-9223372036854775808 2 3", "-9223372036854775809 2 3",
    "99999999999999999999999999 1 2",
]

# headers with two well-formed edge lines each; the largest n an intp holds
# makes ids up to the intp limit vertices, and n = 5000 lets a misread id
# pass as a vertex.
# Text holding a '#' drops its comment lines before the one-call read, and
# other text goes to it with its blank lines, so every line is read both ways
_TEXT_HEADERS = [
    ("12 3", ["1 2 3", "4 5 6"]),
    ("9223372036854775807 3", ["1 2 3", "4 5 6"]),
    ("5000 2", ["1 2", "3 4"]),
    # blank, whitespace-only and comment lines before the header, CRLF and
    # form feed line ends
    ("\n  \n\t\n12 3", ["1 2 3", "", "4 5 6"]),
    ("# a comment\n   # an indented one\n\n12 3", ["1 2 3", "  ", "4 5 6"]),
    ("12 3\r", ["1 2 3\r", "4 5 6\r"]),
    ("\x0c12 3 ", ["1 2 3\x0c4 5 6"]),
]


def _parse_outcome(parse, text):
    """(edges or error text, warning texts) of one parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except FormatError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


@pytest.mark.parametrize("line", _TEXT_LINES)
def test_text_line_parses_like_row_by_row_oracle(line):
    for header, good in _TEXT_HEADERS:
        for body in ([line], [line, *good], [*good, line]):
            text = "\n".join([header, *body]) + "\n"
            got, got_warnings = _parse_outcome(parse_hypergraph, text)
            want, _ = _parse_outcome(oracles.parse_text, text)
            if isinstance(want, tuple):
                n, r, edges, dups = want
                want = UniformHypergraph(n, r, edges)
                want_warnings = [f"dropped {dups} duplicate edge(s)"] if dups else []
            else:
                want_warnings = []
            assert (got, got_warnings) == (want, want_warnings), text


def test_well_formed_text_takes_the_one_call_read(monkeypatch):
    H = random_hypergraph(200, 3, 1000, seed=5)
    kinds = []
    real = hypergraph_mod._from_rows

    def spy(rows, n, r):
        kinds.append(type(rows))
        return real(rows, n, r)

    monkeypatch.setattr(hypergraph_mod, "_from_rows", spy)
    assert parse_hypergraph(render_hypergraph(H)) == H
    assert kinds == [np.ndarray]


def test_a_warning_from_the_one_call_read_counts_as_a_failure(monkeypatch):
    # a numpy that reads "1.0" as the integer 1, with a DeprecationWarning
    calls = []

    def lenient(lines, **kwargs):
        calls.append(lines)
        warnings.warn("parsing an integer via a float is deprecated", DeprecationWarning)
        return np.array([[int(float(t)) for t in line.split()] for line in lines])

    monkeypatch.setattr(np, "loadtxt", lenient)
    message = "edge ['1.0', '2', '3'] holds a non-integer vertex id"
    with pytest.raises(FormatError, match=re.escape(message)):
        parse_hypergraph("4 3\n1.0 2 3\n")
    assert calls == [["1.0 2 3"]]


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


def test_smallest_intp_id_is_refused_not_wrapped():
    # shifted to 0-based, -2^63 would wrap round to 2^63 - 1; it is refused
    # as below 1, before the shift, at the largest n an intp holds
    n, low = 2**63 - 1, -(2**63)
    message = f"edge [{low}, 2, 3] has a vertex outside 1..{n}"
    with pytest.raises(FormatError, match=re.escape(message)):
        hypergraph_from_json(json.dumps({"n": n, "r": 3, "edges": [[low, 2, 3]]}))
    with pytest.raises(FormatError, match=re.escape(message)):
        parse_hypergraph(f"{n} 3\n{low} 2 3\n")


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
    with pytest.raises(ValueError, match="must list exactly 3 vertices"):
        UniformHypergraph(3, 3, rows)


ARITY, NON_INTEGER = "must list exactly 3 vertices", "holds a non-integer vertex id"


@pytest.mark.parametrize(
    "row, fault",
    [
        ([1, 2], ARITY),
        ([1, 2, 3, 4], ARITY),
        (5, ARITY),
        ([1, "x", 3], NON_INTEGER),
        ([1, 2.5, 3], NON_INTEGER),
        ([1, 2, 5], "has a vertex outside {lo}..{hi}"),
        ([0, 1, 2], "has a vertex outside {lo}..{hi}"),
        ([2, 1, 2], "repeats a vertex"),
    ],
    ids=["short", "long", "non-sequence", "token", "fraction", "above", "below", "repeat"],
)
def test_every_route_names_the_same_bad_row(row, fault):
    # one 1-based bad row of a 3-graph on 4 vertices, between good ones: the
    # constructor reads it 0-based, the parsers 1-based, and each names it
    # as it read it, the text parser as tokens until they are ids
    rows = [[1, 2, 3], row, [2, 3, 4]]

    def shift(values):
        return [v if isinstance(v, str) else v - 1 for v in values]

    def message(values, base):
        return f"edge {values!r} {fault.format(lo=base, hi=base + 3)}"

    zero = shift(row) if isinstance(row, list) else row - 1
    with pytest.raises(ValueError) as exc:
        UniformHypergraph(4, 3, [shift(rows[0]), zero, shift(rows[2])])
    assert exc.type is ValueError and str(exc.value) == message(zero, 0)

    tokens = [str(v) for v in (row if isinstance(row, list) else [row])]
    with pytest.raises(FormatError) as exc:
        parse_hypergraph("4 3\n" + "".join(" ".join(map(str, line)) + "\n"
                                           for line in (rows[0], tokens, rows[2])))
    read = tokens if fault in (ARITY, NON_INTEGER) else list(map(int, tokens))
    assert str(exc.value) == message(read, 1)

    with pytest.raises(FormatError) as exc:
        hypergraph_from_json(json.dumps({"n": 4, "r": 3, "edges": rows}))
    # the JSON parser names a row that is not an array in its own words
    want = message(row, 1) if isinstance(row, list) else "edge 5 must be an array of 3 vertex ids"
    assert str(exc.value) == want


# disconnected inputs: one batched solve against one solve per component


def _check_against_component_solves(H, kind, cfg):
    pair = spectral_radius(H, kind, cfg)
    value, lower, upper, _, _, _ = oracles.solve_components(H, kind, cfg)
    assert pair.converged
    # both brackets hold in exact arithmetic; the oracle sums each component
    # alone, in another order, so a closed bracket can land a few ulps off
    # either way, and neither need hold after rounding (Q on K_{1,4}, alone
    # or beside other components, gives [5 - 2^-50, 5 - 2^-50])
    slack = 8 * np.spacing(max(abs(upper), 1.0))
    assert pair.lower <= upper + slack and lower <= pair.upper + slack
    assert abs(pair.value - value) <= 2 * cfg.tolerance
    # the vector is one component's, zero elsewhere, with r-norm 1
    support = [group for group, _ in oracles.components(H.n, H.edges)
               if np.all(pair.vector[list(group)] > 0)]
    assert len(support) == 1
    assert np.count_nonzero(pair.vector) == len(support[0])
    assert abs(np.sum(pair.vector**H.r) - 1.0) < 1e-12


@st.composite
def _shattered_graphs(draw):
    """Isolated vertices beside up to four tiny groups of random edges, or
    beside none (an edgeless graph), relabeled at random."""
    r = draw(st.integers(2, 5))
    edges, n = [], 0
    for _ in range(draw(st.integers(0, 4))):
        size = draw(st.integers(r, r + 3))
        edge = st.lists(st.integers(n, n + size - 1), min_size=r, max_size=r, unique=True)
        edges += draw(st.lists(edge, min_size=1, max_size=4))
        n += size
    n += draw(st.integers(0 if edges else 1, 30))
    relabel = draw(st.permutations(range(n)))
    return UniformHypergraph(n, r, [[relabel[v] for v in e] for e in edges])


@settings(max_examples=60, deadline=None)
@given(
    _shattered_graphs(),
    st.sampled_from(["adjacency", "signless-laplacian"]),
)
def test_batched_solve_matches_component_oracle(H, kind):
    _check_against_component_solves(H, kind, SolverConfig())


@pytest.mark.parametrize("kind", ["adjacency", "signless-laplacian"])
@pytest.mark.parametrize("cfg", [SolverConfig()], ids=["default"])
@pytest.mark.parametrize(
    "H",
    [
        UniformHypergraph(12, 3, ((0, 1, 3), (1, 3, 4), (5, 6, 8), (8, 9, 10))),
        UniformHypergraph(5, 3),
    ],
    ids=["isolated", "edgeless"],
)
def test_isolated_closed_form_matches_real_solves(H, kind, cfg):
    _check_against_component_solves(H, kind, cfg)


def test_isolated_vertices_share_one_graph():
    H = UniformHypergraph(6, 3, ((1, 2, 4),))
    comps = H.components()
    assert [c.vertices for c in comps] == [(0,), (1, 2, 4), (3,), (5,)]
    assert comps[0].graph is comps[2].graph is comps[3].graph
    assert comps[0].graph == UniformHypergraph(1, 3)


def test_non_finite_shift_rejected():
    # the shift is the solver's finite constant, not a setting: no value of
    # it is taken, a non-finite one included
    assert np.isfinite(solver.SHIFT)
    for shift in (float("inf"), float("nan")):
        with pytest.raises(TypeError):
            SolverConfig(shift=shift)
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--gen", "single_edge:3", "--shift", str(shift)])
        assert exc.value.code == 2


# the slot-major kernel and the caches


def _vertex_sums(H, terms):
    """Edge-major per (edge, slot) terms summed per vertex, edge by edge."""
    return np.bincount(H.edge_array.ravel(), weights=terms.ravel(), minlength=H.n)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_kernel_matches_cumprod_bit_for_bit(r, monkeypatch):
    rng = np.random.default_rng(r)
    H = random_hypergraph(10, r, 30, seed=r)
    # entries spanning ten decades
    x = 10.0 ** rng.uniform(-5.0, 5.0, H.n)
    v = rng.standard_normal(H.n)
    T = TensorOperator.adjacency(H)
    # the slot-major prefix and suffix products are the transposed cumprod ones
    lo, hi = oracles.prefix_suffix_cumprod(x[H.edge_array])
    got_lo, got_hi = T._prefix_suffix(x[T._slots])
    assert np.array_equal(got_lo, lo.T)
    assert np.array_equal(got_hi, hi.T)
    # every per-slot term handed to the vertex sum is the edge-major term bit
    # for bit: the apply's in-place products are lo * hi
    terms = []
    real_sum = TensorOperator._edge_sum

    def recorded(self, contrib):
        terms.append(contrib.copy())
        return real_sum(self, contrib)

    monkeypatch.setattr(TensorOperator, "_edge_sum", recorded)
    ops = [TensorOperator(k, hypergraph=H) for k in ("adjacency", "signless-laplacian")]
    got = [(op.apply(x), op.jacobian(x)(v)) for op in ops]
    apply_terms, jacobian_terms = oracles.edge_major_terms(H, x), oracles.edge_major_terms(H, x, v)
    assert np.array_equal(apply_terms, lo * hi)
    assert len(terms) == 4
    for k, want in enumerate([apply_terms, jacobian_terms] * 2):
        assert np.array_equal(terms[k], want.T)
    # Only the order of the vertex sums changed: slot by slot instead of edge
    # by edge.  Two orders of summing the same d terms and then adding the
    # diagonal term differ by at most 2 gamma_d times the sum of the absolute
    # values, gamma_d = d u / (1 - d u), u the unit roundoff.
    d = H.degree_array
    u = np.finfo(float).eps / 2
    gamma = d * u / (1 - d * u)
    q_diag = [H.degree_array * x ** (r - 1), (r - 1) * H.degree_array * x ** (r - 2) * v]
    for kind, (got_apply, got_jacobian) in zip(("adjacency", "signless-laplacian"), got):
        for want_terms, diag, value in zip((apply_terms, jacobian_terms), q_diag,
                                           (got_apply, got_jacobian)):
            extra = diag if kind == "signless-laplacian" else np.zeros(H.n)
            want = extra + _vertex_sums(H, want_terms)
            scale = np.abs(extra) + _vertex_sums(H, np.abs(want_terms))
            assert np.all(np.abs(value - want) <= 2 * gamma * scale)


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


def test_spectrum_solves_a_disconnected_input_once(tmp_path, monkeypatch, capsys):
    calls = []
    real_solve, real_components = solver.power_iterate, UniformHypergraph.components

    def counted_solve(*args, **kwargs):
        calls.append("power_iterate")
        return real_solve(*args, **kwargs)

    def counted_components(self):
        calls.append("components")
        return real_components(self)

    monkeypatch.setattr(solver, "power_iterate", counted_solve)
    monkeypatch.setattr(UniformHypergraph, "components", counted_components)
    H = UniformHypergraph(12, 3, ((0, 1, 3), (1, 3, 4), (5, 6, 8), (8, 9, 10)))
    path = tmp_path / "shattered.hg"
    path.write_text(render_hypergraph(H))
    assert main(["spectrum", "--in", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["converged"]
    assert calls == ["power_iterate"]


def test_operator_slots_and_graph_arrays_are_read_only():
    H = random_hypergraph(9, 3, 12, seed=4)
    assert H.edge_array.flags.c_contiguous and H.edge_array.dtype == np.intp
    for kind in ("adjacency", "signless-laplacian"):
        slots = TensorOperator(kind, hypergraph=H)._slots
        assert slots.flags.c_contiguous and slots.dtype == np.intp
        assert np.array_equal(slots, H.edge_array.T)
        with pytest.raises(ValueError):
            slots[0, 0] = 5
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
