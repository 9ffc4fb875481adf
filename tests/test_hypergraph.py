"""Tests for hypergraph representation, parsing, generators, colorings."""

import json
import math
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperspec import (
    FormatError,
    UniformHypergraph,
    complete,
    find_odd_coloring,
    generate,
    hypergraph_from_json,
    load_hypergraph,
    loose_path,
    parse_hypergraph,
    random_hypergraph,
    render_hypergraph,
    single_edge,
    verify_odd_coloring,
)


# construction and canonical form


def test_edges_are_canonicalized():
    H = UniformHypergraph(5, 3, ((4, 2, 3), (3, 1, 0), (0, 1, 3)))
    assert H.edges == ((0, 1, 3), (2, 3, 4))


def test_edge_arity_validated():
    with pytest.raises(ValueError):
        UniformHypergraph(4, 3, ((0, 1),))
    with pytest.raises(ValueError):
        UniformHypergraph(4, 3, ((0, 1, 1),))
    with pytest.raises(ValueError):
        UniformHypergraph(4, 3, ((0, 1, 4),))


def test_n_and_r_validated():
    with pytest.raises(ValueError):
        UniformHypergraph(0, 3)
    with pytest.raises(ValueError):
        UniformHypergraph(3, 1)
    # n must fit in an intp, or the degree count overflows later
    with pytest.raises(ValueError, match=f"vertex count n={2**63} does not fit"):
        UniformHypergraph(2**63, 3)
    assert UniformHypergraph(2**63 - 1, 3).n == 2**63 - 1
    # and r small enough that numpy can shape an (m, r) intp array
    with pytest.raises(ValueError, match=f"uniformity r={2**60} exceeds"):
        UniformHypergraph(3, 2**60)


# parsing


def test_parse_basic():
    H = parse_hypergraph("5 3\n1 2 3\n3 4 5\n")
    assert (H.n, H.r) == (5, 3)
    assert H.edges == ((0, 1, 2), (2, 3, 4))


def test_parse_no_edges():
    H = parse_hypergraph("3 3\n")
    assert (H.n, H.r, H.edges) == (3, 3, ())


def test_parse_comments_and_blank_lines():
    H = parse_hypergraph("# a comment\n\n5 3\n1 2 3\n\n# more\n3 4 5")
    assert H == loose_path(3, 2)


def test_parse_repeated_vertex_rejected():
    with pytest.raises(FormatError):
        parse_hypergraph("4 3\n1 1 2\n")


def test_parse_errors():
    for text in ("", "5\n", "a b\n", "5 3\n1 2\n", "5 3\n1 2 9\n", "5 3\n1 2 x\n", "0 3\n"):
        with pytest.raises(FormatError):
            parse_hypergraph(text)


def test_parse_duplicate_edges_warn():
    with pytest.warns(UserWarning, match="1 duplicate"):
        H = parse_hypergraph("5 3\n1 2 3\n3 2 1\n3 4 5\n")
    assert H.num_edges == 2


@pytest.mark.parametrize("parse, text", [
    (parse_hypergraph, "5 3\n1 2 3\n3 2 1\n"),
    (load_hypergraph, "5 3\n1 2 3\n3 2 1\n"),
    (hypergraph_from_json, '{"n": 5, "r": 3, "edges": [[1, 2, 3], [3, 2, 1]]}'),
    (load_hypergraph, '{"n": 5, "r": 3, "edges": [[1, 2, 3], [3, 2, 1]]}'),
])
def test_duplicate_edge_warning_names_the_caller(parse, text):
    # through load_hypergraph too, the warning points at the line that
    # called into the library, not at a line of the library
    with pytest.warns(UserWarning, match="dropped 1 duplicate edge") as caught:
        parse(text)
    assert [w.filename for w in caught] == [__file__]


def test_render_parse_round_trip():
    for H in (loose_path(3, 2), complete(5, 3), single_edge(4), random_hypergraph(8, 3, 10, 7)):
        assert parse_hypergraph(render_hypergraph(H)) == H


def _to_json(H):
    """H in the JSON mirror format, 1-based."""
    return json.dumps({"n": H.n, "r": H.r, "edges": [[v + 1 for v in e] for e in H.edges]})


def test_json_round_trip():
    for H in (loose_path(3, 2), complete(4, 3)):
        assert hypergraph_from_json(_to_json(H)) == H


def test_json_errors():
    for text in ("{", "[]", '{"n": 3}', '{"n": 3, "r": 3, "edges": [[1, 1, 2]]}'):
        with pytest.raises(FormatError):
            hypergraph_from_json(text)


def test_load_sniffs_format():
    H = loose_path(3, 2)
    assert load_hypergraph(render_hypergraph(H)) == H
    assert load_hypergraph(_to_json(H)) == H


# degrees, regularity, connectivity


def test_degrees_examples():
    assert loose_path(3, 2).degrees() == (1, 1, 2, 1, 1)
    assert UniformHypergraph(4, 3, ((0, 1, 2), (0, 1, 3))).degrees() == (2, 2, 1, 1)
    assert UniformHypergraph(3, 3).degrees() == (0, 0, 0)


def test_handshake_identity():
    for seed in range(10):
        H = random_hypergraph(9, 3, 12, seed)
        assert sum(H.degrees()) == H.r * H.num_edges


def test_is_regular():
    assert complete(5, 3).is_regular()
    assert set(complete(5, 3).degrees()) == {math.comb(4, 2)}
    assert not loose_path(3, 2).is_regular()
    assert UniformHypergraph(3, 3).is_regular()


def test_is_connected():
    assert loose_path(3, 2).is_connected()
    assert not UniformHypergraph(6, 3, ((0, 1, 2), (3, 4, 5))).is_connected()
    assert UniformHypergraph(1, 2).is_connected()
    # isolated vertex disconnects
    assert not UniformHypergraph(4, 3, ((0, 1, 2),)).is_connected()


def test_components_disjoint_edges():
    H = UniformHypergraph(6, 3, ((0, 1, 2), (3, 4, 5)))
    comps = H.components()
    assert len(comps) == 2
    for comp in comps:
        assert comp.graph.num_edges == 1
        assert comp.graph.n == 3


def test_components_connected_identity():
    H = loose_path(3, 2)
    comps = H.components()
    assert len(comps) == 1
    assert comps[0].graph == H
    assert comps[0].vertices == (0, 1, 2, 3, 4)


def test_components_isolated_vertex():
    H = UniformHypergraph(4, 3, ((0, 1, 2),))
    comps = H.components()
    assert [c.graph.n for c in comps] == [3, 1]
    assert comps[1].vertices == (3,)


def test_components_partition_properties():
    for seed in range(8):
        H = random_hypergraph(10, 3, 5, seed)
        comps = H.components()
        covered = sorted(v for c in comps for v in c.vertices)
        assert covered == list(range(H.n))
        total_edges = sum(c.graph.num_edges for c in comps)
        assert total_edges == H.num_edges
        assert (len(comps) == 1) == H.is_connected()
        # edges relabel back to the originals
        back = set()
        for c in comps:
            for edge in c.graph.edges:
                back.add(tuple(sorted(c.vertices[v] for v in edge)))
        assert back == set(H.edges)


# generators


def test_single_edge():
    H = single_edge(3)
    assert (H.n, H.edges) == (3, ((0, 1, 2),))


def test_loose_path_shape():
    H = loose_path(3, 2)
    assert H.n == 5
    assert H.edges == ((0, 1, 2), (2, 3, 4))
    # interior junctions have degree 2, everything else degree 1
    for r, length in ((3, 4), (4, 3), (5, 2)):
        P = loose_path(r, length)
        assert P.n == length * (r - 1) + 1
        degs = sorted(P.degrees())
        assert degs.count(2) == length - 1
        assert degs.count(1) == P.n - length + 1


def test_complete_counts():
    H = complete(5, 3)
    assert H.num_edges == 10
    assert H.is_regular()
    assert H.degrees()[0] == 6


def test_random_hypergraph_deterministic():
    a = random_hypergraph(9, 3, 12, 42)
    b = random_hypergraph(9, 3, 12, 42)
    assert a == b
    assert a.num_edges == 12
    assert random_hypergraph(9, 3, 12, 43) != a


def test_generator_infeasible_parameters():
    with pytest.raises(ValueError):
        complete(2, 3)
    with pytest.raises(ValueError):
        random_hypergraph(5, 3, 11, 0)  # C(5,3) = 10
    with pytest.raises(ValueError):
        loose_path(3, 0)


def test_generate_specs():
    assert generate("complete:5,3") == complete(5, 3)
    assert generate("single_edge:3") == single_edge(3)
    assert generate("loose_path:3,2") == loose_path(3, 2)
    assert generate("random:8,3,10,42") == random_hypergraph(8, 3, 10, 42)


def test_generate_bad_specs():
    for spec in ("nope:3", "complete:5", "complete:5,3,1", "complete:a,b", "complete:2,3"):
        with pytest.raises(FormatError):
            generate(spec)


# odd colorings


def test_single_edge_4_is_odd_colorable():
    H = single_edge(4)
    phi = find_odd_coloring(H)
    assert phi is not None
    assert verify_odd_coloring(H, phi)
    # oracle: enumerate all 4^4 labelings and confirm at least one works
    feasible = [
        labs
        for labs in product(range(1, 5), repeat=4)
        if sum(labs) % 4 == 2
    ]
    assert feasible


def test_odd_r_rejected():
    with pytest.raises(ValueError):
        find_odd_coloring(single_edge(3))


def test_no_vertex_cap():
    phi = find_odd_coloring(UniformHypergraph(13, 4))
    assert phi is not None and sorted(phi) == list(range(13))
    assert verify_odd_coloring(UniformHypergraph(13, 4), phi)


def test_no_edges_vacuously_colorable():
    phi = find_odd_coloring(UniformHypergraph(2, 4))
    assert phi is not None and set(phi) == {0, 1}


def test_odd_cycle_graph_not_colorable():
    # r=2 odd coloring is exactly a proper 2-coloring; triangles have none
    triangle = UniformHypergraph(3, 2, ((0, 1), (1, 2), (0, 2)))
    assert find_odd_coloring(triangle) is None
    path = UniformHypergraph(3, 2, ((0, 1), (1, 2)))
    phi = find_odd_coloring(path)
    assert phi is not None and verify_odd_coloring(path, phi)


def test_found_colorings_reverify():
    for seed in range(6):
        H = random_hypergraph(8, 4, 6, seed)
        phi = find_odd_coloring(H)
        if phi is not None:
            assert verify_odd_coloring(H, phi)


@st.composite
def _coloring_cases(draw):
    """A small even-uniform graph, possibly edgeless.  r = 12 (odd part 3)
    needs up to 13 vertices to have edges; at most 3 edges there and 8
    elsewhere keep the backtracking oracle fast (complete(9, 8) alone would
    take it minutes)."""
    r = draw(st.sampled_from([2, 4, 6, 8, 12]))
    n = draw(st.integers(1, 13 if r == 12 else 9))
    pool = list(combinations(range(n), r))
    if not pool:
        return UniformHypergraph(n, r)
    edges = draw(st.lists(st.sampled_from(pool), max_size=3 if r == 12 else 8))
    return UniformHypergraph(n, r, edges)


@settings(max_examples=300, deadline=None)
@given(_coloring_cases())
def test_odd_coloring_matches_backtracking_oracle(H):
    phi = find_odd_coloring(H)
    assert (phi is None) == (oracles.find_odd_coloring(H) is None)
    if phi is not None:
        assert verify_odd_coloring(H, phi)


def test_odd_coloring_decided_above_the_old_cap():
    K = complete(5, 4)
    assert find_odd_coloring(K) is None
    copies = UniformHypergraph(15, 4, [[v + 5 * c for v in e] for c in range(3) for e in K.edges])
    assert find_odd_coloring(copies) is None
    path = loose_path(4, 20)
    phi = find_odd_coloring(path)
    assert phi is not None and verify_odd_coloring(path, phi)
    # every edge misses one vertex, so all labels agree and 12c = 6 mod 12
    assert find_odd_coloring(complete(13, 12)) is None


def test_odd_coloring_is_fast_where_the_search_was_slow():
    started = time.perf_counter()
    assert find_odd_coloring(random_hypergraph(12, 6, 40, 3)) is None
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "phi",
    [
        {0: 0, 1: 0, 2: 0, 3: 2},
        {0: 6, 1: 4, 2: 4, 3: 4},
        {0: -2, 1: 4, 2: 4, 3: 4},
        {0: 1, 1: 1, 2: 4},
        {0: 1, 1: 1, 2: 4, 3: 4, 4: 2},
        {0: 1.0, 1: 1, 2: 4, 3: 4},
        {0: True, 1: 1, 2: 4, 3: 4},
    ],
    ids=["zero-labels", "label-above-r", "negative-label", "missing-vertex",
         "extra-vertex", "float-label", "bool-label"],
)
def test_verify_odd_coloring_rejects_bad_labels(phi):
    # wherever the edge is fully labelled its sum is 2 mod 4, so only the
    # labels themselves are at fault
    H = single_edge(4)
    assert verify_odd_coloring(H, {0: 1, 1: 1, 2: 4, 3: 4})
    assert not verify_odd_coloring(H, phi)
