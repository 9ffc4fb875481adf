"""Tests for the degree power-mean bounds, weights, and certificates."""

import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspec import (
    SolverConfig,
    TensorOperator,
    UniformHypergraph,
    average_degree_bound,
    blowup,
    certificate_vector,
    complete,
    degree_power_mean_bound,
    loose_path,
    optimal_weights,
    q_degree_bound,
    random_hypergraph,
    rayleigh,
    single_edge,
    spectral_radius,
    verify_bounds,
)
from hyperspec.bounds import dominance_holds

# frozen by independent arithmetic: ((4 + 2*sqrt(2)) / 5) ** (2/3)
LOOSE_PATH_BOUND = 1.2309312092285165
RHO_LOOSE_PATH = 2.0 ** (1.0 / 3.0)
# frozen: ((2 + 4*sqrt(2)) / 4) ** (2/3) for edges {1,2,3},{1,2,4}
PAIR_EDGES_BOUND = 1.54167770755673
RHO_PAIR_EDGES = 2.0 ** (2.0 / 3.0)  # symmetry reduction: lambda^{3/2} = 2
# frozen: weights of loose_path(3,2), 5^{1/3} d^{1/2} / (4 + 2 sqrt 2)^{1/3}
LOOSE_PATH_WEIGHT_DEG1 = 0.9013285100221887
LOOSE_PATH_WEIGHT_DEG2 = 1.2746710030269135


def test_power_mean_bound_values():
    assert abs(degree_power_mean_bound(complete(5, 3)) - 6.0) < 1e-12
    assert abs(degree_power_mean_bound(loose_path(3, 2)) - LOOSE_PATH_BOUND) < 1e-12
    pair_edges = UniformHypergraph(4, 3, ((0, 1, 2), (0, 1, 3)))
    assert abs(degree_power_mean_bound(pair_edges) - PAIR_EDGES_BOUND) < 1e-12
    # direct recomputation from the degree sequence
    expect = ((4 + 2 * math.sqrt(2)) / 5) ** (2.0 / 3.0)
    assert abs(degree_power_mean_bound(loose_path(3, 2)) - expect) < 1e-15


def test_pair_edges_strict_gap():
    pair_edges = UniformHypergraph(4, 3, ((0, 1, 2), (0, 1, 3)))
    rho = spectral_radius(pair_edges, "adjacency").value
    assert abs(rho - RHO_PAIR_EDGES) < 1e-8
    assert rho > degree_power_mean_bound(pair_edges)


def test_q_bound_values():
    assert abs(q_degree_bound(complete(5, 3)) - 12.0) < 1e-12
    assert abs(q_degree_bound(loose_path(3, 2)) - 2 * LOOSE_PATH_BOUND) < 1e-12
    assert abs(q_degree_bound(single_edge(3)) - 2.0) < 1e-12
    assert abs(spectral_radius(single_edge(3), "q").value - 2.0) < 1e-9


def test_average_degree_bound():
    assert average_degree_bound(loose_path(3, 2)) == pytest.approx(1.2)
    assert average_degree_bound(complete(5, 3)) == pytest.approx(6.0)
    assert average_degree_bound(UniformHypergraph(3, 3)) == 0.0


def test_r2_regression_sum_of_squares():
    # classical graph case: the bound is ((sum d_i^2)/n)^(1/2)
    star = UniformHypergraph(3, 2, ((0, 1), (1, 2)))
    assert abs(degree_power_mean_bound(star) - math.sqrt(2.0)) < 1e-12
    # the star attains it while being irregular (semiregular bipartite)
    rho = spectral_radius(star, "adjacency").value
    assert abs(rho - math.sqrt(2.0)) < 1e-9
    reports = verify_bounds(star)
    by_kind = {rep.kind: rep for rep in reports}
    assert list(by_kind) == ["adjacency", "signless-laplacian", "average-degree"]
    assert by_kind["adjacency"].equality
    assert not by_kind["adjacency"].regular
    assert all(rep.consistent for rep in reports)


def test_optimal_weights_regular_are_ones():
    for H in (complete(5, 3), single_edge(3)):
        np.testing.assert_allclose(optimal_weights(H), np.ones(H.n), atol=1e-12)


def test_optimal_weights_loose_path_frozen():
    a = optimal_weights(loose_path(3, 2))
    expect = [
        LOOSE_PATH_WEIGHT_DEG1,
        LOOSE_PATH_WEIGHT_DEG1,
        LOOSE_PATH_WEIGHT_DEG2,
        LOOSE_PATH_WEIGHT_DEG1,
        LOOSE_PATH_WEIGHT_DEG1,
    ]
    np.testing.assert_allclose(a, expect, atol=1e-12)
    assert abs(np.sum(a**3) - 5.0) < 1e-9


def test_optimal_weights_properties():
    for seed in range(8):
        H = random_hypergraph(9, 3, 11, seed)
        a = optimal_weights(H)
        d = np.array(H.degrees(), dtype=float)
        assert abs(np.sum(a**H.r) - H.n) < 1e-9
        weighted = float(np.dot(a, d)) / H.n
        assert abs(weighted - degree_power_mean_bound(H)) < 1e-9


def test_optimal_weights_empty_rejected():
    with pytest.raises(ValueError):
        optimal_weights(UniformHypergraph(3, 3))


def test_am_gm_step_for_weights():
    for seed in range(6):
        H = random_hypergraph(8, 3, 9, seed)
        a = optimal_weights(H)
        lhs = a**H.r + H.r - 1
        assert np.all(lhs >= H.r * a - 1e-12)
        equal = np.abs(lhs - H.r * a) < 1e-9
        np.testing.assert_array_equal(equal, np.abs(a - 1.0) < 1e-9)


def test_certificate_vector_layout_and_norm():
    H = loose_path(3, 2)
    a = optimal_weights(H)
    x = certificate_vector(H, a)
    assert x.shape == (15,)
    scale = (3 * 5) ** (-1.0 / 3.0)
    np.testing.assert_allclose(x[::3], a * scale)
    np.testing.assert_allclose(x[1::3], scale)
    assert abs(np.sum(x**3) - 1.0) < 1e-12
    # regular case: uniform vector
    u = certificate_vector(complete(4, 3), optimal_weights(complete(4, 3)))
    np.testing.assert_allclose(u, (3 * 4) ** (-1.0 / 3.0), atol=1e-12)


def test_certificate_vector_dimension_mismatch():
    with pytest.raises(ValueError):
        certificate_vector(loose_path(3, 2), np.ones(4))


def test_certificate_rayleigh_identity():
    for H in (loose_path(3, 2), complete(4, 3), random_hypergraph(7, 3, 8, 2)):
        a = optimal_weights(H)
        x = certificate_vector(H, a)
        tilde = blowup(H).tilde
        val = rayleigh(TensorOperator.adjacency(tilde), x)
        d = np.array(H.degrees(), dtype=float)
        expect = math.factorial(H.r - 1) / H.n * float(np.dot(a, d))
        assert abs(val - expect) < 1e-10
        assert abs(val - math.factorial(H.r - 1) * degree_power_mean_bound(H)) < 1e-9


def test_verify_bounds_regular_equality():
    reports = verify_bounds(complete(5, 3))
    by_kind = {rep.kind: rep for rep in reports}
    adj = by_kind["adjacency"]
    q = by_kind["signless-laplacian"]
    assert abs(adj.gap) < 1e-8 and adj.equality and adj.regular and adj.consistent
    assert abs(q.gap) < 1e-8 and q.equality and q.consistent
    assert by_kind["average-degree"].equality


def test_verify_bounds_strict_gap():
    reports = verify_bounds(loose_path(3, 2))
    adj = next(rep for rep in reports if rep.kind == "adjacency")
    assert abs(adj.gap - (RHO_LOOSE_PATH - LOOSE_PATH_BOUND)) < 1e-8
    assert adj.gap > 0.02
    assert not adj.equality and not adj.regular and adj.consistent


def test_verify_bounds_disconnected_suppresses_characterization():
    H = UniformHypergraph(6, 3, ((0, 1, 2), (3, 4, 5)))
    reports = verify_bounds(H)
    adj = next(rep for rep in reports if rep.kind == "adjacency")
    assert abs(adj.bound - 1.0) < 1e-12
    assert abs(adj.rho - 1.0) < 1e-9
    assert adj.regular and not adj.connected
    assert adj.consistent  # characterization skipped off the connected case


def test_verify_bounds_empty_hypergraph():
    reports = verify_bounds(UniformHypergraph(3, 3))
    for rep in reports:
        assert rep.bound == 0.0 and rep.rho == 0.0 and rep.consistent


def test_verify_bounds_nonconvergence_is_inconclusive():
    cfg = SolverConfig(max_iterations=1)
    reports = verify_bounds(loose_path(3, 2), cfg)
    assert any(not rep.converged for rep in reports)


def test_dominance_over_average_degree():
    for seed in range(10):
        H = random_hypergraph(9, 3, 10, seed)
        pm = degree_power_mean_bound(H)
        avg = average_degree_bound(H)
        assert pm >= avg - 1e-12
        if H.is_regular():
            assert abs(pm - avg) < 1e-9
        else:
            assert pm > avg + 1e-12


def _complete_sizes(r, max_edges=200_000):
    n = r
    while math.comb(n, r) < max_edges:
        yield n
        n += 1


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_power_mean_of_complete_is_its_degree_exactly(r):
    # the bound reads only n, r and the degrees, so every size is checked on
    # the degree sequence of complete(n, r); the largest size, and one in
    # the middle, are built to show that it is that sequence
    sizes = list(_complete_sizes(r))
    for n in sizes:
        d = math.comb(n - 1, r - 1)
        H = SimpleNamespace(n=n, r=r, num_edges=n * d // r, degree_array=np.full(n, d))
        assert degree_power_mean_bound(H) == d == average_degree_bound(H)
    for n in (sizes[-1], sizes[len(sizes) // 2]):
        H = complete(n, r)
        assert np.array_equal(H.degree_array, np.full(n, math.comb(n - 1, r - 1)))
        assert degree_power_mean_bound(H) == math.comb(n - 1, r - 1)


def _tight_cycle(n, r, moved):
    """The r-uniform tight cycle on n vertices, edges {k, ..., k+r-1 mod n},
    which is r-regular; with ``moved``, its first edge trades its last
    vertex for the next one not on it."""
    edges = [[(k + j) % n for j in range(r)] for k in range(n)]
    if moved:
        edges[0][-1] = r
    return UniformHypergraph(n, r, edges)


@st.composite
def _degree_sequences(draw):
    """Hypergraphs for r = 2..6 with regular, near-regular and irregular
    degree sequences: random ones, complete ones with and without one edge,
    and tight cycles with and without one edge moved; then maybe two
    disjoint copies, with or without an isolated vertex."""
    r = draw(st.integers(2, 6))
    shape = draw(st.sampled_from(["random", "complete", "cycle"]))
    if shape == "random":
        n = draw(st.integers(r, 60))
        m = draw(st.integers(0, min(300, math.comb(n, r))))
        H = random_hypergraph(n, r, m, seed=draw(st.integers(0, 2**31)))
    elif shape == "complete":
        n = draw(st.integers(r, 40).filter(lambda n: math.comb(n, r) <= 5000))
        edges = list(combinations(range(n), r))
        if draw(st.booleans()):
            del edges[draw(st.integers(0, len(edges) - 1))]
        H = UniformHypergraph(n, r, edges)
    else:
        H = _tight_cycle(draw(st.integers(r + 2, 60)), r, draw(st.booleans()))
    if draw(st.booleans()):
        isolated = draw(st.integers(0, 1))
        edges = np.vstack([H.edge_array, H.edge_array + H.n])
        H = UniformHypergraph(2 * H.n + isolated, r, edges)
    return H


@settings(max_examples=300, deadline=None)
@given(_degree_sequences())
def test_power_mean_dominates_the_average_exactly(H):
    pm = degree_power_mean_bound(H)
    avg = average_degree_bound(H)
    assert pm >= avg
    assert (pm == avg) == H.is_regular()


def test_dominance_gate():
    for H in (complete(5, 3), loose_path(3, 2), UniformHypergraph(6, 3, ((0, 1, 2), (3, 4, 5)))):
        assert dominance_holds(verify_bounds(H))
    reports = verify_bounds(loose_path(3, 2))
    avg = next(rep for rep in reports if rep.kind == "average-degree")
    # an average degree above the power mean, or equal to it on an
    # irregular graph, breaks the gate
    for bound in (reports[0].bound + 1e-6, reports[0].bound):
        avg.bound = bound
        assert not dominance_holds(reports)


def test_bound_report_serialization():
    rep = verify_bounds(single_edge(3))[0]
    payload = rep.to_json()
    assert list(payload) == [
        "kind", "bound", "rho", "gap", "regular", "equality", "connected", "consistent",
    ]
    row = rep.to_csv_row()
    assert row.startswith("adjacency,")
    assert row.count(",") == 7
