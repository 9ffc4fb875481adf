"""Tests for the blow-up construction and its spectral identities."""

import importlib
import importlib.util
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hyperspec import (
    CapacityError,
    DenseTensor,
    TensorOperator,
    UniformHypergraph,
    blowup,
    check_product_identity,
    check_q_identities,
    check_spectral_scaling,
    complete,
    dense_tensor_of,
    direct_product,
    distinct_index_tensor,
    kronecker_adjacency_apply,
    loose_path,
    random_hypergraph,
    single_edge,
    spectral_radius,
    verify_blowup,
)
from hyperspec.cli import main

# the package attribute ``hyperspec.blowup`` is the function, not the module
blowup_mod = importlib.import_module("hyperspec.blowup")
tensors_mod = importlib.import_module("hyperspec.tensors")

ACCEPTANCE_TRIO = (single_edge(3), loose_path(3, 2), complete(4, 3))


def test_blowup_single_edge_structure():
    bl = blowup(single_edge(3))
    assert bl.tilde.n == 9
    assert bl.tilde.num_edges == 6
    assert set(bl.tilde.degrees()) == {2}


def test_blowup_loose_path_counts():
    bl = blowup(loose_path(3, 2))
    assert bl.tilde.n == 15
    assert bl.tilde.num_edges == 12


def test_blowup_edge_and_degree_laws():
    for seed in range(5):
        H = random_hypergraph(7, 3, 6, seed)
        bl = blowup(H)
        assert bl.tilde.num_edges == math.factorial(H.r) * H.num_edges
        degs = bl.tilde.degrees()
        base = H.degrees()
        for i in range(H.n):
            for j in range(H.r):
                assert degs[i * H.r + j] == math.factorial(H.r - 1) * base[i]


def test_blowup_is_r_partite():
    H = random_hypergraph(6, 3, 5, 1)
    bl = blowup(H)
    for edge in bl.tilde.edges:
        labels = sorted(flat % H.r for flat in edge)
        assert labels == list(range(H.r))


def test_blowup_capacity_guards(monkeypatch):
    # loose_path(3, 2) blows up to 15 vertices and 12 edges
    with monkeypatch.context() as patch:
        patch.setattr(blowup_mod, "BLOWUP_EDGE_CAP", 10)
        with pytest.raises(CapacityError, match="12 edges, cap is 10"):
            blowup(loose_path(3, 2))
    with monkeypatch.context() as patch:
        patch.setattr(blowup_mod, "BLOWUP_VERTEX_CAP", 10)
        with pytest.raises(CapacityError, match="15 vertices, cap is 10"):
            blowup(loose_path(3, 2))


def test_edgeless_blowup_lists_no_permutations(no_long_permutation_lists):
    started = time.perf_counter()
    bl = blowup(UniformHypergraph(12, 12))
    assert time.perf_counter() - started < 1.0
    assert (bl.tilde.n, bl.tilde.r, bl.tilde.num_edges) == (144, 12, 0)


def test_verify_corpus_with_an_edgeless_twelve_uniform_graph(
    tmp_path, capsys, no_long_permutation_lists
):
    (tmp_path / "e.hg").write_text("12 12\n")
    assert main(["verify", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "instances=1 failures=0"


def test_vertex_map_round_trip(capsys):
    bl = blowup(single_edge(3))
    for i, j, flat in bl.vertex_map():
        assert i * 3 + j == flat
        assert divmod(flat, 3) == (i, j)
    # the CLI reports the map with 1-based ids
    assert main(["blowup", "--gen", "single_edge:3", "--json"]) == 0
    triples = json.loads(capsys.readouterr().out)["vertex_map"]
    assert triples == [[i + 1, j + 1, flat + 1] for i, j, flat in bl.vertex_map()]
    assert triples[0] == [1, 1, 1]
    assert triples[-1] == [3, 3, 9]


def test_blowup_connectivity_matches_base():
    disjoint_pair = UniformHypergraph(6, 3, ((0, 1, 2), (3, 4, 5)))
    for H, connected in ((loose_path(3, 2), True), (single_edge(4), True), (disjoint_pair, False)):
        result = verify_blowup(H)
        assert result.connectivity_ok
        assert result.blowup.tilde.is_connected() is connected


def test_blowup_r2_can_disconnect():
    # the 2-uniform blow-up of one edge is a perfect matching, hence no
    # connectivity claim is made for r = 2
    bl = blowup(single_edge(2))
    assert not bl.tilde.is_connected()


def test_product_identity_acceptance_trio():
    for H in ACCEPTANCE_TRIO:
        result = check_product_identity(H, trials=50, seed=3)
        assert result.ok
        assert result.max_relative_error <= 1e-10


def test_product_identity_mutated_tilde_fails_with_witness():
    H = loose_path(3, 2)
    tilde = blowup(H).tilde
    mutated = UniformHypergraph(tilde.n, tilde.r, tilde.edges[1:])
    result, _ = blowup_mod._identity_trials(H, mutated, 10, 0, 1e-10)
    assert not result.ok
    assert result.witness is not None
    assert result.witness.shape == (15,)


def _replace_first_edge(tilde, edge):
    return UniformHypergraph(tilde.n, tilde.r, (edge,) + tilde.edges[1:])


@pytest.mark.parametrize(
    "H, mutate",
    [
        (single_edge(5), lambda t: UniformHypergraph(t.n, t.r, t.edges[1:])),
        # base edge (0, 1, 2) with labels (0, 0, 1): not all distinct
        (loose_path(3, 2), lambda t: _replace_first_edge(t, (0, 3, 7))),
        # base (0, 1, 3) with distinct labels: not an edge of the base
        (loose_path(3, 2), lambda t: _replace_first_edge(t, (0, 4, 11))),
        (loose_path(3, 2), lambda t: UniformHypergraph(t.n + 1, t.r, t.edge_array)),
    ],
    ids=["missing-edge", "repeated-label", "foreign-base-edge", "extra-vertex"],
)
def test_entrywise_check_rejects_mutated_tilde_without_trials(H, mutate):
    # the exact checks decide alone; one trial may run beside them, and on a
    # tilde without r n vertices it is skipped instead of raising
    tilde = blowup(H).tilde
    for trials in (0, 1):
        product, apply_ok = blowup_mod._identity_trials(H, tilde, trials, 0, 1e-10)
        assert product.ok and apply_ok
        product, apply_ok = blowup_mod._identity_trials(H, mutate(tilde), trials, 0, 1e-10)
        assert not product.ok
        assert not apply_ok


def test_blowup_edges_match_tuple_construction():
    graphs = (
        single_edge(2),
        loose_path(3, 2),
        complete(5, 4),
        random_hypergraph(9, 4, 12, 5),
        UniformHypergraph(3, 3),
    )
    for H in graphs:
        r = H.r
        edges = [
            tuple(base_edge[k] * r + labels[k] for k in range(r))
            for base_edge in H.edges
            for labels in itertools.permutations(range(r))
        ]
        assert blowup(H).tilde == UniformHypergraph(H.n * r, r, edges)


def test_identity_trials_reject_mutated_tilde_in_both_checks():
    for H in (loose_path(3, 2), single_edge(5)):
        tilde = blowup(H).tilde
        mutated = UniformHypergraph(tilde.n, tilde.r, tilde.edges[1:])
        product, apply_ok = blowup_mod._identity_trials(H, mutated, 10, 0, 1e-10)
        assert not product.ok
        assert product.witness is not None
        assert product.witness.shape == (tilde.n,)
        assert not apply_ok


def _count_calls(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_verify_blowup_runs_no_trials_and_builds_no_dense_tensor(monkeypatch):
    # both identities are decided from the edge set and the degrees: no
    # Kronecker apply, and no dense tensor built or contracted
    H = loose_path(3, 2)
    calls = {"kron": 0, "dense": 0, "dense_build": 0}
    monkeypatch.setattr(
        blowup_mod,
        "kronecker_adjacency_apply",
        _count_calls(calls, "kron", blowup_mod.kronecker_adjacency_apply),
    )
    monkeypatch.setattr(DenseTensor, "apply", _count_calls(calls, "dense", DenseTensor.apply))
    monkeypatch.setattr(
        DenseTensor, "__init__", _count_calls(calls, "dense_build", DenseTensor.__init__)
    )
    result = blowup_mod.verify_blowup(H)
    assert result.ok
    assert calls == {"kron": 0, "dense": 0, "dense_build": 0}


def test_verify_blowup_builds_once_and_never_applies_kronecker(monkeypatch):
    H = single_edge(5)
    calls = {"blowup": 0, "kron": 0}
    monkeypatch.setattr(blowup_mod, "blowup", _count_calls(calls, "blowup", blowup_mod.blowup))
    monkeypatch.setattr(
        blowup_mod,
        "kronecker_adjacency_apply",
        _count_calls(calls, "kron", blowup_mod.kronecker_adjacency_apply),
    )
    result = blowup_mod.verify_blowup(H)
    assert result.ok
    assert calls == {"blowup": 1, "kron": 0}


def test_kronecker_apply_matches_dense_product(monkeypatch):
    # the product of loose_path(3, 2) has dimension 15
    monkeypatch.setattr(tensors_mod, "DENSE_DIM_CAP", 15)
    rng = np.random.default_rng(8)
    for H in (single_edge(3), loose_path(3, 2)):
        rn = H.n * H.r
        product = direct_product(dense_tensor_of(H, "adjacency"), distinct_index_tensor(H.r))
        for _ in range(5):
            w = rng.standard_normal(rn)
            np.testing.assert_allclose(
                kronecker_adjacency_apply(H, w), product.apply(w), atol=1e-10
            )


@st.composite
def _kronecker_cases(draw, max_r=6):
    """(H, w): a small r-uniform graph, r = 2..max_r, possibly edgeless, and
    a signed vector whose entries span six decades."""
    r = draw(st.integers(2, max_r))
    n = draw(st.integers(r, r + 3))
    m = draw(st.integers(0, min(5, math.comb(n, r))))
    H = random_hypergraph(n, r, m, draw(st.integers(0, 10**6)))
    exponents = draw(st.lists(st.floats(-3.0, 3.0), min_size=n * r, max_size=n * r))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n * r, max_size=n * r))
    return H, np.array(signs) * 10.0 ** np.array(exponents)


@settings(max_examples=150, deadline=None)
@given(_kronecker_cases())
@example((UniformHypergraph(7, 6), np.ones(42)))
@example((single_edge(6), np.where(np.arange(36) % 6 == 0, 1e3, 1e-3)))
def test_kronecker_apply_matches_oracle_loop(case):
    # Both sides sum the same products of entries of w in different orders,
    # so they may differ by rounding relative to the same sums taken over
    # |w|; a formula that subtracts large terms, such as Ryser's, fails this
    # when the rows of a minor share one dominant label (the second example).
    H, w = case
    got = kronecker_adjacency_apply(H, w)
    expected = oracles.kronecker_adjacency_apply(H, w)
    scale = np.max(oracles.kronecker_adjacency_apply(H, np.abs(w)), initial=0.0)
    assert got.dtype == float and got.shape == expected.shape
    assert np.max(np.abs(got - expected), initial=0.0) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(_kronecker_cases(max_r=5))
@example((UniformHypergraph(7, 5), np.ones(35)))
def test_blowup_apply_kernels_match_kronecker_product(case):
    # verify decides the identities from integers; this keeps the numerical
    # cross-check of the apply kernel on the blow-up against the product,
    # with the error measured against the same apply on |w|
    H, w = case
    r = H.r
    tilde = blowup(H).tilde
    product = kronecker_adjacency_apply(H, w)
    degree_term = math.factorial(r - 1) * np.repeat(H.degree_array, r) * w ** (r - 1)
    for T, expected in (
        (TensorOperator.adjacency(tilde), product),
        (TensorOperator.signless_laplacian(tilde), degree_term + product),
    ):
        scale = np.max(T.apply(np.abs(w)), initial=0.0)
        assert np.max(np.abs(T.apply(w) - expected), initial=0.0) <= 1e-12 * scale


def test_spectral_scaling_single_edge():
    report = check_spectral_scaling(single_edge(3))
    assert abs(report.base_pair.value - 1.0) < 1e-9
    assert abs(report.tilde_pair.value - 2.0) < 1e-9
    assert report.ok


def test_spectral_scaling_loose_path():
    report = check_spectral_scaling(loose_path(3, 2))
    assert abs(report.tilde_pair.value - 2.0 * 2.0 ** (1.0 / 3.0)) < 1e-7
    assert report.deviation <= 1e-6
    assert report.kron_residual <= 1e-6


def test_spectral_scaling_complete_4_3():
    report = check_spectral_scaling(complete(4, 3))
    assert abs(report.base_pair.value - 3.0) < 1e-9
    assert abs(report.tilde_pair.value - 6.0) < 1e-9
    assert report.ok


def test_spectral_scaling_residual_is_gated_relative_to_the_lifted_radius():
    # complete(9, 6) less one edge, an irregular input with lambda~ about
    # 5! * 55.3 = 6640: the residual reads about 6e-10 in absolute terms,
    # 5! times the base residual up to rounding, which is gated relative to
    # lambda~, like the deviation.  On a regular input the residual comes
    # from normalizing the all-ones vector alone
    H = complete(9, 6)
    report = check_spectral_scaling(UniformHypergraph(H.n, H.r, H.edges[1:]))
    assert report.kron_residual > 1e-11
    assert report.deviation <= 1e-11
    assert report.ok


def _verify_suite_graph():
    """The base 4-graph of the benchmark's verify-suite workload, before its
    seeded relabeling."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    suite = workloads.VerifySuite
    edges = workloads.random_edges(np.random.default_rng(suite.graph_seed), suite.n, suite.r,
                                   suite.m)
    return UniformHypergraph(suite.n, suite.r, edges)


def test_a_blowup_apply_off_by_a_part_in_a_billion_fails_the_scaling_check(monkeypatch):
    # the lifted ratios differ from (r-1)! times the base ones by rounding
    # alone, about 1e-14 here, so a fault of 1e-9 in the blow-up's apply
    # must show, in both kinds
    H = _verify_suite_graph()
    assert verify_blowup(H).ok
    apply = TensorOperator.apply

    def faulty(self, x, work=None):
        y = apply(self, x, work)
        return y * (1 + 1e-9) if self.dim == H.r * H.n else y

    monkeypatch.setattr(TensorOperator, "apply", faulty)
    result = verify_blowup(H)
    assert not result.scaling.ok and not result.q_identities.scaling.ok and not result.ok


def test_q_identities_acceptance_values():
    report = check_q_identities(single_edge(3))
    assert report.apply_ok
    assert abs(report.scaling.base_pair.value - 2.0) < 1e-9
    assert abs(report.scaling.tilde_pair.value - 4.0) < 1e-9

    report = check_q_identities(complete(4, 3))
    assert abs(report.scaling.base_pair.value - 6.0) < 1e-9
    assert abs(report.scaling.tilde_pair.value - 12.0) < 1e-9

    report = check_q_identities(loose_path(3, 2))
    assert report.ok
    assert report.scaling.deviation <= 1e-6


def test_scaling_on_disconnected_input():
    H = UniformHypergraph(6, 3, ((0, 1, 2), (3, 4, 5)))
    report = check_spectral_scaling(H)
    assert abs(report.base_pair.value - 1.0) < 1e-9
    assert abs(report.tilde_pair.value - 2.0) < 1e-9
    assert report.deviation <= 1e-6


@st.composite
def _lift_cases(draw):
    """A small r-uniform graph, r = 2..5, possibly disconnected or edgeless."""
    r = draw(st.integers(2, 5))
    n = draw(st.integers(r, r + 4))
    m = draw(st.integers(0, min(6, math.comb(n, r))))
    return random_hypergraph(n, r, m, draw(st.integers(0, 10**6)))


@settings(max_examples=60, deadline=None)
@given(_lift_cases(), st.sampled_from(["adjacency", "signless-laplacian"]))
@example(UniformHypergraph(6, 3, ((0, 1, 2), (3, 4, 5))), "adjacency")
@example(UniformHypergraph(7, 3, ((0, 1, 2), (3, 4, 5), (3, 4, 6))), "signless-laplacian")
@example(UniformHypergraph(5, 4), "adjacency")
@example(UniformHypergraph(5, 4), "signless-laplacian")
def test_lifted_bracket_meets_an_independent_blowup_solve(H, kind):
    # the oracle: the blow-up solved from scratch.  Both brackets enclose
    # rho(tilde) up to rounding, so they must meet.  A ratio of the shifted
    # blow-up operator sums up to its largest degree of positive terms; its
    # rounding bounds how far apart they may be.  The midpoint of one
    # bracket need not lie in the other, as both are up to 1e-10 wide
    bl = blowup(H)
    report = blowup_mod._scaling_check(H, TensorOperator(kind, hypergraph=bl.tilde), None)
    lifted = report.tilde_pair
    solved = spectral_radius(bl.tilde, kind)
    assert solved.converged and lifted.converged and report.ok
    degree = int(bl.tilde.degree_array.max(initial=0))
    slack = (degree + 2 * H.r) * math.ulp(lifted.upper + 1.0)
    assert solved.lower <= lifted.upper + slack
    assert lifted.lower <= solved.upper + slack
    assert report.deviation <= 1e-13
    assert lifted.iterations == 0
    assert np.isclose(np.sum(lifted.vector**H.r), 1.0, rtol=1e-14)


def test_certificate_gate_is_relative_to_its_target(monkeypatch):
    # the Rayleigh quotient of complete(12, 6)'s certificate misses its
    # target 55,440 by 2.6e-8, rounding over 55,440-term sums; a certificate
    # that falls short by 1e-9 relative still fails
    H = complete(12, 6)
    result = verify_blowup(H)
    assert result.ok and result.certificate_ok
    original = blowup_mod.certificate_vector
    monkeypatch.setattr(
        blowup_mod, "certificate_vector", lambda G, w: original(G, w) * (1 - 1e-9) ** (1 / G.r)
    )
    result = verify_blowup(H)
    assert not result.certificate_ok and not result.ok
    assert result.scaling.ok and result.q_identities.ok


def test_verify_blowup_aggregate():
    result = verify_blowup(loose_path(3, 2))
    assert result.ok
    assert result.connectivity_ok
    assert result.certificate_ok
    payload = result.to_json()
    assert payload["ok"] is True
    assert payload["product_ok"] is True


def test_q_certificate_chain():
    from hyperspec import certificate_vector, degree_power_mean_bound, optimal_weights, rayleigh

    for H in (loose_path(3, 2), complete(4, 3), random_hypergraph(6, 3, 7, 9)):
        tilde = blowup(H).tilde
        cert = certificate_vector(H, optimal_weights(H))
        val = rayleigh(TensorOperator.signless_laplacian(tilde), cert)
        floor = 2.0 * math.factorial(H.r - 1) * degree_power_mean_bound(H)
        assert val >= floor - 1e-8
        if H.is_regular():
            assert abs(val - floor) < 1e-8
        else:
            assert val > floor + 1e-8


def test_perturbation_limit_on_dense_toy():
    # disconnected dense toy: adding eps to every entry makes the tensor
    # positive, and the radius slides back to the component maximum as
    # eps shrinks
    from hyperspec import DenseTensor, power_iterate, spectral_radius

    H = UniformHypergraph(7, 3, ((0, 1, 2), (3, 4, 5), (3, 4, 6)))
    rho = spectral_radius(H, "adjacency").value
    assert abs(rho - 2.0 ** (2.0 / 3.0)) < 1e-9
    dense = dense_tensor_of(H, "adjacency")
    deltas = []
    for eps in (1e-2, 1e-4, 1e-6):
        perturbed = DenseTensor(dense.entries + eps * np.ones((7,) * 3))
        pair = power_iterate(TensorOperator.dense(perturbed))
        assert pair.converged
        assert pair.value >= rho - 1e-9
        deltas.append(pair.value - rho)
    assert deltas[0] > deltas[1] > deltas[2] > 0
    assert deltas[2] < 1e-3
