"""Tests for tensor applies, dense tensors, and direct products."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperspec import solver
from hyperspec import (
    CapacityError,
    DenseTensor,
    TensorOperator,
    UniformHypergraph,
    blowup,
    complete,
    dense_tensor_of,
    direct_product,
    distinct_index_tensor,
    eigen_residual,
    loose_path,
    random_hypergraph,
    rayleigh,
    single_edge,
    spectral_radius,
)


# adjacency apply


def test_adjacency_apply_examples():
    edge = TensorOperator.adjacency(single_edge(3))
    np.testing.assert_allclose(edge.apply([1, 1, 1]), [1, 1, 1])
    np.testing.assert_allclose(
        TensorOperator.adjacency(loose_path(3, 2)).apply(np.ones(5)), [1, 1, 2, 1, 1]
    )
    np.testing.assert_allclose(edge.apply([1, 2, 3]), [6, 3, 2])


def test_adjacency_apply_matches_dense():
    rng = np.random.default_rng(0)
    for seed in range(5):
        H = random_hypergraph(7, 3, 8, seed)
        arr = oracles.dense_adjacency(H)
        x = rng.standard_normal(7)
        np.testing.assert_allclose(
            TensorOperator.adjacency(H).apply(x), oracles.dense_apply(arr, x), atol=1e-12
        )


def test_all_ones_apply_is_degree_vector():
    for seed in range(5):
        H = random_hypergraph(9, 4, 10, seed)
        np.testing.assert_allclose(TensorOperator.adjacency(H).apply(np.ones(9)), H.degrees())


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        TensorOperator.adjacency(single_edge(3)).apply([1.0, 2.0])


# operator kinds


def test_operator_kind_examples():
    q = TensorOperator.signless_laplacian(single_edge(3))
    np.testing.assert_allclose(q.apply(np.ones(3)), [2, 2, 2])
    H, ones = loose_path(3, 2), np.ones(5)
    degree_term = (TensorOperator.signless_laplacian(H).apply(ones)
                   - TensorOperator.adjacency(H).apply(ones))
    np.testing.assert_allclose(degree_term, [1, 1, 2, 1, 1])


def test_homogeneity_of_apply():
    rng = np.random.default_rng(1)
    H = random_hypergraph(6, 3, 7, 3)
    for kind in ("adjacency", "signless-laplacian"):
        T = TensorOperator(kind, hypergraph=H)
        x = rng.standard_normal(6)
        c = 1.7
        np.testing.assert_allclose(T.apply(c * x), c ** (H.r - 1) * T.apply(x), rtol=1e-12)


def test_relabeling_invariance_of_rayleigh():
    rng = np.random.default_rng(2)
    H = random_hypergraph(7, 3, 9, 5)
    x = rng.random(7)
    perm = rng.permutation(7)
    relabeled = UniformHypergraph(7, 3, tuple(tuple(perm[v] for v in e) for e in H.edges))
    xp = np.empty(7)
    xp[perm] = x
    a = rayleigh(TensorOperator.adjacency(H), x)
    b = rayleigh(TensorOperator.adjacency(relabeled), xp)
    assert abs(a - b) < 1e-12


# jacobian applies


def _jacobian(T, x):
    """The product ``v -> J(x) v`` of a hypergraph operator's Jacobian, by
    the solver's matrix product with J's own diagonal negated: that product
    is diagonal * v less J's off-diagonal applied to v, so it gives -J v."""
    r = T.order
    d = T.hypergraph.degree_array if T.kind == "signless-laplacian" else 0
    product = solver._matrix_product(T, x, -(r - 1) * d * x ** (r - 2))
    return lambda v: -product(v)


@st.composite
def _jacobian_cases(draw):
    r = draw(st.integers(3, 5))
    n = draw(st.integers(r, 7))
    m = draw(st.integers(0, 9))
    H = random_hypergraph(n, r, min(m, math.comb(n, r)), draw(st.integers(0, 10**6)))
    entries = st.floats(0.05, 2.0, allow_nan=False)
    x = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    v = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    return H, x, v


@settings(max_examples=60, deadline=None)
@given(_jacobian_cases(), st.sampled_from(["adjacency", "signless-laplacian"]))
def test_jacobian_apply_matches_dense_contraction(case, kind):
    H, x, v = case
    T = TensorOperator(kind, hypergraph=H)
    # (r-1) T x^(r-2), the dense tensor contracted r-2 times with x
    matrix = dense_tensor_of(H, kind).entries
    for _ in range(H.r - 2):
        matrix = matrix.dot(x)
    np.testing.assert_allclose(
        _jacobian(T, x)(v), (H.r - 1) * matrix.dot(v), rtol=1e-12, atol=1e-12
    )
    # Euler's identity for the degree-(r-1) homogeneous apply
    np.testing.assert_allclose(
        _jacobian(T, x)(x), (H.r - 1) * T.apply(x), rtol=1e-12, atol=1e-12
    )


@st.composite
def _jacobian_pair_cases(draw):
    r = draw(st.integers(2, 6))
    n = draw(st.integers(r, r + 2))
    m = draw(st.integers(0, 9))
    H = random_hypergraph(n, r, min(m, math.comb(n, r)), draw(st.integers(0, 10**6)))
    entries = st.floats(0.05, 2.0, allow_nan=False)
    x = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    v1, v2 = (np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
              for _ in range(2))
    return H, x, v1, v2


@settings(max_examples=60, deadline=None)
@given(_jacobian_pair_cases(), st.sampled_from(["adjacency", "signless-laplacian"]))
def test_jacobian_products_share_no_result_buffer(case, kind):
    # one product function reuses its work rows across calls; no result
    # may alias them
    H, x, v1, v2 = case
    T = TensorOperator(kind, hypergraph=H)
    jac = _jacobian(T, x)
    first = jac(v1)
    kept = first.copy()
    second = jac(v2)
    assert np.array_equal(first, kept)
    matrix = dense_tensor_of(H, kind).entries
    for _ in range(H.r - 2):
        matrix = matrix.dot(x)
    for v, got in ((v1, first), (v2, second)):
        assert np.array_equal(got, _jacobian(T, x)(v))
        np.testing.assert_allclose(got, (H.r - 1) * matrix.dot(v), rtol=1e-12, atol=1e-12)


@st.composite
def _workspace_cases(draw):
    """(H, x1, x2): r = 2..6, up to 9 edges, up to three isolated vertices,
    and two positive vectors."""
    r = draw(st.integers(2, 6))
    n = draw(st.integers(r, r + 3))
    m = draw(st.integers(0, 9))
    H = random_hypergraph(n, r, min(m, math.comb(n, r)), draw(st.integers(0, 10**6)))
    H = UniformHypergraph(n + draw(st.integers(0, 3)), r, H.edge_array)
    entries = st.floats(0.05, 2.0, allow_nan=False)
    x1, x2 = (np.array(draw(st.lists(entries, min_size=H.n, max_size=H.n))) for _ in range(2))
    return H, x1, x2


@settings(max_examples=60, deadline=None)
@given(_workspace_cases())
def test_apply_through_a_workspace_matches_a_fresh_apply(case):
    H, x1, x2 = case
    ops = [TensorOperator(kind, hypergraph=H) for kind in ("adjacency", "signless-laplacian")]
    if H.r <= 4:
        ops.append(TensorOperator.dense(dense_tensor_of(H, "adjacency")))
    for T in ops:
        work = T.workspace()
        first = T.apply(x1, work=work)
        kept = first.copy()
        second = T.apply(x2, work=work)
        # the second apply leaves the first result alone, and neither
        # result lives in the workspace
        assert np.array_equal(first, kept)
        assert work is None or not any(np.shares_memory(y, work) for y in (first, second))
        for x, got in ((x1, first), (x2, second)):
            assert np.array_equal(got, T.apply(x))
            if T.kind != "dense":
                # bit for bit the edge-major terms, summed per vertex slot
                # by slot
                terms = oracles.edge_major_terms(H, x).T.ravel()
                want = np.bincount(H.edge_array.T.ravel(), weights=terms, minlength=H.n)
                if T.kind == "signless-laplacian":
                    want = H.degree_array * x ** (H.r - 1) + want
                assert np.array_equal(got, want)


# dense tensors


def test_distinct_index_tensor_entries():
    B = distinct_index_tensor(3)
    assert B.entries[0, 1, 2] == 1.0
    assert B.entries[0, 0, 1] == 0.0
    np.testing.assert_allclose(B.apply(np.ones(3)), [2, 2, 2])


def test_dense_tensor_of_matches_oracle():
    H = loose_path(3, 2)
    np.testing.assert_allclose(
        dense_tensor_of(H, "adjacency").entries, oracles.dense_adjacency(H)
    )
    q = dense_tensor_of(H, "signless-laplacian").entries
    diagonal = np.zeros_like(q)
    for v, d in enumerate([1, 1, 2, 1, 1]):
        diagonal[v, v, v] = d
    np.testing.assert_allclose(q - diagonal, oracles.dense_adjacency(H))


def test_every_entry_point_reads_one_kind_alias_table():
    # "a" and "q" are short for the two hypergraph kinds in the operator,
    # the solver and the dense tensor alike
    H = loose_path(3, 2)
    for short, kind in (("a", "adjacency"), ("q", "signless-laplacian")):
        np.testing.assert_array_equal(
            dense_tensor_of(H, short).entries, dense_tensor_of(H, kind).entries
        )
        assert TensorOperator(short, hypergraph=H).kind == kind
        assert spectral_radius(H, short).value == spectral_radius(H, kind).value
    with pytest.raises(ValueError):
        dense_tensor_of(H, "laplacian")


def test_dense_dimension_cap():
    with pytest.raises(CapacityError):
        DenseTensor(np.zeros((13, 13)))


def test_dense_order_cap():
    with pytest.raises(CapacityError):
        DenseTensor(np.zeros((2,) * 7))


# direct products


def test_direct_product_identity_dim1():
    B = distinct_index_tensor(3)
    one = DenseTensor(np.ones((1, 1, 1)))
    np.testing.assert_allclose(direct_product(one, B).entries, B.entries)


def test_direct_product_scalar_associativity():
    rng = np.random.default_rng(3)
    A = DenseTensor(rng.random((2, 2, 2)))
    B = DenseTensor(rng.random((3, 3, 3)))
    lhs = direct_product(DenseTensor(2.0 * A.entries), B).entries
    rhs = 2.0 * direct_product(A, B).entries
    np.testing.assert_allclose(lhs, rhs)


def test_direct_product_matches_blowup_adjacency():
    H = single_edge(3)
    product = direct_product(dense_tensor_of(H, "adjacency"), distinct_index_tensor(3))
    tilde = blowup(H).tilde
    np.testing.assert_allclose(
        product.entries, dense_tensor_of(tilde, "adjacency").entries
    )


def test_direct_product_order_mismatch_and_cap():
    A = DenseTensor(np.ones((2, 2)))
    B = DenseTensor(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        direct_product(A, B)
    big = DenseTensor(np.ones((7, 7, 7)))
    with pytest.raises(CapacityError):
        direct_product(big, DenseTensor(np.ones((2, 2, 2))))


def test_product_composition_on_vectors():
    rng = np.random.default_rng(4)
    A = DenseTensor(rng.random((3, 3, 3)))
    B = DenseTensor(rng.random((2, 2, 2)))
    u = rng.standard_normal(3)
    v = rng.standard_normal(2)
    lhs = direct_product(A, B).apply(np.kron(u, v))
    rhs = np.kron(A.apply(u), B.apply(v))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_kron_vector_examples():
    # the product acts on Kronecker vectors, pair (i, j) at i*dim(B) + j:
    # the edge {0, 1} swaps a 2-vector
    swap = DenseTensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(np.kron([1, 2], [3, 4]), [3, 4, 6, 8])
    np.testing.assert_allclose(direct_product(swap, swap).apply([3, 4, 6, 8]), [8, 6, 4, 3])
    ones = DenseTensor(np.ones((3, 3)))
    np.testing.assert_allclose(direct_product(swap, ones).apply(np.kron([2, 5], [1, 1, 1])),
                               [15, 15, 15, 6, 6, 6])


def test_product_distributivity():
    rng = np.random.default_rng(5)
    A1 = DenseTensor(rng.random((2, 2, 2)))
    A2 = DenseTensor(rng.random((2, 2, 2)))
    B = DenseTensor(rng.random((3, 3, 3)))
    x = rng.standard_normal(6)
    lhs = direct_product(DenseTensor(A1.entries + A2.entries), B).apply(x)
    rhs = direct_product(A1, B).apply(x) + direct_product(A2, B).apply(x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# rayleigh and residuals


def test_rayleigh_examples():
    scale = 3.0 ** (-1.0 / 3.0)
    val = rayleigh(TensorOperator.adjacency(single_edge(3)), scale * np.ones(3))
    assert abs(val - 1.0) < 1e-12
    assert rayleigh(TensorOperator.adjacency(loose_path(3, 2)), np.zeros(5)) == 0.0
    bval = rayleigh(TensorOperator.dense(distinct_index_tensor(3)), scale * np.ones(3))
    assert abs(bval - 2.0) < 1e-12


def test_rayleigh_all_ones_counts_edges():
    for seed in range(4):
        H = random_hypergraph(8, 3, 9, seed)
        val = rayleigh(TensorOperator.adjacency(H), np.ones(8))
        assert abs(val - H.r * H.num_edges) < 1e-9


def test_eigen_residual_examples():
    assert eigen_residual(TensorOperator.adjacency(single_edge(3)), 1.0, np.ones(3)) == 0.0
    assert (
        eigen_residual(TensorOperator.signless_laplacian(single_edge(3)), 2.0, np.ones(3))
        == 0.0
    )
    assert (
        eigen_residual(TensorOperator.dense(distinct_index_tensor(3)), 2.0, np.ones(3))
        == 0.0
    )


def test_eigen_residual_scaling_invariant_on_eigenpairs():
    T = TensorOperator.adjacency(single_edge(3))
    for c in (0.5, 2.0, 7.3):
        assert eigen_residual(T, 1.0, c * np.ones(3)) < 1e-12


def test_eigen_residual_zero_vector_rejected():
    with pytest.raises(ValueError):
        eigen_residual(TensorOperator.adjacency(single_edge(3)), 1.0, np.zeros(3))
