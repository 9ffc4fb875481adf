"""Tests for the power-iteration solver and its bracket guarantees."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperspec import solver
from hyperspec.cli import main
from hyperspec import (
    DenseTensor,
    SolverConfig,
    TensorOperator,
    UniformHypergraph,
    complete,
    distinct_index_tensor,
    loose_path,
    power_iterate,
    q_degree_bound,
    random_hypergraph,
    rayleigh,
    single_edge,
    spectral_radius,
)

RHO_LOOSE_PATH = 2.0 ** (1.0 / 3.0)  # symmetry reduction: lambda^3 = 2


def rho_loose_path(r, length):
    """Closed form from the power-hypergraph identity rho(G^r) = rho(G)^(2/r),
    with G the graph path on length + 1 vertices."""
    return (2.0 * math.cos(math.pi / (length + 2))) ** (2.0 / r)


def test_complete_5_3_radius():
    pair = power_iterate(TensorOperator.adjacency(complete(5, 3)))
    assert abs(pair.value - 6.0) < 1e-8
    assert pair.converged


def test_loose_path_radius_closed_form():
    pair = power_iterate(TensorOperator.adjacency(loose_path(3, 2)))
    assert abs(pair.value - RHO_LOOSE_PATH) < 1e-8
    assert abs(rho_loose_path(3, 2) - RHO_LOOSE_PATH) < 1e-15


# length 1 is left out: there rho = 1, and mpmath's cos(pi/3) is not
# exactly 1/2, so the exact comparison would test mpmath's rounding.  The
# mixed steps close many brackets to zero width, where the rounding margin
# decides
@pytest.mark.parametrize("length", [*range(2, 41), 60, 100, 200, 400])
@pytest.mark.parametrize("r", range(2, 7))
def test_bracket_holds_the_exact_loose_path_radius(r, length):
    pair = spectral_radius(loose_path(r, length))
    assert pair.converged
    rho = oracles.loose_path_radius(r, length)
    assert mpmath.mpf(pair.lower) <= rho <= mpmath.mpf(pair.upper)


@pytest.mark.parametrize("r,length", [(3, 400), (4, 100)])
@pytest.mark.parametrize("kind", ["adjacency", "q"])
def test_long_loose_path_converges_quickly(r, length, kind):
    # the power iteration alone stalls here (loose_path(3, 400) hit the
    # 100k cap); the Newton-Noda finish needs a few hundred iterations
    H = loose_path(r, length)
    pair = spectral_radius(H, kind)
    assert pair.converged
    assert pair.iterations < 1000
    # the finish starts at a stall check and converges quadratically
    assert pair.iterations % solver.STALL_WINDOW <= 8
    assert pair.lower <= pair.value <= pair.upper
    if kind == "adjacency":
        assert pair.lower <= rho_loose_path(r, length) <= pair.upper
    else:
        assert oracles.perron_vector_check(H, pair, "signless-laplacian")
        assert pair.value >= q_degree_bound(H)


def _plus(H, *extra):
    """H with the edges ``extra`` added."""
    return UniformHypergraph(H.n, H.r, H.edges + extra)


def test_newton_noda_fallback_to_power_iteration(monkeypatch):
    # an elimination that leaves w = 0, which is not positive, so the solve
    # must finish by power iteration alone
    calls = []

    def broken(order, roots, x, diagonal, b, frozen):
        calls.append(1)
        return np.zeros_like(x)

    monkeypatch.setattr(solver, "_eliminate", broken)
    pair = spectral_radius(loose_path(3, 50), "adjacency")
    assert calls
    assert pair.converged
    assert pair.lower <= rho_loose_path(3, 50) <= pair.upper
    assert pair.iterations > 1000


def test_newton_noda_fallback_to_power_iteration_off_hypertrees(monkeypatch):
    # the edge {1, 3, 5} closes a cycle, so the step solves by conjugate
    # gradient; a product with a negative definite M leaves w = 0
    H = _plus(loose_path(3, 50), (1, 3, 5))
    rho = spectral_radius(H, "adjacency").value
    calls = []

    def broken(T, x, diagonal):
        def product(v):
            calls.append(1)
            return -1e6 * np.asarray(v)

        return product

    monkeypatch.setattr(solver, "_matrix_product", broken)
    pair = spectral_radius(H, "adjacency")
    assert calls
    assert pair.converged
    assert pair.lower <= rho <= pair.upper


def test_newton_noda_hands_back_at_rounding_level(monkeypatch):
    # a tolerance below rounding cannot be met; once the Newton-Noda steps
    # stop shrinking the gap, the cheap power iteration runs out the cap
    steps = []
    real_step = solver._newton_noda_step

    def counted(*args):
        steps.append(1)
        return real_step(*args)

    monkeypatch.setattr(solver, "_newton_noda_step", counted)
    pair = spectral_radius(loose_path(3, 50), "adjacency",
                           SolverConfig(tolerance=1e-18, max_iterations=2000))
    assert not pair.converged
    assert pair.iterations == 2000
    assert 0 < len(steps) <= 20
    assert pair.lower <= rho_loose_path(3, 50) <= pair.upper


def test_newton_noda_builds_the_jacobian_once_per_step(monkeypatch):
    # the pair products of x are computed once per step, not once per
    # conjugate gradient product.  The edge {1, 3, 5} closes a cycle, so
    # the steps solve by conjugate gradient; the loose path is a hypertree,
    # so its steps eliminate
    real_step = solver._newton_noda_step
    real_pairs = solver._pair_products
    for H in (_plus(loose_path(3, 60), (1, 3, 5)), loose_path(3, 60)):
        steps, builds = [], []

        def counted_step(*args):
            steps.append(1)
            return real_step(*args)

        def counted_pairs(slots, x):
            builds.append(1)
            return real_pairs(slots, x)

        monkeypatch.setattr(solver, "_newton_noda_step", counted_step)
        monkeypatch.setattr(solver, "_pair_products", counted_pairs)
        pair = spectral_radius(H, "q")
        assert pair.converged
        assert steps
        assert len(builds) == len(steps)


def _moved_tight_cycle(n):
    """The 3-uniform tight cycle {k, k+1, k+2 mod n} with {0, 1, 2} moved to
    {0, 1, 3} and {5, 6, 7} to {5, 6, 9}."""
    edges = [(k, (k + 1) % n, (k + 2) % n) for k in range(n)]
    edges[0], edges[5] = (0, 1, 3), (5, 6, 9)
    return UniformHypergraph(n, 3, edges)


def _order(H, kind="adjacency"):
    S, _, segs = solver._split(TensorOperator(kind, hypergraph=H))
    return solver._elimination_order(S, segs)


def test_elimination_order_only_on_hypertrees():
    assert _order(loose_path(3, 50)) is not None
    for H in (
        _plus(loose_path(3, 50), (1, 3, 5)),
        # an edge sharing two vertices with another
        _plus(loose_path(3, 50), (0, 1, 3)),
        _moved_tight_cycle(60),
    ):
        assert _order(H) is None


@st.composite
def _hyperforests(draw):
    """Linear hyperforests: trees grown an edge at a time, each new edge
    meeting the tree in one vertex, beside isolated vertices, with the
    vertices shuffled."""
    r = draw(st.integers(2, 6))
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        first = n
        n += 1
        for _ in range(draw(st.integers(1, 6))):
            at = draw(st.integers(first, n - 1))
            edges.append([at, *range(n, n + r - 1)])
            n += r - 1
    n += draw(st.integers(0, 3))
    relabel = np.array(draw(st.permutations(range(n))))
    return UniformHypergraph(n, r, relabel[np.array(edges)])


@settings(max_examples=60, deadline=None)
@given(_hyperforests(), st.sampled_from(["adjacency", "q"]), st.integers(0, 2**32 - 1))
def test_elimination_matches_a_dense_solve(H, kind, seed):
    S, _, segs = solver._split(TensorOperator(kind, hypergraph=H))
    order = solver._elimination_order(S, segs)
    assert order is not None
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 2.0, S.dim)
    J = oracles.jacobian_matrix(S.hypergraph, x, kind)
    # a diagonally dominant M = diag(scale) - J, with some segments frozen:
    # their right-hand side is 0, so the dense solve gives them 0 too
    scale = np.abs(J).sum(axis=1) + rng.uniform(0.1, 1.0, S.dim)
    M = np.diag(scale) - J
    frozen = segs.spread(rng.random(len(segs.starts)) < 0.3)
    b = np.where(frozen, 0.0, rng.uniform(0.1, 1.0, S.dim))
    w = solver._eliminate(order, segs.starts, x, np.diag(M).copy(), b, frozen)
    expected = np.linalg.solve(M, b)
    assert np.abs(w - expected).max() <= 1e-10 * max(1.0, np.abs(expected).max())
    assert not np.any(w[frozen])


def test_elimination_refuses_a_matrix_that_is_not_positive_definite():
    H = loose_path(3, 5)
    S, _, segs = solver._split(TensorOperator("adjacency", hypergraph=H))
    order = solver._elimination_order(S, segs)
    x = np.ones(S.dim)
    frozen = np.zeros(S.dim, dtype=bool)
    for diagonal in (np.full(S.dim, 0.5), np.full(S.dim, np.nan)):
        assert solver._eliminate(order, segs.starts, x, diagonal, x, frozen) is None


@st.composite
def _matrix_cases(draw):
    """(H, x, v1, v2): r = 2..6, up to 9 edges, up to three isolated
    vertices, a positive x and two vectors of either sign."""
    r = draw(st.integers(2, 6))
    n = draw(st.integers(r, r + 3))
    m = draw(st.integers(1, 9))
    H = random_hypergraph(n, r, min(m, math.comb(n, r)), draw(st.integers(0, 10**6)))
    H = UniformHypergraph(n + draw(st.integers(0, 3)), r, H.edge_array)
    x = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=H.n, max_size=H.n)))
    v1, v2 = (np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=H.n, max_size=H.n)))
              for _ in range(2))
    return H, x, v1, v2


@settings(max_examples=60, deadline=None)
@given(_matrix_cases(), st.sampled_from(["adjacency", "q"]), st.floats(0.5, 50.0))
def test_matrix_product_matches_the_dense_oracle(case, kind, lam):
    H, x, v1, v2 = case
    r = H.r
    J = oracles.jacobian_matrix(H, x, kind)
    T = TensorOperator(kind, hypergraph=H)
    # Euler's identity for the degree-(r-1) homogeneous apply holds for the
    # oracle
    np.testing.assert_allclose(J @ x, (r - 1) * T.apply(x), rtol=1e-12, atol=1e-12)
    # lam above every degree, as a Q step's upper side is
    lam = np.full(H.n, lam + H.degree_array.max())
    M = oracles.newton_noda_matrix(H, x, lam, kind)
    d = H.degree_array if kind == "q" else 0
    diagonal = (r - 1) * (lam - d) * x ** (r - 2)
    np.testing.assert_allclose(np.diag(M), diagonal, rtol=1e-13)
    product = solver._matrix_product(T, x, diagonal)
    first = product(v1)
    kept = first.copy()
    second = product(v2)
    # the product reuses its work rows across calls; no result aliases them
    assert np.array_equal(first, kept)
    for v, got in ((v1, first), (v2, second)):
        np.testing.assert_allclose(got, M @ v, rtol=1e-12, atol=1e-12)
    # and Euler's identity in M's form: M x = (r-1) (lam x^[r-1] - T x)
    np.testing.assert_allclose(product(x), (r - 1) * (lam * x ** (r - 1) - T.apply(x)),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(_hyperforests(), st.sampled_from(["adjacency", "q"]), st.integers(0, 2**32 - 1))
def test_newton_noda_step_solves_the_oracle_system(H, kind, seed):
    # both inner solves get the oracle's diagonal and matrix: the conjugate
    # gradient its product, the elimination the hyperforest's edges
    S, _, segs = solver._split(TensorOperator(kind, hypergraph=H))
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 2.0, S.dim)
    J = oracles.jacobian_matrix(S.hypergraph, x, kind)
    # a per-segment lam above every row sum keeps M diagonally dominant
    lam = segs.spread(segs.brackets(J.sum(axis=1) / ((S.order - 1) * x ** (S.order - 2)))[1]
                      + rng.uniform(0.1, 1.0, len(segs.starts)))
    M = oracles.newton_noda_matrix(S.hypergraph, x, lam, kind)
    excess = lam - (S.hypergraph.degree_array if kind == "q" else 0)
    xp = x ** (S.order - 1)
    frozen = np.zeros(S.dim, dtype=bool)
    seen = {}

    def solve_cg(product, diagonal, b):
        seen["cg"] = diagonal, np.column_stack([product(e) for e in np.eye(S.dim)])
        return np.linalg.solve(M, b)

    def solve_eliminate(order, roots, x, diagonal, b, frozen):
        seen["eliminate"] = diagonal, None
        return real_eliminate(order, roots, x, diagonal, b, frozen)

    real_eliminate = solver._eliminate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_conjugate_gradient", solve_cg)
        mp.setattr(solver, "_eliminate", solve_eliminate)
        steps = [solver._newton_noda_step(S, segs, x, excess, xp, frozen, order)
                 for order in (None, solver._elimination_order(S, segs))]
    for diagonal, matrix in seen.values():
        np.testing.assert_allclose(diagonal, np.diag(M), rtol=1e-13)
        if matrix is not None:
            np.testing.assert_allclose(matrix, M, rtol=1e-12, atol=1e-12)
    assert set(seen) == {"cg", "eliminate"}
    np.testing.assert_allclose(steps[0], steps[1], rtol=1e-9)


@pytest.mark.parametrize("kind", ["adjacency", "q"])
def test_newton_noda_on_hypertrees_never_runs_conjugate_gradient(monkeypatch, kind):
    steps = []
    real_step = solver._newton_noda_step

    def counted(*args):
        steps.append(1)
        return real_step(*args)

    def refused(*args):
        raise AssertionError("conjugate gradient on a hypertree")

    monkeypatch.setattr(solver, "_newton_noda_step", counted)
    monkeypatch.setattr(solver, "_conjugate_gradient", refused)
    pair = spectral_radius(loose_path(3, 400), kind)
    assert pair.converged
    assert steps


@pytest.mark.parametrize("kind", ["adjacency", "q"])
def test_tight_path_converges_by_conjugate_gradient(kind):
    # the 3-uniform tight path {k, k+1, k+2} is not a hypertree, so its
    # Newton-Noda steps solve by conjugate gradient; without them it takes
    # about 70,000 iterations
    H = UniformHypergraph(500, 3, [(k, k + 1, k + 2) for k in range(498)])
    assert _order(H, kind) is None
    pair = spectral_radius(H, kind)
    assert pair.converged
    assert pair.iterations < 1000
    assert pair.lower <= pair.value <= pair.upper


@pytest.mark.parametrize("kind", ["adjacency", "q"])
def test_very_long_loose_path_converges(kind):
    H = loose_path(3, 3000)
    pair = spectral_radius(H, kind)
    assert pair.converged
    assert pair.iterations < 400
    if kind == "adjacency":
        rho = oracles.loose_path_radius(3, 3000)
        assert mpmath.mpf(pair.lower) <= rho <= mpmath.mpf(pair.upper)
    else:
        assert oracles.perron_vector_check(H, pair, "signless-laplacian")
        assert pair.value >= q_degree_bound(H)


def test_distinct_index_tensor_radius():
    for r in (3, 4, 5):
        pair = power_iterate(TensorOperator.dense(distinct_index_tensor(r)))
        assert abs(pair.value - math.factorial(r - 1)) < 1e-10


def test_negative_dense_rejected():
    from hyperspec import DenseTensor

    for entries in (-np.ones((2, 2, 2)), np.full((2, 2, 2), np.nan)):
        with pytest.raises(ValueError):
            power_iterate(TensorOperator.dense(DenseTensor(entries)))


def test_bracket_and_norm_invariants():
    for H in (loose_path(3, 2), complete(4, 3), random_hypergraph(8, 3, 9, 11)):
        pair = spectral_radius(H, "adjacency")
        assert pair.lower <= pair.value <= pair.upper
        assert pair.upper - pair.lower <= 1e-10 + 1e-15
        assert abs(np.sum(pair.vector**H.r) - 1.0) < 1e-12


def test_bracket_contains_oracle_on_tiny_instances():
    for H in oracles.enumerate_connected_3uniform(max_n=4, max_edges=3):
        pair = spectral_radius(H, "adjacency")
        got = oracles.rayleigh_max_oracle(H, starts=20, iters=1500)
        assert pair.lower - 1e-8 <= got <= pair.upper + 1e-8


def test_spectral_radius_disconnected_max_over_components():
    H = UniformHypergraph(6, 3, ((0, 1, 2), (3, 4, 5)))
    pair = spectral_radius(H, "adjacency")
    assert abs(pair.value - 1.0) < 1e-9
    # the first component wins ties; its block is positive, the rest zero
    assert np.all(pair.vector[:3] > 0)
    assert np.all(pair.vector[3:] == 0.0)
    assert pair.residual < 1e-9


def test_disconnected_bracket_encloses_radius():
    # loose_path(3, 5) beside a sunflower of three edges: after three
    # iterations the winning component's bracket missed the path's radius
    path = loose_path(3, 5)
    n = path.n
    petals = ((n, n + 1, n + 2), (n, n + 3, n + 4), (n, n + 5, n + 6))
    H = UniformHypergraph(n + 7, 3, path.edges + petals)
    pair = spectral_radius(H, "adjacency", SolverConfig(max_iterations=3))
    assert not pair.converged
    assert pair.lower <= rho_loose_path(3, 5) <= pair.upper
    assert pair.lower <= pair.value <= pair.upper


def test_spectral_radius_q_single_edge():
    H = single_edge(3)
    pair = spectral_radius(H, "q")
    assert abs(pair.value - 2.0) < 1e-10
    # the short names are the operator's; a dense kind needs a tensor
    assert spectral_radius(H, "a").to_json() == spectral_radius(H).to_json()
    with pytest.raises(ValueError):
        spectral_radius(H, "dense")


def test_spectral_radius_empty():
    # closed form, no solve, for any n
    for n in (1, 2, 3, 40):
        for kind in ("adjacency", "q"):
            pair = spectral_radius(UniformHypergraph(n, 3), kind)
            assert (pair.value, pair.lower, pair.upper) == (0.0, 0.0, 0.0)
            assert pair.converged and pair.iterations == 1
            assert np.array_equal(pair.vector, np.eye(n)[0])


def test_isolated_vertices_contribute_zero():
    H = UniformHypergraph(5, 3, ((0, 1, 2),))
    pair = spectral_radius(H, "adjacency")
    assert abs(pair.value - 1.0) < 1e-10
    assert pair.vector[3] == pair.vector[4] == 0.0


def _pad_with_isolated(H, where):
    """H with three isolated vertices put after, before or between its
    vertices by a monotone relabeling, and the new id of every old vertex."""
    n = H.n
    new_id = np.arange(n)
    if where == "before":
        new_id += 3
    elif where == "between":
        new_id += sum(new_id >= cut for cut in (1, n // 2, n - 1))
    return UniformHypergraph(n + 3, H.r, new_id[H.edge_array]), new_id


@pytest.mark.parametrize("where", ["after", "before", "between"])
@pytest.mark.parametrize("shift", [solver.SHIFT])  # the case ids name the one shift
@pytest.mark.parametrize("kind", ["adjacency", "q"])
@pytest.mark.parametrize(
    "H",
    [loose_path(2, 9), loose_path(3, 6), loose_path(4, 5), random_hypergraph(12, 3, 14, 0),
     random_hypergraph(10, 4, 8, 1), complete(7, 3)],
    ids=["path2", "path3", "path4", "random3", "random4", "complete"],
)
def test_isolated_vertices_change_no_output_bit(H, kind, shift, where):
    # a connected input and the same input beside isolated vertices take
    # one arithmetic path
    assert H.is_connected()
    padded, new_id = _pad_with_isolated(H, where)
    pair, got = spectral_radius(H, kind), spectral_radius(padded, kind)
    fields = ("value", "lower", "upper", "residual", "iterations", "converged")
    assert [getattr(got, f) for f in fields] == [getattr(pair, f) for f in fields]
    assert np.array_equal(got.vector[new_id], pair.vector)
    assert np.count_nonzero(got.vector) == H.n


def test_perron_vector_check():
    H = complete(5, 3)
    pair = spectral_radius(H, "adjacency")
    assert oracles.perron_vector_check(H, pair)
    spread = pair.vector.max() - pair.vector.min()
    assert spread < 1e-9  # regular symmetry: uniform vector

    lp = loose_path(3, 2)
    lp_pair = spectral_radius(lp, "adjacency")
    assert oracles.perron_vector_check(lp, lp_pair)
    v = lp_pair.vector
    assert v[2] > v[0]
    np.testing.assert_allclose([v[0], v[1], v[3], v[4]], v[0], rtol=1e-9)
    # the symmetry reduction gives the middle/outer ratio = lambda
    assert abs(v[2] / v[0] - RHO_LOOSE_PATH) < 1e-8


def test_perron_vector_check_rejects_zero_entry():
    H = complete(4, 3)
    pair = spectral_radius(H, "adjacency")
    fake = type(pair)(
        value=pair.value,
        vector=np.array([0.0, 1.0, 1.0, 1.0]),
        residual=0.0,
        iterations=1,
        lower=pair.lower,
        upper=pair.upper,
        converged=True,
    )
    assert not oracles.perron_vector_check(H, fake)


def test_rayleigh_never_exceeds_radius():
    rng = np.random.default_rng(99)
    for H in (loose_path(3, 2), complete(5, 3), random_hypergraph(9, 3, 12, 4)):
        pair = spectral_radius(H, "adjacency")
        T = TensorOperator.adjacency(H)
        for _ in range(100):
            x = rng.random(H.n)
            x /= np.sum(x**H.r) ** (1.0 / H.r)
            assert rayleigh(T, x) <= pair.value + 1e-8


def test_monotone_under_edge_addition():
    import random as pyrandom
    from itertools import combinations

    rng = pyrandom.Random(5)
    for _ in range(10):
        H = random_hypergraph(8, 3, 8, rng.randrange(10**6))
        pool = [e for e in combinations(range(8), 3) if e not in set(H.edges)]
        extra = rng.choice(pool)
        H2 = UniformHypergraph(8, 3, H.edges + (extra,))
        v1 = spectral_radius(H, "adjacency").value
        v2 = spectral_radius(H2, "adjacency").value
        assert v2 >= v1 - 1e-9


def test_q_dominates_rayleigh_of_adjacency_perron():
    for seed in range(5):
        H = random_hypergraph(8, 3, 10, seed)
        if not H.is_connected():
            continue
        u = spectral_radius(H, "adjacency").vector
        q_pair = spectral_radius(H, "q")
        assert q_pair.value >= rayleigh(TensorOperator.signless_laplacian(H), u) - 1e-9


def test_determinism():
    cfg = SolverConfig()
    a = spectral_radius(loose_path(3, 3), "adjacency", cfg)
    b = spectral_radius(loose_path(3, 3), "adjacency", cfg)
    assert a.value == b.value
    assert a.iterations == b.iterations
    assert np.array_equal(a.vector, b.vector)


def _diagonal_operator(degrees, r=3):
    """The dense order-r tensor with ``degrees`` on its diagonal, as an
    operator."""
    entries = np.zeros((len(degrees),) * r)
    for v, d in enumerate(degrees):
        entries[(v,) * r] = d
    return TensorOperator.dense(DenseTensor(entries))


def test_nonconvergence_diagnostic():
    # a diagonal operator with distinct degrees (those of loose_path(3, 2))
    # never closes the bracket
    pair = power_iterate(_diagonal_operator([1, 1, 2, 1, 1]), SolverConfig(max_iterations=200))
    assert not pair.converged
    assert pair.lower <= 2.0 <= pair.upper  # bracket still encloses max degree


def test_reducible_q_converges_without_warnings():
    # the isolated vertex is no part of the iteration, so no entry of the
    # iterate underflows to 0 and no ratio is 0/0
    T = TensorOperator.signless_laplacian(UniformHypergraph(4, 3, [(0, 1, 2)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = power_iterate(T)
    assert pair.converged
    assert math.isfinite(pair.lower) and math.isfinite(pair.upper)
    assert pair.lower <= 2.0 <= pair.upper
    assert np.array_equal(pair.vector > 0, [True, True, True, False])


def test_degree_diagonal_stops_at_the_last_finite_bracket():
    # the degrees of a single edge beside an isolated vertex, with an apply
    # that overflows from its third call on: the ratios turn infinite there,
    # and the run ends with the second step's bracket
    T = _diagonal_operator([1, 1, 1, 0])
    apply = T.apply
    calls = []

    def overflowing(x, work=None):
        calls.append(1)
        y = apply(x, work=work)
        if len(calls) >= 3:
            y[0] = np.inf
        return y

    T.apply = overflowing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = power_iterate(T)
    assert not pair.converged
    assert math.isfinite(pair.lower) and math.isfinite(pair.upper)
    assert pair.lower <= 1.0 <= pair.upper
    assert pair.iterations <= 3


def test_power_iterate_peak_memory_stays_near_two_gathers():
    # the apply's gather and leave-one-out products, r m doubles each, are
    # the largest arrays of a solve; they live in one workspace per solve,
    # and neither the gather nor the vertex sum may copy r m values besides
    H = random_hypergraph(2000, 3, 20000, 1)
    H.is_connected()  # the cached component labels are built outside the trace
    gather = H.r * H.num_edges * 8
    for kind in ("adjacency", "signless-laplacian"):
        T = TensorOperator(kind, hypergraph=H)
        peaks = []
        for cap in (2, 10, 100):
            tracemalloc.start()
            try:
                power_iterate(T, SolverConfig(max_iterations=cap))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2.5 * gather, (kind, peaks)
        # nothing piles up from step to step
        assert max(peaks) - min(peaks) < gather / 4, (kind, peaks)


def _path_beside_small_components(length):
    """loose_path(3, length) beside loose_path(3, 2), a single edge and two
    isolated vertices."""
    path = loose_path(3, length)
    n = path.n
    small = ((n, n + 1, n + 2), (n + 2, n + 3, n + 4), (n + 5, n + 6, n + 7))
    return UniformHypergraph(n + 10, 3, path.edges + small)


@pytest.mark.parametrize(
    "length,kind,summed",
    [(200, "adjacency", 223), (200, "q", 337), (30, "adjacency", 1714), (30, "q", 1653)],
)
def test_newton_noda_finish_across_segments(length, kind, summed):
    # `summed` is what one solve per component took in all.  On the long
    # path the finish runs while the small components have long converged;
    # unless their blocks are frozen, the nearly singular M blocks stop the
    # finish, and the power iteration needs about 49k (A) and 56k (Q) steps
    H = _path_beside_small_components(length)
    pair = spectral_radius(H, kind)
    assert pair.converged
    assert pair.iterations <= summed
    assert pair.lower <= pair.value <= pair.upper
    if kind == "adjacency":
        assert pair.lower <= rho_loose_path(3, length) <= pair.upper
    path_n = loose_path(3, length).n
    assert np.all(pair.vector[:path_n] > 0) and not np.any(pair.vector[path_n:])


@st.composite
def _connected_graphs(draw):
    """A loose path through every vertex plus a few random edges."""
    r = draw(st.integers(2, 5))
    length = draw(st.integers(1, 5))
    n = length * (r - 1) + 1
    edge = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    extra = draw(st.lists(edge, max_size=6))
    return UniformHypergraph(n, r, loose_path(r, length).edges + tuple(map(tuple, extra)))


@settings(max_examples=40, deadline=None)
@given(
    _connected_graphs(),
    st.sampled_from([TensorOperator.adjacency, TensorOperator.signless_laplacian]),
)
def test_power_steps_never_raise_the_upper_side(H, make_operator):
    # the solver is deterministic, so the run capped at k iterations repeats
    # the first k steps of every longer run; below STALL_WINDOW no
    # Newton-Noda step is taken (those can raise the upper side)
    caps = range(1, 40)
    assert max(caps) < solver.STALL_WINDOW
    T = make_operator(H)
    uppers = [power_iterate(T, SolverConfig(max_iterations=k)).upper for k in caps]
    for before, after in zip(uppers, uppers[1:]):
        assert after <= before + 4 * np.spacing(before)


def test_mixed_step_iteration_counts():
    # the plain step takes 21 (A) and 50 (Q) iterations here
    H = random_hypergraph(2000, 3, 20000, 1)
    for kind, most in (("adjacency", 18), ("q", 30)):
        pair = spectral_radius(H, kind)
        assert pair.converged
        assert pair.iterations <= most, kind


@pytest.mark.parametrize("kind", ["adjacency", "q"])
def test_rejected_mixed_steps_stand_down(monkeypatch, kind):
    # every mixed step shrinks one entry of the plain step, so its ratio,
    # and with it the upper side, rises: each is rejected, and after
    # REJECTION_LIMIT of them the run keeps the plain step and converges
    calls = []

    def raising(self, x, plain, out, work):
        calls.append(1)
        out[:] = plain
        out[0] *= 1e-3
        return True

    monkeypatch.setattr(solver._Anderson, "extrapolate", raising)
    H = random_hypergraph(200, 3, 1000, 1)
    pair = spectral_radius(H, kind)
    assert len(calls) == solver.REJECTION_LIMIT
    assert pair.converged
    monkeypatch.undo()
    mixed = spectral_radius(H, kind)
    assert abs(pair.value - mixed.value) <= 1e-9
    # each rejection costs one apply, and the plain steps contract slower
    assert pair.iterations > mixed.iterations


@pytest.mark.parametrize("kind,factor", [("adjacency", 1), ("q", 2)])
@pytest.mark.parametrize(
    "H", [single_edge(4), complete(5, 3), complete(4, 3), complete(9, 4), complete(30, 4)],
    ids=["edge4", "complete5_3", "complete4_3", "complete9_4", "complete30_4"],
)
def test_regular_input_converges_at_once_inside_its_bracket(H, kind, factor):
    # rho is exactly d (A) or 2d (Q); the first iterate is the Perron
    # vector, and the rounding margin keeps d inside the bracket
    d = int(H.degree_array[0])
    pair = spectral_radius(H, kind)
    assert pair.converged and pair.iterations == 1
    assert pair.lower <= factor * d <= pair.upper


def test_q_step_iteration_count():
    # the plain power step takes 116 iterations here
    pair = spectral_radius(random_hypergraph(200, 3, 1000, 1), "q")
    assert pair.converged
    assert pair.iterations <= 70


STAR_1_3 = UniformHypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])
K_2_3 = UniformHypergraph(5, 2, [(i, j) for i in (0, 1) for j in (2, 3, 4)])


@pytest.mark.parametrize("H,rho", [(STAR_1_3, 4.0), (K_2_3, 5.0)], ids=["star", "K23"])
def test_q_on_bipartite_graphs(H, rho):
    # bipartite graphs are where an undamped step oscillates; the shift of
    # 1 damps the signless Laplacian step
    pair = spectral_radius(H, "q")
    assert pair.converged
    assert pair.lower <= rho <= pair.upper


def test_shift_override():
    # the shift is the constant float 1.0; neither the config nor the
    # command line can override it
    assert type(solver.SHIFT) is float and solver.SHIFT == 1.0
    with pytest.raises(TypeError):
        SolverConfig(shift=0.5)
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--gen", "complete:4,3", "--shift", "0.5"])
    assert exc.value.code == 2
    pair = spectral_radius(complete(4, 3), "adjacency")
    assert abs(pair.value - 3.0) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


def test_config_refuses_booleans_and_fractional_caps():
    # the rule of the hypergraph's integer checks: an integral float is
    # taken as its int, a boolean or a fraction is refused
    for cap in (True, False, np.True_, 10.5, float("nan"), float("inf"), None):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=cap)
    for tol in (True, np.True_):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=tol)
    cfg = SolverConfig(max_iterations=10.0)
    assert type(cfg.max_iterations) is int and cfg.to_json()["max_iterations"] == 10
    pair = spectral_radius(loose_path(3, 50), "adjacency", cfg)
    assert pair.iterations == 10


def test_eigenpair_json_fields():
    pair = spectral_radius(single_edge(3), "adjacency")
    payload = pair.to_json()
    assert set(payload) == {"lambda", "lower", "upper", "residual", "iterations", "converged"}
    assert abs(payload["lambda"] - 1.0) < 1e-10


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_rejected(tol, capsys):
    with pytest.raises(ValueError, match="tolerance must be finite"):
        SolverConfig(tolerance=float(tol))
    assert main(["spectrum", "--gen", "random:8,3,10,1", f"--tol={tol}", "--json"]) == 2
    assert "tolerance must be finite" in capsys.readouterr().err
