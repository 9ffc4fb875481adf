"""Label-permutation blow-up of a hypergraph and its verification suite.

The blow-up lives on vertex pairs (i, j) with i a base vertex and j a
label in {0..r-1}; a blow-up edge combines a base edge with one of the r!
ways to hand out distinct labels.  Its adjacency tensor factors as the
direct product of the base adjacency with the all-distinct-labels tensor,
and both spectral radii scale by (r-1)!.  The two apply identities are
decided exactly, from the integer edge sets and degrees.  Given them, the
blow-up radius is not solved: the base bracket is lifted by (r-1)!, and one
apply of the blow-up at (base Perron vector) x (all-ones labels) checks the
lift.  Random trial vectors that compare the apply kernels numerically run
only in :func:`check_product_identity` and :func:`check_q_identities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .bounds import certificate_vector, degree_power_mean_bound, optimal_weights
from .errors import CapacityError
from .hypergraph import UniformHypergraph, _unique_rows
from .solver import EigenPair, SolverConfig, rounding_count, rounding_gamma, spectral_radius
from .tensors import (
    ADJACENCY,
    SIGNLESS_LAPLACIAN,
    TensorOperator,
    rayleigh,
)

BLOWUP_VERTEX_CAP = 20_000
BLOWUP_EDGE_CAP = 5_000_000

#: Default relative tolerance of the apply identities.
IDENTITY_RTOL = 1e-10


@dataclass(frozen=True)
class BlowupHypergraph:
    """A base hypergraph together with its blow-up on r*n vertices.

    Pair (i, j) sits at flat index i*r + j (labels vary fastest), matching
    the lexicographic layout of direct products and certificate vectors.
    """

    base: UniformHypergraph
    tilde: UniformHypergraph

    def vertex_map(self) -> list[tuple[int, int, int]]:
        """All (base vertex, label, flat index) triples, 0-based."""
        r = self.base.r
        return [(i, j, i * r + j) for i in range(self.base.n) for j in range(r)]


def blowup(H: UniformHypergraph) -> BlowupHypergraph:
    """Construct the blow-up; every emitted edge is distinct, so the edge
    count is exactly r! times the base edge count.  Raises
    :class:`CapacityError` over ``BLOWUP_VERTEX_CAP`` vertices or
    ``BLOWUP_EDGE_CAP`` edges."""
    r = H.r
    if H.n * r > BLOWUP_VERTEX_CAP:
        raise CapacityError(f"blow-up needs {H.n * r} vertices, cap is {BLOWUP_VERTEX_CAP}")
    edge_total = math.factorial(r) * H.num_edges
    if edge_total > BLOWUP_EDGE_CAP:
        raise CapacityError(f"blow-up needs {edge_total} edges, cap is {BLOWUP_EDGE_CAP}")
    # without edges no label is handed out, and r! permutations need not be
    # listed
    perms = list(permutations(range(r))) if H.num_edges else []
    edges = H.edge_array[:, None, :] * r + np.array(perms, dtype=np.intp).reshape(-1, r)
    return BlowupHypergraph(H, UniformHypergraph(H.n * r, r, edges.reshape(-1, r)))


def kronecker_adjacency_apply(H: UniformHypergraph, w) -> np.ndarray:
    """Apply the product (base adjacency x all-distinct-labels) to w.

    Evaluated straight from the product's entry rule, without constructing
    the blow-up: with W the vector w as an (n, r) array, component (i, j)
    sums, over base edges e through i, the permanent of W[e, :] with the
    row of i and the column of label j removed.  All these minors are
    expanded together, one row at a time, keeping for every label set T the
    sum over the ways to hand the rows expanded so far the labels of T.
    Every term is a product of entries of w, so, unlike Ryser's
    inclusion-exclusion formula, nothing cancels that the entry rule itself
    does not cancel.  Time is O(m r^2 2^r) and memory O(m r 2^r).
    """
    r, n = H.r, H.n
    w = np.asarray(w, dtype=float)
    if w.shape != (r * n,):
        raise ValueError(f"vector dimension {w.shape} does not match {r * n}")
    edges = H.edge_array
    full = (1 << r) - 1
    # minors[e, p] is W[e, :] without the row of edge position p
    rest = np.array([[q for q in range(r) if q != p] for p in range(r)])
    minors = w.reshape(n, r)[edges[:, rest]]
    sets = np.arange(full + 1)
    sizes = np.array([bin(t).count("1") for t in range(full + 1)])
    # after k rows, expansion[e, p, T] is the permanent of the first k rows
    # of minors[e, p] on the k labels of T
    expansion = np.zeros((len(edges), r, full + 1))
    expansion[:, :, 0] = 1.0
    for k in range(r - 1):
        step = np.zeros_like(expansion)
        for label in range(r):
            bit = 1 << label
            with_label = sets[(sets & bit != 0) & (sizes == k + 1)]
            step[:, :, with_label] += (
                expansion[:, :, with_label ^ bit] * minors[:, :, k, label, None]
            )
        expansion = step
    # the sets that miss exactly one label j hold the permanents for j
    permanents = expansion[:, :, full ^ (1 << np.arange(r))]
    out = np.empty((n, r))
    for j in range(r):
        out[:, j] = np.bincount(edges.ravel(), weights=permanents[:, :, j].ravel(), minlength=n)
    return out.ravel()


@dataclass
class ProductIdentityCheck:
    """Result of the blow-up adjacency identity: the exact decision, plus
    the worst error and the first failing vector of the trial applies (0
    and None without trials)."""

    ok: bool
    max_relative_error: float
    witness: np.ndarray | None = field(default=None, repr=False)


def _relative_max_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def _identity_trials(H, tilde, trials, seed, rtol) -> tuple[ProductIdentityCheck, bool]:
    """Both apply identities of the blow-up ``tilde``, decided exactly.

    Its adjacency must equal the product (base adjacency) x (all-distinct
    labels).  Both tensors put 1/(r-1)! on their support, so that identity
    is the equality of the two supports, read from the edge set through the
    inverse map: an edge over an edge of H with all-distinct labels lies in
    the product's support, which has r! m edges, and the edges of tilde are
    distinct, so r! m of them fill it.  Its signless Laplacian must equal
    (r-1)! (degree x unit) plus that product; off the diagonal this is the
    adjacency identity again, and on it the integer identity
    deg_tilde = (r-1)! repeat(d, r).

    ``trials`` random vectors (none for 0, and none when tilde does not have
    r n vertices, as no vector fits both sides) then cross-check the two
    apply kernels numerically, applying the product through
    :func:`kronecker_adjacency_apply` and the diagonal degree term as a
    vector; a trial can only turn a flag false.  Returns the product check,
    then whether the signless Laplacian identity held.  The loop ends early
    only once both trial comparisons have failed.
    """
    r, rn = H.r, tilde.n
    base, labels = np.divmod(tilde.edge_array, r)
    product_ok = (
        rn == r * H.n
        and tilde.num_edges == math.factorial(r) * H.num_edges
        and np.array_equal(_unique_rows(base, H.n), H.edge_array)
        and bool(np.all(np.sort(labels, axis=1) == np.arange(r)))
    )
    scaled_deg = math.factorial(r - 1) * np.repeat(H.degree_array, r)
    q_ok = product_ok and np.array_equal(tilde.degree_array, scaled_deg)
    product_worst = 0.0
    witness = None
    apply_ok = True
    if trials > 0 and rn == r * H.n:
        lhs_adjacency = TensorOperator.adjacency(tilde)
        lhs_signless = TensorOperator.signless_laplacian(tilde)
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            w = rng.standard_normal(rn)
            product_w = kronecker_adjacency_apply(H, w)
            if witness is None:
                err = _relative_max_error(lhs_adjacency.apply(w), product_w)
                product_worst = max(product_worst, err)
                if err > rtol:
                    witness = w
            if apply_ok:
                degree_w = scaled_deg * w ** (r - 1)
                err = _relative_max_error(lhs_signless.apply(w), degree_w + product_w)
                if err > rtol:
                    apply_ok = False
            if witness is not None and not apply_ok:
                break
    check = ProductIdentityCheck(product_ok and witness is None, product_worst, witness)
    return check, q_ok and apply_ok


def check_product_identity(
    H: UniformHypergraph,
    trials: int = 50,
    seed: int = 0,
    rtol: float = IDENTITY_RTOL,
) -> ProductIdentityCheck:
    """Verify the blow-up adjacency equals the direct product, entry by
    entry, and cross-check the apply kernels on ``trials`` random vectors."""
    return _identity_trials(H, blowup(H).tilde, trials, seed, rtol)[0]


@dataclass
class ScalingReport:
    """The blow-up radius lifted from the base solve under the (r-1)! scaling.

    ``tilde_pair`` is the base pair lifted to the blow-up, with no solve of
    its own: value and bracket are (r-1)! times the base ones, the vector is
    (base Perron vector) x (all-ones labels) at r-norm 1, ``converged`` is
    the base pair's, the residual is ``kron_residual`` and ``iterations`` is
    0.  ``deviation`` is the largest relative difference between the
    blow-up's ratios (Tx)_i / x_i^(r-1) at that vector and (r-1)! times the
    base ratios, on the support of the base vector.  Both quantities are
    rounding alone once the identities hold, so the check passes when the
    base pair converged, ``deviation`` is at most gamma_k
    (:func:`solver.rounding_gamma`) and ``kron_residual`` is within gamma_k
    times the lifted radius of (r-1)! times the base pair's own residual,
    with k the rounding counts of the two operators' ratios plus one for
    the product by (r-1)!.
    """

    factor: float
    base_pair: EigenPair
    tilde_pair: EigenPair
    deviation: float
    kron_residual: float
    ok: bool

    def to_json(self) -> dict:
        return {
            "factor": self.factor,
            "base": self.base_pair.to_json(),
            "tilde": self.tilde_pair.to_json(),
            "deviation": self.deviation,
            "kron_residual": self.kron_residual,
            "ok": self.ok,
        }


def _scaling_check(H, tilde_op, cfg, base_pair=None) -> ScalingReport:
    """Lift the base pair of ``tilde_op``'s kind to the blow-up operator
    ``tilde_op``, checked by one apply on each side.

    Given the apply identities, rho(tilde) is the base radius times the
    radius (r-1)! of the all-distinct-labels tensor (Shao 2013), and the
    ratios of the blow-up at x (x) 1 are (r-1)! times the base ratios at x,
    so the base bracket lifts, and the residual at x (x) 1 is (r-1)! times
    the base residual at x.  In floating point each ratio carries the
    rounding that :func:`solver.rounding_count` bounds for its operator, so
    a blow-up ratio and (r-1)! times its base ratio differ by at most
    gamma_k relative, k the two counts plus one, and the lifted residual and
    (r-1)! times the base one, each read from the same applies, by at most
    gamma_k times the lifted radius.  ``base_pair`` is the base solve, when
    it is already done.
    """
    r = H.r
    factor = float(math.factorial(r - 1))
    if base_pair is None:
        base_pair = spectral_radius(H, tilde_op.kind, cfg)
    x = base_pair.vector
    xp = x ** (r - 1)
    value = factor * base_pair.value
    lifted, lifted_p = np.repeat(x, r), np.repeat(xp, r)
    tilde_y = tilde_op.apply(lifted)
    kron_residual = float(np.max(np.abs(tilde_y - value * lifted_p)) / np.max(lifted_p))
    # on a disconnected base, x is zero off the winning component
    support = x > 0
    base_op = TensorOperator(tilde_op.kind, hypergraph=H)
    base_y = base_op.apply(x)
    # an entry of x whose power underflows gives an infinite ratio, which
    # turns the deviation nan and fails the check
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        base_ratios = base_y[support] / xp[support]
        tilde_ratios = (tilde_y / lifted_p).reshape(-1, r)[support]
        deviation = _relative_max_error(tilde_ratios, factor * base_ratios[:, None])
    tilde_pair = EigenPair(
        value=value,
        vector=lifted / np.sum(lifted**r) ** (1.0 / r),
        residual=kron_residual,
        iterations=0,
        lower=factor * base_pair.lower,
        upper=factor * base_pair.upper,
        converged=base_pair.converged,
    )
    # the residuals are in units of value, so their difference is gated
    # relative to it; value is 0 only without edges, and both residuals are
    # then 0 too
    margin = rounding_gamma(rounding_count(tilde_op) + rounding_count(base_op) + 1)
    ok = (base_pair.converged and deviation <= margin
          and abs(kron_residual - factor * base_pair.residual) <= margin * value)
    return ScalingReport(factor, base_pair, tilde_pair, deviation, kron_residual, ok)


def check_spectral_scaling(H: UniformHypergraph, cfg: SolverConfig | None = None) -> ScalingReport:
    """Adjacency radius of the blow-up must equal (r-1)! times the base
    radius, and (base Perron vector) x (all-ones labels) must be the
    matching eigenvector.

    The blow-up radius is not solved: the base bracket is lifted, and one
    apply of the blow-up at that vector checks the lift (see
    :class:`ScalingReport`).
    """
    return _scaling_check(H, TensorOperator.adjacency(blowup(H).tilde), cfg)


@dataclass
class QIdentityReport:
    """Signless Laplacian blow-up checks: apply identity plus scaling."""

    apply_ok: bool
    scaling: ScalingReport
    ok: bool

    def to_json(self) -> dict:
        return {
            "apply_ok": self.apply_ok,
            "scaling": self.scaling.to_json(),
            "ok": self.ok,
        }


def check_q_identities(
    H: UniformHypergraph,
    cfg: SolverConfig | None = None,
    trials: int = 50,
    seed: int = 0,
    rtol: float = IDENTITY_RTOL,
) -> QIdentityReport:
    """The blow-up signless Laplacian must equal
    (r-1)! (degree x unit) + (adjacency x all-distinct-labels),
    and its radius must be (r-1)! times the base radius."""
    tilde = blowup(H).tilde
    _, apply_ok = _identity_trials(H, tilde, trials, seed, rtol)
    scaling = _scaling_check(H, TensorOperator.signless_laplacian(tilde), cfg)
    return QIdentityReport(apply_ok, scaling, apply_ok and scaling.ok)


@dataclass
class BlowupVerification:
    """Aggregate of every blow-up identity check, for the CLI verify path."""

    connectivity_ok: bool
    product: ProductIdentityCheck
    scaling: ScalingReport
    q_identities: QIdentityReport
    certificate_gap: float
    certificate_ok: bool
    ok: bool
    blowup: BlowupHypergraph = field(repr=False)

    def to_json(self) -> dict:
        return {
            "connectivity_ok": self.connectivity_ok,
            "product_ok": self.product.ok,
            "scaling": self.scaling.to_json(),
            "q": self.q_identities.to_json(),
            "certificate_gap": self.certificate_gap,
            "certificate_ok": self.certificate_ok,
            "ok": self.ok,
        }


def verify_blowup(
    H: UniformHypergraph,
    cfg: SolverConfig | None = None,
    base_pairs: dict[str, EigenPair] | None = None,
) -> BlowupVerification:
    """Run the full blow-up identity suite on one hypergraph in one pass.

    The blow-up is built once, and both apply identities are decided
    exactly from its edge set and degrees, with no random trials; each base
    radius is solved once, and the blow-up radii are lifted from them, with
    one blow-up operator per kind.  ``base_pairs`` maps a kind to its already
    solved base pair (as from :func:`verify_bounds`); kinds missing from it
    are solved here.  Raises :class:`CapacityError` when the blow-up is
    over the caps of :func:`blowup`.
    """
    bl = blowup(H)
    base_pairs = base_pairs or {}
    if H.r >= 3:
        connectivity_ok = bl.tilde.is_connected() == H.is_connected()
    else:
        connectivity_ok = True  # no claim for r=2
    product, apply_ok = _identity_trials(H, bl.tilde, 0, 0, IDENTITY_RTOL)
    # the adjacency operator of the blow-up also takes the certificate
    tilde_a = TensorOperator.adjacency(bl.tilde)
    tilde_q = TensorOperator.signless_laplacian(bl.tilde)
    scaling, q_scaling = (
        _scaling_check(H, op, cfg, base_pairs.get(op.kind))
        for op in (tilde_a, tilde_q)
    )
    q_identities = QIdentityReport(apply_ok, q_scaling, apply_ok and q_scaling.ok)
    if H.num_edges > 0:
        cert = certificate_vector(H, optimal_weights(H))
        achieved = rayleigh(tilde_a, cert)
        target = math.factorial(H.r - 1) * degree_power_mean_bound(H)
        certificate_gap = abs(achieved - target)
        # relative to the target: every summand is positive, so the gap is
        # within gamma_k of it, k counting the roundings of the apply (its
        # ratios' count), of the dot product's r n terms, and 4 r for the
        # certificate entries and the power mean
        k = rounding_count(tilde_a) + bl.tilde.n + 4 * H.r
        certificate_ok = certificate_gap <= rounding_gamma(k) * target
    else:
        certificate_gap = 0.0
        certificate_ok = True
    ok = connectivity_ok and product.ok and scaling.ok and q_identities.ok and certificate_ok
    return BlowupVerification(
        connectivity_ok, product, scaling, q_identities, certificate_gap, certificate_ok, ok, bl
    )
