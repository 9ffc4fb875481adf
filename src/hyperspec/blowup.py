"""Label-permutation blow-up of a hypergraph and its verification suite.

The blow-up lives on vertex pairs (i, j) with i a base vertex and j a
label in {0..r-1}; a blow-up edge combines a base edge with one of the r!
ways to hand out distinct labels.  Its adjacency tensor factors as the
direct product of the base adjacency with the all-distinct-labels tensor,
and both spectral radii scale by (r-1)!.  The two apply identities are
decided exactly, from the integer edge sets and degrees; the radii are
solved independently on both sides.  Random trial vectors that compare the
apply kernels numerically run only in :func:`check_product_identity` and
:func:`check_q_identities`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .bounds import certificate_vector, degree_power_mean_bound, optimal_weights
from .errors import CapacityError
from .hypergraph import UniformHypergraph
from .solver import EigenPair, SolverConfig, spectral_radius
from .tensors import (
    ADJACENCY,
    SIGNLESS_LAPLACIAN,
    TensorOperator,
    eigen_residual,
    kron_vector,
    rayleigh,
)

BLOWUP_VERTEX_CAP = 20_000
BLOWUP_EDGE_CAP = 5_000_000

#: Default relative tolerance of the apply identities.
IDENTITY_RTOL = 1e-10

#: Default tolerance for comparing two independently solved radii.
SCALING_TOLERANCE = 1e-6


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

    def vertex_map_json(self) -> str:
        """JSON export of the vertex map with 1-based ids."""
        return json.dumps([[i + 1, j + 1, flat + 1] for i, j, flat in self.vertex_map()])


def blowup(
    H: UniformHypergraph,
    max_vertices: int = BLOWUP_VERTEX_CAP,
    max_edges: int = BLOWUP_EDGE_CAP,
) -> BlowupHypergraph:
    """Construct the blow-up; every emitted edge is distinct, so the edge
    count is exactly r! times the base edge count."""
    r = H.r
    if H.n * r > max_vertices:
        raise CapacityError(f"blow-up needs {H.n * r} vertices, cap is {max_vertices}")
    edge_total = math.factorial(r) * H.num_edges
    if edge_total > max_edges:
        raise CapacityError(f"blow-up needs {edge_total} edges, cap is {max_edges}")
    perms = np.array(list(permutations(range(r))), dtype=np.intp)
    edges = H.edge_array[:, None, :] * r + perms[None]
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
    trials: int
    witness: np.ndarray | None = field(default=None, repr=False)

    def __bool__(self) -> bool:
        return self.ok


def _relative_max_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def _identity_trials(H, tilde, trials, seed, rtol) -> tuple[ProductIdentityCheck, bool, float]:
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
    then whether the signless Laplacian identity held and its worst trial
    error up to the first failing trial.  The loop ends early only once
    both trial comparisons have failed.
    """
    r, rn = H.r, tilde.n
    base, labels = np.divmod(tilde.edge_array, r)
    product_ok = (
        rn == r * H.n
        and np.array_equal(
            base[np.lexsort(base.T[::-1])], np.repeat(H.edge_array, math.factorial(r), axis=0)
        )
        and bool(np.all(np.sort(labels, axis=1) == np.arange(r)))
    )
    scaled_deg = math.factorial(r - 1) * np.repeat(H.degree_array, r)
    q_ok = product_ok and np.array_equal(tilde.degree_array, scaled_deg)
    product_worst = apply_worst = 0.0
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
                apply_worst = max(apply_worst, err)
                if apply_worst > rtol:
                    apply_ok = False
            if witness is not None and not apply_ok:
                break
    check = ProductIdentityCheck(product_ok and witness is None, product_worst, trials, witness)
    return check, q_ok and apply_ok, apply_worst


def check_product_identity(
    H: UniformHypergraph,
    trials: int = 50,
    seed: int = 0,
    rtol: float = IDENTITY_RTOL,
    tilde: UniformHypergraph | None = None,
) -> ProductIdentityCheck:
    """Verify the blow-up adjacency equals the direct product, entry by
    entry, and cross-check the apply kernels on ``trials`` random vectors.

    ``tilde`` overrides the constructed blow-up; it exists as a fault
    injection seam so tests can confirm a mutated blow-up is rejected.
    """
    if tilde is None:
        tilde = blowup(H).tilde
    return _identity_trials(H, tilde, trials, seed, rtol)[0]


@dataclass
class ScalingReport:
    """Two independently solved radii compared under the (r-1)! scaling."""

    factor: float
    base_pair: EigenPair
    tilde_pair: EigenPair
    deviation: float
    kron_residual: float
    tolerance: float
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


def _scaling_check(bl, kind, cfg, tolerance, base_pair=None) -> ScalingReport:
    # base_pair is the base solve, when it is already done
    H, tilde = bl.base, bl.tilde
    factor = float(math.factorial(H.r - 1))
    cfg = cfg or SolverConfig()
    if base_pair is None:
        base_pair = spectral_radius(H, kind, cfg)
    tilde_pair = spectral_radius(tilde, kind, cfg)
    deviation = abs(tilde_pair.value - factor * base_pair.value)
    kron_vec = kron_vector(base_pair.vector, np.ones(H.r))
    kron_residual = eigen_residual(
        TensorOperator.for_hypergraph(tilde, kind), factor * base_pair.value, kron_vec
    )
    ok = (
        base_pair.converged
        and tilde_pair.converged
        and deviation <= tolerance
        and kron_residual <= tolerance
    )
    return ScalingReport(factor, base_pair, tilde_pair, deviation, kron_residual, tolerance, ok)


def check_spectral_scaling(
    H: UniformHypergraph,
    cfg: SolverConfig | None = None,
    tolerance: float = SCALING_TOLERANCE,
) -> ScalingReport:
    """Adjacency radius of the blow-up must equal (r-1)! times the base
    radius, and (base Perron vector) x (all-ones labels) must be the
    matching eigenvector."""
    return _scaling_check(blowup(H), ADJACENCY, cfg, tolerance)


@dataclass
class QIdentityReport:
    """Signless Laplacian blow-up checks: apply identity plus scaling."""

    apply_ok: bool
    max_apply_error: float
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
    tolerance: float = SCALING_TOLERANCE,
) -> QIdentityReport:
    """The blow-up signless Laplacian must equal
    (r-1)! (degree x unit) + (adjacency x all-distinct-labels),
    and its radius must be (r-1)! times the base radius."""
    bl = blowup(H)
    _, apply_ok, worst = _identity_trials(H, bl.tilde, trials, seed, rtol)
    scaling = _scaling_check(bl, SIGNLESS_LAPLACIAN, cfg, tolerance)
    return QIdentityReport(apply_ok, worst, scaling, apply_ok and scaling.ok)


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
    exactly from its edge set and degrees, with no random trials; each
    radius is solved once.  ``base_pairs`` maps a kind to its already
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
    product, apply_ok, apply_error = _identity_trials(H, bl.tilde, 0, 0, IDENTITY_RTOL)
    scaling, q_scaling = (
        _scaling_check(bl, kind, cfg, SCALING_TOLERANCE, base_pairs.get(kind))
        for kind in (ADJACENCY, SIGNLESS_LAPLACIAN)
    )
    q_identities = QIdentityReport(apply_ok, apply_error, q_scaling, apply_ok and q_scaling.ok)
    if H.num_edges > 0:
        cert = certificate_vector(H, optimal_weights(H))
        achieved = rayleigh(TensorOperator.adjacency(bl.tilde), cert)
        target = math.factorial(H.r - 1) * degree_power_mean_bound(H)
        certificate_gap = abs(achieved - target)
        certificate_ok = certificate_gap <= 1e-8
    else:
        certificate_gap = 0.0
        certificate_ok = True
    ok = connectivity_ok and product.ok and scaling.ok and q_identities.ok and certificate_ok
    return BlowupVerification(
        connectivity_ok, product, scaling, q_identities, certificate_gap, certificate_ok, ok, bl
    )
