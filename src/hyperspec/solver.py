"""Spectral radius of nonnegative tensor operators by shifted power iteration.

Each step applies the shifted operator, ``y = Tx + shift * x^[r-1]``, reads
off the componentwise ratio bracket ``min_i y_i / x_i^{r-1} <= rho(T + shift)
<= max_i ...`` (valid for any nonnegative tensor and positive x), and
declares convergence when the bracket closes below the configured
tolerance.  The next iterate is ``y^(1/(r-1))`` (Ng, Qi & Zhou 2009), except
for the signless Laplacian Q = D + A: there the degree diagonal d would
dominate the update of every high-degree vertex, so, as in Noda's iteration,
it moves into a denominator, ``x^[r-1] <- (y - d x^[r-1]) / (lam - d)``
with lam the upper side.  The step costs no extra apply; since
``y <= lam x^[r-1]``, the new iterate is entrywise at most the old one, the
upper side never rises, and every denominator is at least the shift, the
constant ``SHIFT`` = 1.

A disconnected hypergraph is iterated once, over all of its components with
edges at once.  Its adjacency and signless Laplacian operators are block
diagonal over the components, so each component is a segment of the
iterate, read from the hypergraph's cached component labels: it has its own
bracket (the smallest and the largest ratio over its vertices), its own
r-norm normalization and, in the Q step, its own upper side lam.  The
spectral radius is the largest component radius, so the run's bracket is
the largest lower side and the largest upper side, and the run converges
when those two are within the tolerance; the winner is the segment with the
largest lower side, ties to the one with the smallest vertex.  Vertices
without edges are left out (their radius is 0), and an edgeless hypergraph
gets value 0 without a solve.  A connected hypergraph, like a dense
operator, is one segment over all its vertices and takes the same
arithmetic, so adding vertices without edges changes no output bit.

The power iteration (Ng, Qi & Zhou 2009) contracts slowly when the spectral
gap is small, as on long loose paths.  For hypergraph operators the bracket
gap is checked every ``STALL_WINDOW`` iterations; if it shrank by less than
half, the run switches to Newton-Noda steps (Liu, Guo & Lin 2017), which
converge in a handful of steps.  Each vertex's lam is its segment's upper
side, so the Jacobian system is block diagonal and one conjugate gradient
solve covers every segment.  The iterate is fixed for the whole solve, so
the Jacobian's x-only work (the gather, the prefix and suffix products and
the diagonal) is done once per step, not once per conjugate gradient
product.  A segment whose upper side is below the best lower side can no
longer move the run's bracket; it is frozen for the step (its entries stay,
and its stale bracket still holds), since its block, long converged, is
nearly singular and would spoil the step for all.  Every
step, of either kind, counts as one iteration, and the bracket always comes
from the ratios at the iterate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .hypergraph import UniformHypergraph
from .tensors import (
    ADJACENCY,
    DENSE,
    HYPERGRAPH_KINDS,
    SIGNLESS_LAPLACIAN,
    TensorOperator,
    eigen_residual,
)

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 100_000
#: The shift added to the diagonal of every operator kind.  Being positive,
#: it makes the plain step converge on every weakly irreducible operator
#: (every connected hypergraph) from any positive start, and it is the only
#: damping of the signless Laplacian step: without it, a star K_{1,3} takes
#: 205 iterations instead of 2.
SHIFT = 1.0
#: Iterations between two stall checks of the power iteration's bracket.
STALL_WINDOW = 100
#: Relative residual at which the conjugate gradient inner solve stops.
CG_RTOL = 1e-12


@dataclass
class SolverConfig:
    """Power-iteration settings."""

    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self) -> None:
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class EigenPair:
    """Spectral radius estimate with its certified two-sided bracket."""

    value: float
    vector: np.ndarray = field(repr=False)
    residual: float
    iterations: int
    lower: float
    upper: float
    converged: bool

    def to_json(self) -> dict:
        return {
            "lambda": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _conjugate_gradient(jacobian, scale: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Conjugate gradient for the symmetric positive definite system
    ``(diag(scale) - J) w = b``, with ``jacobian`` the product ``v -> J v``
    built once for the solve, preconditioned by the positive diagonal
    ``scale``, stopped at relative residual ``CG_RTOL`` or after ``len(b)``
    steps, whichever comes first.  The vectors are allocated once and
    updated in place."""
    x = np.zeros_like(b)
    res = b.copy()
    z = res / scale
    p = z.copy()
    work = np.empty_like(b)
    rz = float(res @ z)
    # math.sqrt(v @ v) is np.linalg.norm(v) for a 1-D float array
    stop = CG_RTOL * math.sqrt(b @ b)
    for _ in range(len(b)):
        q = jacobian(p)
        np.multiply(scale, p, out=work)
        np.subtract(work, q, out=q)
        pq = float(p @ q)
        if not pq > 0.0:
            break
        alpha = rz / pq
        np.multiply(p, alpha, out=work)
        x += work
        q *= alpha
        res -= q
        if math.sqrt(res @ res) <= stop:
            break
        np.divide(res, scale, out=z)
        rz_next = float(res @ z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    return x


@dataclass
class _Segments:
    """The vertices of an operator of order ``order`` grouped into
    independent blocks.

    ``seg`` gives the segment of every vertex and ``starts`` the first vertex
    of each; every segment is a contiguous slice.
    """

    order: int
    seg: np.ndarray
    starts: np.ndarray

    def brackets(self, ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The smallest and the largest ratio of every segment."""
        return np.minimum.reduceat(ratios, self.starts), np.maximum.reduceat(ratios, self.starts)

    def sums(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.seg, weights=values, minlength=len(self.starts))

    def spread(self, per_segment: np.ndarray) -> np.ndarray:
        """A per-segment array read per vertex."""
        return per_segment[self.seg]

    def normalize(self, x: np.ndarray) -> None:
        """Scale every segment of x to r-norm 1, in place."""
        r = self.order
        x /= self.spread(self.sums(x**r) ** (1.0 / r))


def _split(T: TensorOperator) -> tuple[TensorOperator, np.ndarray, _Segments]:
    """The operator to iterate on, the vertex of T behind each of its
    vertices, and its segments.

    An adjacency or signless Laplacian operator splits into the components
    of its hypergraph that have edges, read from the cached component
    labels and ordered by smallest vertex; vertices without edges are left
    out.  A dense operator, like a connected hypergraph, is one segment
    over all vertices of T itself, which is not rebuilt.
    """
    if T.kind not in HYPERGRAPH_KINDS or not T.hypergraph._labels.any():
        one = _Segments(T.order, np.zeros(T.dim, dtype=np.intp), np.zeros(1, dtype=np.intp))
        return T, np.arange(T.dim), one
    H = T.hypergraph
    labels = H._labels
    keep = np.flatnonzero(H.degree_array)
    vertices = keep[np.argsort(labels[keep], kind="stable")]
    grouped = labels[vertices]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    sizes = np.diff(np.r_[starts, len(vertices)])
    segments = _Segments(T.order, np.repeat(np.arange(len(starts)), sizes), starts)
    new_id = np.empty(H.n, dtype=np.intp)
    new_id[vertices] = np.arange(len(vertices))
    # new ids rise with the old ones inside a component, so every relabeled
    # edge is still a sorted row
    sub = UniformHypergraph(len(vertices), H.r, new_id[H.edge_array])
    return TensorOperator(T.kind, hypergraph=sub), vertices, segments


def _newton_noda_step(T: TensorOperator, segs: _Segments, x: np.ndarray, lam: np.ndarray,
                      xp: np.ndarray, frozen: np.ndarray):
    """One Newton-Noda step (Liu, Guo & Lin, Numer. Math. 2017) from x > 0.

    With lam the upper ratio bound of each vertex's segment,
    M = (r-1) diag(lam x^(r-2)) - J(x) is a symmetric M-matrix, block
    diagonal over the segments, and nonsingular while lam > rho on every
    block, so ``M w = x^[r-1]`` has a positive solution; one conjugate
    gradient solve covers all blocks, with J(x) built once for it.
    Vertices in the ``frozen`` mask keep their entries: their right-hand
    side is 0, so the solve leaves them at 0 and never reads their block.
    Returns the next iterate before normalization, or None when the
    computed w is not finite and strictly positive on the vertices that
    move.
    """
    r = T.order
    scale = (r - 1) * lam * x ** (r - 2)
    if not np.all(scale > 0):
        return None
    rhs = np.where(frozen, 0.0, xp)
    w = _conjugate_gradient(T.jacobian(x), scale, rhs)
    # x itself stands in for w, so that every segment sum is positive
    w[frozen] = x[frozen]
    if not (np.all(np.isfinite(w)) and np.all(w > 0)):
        return None
    step = (r - 2) / (r - 1) * x + segs.spread(segs.sums(x) / ((r - 1) * segs.sums(w))) * w
    step[frozen] = x[frozen]
    return step


def _iterate(T: TensorOperator, segs: _Segments, start: np.ndarray, tolerance: float,
             max_iterations: int):
    r = T.order
    power = r - 1
    x = np.array(start, dtype=float)
    segs.normalize(x)
    # Newton-Noda state: stall checks run until one switches newton on; it
    # stays on until a step gives no positive w or the gap stops shrinking
    # (at rounding level), and then the power iteration finishes the run
    may_switch = T.kind in HYPERGRAPH_KINDS
    newton = False
    checked_gap = newton_gap = float("inf")
    # the signless Laplacian's degree diagonal, moved into the step's
    # denominator; None keeps the plain power step
    deg = T._deg if T.kind == SIGNLESS_LAPLACIAN else None
    finite = None  # the last finite bracket
    work = T.workspace()
    for it in range(1, max_iterations + 1):
        xp = x ** power
        y = T.apply(x, work=work) + SHIFT * xp
        # a nan or infinite ratio arises only from underflow (a zero entry
        # of the iterate) or overflow; the run stops at the first nan/inf
        # bracket and ends unconverged with the last finite one, paired
        # with the iterate it stepped to, as at the iteration cap
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = y / xp
            lo, hi = segs.brackets(ratios)
            lam_lo, lam_hi = lo.max(), hi.max()
            gap = lam_hi - lam_lo
        if gap <= tolerance:
            return x, lo, hi, it, True
        if not math.isfinite(gap):
            lo, hi = finite or (lo, hi)
            return x, lo, hi, it, False
        finite = lo, hi
        if may_switch and it % STALL_WINDOW == 0:
            newton = gap > 0.5 * checked_gap
            may_switch = not newton
            checked_gap = gap
        if newton:
            step = None
            if gap < newton_gap:
                # a segment whose upper side is below the best lower side
                # no longer moves the bracket, and its stale bracket still
                # holds; near convergence its M block is nearly singular
                frozen = segs.spread(hi < lam_lo)
                step = _newton_noda_step(T, segs, x, segs.spread(hi) - SHIFT, xp, frozen)
            newton_gap = gap
            if step is not None:
                x = step
                segs.normalize(x)
                continue
            newton = False
        if deg is not None:
            # every denominator is at least the shift, and positive inside a
            # component with edges unless an entry underflows; the nan or
            # inf entries that would follow end the run unconverged, as for
            # the ratios above
            with np.errstate(divide="ignore", invalid="ignore"):
                y -= deg * xp
                y /= segs.spread(hi) - deg
        x = y ** (1.0 / power)
        segs.normalize(x)
    return x, lo, hi, max_iterations, False


def power_iterate(T: TensorOperator, cfg: SolverConfig | None = None) -> EigenPair:
    """Solve for the spectral radius of a nonnegative operator.

    One run from the normalized all-ones vector: the positive eigenvector
    of a weakly irreducible operator is unique and the shifted step
    converges from any positive start, so no other start is tried.  On
    non-convergence the returned pair carries ``converged=False`` together
    with the last bracket, which encloses the spectral radius up to
    rounding (the bracket carries no rounding margin yet); a run whose
    bracket turns nan or infinite (an entry of the iterate or of its apply
    that underflows or overflows) stops there and returns the last finite
    bracket.

    An adjacency or signless Laplacian operator is iterated once over all
    components of its hypergraph that have edges, each a segment with its
    own bracket and normalization (see the module docstring).  The winner is
    the segment with the largest lower side, ties to the one with the
    smallest vertex; the vector is its Perron vector with zeros elsewhere.
    Without edges the pair is closed form: value 0, bracket [0, 0], one
    iteration and the vector e_0.
    """
    cfg = cfg or SolverConfig()
    # written so that a nan entry is refused too
    if T.kind == DENSE and not T.tensor.entries.min() >= 0.0:
        raise ValueError("dense operator has negative entries; solver rejects it")
    if T.kind in HYPERGRAPH_KINDS and T.hypergraph.num_edges == 0:
        e0 = np.zeros(T.dim)
        e0[0] = 1.0
        return EigenPair(value=0.0, vector=e0, residual=0.0, iterations=1,
                         lower=0.0, upper=0.0, converged=True)
    S, vertices, segs = _split(T)
    x, lo_segs, hi_segs, iterations, converged = _iterate(
        S, segs, np.ones(S.dim), cfg.tolerance, cfg.max_iterations
    )
    lo, hi = lo_segs.max(), hi_segs.max()
    value = float(0.5 * (lo + hi) - SHIFT)
    mine = segs.seg == np.argmax(lo_segs)
    vector = np.zeros(T.dim)
    vector[vertices[mine]] = x[mine]
    return EigenPair(
        value=value,
        vector=vector,
        residual=eigen_residual(T, value, vector),
        iterations=iterations,
        lower=float(lo - SHIFT),
        upper=float(hi - SHIFT),
        converged=converged,
    )


def spectral_radius(H: UniformHypergraph, kind: str = ADJACENCY,
                    cfg: SolverConfig | None = None) -> EigenPair:
    """Spectral radius of the adjacency or signless Laplacian tensor of H.

    One :func:`power_iterate` call on the operator of H.  On a disconnected
    H it iterates all components with edges at once, each with its own
    bracket; the reported bracket is the largest lower and the largest upper
    side, which encloses the maximum of the component radii, and the value
    its midpoint.  The vector is the winner's (the component with the
    largest lower side, ties to the one with the smallest vertex), embedded
    with zeros elsewhere; ``iterations`` counts the steps of the one batched
    run.  Newton-Noda steps freeze every component whose upper side is below
    the best lower side.  Vertices without edges contribute 0 and are never
    iterated; an edgeless H gets value 0, bracket [0, 0], one iteration and
    the vector e_0.
    """
    return power_iterate(TensorOperator(kind, hypergraph=H), cfg)

