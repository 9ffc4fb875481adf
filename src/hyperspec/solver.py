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
upper side never rises, and every denominator is at least the shift.  A
positive shift, 1 by default, guarantees that the plain step converges for
weakly irreducible operators, i.e. for connected hypergraphs, from any
positive start, and is the only damping of the signless Laplacian step
(without it, a star K_{1,3} takes 205 iterations instead of 2).

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
gets value 0 without a solve.  A connected hypergraph is one segment, and
every other operator kind is one segment over all its vertices.

The power iteration (Ng, Qi & Zhou 2009) contracts slowly when the spectral
gap is small, as on long loose paths.  For hypergraph operators the bracket
gap is checked every ``STALL_WINDOW`` iterations; if it shrank by less than
half, the run switches to Newton-Noda steps (Liu, Guo & Lin 2017), which
converge in a handful of steps.  Each vertex's lam is its segment's upper
side, so the Jacobian system is block diagonal and one conjugate gradient
solve covers every segment.  A segment whose upper side is below the best
lower side can no longer move the run's bracket; it is frozen for the step
(its entries stay, and its stale bracket still holds), since its block,
long converged, is nearly singular and would spoil the step for all.  Every
step, of either kind, counts as one iteration, and the bracket always comes
from the ratios at the iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
DEFAULT_SHIFT = 1.0
#: Iterations between two stall checks of the power iteration's bracket.
STALL_WINDOW = 100
#: Relative residual at which the conjugate gradient inner solve stops.
CG_RTOL = 1e-12

_KIND_ALIASES = {"q": SIGNLESS_LAPLACIAN, "a": ADJACENCY}


@dataclass
class SolverConfig:
    """Power-iteration settings.

    ``shift`` is added to the diagonal of every operator kind; the default
    of 1 makes the power step converge on every weakly irreducible operator
    and damps the signless Laplacian step (see the module docstring).
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    shift: float = DEFAULT_SHIFT

    def __post_init__(self) -> None:
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.shift < 0:
            raise ValueError(f"shift must be nonnegative, got {self.shift}")
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")

    def to_json(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "max_iterations": self.max_iterations,
            "shift": self.shift,
        }


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


def r_norm(x, r: int) -> float:
    """The r-norm (sum |x_i|^r)^(1/r) used to normalize eigenvectors."""
    return float(np.sum(np.abs(np.asarray(x, dtype=float)) ** r) ** (1.0 / r))


def _conjugate_gradient(matvec, b: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Conjugate gradient for a symmetric positive definite system,
    preconditioned by the positive diagonal ``diag``, stopped at relative
    residual ``CG_RTOL`` or after ``len(b)`` steps, whichever comes first."""
    x = np.zeros_like(b)
    res = b.copy()
    z = res / diag
    p = z.copy()
    rz = float(res @ z)
    stop = CG_RTOL * float(np.linalg.norm(b))
    for _ in range(len(b)):
        q = matvec(p)
        pq = float(p @ q)
        if not pq > 0.0:
            break
        alpha = rz / pq
        x += alpha * p
        res -= alpha * q
        if float(np.linalg.norm(res)) <= stop:
            break
        z = res / diag
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
    of each; every segment is a contiguous slice.  ``seg=None`` is one
    segment over all vertices, whose sums and norms are computed as for a
    plain vector, so a connected input keeps the arithmetic of an
    unsegmented iteration.
    """

    order: int
    seg: np.ndarray | None = None
    starts: np.ndarray | None = None

    def brackets(self, ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The smallest and the largest ratio of every segment."""
        if self.seg is None:
            return np.array([ratios.min()]), np.array([ratios.max()])
        return np.minimum.reduceat(ratios, self.starts), np.maximum.reduceat(ratios, self.starts)

    def sums(self, values: np.ndarray) -> np.ndarray:
        if self.seg is None:
            return np.array([values.sum()])
        return np.bincount(self.seg, weights=values, minlength=len(self.starts))

    def spread(self, per_segment: np.ndarray):
        """A per-segment array read per vertex (a scalar for one segment)."""
        return per_segment[0] if self.seg is None else per_segment[self.seg]

    def normalize(self, x: np.ndarray) -> None:
        """Scale every segment of x to r-norm 1, in place."""
        r = self.order
        if self.seg is None:
            x /= r_norm(x, r)
        else:
            x /= self.spread(self.sums(x**r) ** (1.0 / r))


def _split(T: TensorOperator) -> tuple[TensorOperator, np.ndarray | None, _Segments]:
    """The operator to iterate on, the vertex of T behind each of its
    vertices (None for one segment, the identity), and its segments.

    An adjacency or signless Laplacian operator splits into the components
    of its hypergraph that have edges, read from the cached component
    labels and ordered by smallest vertex; vertices without edges are left
    out.  A dense operator, and a connected hypergraph, is one segment.
    """
    if T.kind not in HYPERGRAPH_KINDS or not T.hypergraph._labels.any():
        return T, None, _Segments(T.order)
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
    return TensorOperator.for_hypergraph(sub, T.kind), vertices, segments


def _newton_noda_step(T: TensorOperator, segs: _Segments, x: np.ndarray, lam,
                      xp: np.ndarray, frozen: np.ndarray | None):
    """One Newton-Noda step (Liu, Guo & Lin, Numer. Math. 2017) from x > 0.

    With lam the upper ratio bound of each vertex's segment,
    M = (r-1) diag(lam x^(r-2)) - J(x) is a symmetric M-matrix, block
    diagonal over the segments, and nonsingular while lam > rho on every
    block, so ``M w = x^[r-1]`` has a positive solution; one conjugate
    gradient solve covers all blocks.  Vertices in the ``frozen`` mask (None
    for none) keep their entries: their right-hand side is 0, so the solve
    leaves them at 0 and never reads their block.  Returns the next iterate
    before normalization, or None when the computed w is not finite and
    strictly positive on the vertices that move.
    """
    r = T.order
    scale = (r - 1) * lam * x ** (r - 2)
    if not np.all(scale > 0):
        return None
    rhs = xp if frozen is None else np.where(frozen, 0.0, xp)
    w = _conjugate_gradient(lambda v: scale * v - T.jacobian_apply(x, v), rhs, scale)
    if frozen is not None:
        # x itself stands in for w, so that every segment sum is positive
        w[frozen] = x[frozen]
    if not (np.all(np.isfinite(w)) and np.all(w > 0)):
        return None
    step = (r - 2) / (r - 1) * x + segs.spread(segs.sums(x) / ((r - 1) * segs.sums(w))) * w
    if frozen is not None:
        step[frozen] = x[frozen]
    return step


def _iterate(T: TensorOperator, segs: _Segments, start: np.ndarray, shift: float,
             tolerance: float, max_iterations: int):
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
    for it in range(1, max_iterations + 1):
        xp = x ** power
        y = T.apply(x) + shift * xp
        # zero iterate entries only arise for a reducible dense operator
        # with a zero shift, or by underflow; the run stops at the first
        # nan/inf bracket and ends unconverged with the last finite one,
        # paired with the iterate it stepped to, as at the iteration cap
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
                stale = hi < lam_lo
                frozen = segs.spread(stale) if stale.any() else None
                step = _newton_noda_step(T, segs, x, segs.spread(hi) - shift, xp, frozen)
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
    bracket turns nan or infinite (a zero entry of the iterate, as for a
    reducible dense operator with shift 0) stops there and returns the last
    finite bracket.

    An adjacency or signless Laplacian operator is iterated once over all
    components of its hypergraph that have edges, each a segment with its
    own bracket and normalization (see the module docstring).  The winner is
    the segment with the largest lower side, ties to the one with the
    smallest vertex; the vector is its Perron vector with zeros elsewhere.
    Without edges the pair is closed form: value 0, bracket [0, 0], one
    iteration and the vector e_0.
    """
    cfg = cfg or SolverConfig()
    if T.kind == DENSE and not T.nonnegative:
        raise ValueError("dense operator has negative entries; solver rejects it")
    if T.kind in HYPERGRAPH_KINDS and T.hypergraph.num_edges == 0:
        e0 = np.zeros(T.dim)
        e0[0] = 1.0
        return EigenPair(value=0.0, vector=e0, residual=0.0, iterations=1,
                         lower=0.0, upper=0.0, converged=True)
    S, vertices, segs = _split(T)
    x, lo_segs, hi_segs, iterations, converged = _iterate(
        S, segs, np.ones(S.dim), cfg.shift, cfg.tolerance, cfg.max_iterations
    )
    lo, hi = lo_segs.max(), hi_segs.max()
    value = float(0.5 * (lo + hi) - cfg.shift)
    if vertices is not None:
        mine = segs.seg == np.argmax(lo_segs)
        vector = np.zeros(T.dim)
        vector[vertices[mine]] = x[mine]
        x = vector
    return EigenPair(
        value=value,
        vector=x,
        residual=eigen_residual(T, value, x),
        iterations=iterations,
        lower=float(lo - cfg.shift),
        upper=float(hi - cfg.shift),
        converged=converged,
    )


def _resolve_kind(kind: str) -> str:
    kind = _KIND_ALIASES.get(kind, kind)
    if kind not in HYPERGRAPH_KINDS:
        raise ValueError(f"spectral radius kind must be one of {HYPERGRAPH_KINDS}, got {kind!r}")
    return kind


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
    return power_iterate(TensorOperator.for_hypergraph(H, _resolve_kind(kind)), cfg)


def perron_vector_check(H: UniformHypergraph, pair: EigenPair, kind: str = ADJACENCY,
                        tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """For connected H: strict positivity plus residual within 10x tolerance."""
    vector = np.asarray(pair.vector, dtype=float)
    if not np.all(vector > 0):
        return False
    T = TensorOperator.for_hypergraph(H, _resolve_kind(kind))
    return eigen_residual(T, pair.value, vector) <= 10.0 * tolerance
