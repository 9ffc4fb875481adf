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
positive shift, 1 by default for every kind but the degree diagonal,
guarantees that the plain step converges for weakly irreducible operators,
i.e. for connected hypergraphs, and is the only damping of the signless
Laplacian step (without it, a star K_{1,3} takes 205 iterations instead of
2); disconnected instances are solved per component in
:func:`spectral_radius`.

The power iteration (Ng, Qi & Zhou 2009) contracts slowly when the spectral
gap is small, as on long loose paths.  For hypergraph operators the bracket
gap is checked every ``STALL_WINDOW`` iterations; if it shrank by less than
half, the run switches to Newton-Noda steps (Liu, Guo & Lin 2017), which
converge in a handful of steps.  Every step, of either kind, counts as one
iteration, and the bracket always comes from the ratios at the iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hypergraph import UniformHypergraph
from .tensors import (
    ADJACENCY,
    DEGREE_DIAGONAL,
    DENSE,
    SIGNLESS_LAPLACIAN,
    TensorOperator,
    eigen_residual,
)

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 100_000
#: Iterations between two stall checks of the power iteration's bracket.
STALL_WINDOW = 100
#: Relative residual at which the conjugate gradient inner solve stops.
CG_RTOL = 1e-12

_KIND_ALIASES = {"q": SIGNLESS_LAPLACIAN, "a": ADJACENCY}
_RADIUS_KINDS = (ADJACENCY, SIGNLESS_LAPLACIAN)


@dataclass
class SolverConfig:
    """Power-iteration settings.

    ``shift=None`` resolves per operator kind: 0 for the degree diagonal,
    whose power step is exact, and 1 otherwise (adjacency, signless
    Laplacian, dense).  ``seed`` enables up to two random-restart attempts
    after a stalled all-ones start.
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    shift: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.shift is not None and self.shift < 0:
            raise ValueError(f"shift must be nonnegative, got {self.shift}")
        if self.shift is not None and not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")

    def to_json(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "max_iterations": self.max_iterations,
            "shift": self.shift,
            "seed": self.seed,
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


def default_shift(kind: str) -> float:
    """The shift that ``shift=None`` stands for; see :class:`SolverConfig`."""
    return 0.0 if kind == DEGREE_DIAGONAL else 1.0


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


def _newton_noda_step(T: TensorOperator, x: np.ndarray, lam: float, xp: np.ndarray):
    """One Newton-Noda step (Liu, Guo & Lin, Numer. Math. 2017) from x > 0.

    With lam the upper ratio bound, M = (r-1) lam diag(x^(r-2)) - J(x) is a
    symmetric nonsingular M-matrix while lam > rho, so ``M w = x^[r-1]`` has
    a positive solution.  Returns the next iterate before normalization, or
    None when the computed w is not finite and strictly positive.
    """
    r = T.order
    scale = (r - 1) * lam * x ** (r - 2)
    if not np.all(scale > 0):
        return None
    w = _conjugate_gradient(lambda v: scale * v - T.jacobian_apply(x, v), xp, scale)
    if not (np.all(np.isfinite(w)) and np.all(w > 0)):
        return None
    return (r - 2) / (r - 1) * x + float(x.sum()) / ((r - 1) * float(w.sum())) * w


def _iterate(T: TensorOperator, start: np.ndarray, shift: float,
             tolerance: float, max_iterations: int):
    r = T.order
    power = r - 1
    x = start / r_norm(start, r)
    lam_lo = lam_hi = float("nan")
    # Newton-Noda state: stall checks run until one switches newton on; it
    # stays on until a step gives no positive w or the gap stops shrinking
    # (at rounding level), and then the power iteration finishes the run
    may_switch = T.kind in _RADIUS_KINDS
    newton = False
    checked_gap = newton_gap = float("inf")
    # the signless Laplacian's degree diagonal, moved into the step's
    # denominator; None keeps the plain power step
    deg = T._deg if T.kind == SIGNLESS_LAPLACIAN else None
    for it in range(1, max_iterations + 1):
        xp = x ** power
        y = T.apply(x) + shift * xp
        # zero iterate entries only arise for reducible operators with a zero
        # shift; the resulting nan/inf bracket never passes the gap test, so
        # such runs end as non-convergence diagnostics
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = y / xp
        lam_lo = float(ratios.min())
        lam_hi = float(ratios.max())
        gap = lam_hi - lam_lo
        if gap <= tolerance:
            return x, lam_lo, lam_hi, it, True
        if may_switch and it % STALL_WINDOW == 0:
            newton = gap > 0.5 * checked_gap
            may_switch = not newton
            checked_gap = gap
        if newton:
            step = _newton_noda_step(T, x, lam_hi - shift, xp) if gap < newton_gap else None
            newton_gap = gap
            if step is not None:
                x = step / r_norm(step, r)
                continue
            newton = False
        if deg is not None:
            # every denominator is at least the shift; with a zero shift a
            # reducible operator can zero one, and the nan or inf entries
            # that follow end the run unconverged, as for the ratios above
            with np.errstate(divide="ignore", invalid="ignore"):
                y -= deg * xp
                y /= lam_hi - deg
        x = y ** (1.0 / power)
        x /= r_norm(x, r)
    return x, lam_lo, lam_hi, max_iterations, False


def power_iterate(T: TensorOperator, cfg: SolverConfig | None = None) -> EigenPair:
    """Solve for the spectral radius of a nonnegative operator.

    Starts from the normalized all-ones vector.  On non-convergence the
    returned pair carries ``converged=False`` together with the last
    bracket, which still encloses the spectral radius.
    """
    cfg = cfg or SolverConfig()
    if T.kind == DENSE and not T.nonnegative:
        raise ValueError("dense operator has negative entries; solver rejects it")
    shift = default_shift(T.kind) if cfg.shift is None else cfg.shift
    starts = [np.ones(T.dim)]
    if cfg.seed is not None:
        rng = np.random.default_rng(cfg.seed)
        starts.extend(rng.random(T.dim) + 0.5 for _ in range(2))
    best = None
    total_iterations = 0
    for start in starts:
        x, lo, hi, used, ok = _iterate(T, start, shift, cfg.tolerance, cfg.max_iterations)
        total_iterations += used
        if best is None or hi - lo < best[2] - best[1]:
            best = (x, lo, hi)
        if ok:
            break
    x, lo, hi = best
    converged = hi - lo <= cfg.tolerance
    value = 0.5 * (lo + hi) - shift
    return EigenPair(
        value=value,
        vector=x,
        residual=eigen_residual(T, value, x),
        iterations=total_iterations,
        lower=lo - shift,
        upper=hi - shift,
        converged=converged,
    )


def _resolve_kind(kind: str) -> str:
    kind = _KIND_ALIASES.get(kind, kind)
    if kind not in _RADIUS_KINDS:
        raise ValueError(f"spectral radius kind must be one of {_RADIUS_KINDS}, got {kind!r}")
    return kind


def spectral_radius(H: UniformHypergraph, kind: str = ADJACENCY,
                    cfg: SolverConfig | None = None) -> EigenPair:
    """Spectral radius of the adjacency or signless Laplacian tensor of H.

    Disconnected hypergraphs are solved per component and the maximum is
    reported, with the winning component's vector embedded into the full
    dimension (zeros elsewhere); ties go to the lowest-indexed component.
    The bracket is the largest component lower and upper bound, which
    encloses the maximum of the component radii even when the winner's
    bracket does not.  Isolated vertices contribute 0 without a solve: their
    pair is what :func:`power_iterate` returns on a one-vertex edgeless
    graph (value 0, bracket [0, 0], one iteration, vector [1]).
    """
    kind = _resolve_kind(kind)
    cfg = cfg or SolverConfig()
    if H.is_connected():
        return power_iterate(TensorOperator.for_hypergraph(H, kind), cfg)
    best_pair = None
    best_vertices: tuple[int, ...] = ()
    total_iterations = 0
    all_converged = True
    lower = upper = float("-inf")
    isolated = EigenPair(value=0.0, vector=np.ones(1), residual=0.0, iterations=1,
                         lower=0.0, upper=0.0, converged=True)
    for comp in H.components():
        if comp.graph.num_edges == 0:
            pair = isolated
        else:
            pair = power_iterate(TensorOperator.for_hypergraph(comp.graph, kind), cfg)
        total_iterations += pair.iterations
        all_converged = all_converged and pair.converged
        lower = max(lower, pair.lower)
        upper = max(upper, pair.upper)
        if best_pair is None or pair.value > best_pair.value:
            best_pair = pair
            best_vertices = comp.vertices
    vector = np.zeros(H.n)
    vector[list(best_vertices)] = best_pair.vector
    full_op = TensorOperator.for_hypergraph(H, kind)
    return EigenPair(
        value=best_pair.value,
        vector=vector,
        residual=eigen_residual(full_op, best_pair.value, vector),
        iterations=total_iterations,
        lower=lower,
        upper=upper,
        converged=all_converged,
    )


def perron_vector_check(H: UniformHypergraph, pair: EigenPair, kind: str = ADJACENCY,
                        tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """For connected H: strict positivity plus residual within 10x tolerance."""
    vector = np.asarray(pair.vector, dtype=float)
    if not np.all(vector > 0):
        return False
    T = TensorOperator.for_hypergraph(H, _resolve_kind(kind))
    return eigen_residual(T, pair.value, vector) <= 10.0 * tolerance
