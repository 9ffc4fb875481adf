"""Spectral radius of nonnegative tensor operators by shifted power iteration.

Each step applies the shifted operator, ``y = Tx + shift * x^[r-1]``, reads
off the componentwise ratio bracket ``min_i y_i / x_i^{r-1} <= rho(T + shift)
<= max_i ...`` (valid for any nonnegative tensor and positive x), and
declares convergence when the bracket closes below the configured
tolerance.  The run starts from the all-ones vector and normalizes it only
once its first ratios are read: every product of a hypergraph operator's
first apply is then 1 and every vertex sum an integer, so those ratios are
exact, and a regular hypergraph's bracket closes at once on its radius.
The next iterate is ``y^(1/(r-1))`` (Ng, Qi & Zhou 2009), except for the
signless Laplacian Q = D + A: there the degree diagonal d would
dominate the update of every high-degree vertex, so, as in Noda's iteration,
it moves into a denominator, ``x^[r-1] <- (y - d x^[r-1]) / (lam - d)``
with lam the upper side.  The step costs no extra apply; since
``y <= lam x^[r-1]``, the new iterate is entrywise at most the old one, the
upper side never rises, and every denominator is at least the shift, the
constant ``SHIFT`` = 1.

The plain step, of either form, is accelerated by Anderson mixing (Walker &
Ni 2011) of depth ``DEPTH`` on u = log x, whose residual is the log of the
plain step less u.  A mixed iterate is accepted only if its largest upper
side is no higher than that of the last accepted iterate; otherwise the run
takes the plain step from the last accepted iterate, which it stored, and
clears the history, and after ``REJECTION_LIMIT`` rejections it keeps the
plain step for good.  A rejection costs one apply.  On loose paths the limit
is reached within about ten steps; on the random hypergraphs measured, Q
takes a third to a half of the plain step's iterations and A about three
quarters.  A run returns an accepted iterate with the bracket of its own
ratios.

The reported bracket is widened by the rounding error of the ratios it is
read from, a relative ``gamma_k`` with k about r + the largest degree, and
its ``- SHIFT`` is rounded outward, so it encloses the radius of the
operator although a closed bracket has zero width.  The stop test and the
value are read from the unwidened bracket.  The margin needs every entry of
x^[r-1] to be a normal double; a run whose returned iterate has a subnormal
one is reported unconverged.

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
side, so the Jacobian system is block diagonal and one solve covers every
segment.  When every segment is a hypertree (Berge-acyclic, which one
compare of the edge and vertex counts decides), no two edges share a pair
of vertices, and the system is solved exactly by a leaf-first elimination
over the edges, one (r-1) x (r-1) block per edge, in O(n r^2); the edge
order is built once per run, at the switch.  Elsewhere one conjugate
gradient solve runs; the iterate is fixed for the whole solve, so the
Jacobian's x-only work (the gather, the prefix and suffix products and the
diagonal) is done once per step, not once per conjugate gradient product.
A segment whose upper side is below the best lower side can no
longer move the run's bracket; it is frozen for the step (its entries stay,
and its stale bracket still holds), since its block, long converged, is
nearly singular and would spoil the step for all.  Every
step, of either kind, counts as one iteration, and the bracket always comes
from the ratios at the iterate.  A Newton-Noda step clears the mixing's
history and is not checked against the upper side.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from itertools import combinations

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
#: Differences kept by the Anderson mixing of the power step.
DEPTH = 3
#: Rejected mixed steps after which a run keeps the plain step for good.
REJECTION_LIMIT = 4
#: Relative pivot below which the mixing drops a difference as dependent.
DEPENDENT = 1e-10
#: The unit roundoff of a double.
UNIT_ROUNDOFF = 2.0**-53


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

    def spread(self, per_segment: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A per-segment array read per vertex."""
        # mode="raise" would gather through a buffer of its own; every
        # vertex's segment is a valid index, so none is clipped
        return per_segment.take(self.seg, out=out, mode="clip")

    def normalize(self, x: np.ndarray, work: np.ndarray) -> None:
        """Scale every segment of x to r-norm 1, in place, with ``work`` an
        n-vector to overwrite."""
        r = self.order
        np.power(x, r, out=work)
        x /= self.spread(self.sums(work) ** (1.0 / r), out=work)


def _split(T: TensorOperator) -> tuple[TensorOperator, np.ndarray | None, _Segments]:
    """The operator to iterate on, the vertex of T behind each of its
    vertices (None when they are T's own), and its segments.

    An adjacency or signless Laplacian operator splits into the components
    of its hypergraph that have edges, read from the cached component
    labels and ordered by smallest vertex; vertices without edges are left
    out.  A dense operator, like a connected hypergraph, is one segment
    over all vertices of T itself, which is not rebuilt.
    """
    if T.kind not in HYPERGRAPH_KINDS or not T.hypergraph._labels.any():
        one = _Segments(T.order, np.zeros(T.dim, dtype=np.intp), np.zeros(1, dtype=np.intp))
        return T, None, one
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


def _elimination_order(T: TensorOperator, segs: _Segments) -> np.ndarray | None:
    """The edges of a split hypergraph operator T in leaf-first order, or
    None unless every segment is a hypertree (Berge-acyclic).

    A connected r-uniform hypergraph with n vertices and m edges has
    m (r-1) >= n - 1, with equality exactly when it is a hypertree; every
    segment of T is one connected component, so one compare over all of
    them decides.  Each segment is searched breadth first from its first
    vertex, and every edge gets as its parent the vertex it is reached
    from.  Returns an (m, r) array with a row per edge, the other vertices
    in ascending order and the parent last, in the reverse order of the
    search, so that every edge comes after all edges below it.
    """
    edges = T.hypergraph.edge_array
    m, r = edges.shape
    if m * (r - 1) != T.dim - len(segs.starts):
        return None
    flat = edges.ravel()
    # the edges at each vertex, vertex by vertex
    incidence = (np.argsort(flat, kind="stable") // r).tolist()
    ends = [0, *np.cumsum(np.bincount(flat, minlength=T.dim)).tolist()]
    rows = edges.tolist()
    reached = bytearray(m)
    order = []
    # the queue grows while it is read; in a hypertree every vertex but
    # the first of its segment is reached through exactly one edge
    queue = segs.starts.tolist()
    for v in queue:
        for e in incidence[ends[v]:ends[v + 1]]:
            if not reached[e]:
                reached[e] = 1
                below = [u for u in rows[e] if u != v]
                order.append([*below, v])
                queue.extend(below)
    return np.array(order[::-1], dtype=np.intp).reshape(m, r)


def _eliminate(order: np.ndarray, roots: np.ndarray, x: np.ndarray, diagonal: np.ndarray,
               b: np.ndarray, frozen: np.ndarray) -> np.ndarray | None:
    """The solution w of ``M w = b`` by leaf-first elimination, with
    ``order`` from :func:`_elimination_order` and ``roots`` the first vertex
    of every segment.

    M has the given diagonal and, for vertices i != j of an edge, the entry
    -(the product of x over the rest of the edge): on a hypertree that is
    diag(diagonal) minus the off-diagonal of the Jacobian J(x), as no two
    edges share a pair.  Each edge, leaf first, takes its r x r block of M
    with the right-hand side beside it, the diagonal and the right-hand
    side as updated so far, and eliminates the r - 1 vertices below its
    parent, which leaves their Schur complement in the parent's diagonal
    and right-hand side.  Then the roots are solved, and each edge, root
    first, back-substitutes.  No fill-in arises.  Edges whose parent is in
    the ``frozen`` mask, and frozen roots, are skipped, so those vertices get
    0.  None at a pivot that is not positive and finite, as M is then not
    positive definite.
    """
    r = order.shape[1]
    k = r - 1
    live = order[~frozen[order[:, k]]]
    # the blocks, one (r, r + 1) row block per live edge, with the diagonal
    # and the right-hand side column left to the loop
    blocks = np.zeros((len(live), r, r + 1))
    gathered = x[live]
    for s, t in combinations(range(r), 2):
        rest = [c for c in range(r) if c not in (s, t)]
        blocks[:, s, t] = blocks[:, t, s] = -np.prod(gathered[:, rest], axis=1)
    d = diagonal.tolist()
    rhs = b.tolist()
    vertices = live.tolist()
    # the eliminated blocks, leaf first
    eliminated = blocks.tolist()
    for vs, a in zip(vertices, eliminated):
        for i, v in enumerate(vs):
            a[i][i] = d[v]
            a[i][r] = rhs[v]
        for i in range(k):
            ai = a[i]
            pivot = ai[i]
            if not 0.0 < pivot < math.inf:
                return None
            for j in range(i + 1, r):
                aj = a[j]
                f = aj[i] / pivot
                for c in range(i + 1, r + 1):
                    aj[c] -= f * ai[c]
        d[vs[k]] = a[k][k]
        rhs[vs[k]] = a[k][r]
    w = [0.0] * len(d)
    for root in roots[~frozen[roots]].tolist():
        if not 0.0 < d[root] < math.inf:
            return None
        w[root] = rhs[root] / d[root]
    for vs, a in zip(reversed(vertices), reversed(eliminated)):
        for i in reversed(range(k)):
            ai = a[i]
            t = ai[r]
            for c in range(i + 1, r):
                t -= ai[c] * w[vs[c]]
            w[vs[i]] = t / ai[i]
    return np.array(w)


def _newton_noda_step(T: TensorOperator, segs: _Segments, x: np.ndarray, lam: np.ndarray,
                      xp: np.ndarray, frozen: np.ndarray, order: np.ndarray | None):
    """One Newton-Noda step (Liu, Guo & Lin, Numer. Math. 2017) from x > 0.

    With lam the upper ratio bound of each vertex's segment,
    M = (r-1) diag(lam x^(r-2)) - J(x) is a symmetric M-matrix, block
    diagonal over the segments, and nonsingular while lam > rho on every
    block, so ``M w = x^[r-1]`` has a positive solution.  On hypertrees,
    when ``order`` is the leaf-first edge order of
    :func:`_elimination_order`, :func:`_eliminate` solves it exactly;
    otherwise one conjugate gradient solve covers all blocks, with J(x)
    built once for it.  Vertices in the ``frozen`` mask keep their entries:
    their right-hand side is 0, so either solve leaves them at 0, and the
    elimination never reads their block.  Returns the next iterate before
    normalization, or None when the elimination meets a pivot that is not
    positive and finite, or when the computed w is not finite and strictly
    positive on the vertices that move.
    """
    r = T.order
    scale = (r - 1) * lam * x ** (r - 2)
    if not np.all(scale > 0):
        return None
    rhs = np.where(frozen, 0.0, xp)
    if order is None:
        w = _conjugate_gradient(T.jacobian(x), scale, rhs)
    else:
        # the signless Laplacian's Jacobian adds (r-1) d x^(r-2) on the
        # diagonal, which M takes off
        diagonal = scale if T.kind == ADJACENCY else (r - 1) * (lam - T._deg) * x ** (r - 2)
        w = _eliminate(order, segs.starts, x, diagonal, rhs, frozen)
        if w is None:
            return None
    # x itself stands in for w, so that every segment sum is positive
    w[frozen] = x[frozen]
    if not (np.all(np.isfinite(w)) and np.all(w > 0)):
        return None
    step = (r - 2) / (r - 1) * x + segs.spread(segs.sums(x) / ((r - 1) * segs.sums(w))) * w
    step[frozen] = x[frozen]
    return step


def _mixing(gram: list[list[float]], rhs: list[float]) -> list[float]:
    """The least squares coefficients of the Anderson step: the solution of
    ``gram gamma = rhs`` by elimination in Python floats, in place, newest
    difference first.  At the first pivot below ``DEPENDENT`` times its
    diagonal entry (the difference is nearly a combination of newer ones)
    the system is cut there, and that difference and every older one get
    0."""
    k = len(rhs)
    a, b = gram, rhs
    diagonal = [a[i][i] for i in range(k)]
    for i in range(k):
        # written so that a nan pivot cuts the system too
        if not a[i][i] > DEPENDENT * diagonal[i]:
            k = i
            break
        for j in range(i + 1, k):
            f = a[j][i] / a[i][i]
            for c in range(i + 1, k):
                a[j][c] -= f * a[i][c]
            b[j] -= f * b[i]
    gamma = [0.0] * len(rhs)
    for i in reversed(range(k)):
        gamma[i] = (b[i] - sum(a[i][c] * gamma[c] for c in range(i + 1, k))) / a[i][i]
    return gamma


class _Anderson:
    """Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 2011) of the plain
    power step, on u = log x.

    With x~ the plain step from x, g(u) = log x~ and the residual is
    f = g(u) - u.  The differences dg and df between consecutive accepted
    iterates are kept for the last ``DEPTH`` pairs, in the rows of two
    (DEPTH, n) arrays, together with the Gram matrix of the df rows.  The
    step is u' = g - dG gamma, with gamma the least squares solution of
    dF gamma = f, so x' = x~ exp(-dG gamma).  The map is block diagonal over
    the segments, so one gamma serves all of them.
    """

    def __init__(self, n: int):
        self.dg = np.zeros((DEPTH, n))
        self.df = np.zeros((DEPTH, n))
        self.rows: list[int] = []  # the rows in use, oldest first
        self.gram = [[0.0] * DEPTH for _ in range(DEPTH)]
        self.rejections = 0

    def _free_row(self) -> int:
        """The row the next push writes: the oldest once ``DEPTH`` are kept,
        else one not in use."""
        if len(self.rows) == DEPTH:
            return self.rows[0]
        return next(k for k in range(DEPTH) if k not in self.rows)

    def scratch(self) -> np.ndarray:
        """An n-vector free to overwrite until the next push, which writes
        it last."""
        return self.df[self._free_row()]

    def push(self, x_prev: np.ndarray, plain_prev: np.ndarray, x: np.ndarray,
             plain: np.ndarray) -> None:
        """Add the differences from the accepted iterate x_prev, with its plain
        step plain_prev, to the next accepted iterate x and its plain step,
        dropping the oldest pair once ``DEPTH`` are kept."""
        row = self._free_row()
        if len(self.rows) == DEPTH:
            del self.rows[0]
        dg, df = self.dg[row], self.df[row]
        np.divide(plain, plain_prev, out=dg)
        np.log(dg, out=dg)
        np.divide(x, x_prev, out=df)
        np.log(df, out=df)
        np.subtract(dg, df, out=df)
        self.rows.append(row)
        # the rows not in use hold scratch, read here but not kept
        dots = self.df @ df
        for k in self.rows:
            self.gram[row][k] = self.gram[k][row] = float(dots[k])

    def clear(self) -> None:
        self.rows.clear()

    def extrapolate(self, x: np.ndarray, plain: np.ndarray, out: np.ndarray,
                    work: np.ndarray) -> bool:
        """Write the mixed step from the accepted iterate x, whose plain step
        is ``plain``, into ``out`` (not normalized), with ``work`` an n-vector
        to overwrite.  False, with ``out`` undefined, when the history gives
        no mixing."""
        rows = self.rows[::-1]
        np.divide(plain, x, out=work)
        np.log(work, out=work)
        dots = self.df @ work
        gamma = _mixing([[self.gram[i][j] for j in rows] for i in rows],
                        [float(dots[i]) for i in rows])
        if not any(gamma):
            return False
        # the rows not in use get 0, and dg is only written by push
        coefficients = np.zeros(DEPTH)
        coefficients[rows] = gamma
        np.dot(-coefficients, self.dg, out=out)
        np.exp(out, out=out)
        out *= plain
        return True


def _iterate(T: TensorOperator, segs: _Segments, tolerance: float, max_iterations: int):
    """The shifted power iteration from the all-ones vector, accelerated by
    :class:`_Anderson` and finished by Newton-Noda steps when it stalls.

    Returns the last accepted iterate, the per-segment bracket of its own
    ratios, the number of iterations and whether the bracket closed.
    """
    r = T.order
    power = r - 1
    n = T.dim
    # x^[r-1], then scratch once the step has read it
    xp = np.empty(n)
    # normalized only once the first ratios are read: for a hypergraph kind
    # every product of the first apply is then 1 and every vertex sum an
    # integer, so they are exact
    x = np.ones(n)
    # Newton-Noda state: stall checks run until one switches newton on; it
    # stays on until a step gives no positive w or the gap stops shrinking
    # (at rounding level), and then the power iteration finishes the run.
    # The switch builds the leaf-first edge order, None off hypertrees
    may_switch = T.kind in HYPERGRAPH_KINDS
    newton = False
    order = None
    checked_gap = newton_gap = float("inf")
    # the signless Laplacian's degree diagonal, moved into the step's
    # denominator; None keeps the plain power step
    deg = T._deg if T.kind == SIGNLESS_LAPLACIAN else None
    apply_work = T.workspace()
    mix = _Anderson(n)
    # the last accepted iterate with its bracket and largest upper side, and
    # its plain step (None after a Newton-Noda step); x is either that plain
    # step or, when extrapolated, a mixed step that must not raise the
    # largest upper side
    accepted = None
    plain = None
    extrapolated = False
    for it in range(1, max_iterations + 1):
        # the ratios, then scratch until the history's next push; once the
        # mixing is off for good, an n-vector of its own
        if mix is not None:
            work = mix.scratch()
        np.power(x, power, out=xp)
        y = T.apply(x, work=apply_work)
        np.multiply(xp, SHIFT, out=work)
        y += work
        # a nan or infinite ratio arises only from underflow (a zero entry
        # of the iterate) or overflow; the run stops at the first nan/inf
        # bracket and ends unconverged with the last accepted iterate
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(y, xp, out=work)
            lo, hi = segs.brackets(work)
            lam_lo, lam_hi = lo.max(), hi.max()
            gap = lam_hi - lam_lo
        if it == 1:
            # the ratios are homogeneous in x, so this changes none of them;
            # the mixing's history compares normalized iterates only
            segs.normalize(x, work)
        if not math.isfinite(gap):
            if accepted is None:
                return x, lo, hi, it, False
            return *accepted[:3], it, False
        if extrapolated and lam_hi > accepted[3]:
            # rejected: the plain step from the accepted iterate instead
            mix.rejections += 1
            mix.clear()
            if mix.rejections == REJECTION_LIMIT:
                mix, work = None, np.empty(n)
            x, extrapolated = plain, False
            # the rejected iterate's apply is not read again
            del y
            continue
        previous = accepted
        accepted = x, lo, hi, lam_hi
        if gap <= tolerance:
            return x, lo, hi, it, True
        if may_switch and it % STALL_WINDOW == 0:
            newton = gap > 0.5 * checked_gap
            may_switch = not newton
            checked_gap = gap
            if newton:
                order = _elimination_order(T, segs)
        if newton:
            step = None
            if gap < newton_gap:
                # a segment whose upper side is below the best lower side
                # no longer moves the bracket, and its stale bracket still
                # holds; near convergence its M block is nearly singular
                frozen = segs.spread(hi < lam_lo)
                step = _newton_noda_step(T, segs, x, segs.spread(hi) - SHIFT, xp, frozen,
                                         order)
            newton_gap = gap
            if step is not None:
                segs.normalize(step, xp)
                x, plain, extrapolated = step, None, False
                if mix is not None:
                    mix.clear()
                continue
            newton = False
        if deg is not None:
            # every denominator is at least the shift, and positive inside a
            # component with edges unless an entry underflows; the nan or
            # inf entries that would follow end the run unconverged, as for
            # the ratios above
            with np.errstate(divide="ignore", invalid="ignore"):
                xp *= deg
                y -= xp
                segs.spread(hi, out=xp)
                xp -= deg
                y /= xp
        y **= 1.0 / power
        segs.normalize(y, work)
        step, extrapolated = y, False
        if mix is not None and previous is not None and plain is not None:
            # the iterate before x is not read again.  A mixed step that
            # overflows or underflows is not taken: normalizing turns an
            # infinite entry into nan or 0
            out = previous[0]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                mix.push(previous[0], plain, x, y)
                if mix.extrapolate(x, y, out, xp):
                    segs.normalize(out, xp)
                    if 0.0 < out.min():
                        step, extrapolated = out, True
                    else:
                        mix.clear()
        x, plain = step, y
    return *accepted[:3], max_iterations, False


def _rounding_margin(T: TensorOperator) -> float:
    """gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Lemma 3.1): a bound on the relative rounding error of
    every ratio ``(Tx + SHIFT x^[r-1])_i / x_i^(r-1)`` that ``_iterate``
    computes, while no entry of x^[r-1] is subnormal.

    For a hypergraph kind, k = max(r, 5) + Delta + 2, with Delta the largest
    degree: each edge term of the apply is a product of r - 1 entries (r - 2
    roundings), the Q degree term d x^[r-1] and the shift term carry the
    power (counted as two roundings, as ``pow`` is within one ulp) and at
    most one product, the sum of at most Delta + 2 terms adds Delta + 1
    roundings, and the quotient by the rounded power three more.  For the
    dense kind each of the r - 1 contractions is a dot product of dim terms,
    so k = (r - 1) dim + 4.
    """
    if T.kind in HYPERGRAPH_KINDS:
        k = max(T.order, 5) + int(T._deg.max()) + 2
    else:
        k = (T.order - 1) * T.dim + 4
    ku = k * UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def _outward(side: float, margin: float, away: float) -> float:
    """A side of the shifted bracket widened by the relative ``margin`` and
    shifted back, each step rounded away from the radius, toward ``away``
    (-inf for the lower side, inf for the upper one)."""
    side = math.nextafter(side + math.copysign(margin, away) * side, away)
    return math.nextafter(side - SHIFT, away)


def power_iterate(T: TensorOperator, cfg: SolverConfig | None = None) -> EigenPair:
    """Solve for the spectral radius of a nonnegative operator.

    One run from the all-ones vector, normalized only once its ratios are
    read, so that they are exact (a regular hypergraph's bracket closes on
    them at its radius): the positive eigenvector of a weakly irreducible
    operator is unique and the shifted step converges from any positive
    start, so no other start is tried.  The
    bracket carries a rounding margin (see the module docstring), so it
    encloses the spectral radius; a returned iterate with a subnormal entry
    of x^[r-1], where the margin does not hold, gives ``converged=False``.
    On non-convergence the returned pair carries ``converged=False``
    together with the last accepted iterate and its bracket; a run whose
    bracket turns nan or infinite (an entry of the iterate or of its apply
    that underflows or overflows) stops there and returns the last accepted
    iterate, whose bracket is finite.

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
        S, segs, cfg.tolerance, cfg.max_iterations
    )
    lo, hi = float(lo_segs.max()), float(hi_segs.max())
    value = 0.5 * (lo + hi) - SHIFT
    # the margin does not hold once a power (and so a product of the apply)
    # is subnormal: such a bracket is not certified
    if converged and float(x.min()) ** (S.order - 1) < sys.float_info.min:
        converged = False
    margin = _rounding_margin(S)
    mine = segs.seg == np.argmax(lo_segs)
    vector = np.zeros(T.dim)
    vector[mine if vertices is None else vertices[mine]] = x[mine]
    return EigenPair(
        value=value,
        vector=vector,
        residual=eigen_residual(T, value, vector),
        iterations=iterations,
        lower=_outward(lo, margin, -math.inf),
        upper=_outward(hi, margin, math.inf),
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

