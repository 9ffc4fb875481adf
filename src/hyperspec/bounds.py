"""Degree power-mean lower bounds on spectral radii, with certificates.

The adjacency bound is the power mean of order r/(r-1) of the degree
sequence; the signless Laplacian bound is twice that.  For connected
hypergraphs with r >= 3 the bounds are attained exactly on the regular
instances, which is what the equality/consistency flags track.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hypergraph import UniformHypergraph
from .solver import EigenPair, SolverConfig, spectral_radius
from .tensors import ADJACENCY, SIGNLESS_LAPLACIAN

AVERAGE_DEGREE = "average-degree"

#: Equality is declared when |rho - bound| falls within this multiple of the
#: solver tolerance; strict gaps at desk scale sit far above it.
EQUALITY_TOLERANCE_FACTOR = 100.0


def degree_power_mean_bound(H: UniformHypergraph) -> float:
    """((1/n) sum_i d_i^(r/(r-1)))^((r-1)/r), a lower bound on the adjacency
    spectral radius.  For r=2 this is the classical sum-of-squares bound.

    The mean is taken of the degrees divided by the largest one, so that on
    a regular hypergraph every term is exactly 1 and the bound is exactly
    its degree, equal to :func:`average_degree_bound` bit for bit; an
    edgeless hypergraph gives 0.
    """
    p = H.r / (H.r - 1)
    top = max(int(H.degree_array.max()), 1)
    return float(top * np.mean((H.degree_array / top) ** p) ** (1.0 / p))


def q_degree_bound(H: UniformHypergraph) -> float:
    """Twice the power-mean bound; lower bound on the signless Laplacian radius."""
    return 2.0 * degree_power_mean_bound(H)


def average_degree_bound(H: UniformHypergraph) -> float:
    """Average degree r|E|/n; dominated by the power-mean bound."""
    return H.r * H.num_edges / H.n


def optimal_weights(H: UniformHypergraph) -> np.ndarray:
    """Degree weights normalized to sum of r-th powers = n.

    These are the Hoelder equality weights: with them the weighted degree
    average (1/n) sum_i a_i d_i equals the power-mean bound, and a_i = 1
    for every i exactly when H is regular.
    """
    if H.num_edges == 0:
        raise ValueError("weights are undefined without edges (all degrees zero)")
    r = H.r
    d = H.degree_array.astype(float)
    s = float(np.sum(d ** (r / (r - 1))))
    return H.n ** (1.0 / r) * d ** (1.0 / (r - 1)) / s ** (1.0 / r)


def certificate_vector(H: UniformHypergraph, weights) -> np.ndarray:
    """Unit-r-norm test vector on the blow-up vertex set V x {1..r}.

    Layout is lexicographic with label varying fastest: position i*r holds
    a_i/(rn)^(1/r) and the remaining r-1 slots of block i hold (rn)^(-1/r).
    Plugging it into the blow-up adjacency Rayleigh form yields
    (r-1)!/n * sum_i a_i d_i.
    """
    a = np.asarray(weights, dtype=float)
    if a.shape != (H.n,):
        raise ValueError(f"weight dimension {a.shape} does not match n={H.n}")
    scale = (H.r * H.n) ** (-1.0 / H.r)
    x = np.full(H.r * H.n, scale)
    x[:: H.r] = a * scale
    return x


@dataclass
class BoundReport:
    """Outcome of checking one bound against one computed spectral radius.

    ``pair`` is the solve behind ``rho``, kept so that later checks on the
    same hypergraph can reuse it.
    """

    kind: str
    bound: float
    rho: float
    gap: float
    regular: bool
    equality: bool
    connected: bool
    consistent: bool
    converged: bool = True
    pair: EigenPair | None = field(default=None, repr=False, compare=False)

    #: The report's columns, in the order of its JSON object and CSV row.
    COLUMNS = ("kind", "bound", "rho", "gap", "regular", "equality", "connected", "consistent")

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.COLUMNS}

    def to_csv_row(self) -> str:
        """The columns as CSV cells; numbers to 12 significant digits."""
        cells = (v if isinstance(v, str) else ("true" if v else "false") if isinstance(v, bool)
                 else f"{v:.12g}" for v in self.to_json().values())
        return ",".join(cells)


def verify_bounds(H: UniformHypergraph, cfg: SolverConfig | None = None) -> list[BoundReport]:
    """Evaluate every bound against freshly solved spectral radii.

    The equality characterization (equality iff regular) is only checked
    where it is a theorem: connected, r >= 3, at least one edge.  For r=2
    the adjacency bound can also be attained by semiregular bipartite
    graphs, so the consistency flag is not asserted there.
    """
    cfg = cfg or SolverConfig()
    pair_a = spectral_radius(H, ADJACENCY, cfg)
    pair_q = spectral_radius(H, SIGNLESS_LAPLACIAN, cfg)
    pm = degree_power_mean_bound(H)
    avg = average_degree_bound(H)
    regular = H.is_regular()
    connected = H.is_connected()
    characterized = connected and H.r >= 3 and H.num_edges > 0
    eq_tol = EQUALITY_TOLERANCE_FACTOR * cfg.tolerance

    def build(kind: str, bound: float, pair: EigenPair, check: bool) -> BoundReport:
        gap = pair.value - bound
        equality = abs(gap) <= eq_tol
        consistent = equality == regular if check else True
        return BoundReport(
            kind=kind,
            bound=bound,
            rho=pair.value,
            gap=gap,
            regular=regular,
            equality=equality,
            connected=connected,
            consistent=consistent,
            converged=pair.converged,
            pair=pair,
        )

    return [
        build(ADJACENCY, pm, pair_a, characterized),
        build(SIGNLESS_LAPLACIAN, 2.0 * pm, pair_q, characterized),
        build(AVERAGE_DEGREE, avg, pair_a, characterized),
    ]


def bounds_hold(reports: list[BoundReport], tolerance: float) -> bool:
    """The bound gate: every report is consistent, and no radius falls below
    its bound by more than the solver tolerance (plus 1e-9 of slack)."""
    return all(rep.consistent and rep.gap >= -(tolerance + 1e-9) for rep in reports)


def dominance_holds(reports: list[BoundReport]) -> bool:
    """The dominance gate, on the reports of :func:`verify_bounds`: the
    power-mean bound is at least the average degree, and equal to it exactly
    when the hypergraph is regular.  Both sides are exact on a regular
    hypergraph (see :func:`degree_power_mean_bound`), so the comparison
    needs no tolerance; that the radius clears the average degree is the
    average-degree row of :func:`bounds_hold`."""
    pm, avg = reports[0], reports[2]
    return pm.bound >= avg.bound and (pm.bound == avg.bound) == pm.regular
