"""Spectral radii and degree-based lower bounds for uniform hypergraph tensors."""

from .blowup import (
    BlowupHypergraph,
    blowup,
    check_product_identity,
    check_q_identities,
    check_spectral_scaling,
    kronecker_adjacency_apply,
    verify_blowup,
)
from .bounds import (
    BoundReport,
    average_degree_bound,
    certificate_vector,
    degree_power_mean_bound,
    optimal_weights,
    q_degree_bound,
    verify_bounds,
)
from .errors import CapacityError, FormatError, HyperspecError
from .hypergraph import (
    Component,
    UniformHypergraph,
    complete,
    find_odd_coloring,
    generate,
    hypergraph_from_json,
    load_hypergraph,
    loose_path,
    parse_hypergraph,
    random_hypergraph,
    render_hypergraph,
    single_edge,
    verify_odd_coloring,
)
from .solver import (
    EigenPair,
    SolverConfig,
    power_iterate,
    spectral_radius,
)
from .tensors import (
    DenseTensor,
    TensorOperator,
    dense_tensor_of,
    direct_product,
    distinct_index_tensor,
    eigen_residual,
    rayleigh,
)

__version__ = "0.1.0"
