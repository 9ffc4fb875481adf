"""Tensor views of hypergraphs: matrix-free applies and small dense tensors.

The adjacency entry convention puts 1/(r-1)! on every index permutation of
an edge, so the apply reduces to one leave-one-out product per (edge,
vertex) pair and the all-ones apply reproduces the degree vector.  Dense
storage is reserved for small dimensions (``DENSE_DIM_CAP``, 12).  The
operators only apply; the solver builds its Newton-Noda matrix itself.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .errors import CapacityError
from .hypergraph import UniformHypergraph

DENSE_DIM_CAP = 12
DENSE_ORDER_CAP = 6

ADJACENCY = "adjacency"
SIGNLESS_LAPLACIAN = "signless-laplacian"
DENSE = "dense"

HYPERGRAPH_KINDS = (ADJACENCY, SIGNLESS_LAPLACIAN)
_KIND_ALIASES = {"a": ADJACENCY, "q": SIGNLESS_LAPLACIAN}


def resolve_kind(kind: str) -> str:
    """The full name of a tensor kind: "a" and "q" are short for the
    adjacency and the signless Laplacian; any other name is returned as
    given, for the caller to accept or refuse."""
    return _KIND_ALIASES.get(kind, kind)


class DenseTensor:
    """Order-r cubical tensor with every entry stored.

    Entry count is dim**order, so construction is guarded by the dimension
    and order caps ``DENSE_DIM_CAP`` and ``DENSE_ORDER_CAP``.
    """

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim < 2:
            raise ValueError(f"tensor order must be at least 2, got {arr.ndim}")
        if len(set(arr.shape)) != 1:
            raise ValueError(f"tensor must be cubical, got shape {arr.shape}")
        if arr.shape[0] > DENSE_DIM_CAP:
            raise CapacityError(f"dense dimension {arr.shape[0]} exceeds cap {DENSE_DIM_CAP}")
        if arr.ndim > DENSE_ORDER_CAP:
            raise CapacityError(f"dense order {arr.ndim} exceeds cap {DENSE_ORDER_CAP}")
        arr.setflags(write=False)
        self.entries = arr

    @property
    def order(self) -> int:
        return self.entries.ndim

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, x) -> np.ndarray:
        """Contract the last order-1 indices with x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"vector dimension {x.shape} does not match {self.dim}")
        out = self.entries
        for _ in range(self.order - 1):
            out = out.dot(x)
        return out


def distinct_index_tensor(r: int) -> DenseTensor:
    """Order-r, dimension-r 0/1 tensor marking pairwise-distinct index tuples."""
    if r < 2:
        raise ValueError(f"order must be at least 2, got {r}")
    arr = np.zeros((r,) * r)
    for p in permutations(range(r)):
        arr[p] = 1.0
    return DenseTensor(arr)


def dense_tensor_of(H: UniformHypergraph, kind: str) -> DenseTensor:
    """Materialize the adjacency or signless Laplacian tensor of H.

    Intended for small instances and independent cross-checks; everything
    else should go through :class:`TensorOperator`.
    """
    kind = resolve_kind(kind)
    if kind not in HYPERGRAPH_KINDS:
        raise ValueError(f"unknown hypergraph tensor kind {kind!r}")
    n, r = H.n, H.r
    arr = np.zeros((n,) * r)
    weight = 1.0 / math.factorial(r - 1)
    for edge in H.edges:
        for p in permutations(edge):
            arr[p] = weight
    if kind == SIGNLESS_LAPLACIAN:
        # an edge has distinct vertices, so the diagonal holds no adjacency
        for v, d in enumerate(H.degrees()):
            arr[(v,) * r] = float(d)
    return DenseTensor(arr)


def direct_product(A: DenseTensor, B: DenseTensor) -> DenseTensor:
    """Kronecker-style product: entry over paired index tuples, flattened
    lexicographically (pair (i, j) maps to i*dim(B) + j)."""
    if A.order != B.order:
        raise ValueError(f"order mismatch: {A.order} vs {B.order}")
    r = A.order
    n, m = A.dim, B.dim
    if n * m > DENSE_DIM_CAP:
        raise CapacityError(f"product dimension {n * m} exceeds cap {DENSE_DIM_CAP}")
    outer = np.multiply.outer(A.entries, B.entries)
    axes = [k for pair in zip(range(r), range(r, 2 * r)) for k in pair]
    return DenseTensor(outer.transpose(axes).reshape((n * m,) * r))


class TensorOperator:
    """Apply-only view ``x -> Tx`` of a hypergraph tensor or a dense tensor.

    Hypergraph kinds never materialize n**r storage: the adjacency apply
    walks a slot-major (r, m) copy of the edge list, and the signless
    Laplacian adds the degree term.
    """

    def __init__(self, kind: str, hypergraph: UniformHypergraph | None = None,
                 tensor: DenseTensor | None = None):
        self.kind = kind = resolve_kind(kind)
        if kind in HYPERGRAPH_KINDS:
            if hypergraph is None:
                raise ValueError(f"kind {kind!r} needs a hypergraph")
            self.hypergraph = hypergraph
            self.tensor = None
            self.order = hypergraph.r
            self.dim = hypergraph.n
            # slot-major copy of the edges: row p lists vertex p of every
            # edge, so each slot's values are one contiguous row.  It is a
            # read-only view; the gather and the vertex sum read its
            # writeable base, as np.take and np.bincount copy a read-only
            # index array, (r, m) values, on every call
            self._slots = np.array(hypergraph.edge_array.T, order="C").view()
            self._slots.setflags(write=False)
            self._deg = hypergraph.degree_array.astype(float)
        elif kind == DENSE:
            if tensor is None:
                raise ValueError("dense kind needs a DenseTensor")
            self.hypergraph = None
            self.tensor = tensor
            self.order = tensor.order
            self.dim = tensor.dim
        else:
            raise ValueError(f"unknown operator kind {kind!r}")

    @classmethod
    def adjacency(cls, H: UniformHypergraph) -> "TensorOperator":
        return cls(ADJACENCY, hypergraph=H)

    @classmethod
    def signless_laplacian(cls, H: UniformHypergraph) -> "TensorOperator":
        return cls(SIGNLESS_LAPLACIAN, hypergraph=H)

    @classmethod
    def dense(cls, tensor: DenseTensor) -> "TensorOperator":
        return cls(DENSE, tensor=tensor)

    def _edge_sum(self, contrib: np.ndarray) -> np.ndarray:
        # bincount over the slot-major layout adds each vertex's terms slot
        # by slot, and in edge order within a slot; the order is fixed, so
        # applies are deterministic.  Without edges it returns integers,
        # hence the cast
        sums = np.bincount(self._slots.base.ravel(), weights=contrib.ravel(),
                           minlength=self.dim)
        return sums.astype(float, copy=False)

    def workspace(self) -> np.ndarray | None:
        """Work rows for :meth:`apply`, to be passed to every call of a loop
        so that the loop allocates them once: the gather of x and the
        leave-one-out products, one (r, m) float array each.  None for the
        dense kind, whose apply needs none."""
        if self.kind == DENSE:
            return None
        return np.empty((2, *self._slots.shape))

    def _apply_adjacency(self, x: np.ndarray, work: np.ndarray | None) -> np.ndarray:
        r = self.order
        g, prod = np.empty((2, *self._slots.shape)) if work is None else work
        # mode="raise" would gather through a buffer of its own; every slot
        # holds a vertex of 0..n-1, so no index is clipped
        x.take(self._slots.base, out=g, mode="clip")
        # The leave-one-out products, in place in one buffer: the prefix
        # products left to right, then a running suffix product multiplied
        # in right to left: each entry is its cumulative prefix times its
        # cumulative suffix bit for bit, less the exact products by 1.0.
        prod[1] = g[0]
        for p in range(2, r):
            np.multiply(prod[p - 1], g[p - 1], out=prod[p])
        # no prefix reads the gather's last row, so it holds the suffix
        run = g[r - 1]
        for q in range(r - 2, 0, -1):
            prod[q] *= run
            run *= g[q]
        prod[0] = run
        return self._edge_sum(prod)

    def apply(self, x, work: np.ndarray | None = None) -> np.ndarray:
        """Tx, as a new array.

        ``work``, from :meth:`workspace`, holds the apply's intermediate
        rows; without it, each call allocates its own, so the operator keeps
        no state and may be applied from two threads at once.  One ``work``
        must not serve two applies at once.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"vector dimension {x.shape} does not match {self.dim}")
        if self.kind == DENSE:
            return self.tensor.apply(x)
        y = self._apply_adjacency(x, work)
        if self.kind == SIGNLESS_LAPLACIAN:
            # the degree term in place, so that the apply holds one n-vector
            # besides its result; the sum is the same either way round
            diagonal = x ** (self.order - 1)
            diagonal *= self._deg
            y += diagonal
        return y


def rayleigh(T: TensorOperator, x) -> float:
    """The multilinear form x . (Tx).

    For an adjacency operator this is r times the sum over edges of the
    product of the entries of x on the edge.
    """
    x = np.asarray(x, dtype=float)
    return float(np.dot(x, T.apply(x)))


def eigen_residual(T: TensorOperator, value: float, x) -> float:
    """Relative max-norm of Tx - value * x^[r-1]."""
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("eigenvector must be nonzero")
    xp = x ** (T.order - 1)
    num = float(np.max(np.abs(T.apply(x) - value * xp)))
    den = float(np.max(np.abs(xp)))
    return num / den
