"""Independent reference computations for pinning expected test values.

Everything here is deliberately written from first principles (dense
arrays, full index enumeration, gradient ascent) rather than through the
library's matrix-free paths, so the two sides of every comparison stay
independent.
"""

import math
import random
from collections import deque
from itertools import combinations, permutations

import mpmath
import numpy as np

from hyperspec import (
    FormatError,
    TensorOperator,
    UniformHypergraph,
    eigen_residual,
    power_iterate,
    random_hypergraph,
)


def dense_adjacency(H):
    """n**r adjacency array built by raw index enumeration."""
    n, r = H.n, H.r
    arr = np.zeros((n,) * r)
    weight = 1.0 / math.factorial(r - 1)
    for edge in H.edges:
        for p in permutations(edge):
            arr[p] = weight
    return arr


def kronecker_adjacency_apply(H: UniformHypergraph, w) -> np.ndarray:
    """Apply the product (base adjacency x all-distinct-labels) to w.

    Evaluated straight from the product's entry rule, without constructing
    the blow-up: component (i, j) sums, over base edges through i and over
    bijections from the remaining edge vertices onto the remaining labels,
    the product of the matching entries of w.
    """
    r = H.r
    w = np.asarray(w, dtype=float)
    if w.shape != (r * H.n,):
        raise ValueError(f"vector dimension {w.shape} does not match {r * H.n}")
    W = w.reshape(H.n, r)
    out = np.zeros(r * H.n)
    labels = range(r)
    for edge in H.edges:
        for pos, i in enumerate(edge):
            rest = edge[:pos] + edge[pos + 1 :]
            for j in labels:
                other_labels = [l for l in labels if l != j]
                total = 0.0
                for assigned in permutations(other_labels):
                    prod = 1.0
                    for v, l in zip(rest, assigned):
                        prod *= W[v, l]
                    total += prod
                out[i * r + j] += total
    return out


def dense_apply(arr, x):
    out = arr
    for _ in range(arr.ndim - 1):
        out = out.dot(np.asarray(x, dtype=float))
    return out


def rayleigh_quotient(arr, x):
    x = np.asarray(x, dtype=float)
    r = arr.ndim
    return float(np.dot(x, dense_apply(arr, x)) / np.sum(x**r))


_EINSUM = {2: "ij,sj->si", 3: "ijk,sj,sk->si", 4: "ijkl,sj,sk,sl->si"}


def _batch_apply(arr, X):
    r = arr.ndim
    if r in _EINSUM:
        return np.einsum(_EINSUM[r], arr, *([X] * (r - 1)))
    out = np.empty_like(X)
    for s in range(X.shape[0]):
        out[s] = dense_apply(arr, X[s])
    return out


def rayleigh_max_oracle(H, starts=50, seed=123, iters=3000):
    """Maximize x.(Tx)/sum(x^r) over the nonnegative cone by projected
    gradient ascent with adaptive step sizes, best of ``starts`` starts.

    The quotient is scale invariant, so iterates are renormalized in the
    2-norm purely for conditioning; the clip is the projection onto the
    cone.  At a maximizer the gradient (r/s)(Tx - q x^[r-1]) vanishes,
    i.e. the eigen equation holds.
    """
    arr = dense_adjacency(H)
    r, n = H.r, H.n
    rng = np.random.default_rng(seed)
    X = rng.random((starts, n)) + 0.05
    X /= np.linalg.norm(X, axis=1)[:, None]
    eta = np.full(starts, 0.1)

    def quotient(X):
        return np.einsum("si,si->s", X, _batch_apply(arr, X)) / np.sum(X**r, axis=1)

    q = quotient(X)
    for _ in range(iters):
        s = np.sum(X**r, axis=1)
        grad = (r / s)[:, None] * (_batch_apply(arr, X) - q[:, None] * X ** (r - 1))
        Xn = np.clip(X + eta[:, None] * grad, 0.0, None)
        norms = np.linalg.norm(Xn, axis=1)
        alive = norms > 0
        Xn[alive] /= norms[alive, None]
        qn = np.where(alive, quotient(np.where(alive[:, None], Xn, X)), q)
        better = qn > q
        X = np.where(better[:, None], Xn, X)
        q = np.where(better, qn, q)
        eta = np.clip(np.where(better, eta * 1.25, eta * 0.5), 1e-14, 10.0)
        if np.all(eta <= 1e-12):
            break
    return float(q.max())


def enumerate_connected_3uniform(max_n=5, max_edges=4):
    """Every connected 3-uniform hypergraph on at most max_n vertices with
    at most max_edges edges (vertex sets are {0..n-1}, no deduplication of
    isomorphic copies)."""
    out = []
    for n in range(3, max_n + 1):
        pool = list(combinations(range(n), 3))
        for k in range(1, max_edges + 1):
            if k > len(pool):
                break
            for sub in combinations(pool, k):
                H = UniformHypergraph(n, 3, sub)
                if H.is_connected():
                    out.append(H)
    return out


def sweep_instances(count=200, seed=20260809):
    """Fixed-seed corpus of random connected hypergraphs, r in {3,4},
    n <= 12, up to 20 edges."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.choice((3, 4))
        n = rng.randint(r, 12)
        m = rng.randint(1, min(20, math.comb(n, r)))
        H = random_hypergraph(n, r, m, seed=rng.randrange(2**31))
        if H.is_connected():
            out.append(H)
    return out


# ---------------------------------------------------------------------------
# The tuple-based hypergraph core that the array core replaced.  Edges are
# tuples of Python ints; every function takes (n, r, edges) explicitly.
# ---------------------------------------------------------------------------


def canonical_edges(n, r, edges):
    """Sorted, deduplicated, lexicographically ordered edge tuples; raises
    the constructor's ValueError for the first bad edge in input order."""
    canon = set()
    for edge in edges:
        if len(edge) != r:
            raise ValueError(f"edge {list(edge)} must list exactly {r} vertices")
        t = tuple(sorted(int(v) for v in edge))
        if t[0] < 0 or t[-1] >= n:
            raise ValueError(f"edge {list(edge)} has a vertex outside 0..{n - 1}")
        if len(set(t)) != r:
            raise ValueError(f"edge {list(edge)} repeats a vertex")
        canon.add(t)
    return tuple(sorted(canon))


def degrees(n, edges):
    d = [0] * n
    for edge in edges:
        for v in edge:
            d[v] += 1
    return tuple(d)


def _neighbor_sets(n, edges):
    nbrs = [set() for _ in range(n)]
    for edge in edges:
        for v in edge:
            nbrs[v].update(edge)
    return nbrs


def is_connected(n, edges):
    """Breadth-first search from vertex 0."""
    if n == 1:
        return True
    nbrs = _neighbor_sets(n, edges)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in nbrs[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == n


def components(n, edges):
    """(vertices, relabelled canonical edges) per component, ordered by
    smallest vertex; edges are canonical input."""
    nbrs = _neighbor_sets(n, edges)
    seen = [False] * n
    out = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        group = [root]
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in nbrs[v]:
                if not seen[u]:
                    seen[u] = True
                    group.append(u)
                    queue.append(u)
        group.sort()
        relabel = {old: new for new, old in enumerate(group)}
        members = set(group)
        local = tuple(tuple(relabel[v] for v in edge) for edge in edges if edge[0] in members)
        out.append((tuple(group), local))
    return out


def solve_components(H, kind, cfg):
    """The spectral radius of H by one solve per component, as
    ``spectral_radius`` computed it before it batched the components.

    Returns (value, lower, upper, iterations, converged, vector): the
    largest component value, the largest lower and upper sides, the summed
    iterations, whether every solve converged, and the winner's vector
    embedded with zeros elsewhere (ties to the component with the smallest
    vertex).
    """
    best, vertices = None, ()
    iterations, converged = 0, True
    lower = upper = float("-inf")
    for comp in H.components():
        pair = power_iterate(TensorOperator(kind, hypergraph=comp.graph), cfg)
        iterations += pair.iterations
        converged = converged and pair.converged
        lower, upper = max(lower, pair.lower), max(upper, pair.upper)
        if best is None or pair.value > best.value:
            best, vertices = pair, comp.vertices
    vector = np.zeros(H.n)
    vector[list(vertices)] = best.vector
    return best.value, lower, upper, iterations, converged, vector


def loose_path_radius(r, length):
    """rho(A(loose_path(r, length))) as an mpmath number, to 40 digits.

    The loose path is the power hypergraph of the graph path on length + 1
    vertices: each edge of the path gets r - 2 vertices of its own.  The
    path's radius is 2 cos(pi/(length + 2)), and a power hypergraph's
    adjacency radius is the graph's to the power 2/r, so this is exact.
    """
    with mpmath.workdps(40):
        return (2 * mpmath.cos(mpmath.pi / (length + 2))) ** (mpmath.mpf(2) / r)


def perron_vector_check(H, pair, kind="adjacency", tolerance=1e-10):
    """For connected H: strict positivity plus residual within 10x tolerance."""
    vector = np.asarray(pair.vector, dtype=float)
    if not np.all(vector > 0):
        return False
    T = TensorOperator(kind, hypergraph=H)
    return eigen_residual(T, pair.value, vector) <= 10.0 * tolerance


def parse_rows(raw_edges, n, r):
    """Validate 1-based edge rows as the parsers did: the FormatError for
    the first bad row, or (canonical 0-based edges, duplicate count)."""
    edges = []
    for verts in raw_edges:
        if len(verts) != r:
            raise FormatError(f"edge {list(verts)} must list exactly {r} vertices")
        try:
            ids = [int(v) for v in verts]
        except (TypeError, ValueError):
            raise FormatError(f"edge {list(verts)} holds a non-integer vertex id") from None
        if any(v < 1 or v > n for v in ids):
            raise FormatError(f"edge {ids} has a vertex outside 1..{n}")
        if len(set(ids)) != r:
            raise FormatError(f"edge {ids} repeats a vertex")
        edges.append(tuple(sorted(v - 1 for v in ids)))
    unique = set(edges)
    return tuple(sorted(unique)), len(edges) - len(unique)


def prefix_suffix_cumprod(gathered):
    """Per edge row, the products left and right of each slot, by cumprod."""
    lo = np.ones_like(gathered)
    np.cumprod(gathered[:, :-1], axis=1, out=lo[:, 1:])
    hi = np.ones_like(gathered)
    hi[:, :-1] = np.cumprod(gathered[:, :0:-1], axis=1)[:, ::-1]
    return lo, hi


def edge_major_terms(H, x):
    """The per (edge, slot) terms of the adjacency apply at x, in the
    edge-major (m, r) layout: the product of x over the rest of the edge,
    from the cumprod prefix and suffix products.  Summed per vertex
    (``np.bincount`` over ``H.edge_array``) they give the apply edge by
    edge."""
    lo, hi = prefix_suffix_cumprod(np.asarray(x, dtype=float)[H.edge_array])
    return lo * hi


def jacobian_matrix(H, x, kind):
    """The dense Jacobian J(x) of the apply ``x -> Tx`` of the adjacency
    (``"adjacency"``) or signless Laplacian (``"q"``) tensor of H, built
    edge by edge: each ordered pair of distinct vertices of an edge gets
    the product of x over the rest of the edge, and Q adds (r-1) d x^(r-2)
    on the diagonal."""
    x = np.asarray(x, dtype=float)
    J = np.zeros((H.n, H.n))
    for edge in H.edges:
        for i, j in permutations(edge, 2):
            J[i, j] += math.prod(x[u] for u in edge if u not in (i, j))
    if kind == "q":
        J += np.diag((H.r - 1) * np.asarray(H.degrees(), dtype=float) * x ** (H.r - 2))
    return J


def newton_noda_matrix(H, x, lam, kind):
    """The dense matrix M = (r-1) diag(lam x^(r-2)) - J(x) of a Newton-Noda
    step at x, with lam a per-vertex array."""
    x = np.asarray(x, dtype=float)
    return np.diag((H.r - 1) * lam * x ** (H.r - 2)) - jacobian_matrix(H, x, kind)


def parse_text(text):
    """The text format parsed line by line, as the parser did before it read
    the edge lines in one call: (n, r, canonical 0-based edges, duplicate
    count), or the FormatError of the header or of the first bad row."""
    rows = [line for line in map(str.strip, text.splitlines())
            if line and not line.startswith("#")]
    if not rows:
        raise FormatError("empty input: missing 'n r' header line")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n r', got {rows[0]!r}")
    try:
        n, r = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"header must hold two integers, got {rows[0]!r}") from None
    if n < 1 or r < 2:
        raise FormatError(f"need n >= 1 and r >= 2, got n={n} r={r}")
    bits = np.dtype(np.intp).itemsize * 8
    if n >= 2 ** (bits - 1):
        raise FormatError(f"vertex count n={n} does not fit in a {bits}-bit integer")
    edges, dups = parse_rows([line.split() for line in rows[1:]], n, r)
    # the 1-based ids must fit, so a 0-based id at most 2^(bits-1) - 2
    if any(v >= 2 ** (bits - 1) - 1 for edge in edges for v in edge):
        raise FormatError(f"vertex ids must fit in {bits}-bit integers")
    return n, r, edges, dups


def find_odd_coloring(H):
    """Exhaustive backtracking search for an odd coloring, None if impossible.

    The residue constraint is checked edge-by-edge as soon as an edge is
    fully labeled, so infeasible branches are cut early; the search is
    still exhaustive, so it is only usable for small n.
    """
    if H.r % 2 != 0:
        raise ValueError(f"odd coloring needs even uniformity, got r={H.r}")
    r, half = H.r, H.r // 2
    edges_of: list[list[int]] = [[] for _ in range(H.n)]
    for idx, edge in enumerate(H.edges):
        for v in edge:
            edges_of[v].append(idx)
    edge_sum = [0] * H.num_edges
    unlabeled = [H.r] * H.num_edges
    labels = [0] * H.n

    def assign(v: int) -> bool:
        if v == H.n:
            return True
        for lab in range(1, r + 1):
            labels[v] = lab
            for ei in edges_of[v]:
                edge_sum[ei] += lab
                unlabeled[ei] -= 1
            feasible = all(
                unlabeled[ei] > 0 or edge_sum[ei] % r == half for ei in edges_of[v]
            )
            if feasible and assign(v + 1):
                return True
            for ei in edges_of[v]:
                edge_sum[ei] -= lab
                unlabeled[ei] += 1
        labels[v] = 0
        return False

    if not assign(0):
        return None
    return {v: labels[v] for v in range(H.n)}
