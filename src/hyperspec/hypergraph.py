"""r-uniform hypergraphs: representation, parsing, generators, colorings.

Vertex ids are 0-based in memory. The text and JSON interchange formats
use 1-based ids; the shift happens only at the parse/render boundary.
"""

from __future__ import annotations

import json
import math
import random
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from .errors import CapacityError, FormatError


def _as_int(value) -> int:
    """``value`` as an int.  Unlike ``int()``, this refuses booleans and
    numbers with a fractional part instead of truncating them; every refusal
    raises ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            k = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if isinstance(value, str) or k == value:
                return k
    raise ValueError(f"{value!r} is not an integer")


_INTP_MAX = int(np.iinfo(np.intp).max)
_INTP_BITS = np.dtype(np.intp).itemsize * 8
#: The largest r for which numpy can shape an (m, r) intp edge array.
_R_MAX = _INTP_MAX // np.dtype(np.intp).itemsize


def _check_sizes(n: int, r: int, error: type[ValueError] = ValueError) -> None:
    """The one header check of every route in (constructor, both parsers,
    generators): refuse, as ``error``, a hypergraph without vertices, edges
    of fewer than two vertices, a vertex count that an intp cannot hold, or
    a uniformity whose edge rows numpy cannot shape, before anything is
    built for them."""
    if n < 1 or r < 2:
        raise error(f"need n >= 1 and r >= 2, got n={n} r={r}")
    if n > _INTP_MAX:
        raise error(f"vertex count n={n} does not fit in a {_INTP_BITS}-bit integer")
    if r > _R_MAX:
        raise error(f"uniformity r={r} exceeds {_R_MAX}, the most an edge array can hold")


def _not_a_row(row) -> bool:
    """True iff ``row`` is a string or bytes, or is not a sequence, so that
    it cannot be read as one edge."""
    return isinstance(row, (str, bytes)) or not hasattr(row, "__len__")


def _id_matrix(rows, r: int) -> np.ndarray | None:
    """The rows as an (m, r) intp array in input order, or None when some
    row does not hold exactly r integers that fit in an intp."""
    if isinstance(rows, np.ndarray):
        if rows.ndim == 2 and rows.shape[1] == r and rows.dtype.kind in "iu":
            return rows.astype(np.intp, copy=False)
        rows = rows.tolist()
    if np.any(np.fromiter(map(len, rows), np.intp, len(rows)) != r):
        return None
    flat = list(chain.from_iterable(rows))
    kinds = set(map(type, flat))
    values = flat if kinds <= {int} else map(int if kinds == {str} else _as_int, flat)
    try:
        return np.fromiter(values, np.intp, len(flat)).reshape(len(rows), r)
    except (TypeError, ValueError, OverflowError):
        return None


def _unique_rows(sorted_rows: np.ndarray, n: int) -> np.ndarray:
    """Rows whose entries are already sorted and lie in 0..n-1,
    deduplicated and put in lexicographic order, as a new C-contiguous intp
    array.

    When n**r <= 2**63, each row is read as one int64 key, its entries the
    digits of a base-n number, so that lexicographic order is the order of
    the keys and equal keys are equal rows: one sort of the keys, a compare
    of neighbours and a decode replace a lexsort of the rows.
    """
    m, r = sorted_rows.shape
    if m <= 1:
        # nothing to sort, so an edgeless input costs nothing per column
        return sorted_rows.astype(np.intp, order="C")
    # from r = 64 on, n**r > 2**63 whenever n >= 2, and n**r need not be
    # computed; with n = 1 there are no rows
    if r >= 64 or n**r > 2**63:
        rows = sorted_rows[np.lexsort(sorted_rows.T[::-1])]
        keep = np.ones(m, dtype=bool)
        keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
        return rows[keep]
    key = sorted_rows[:, 0].astype(np.int64)
    for j in range(1, r):
        key *= n
        key += sorted_rows[:, j]
    key.sort()
    keep = np.ones(m, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    key = key[keep]
    rows = np.empty((len(key), r), dtype=np.intp)
    for j in range(r - 1, 0, -1):
        key, rows[:, j] = np.divmod(key, n)
    rows[:, 0] = key
    return rows


def _component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Label every vertex with the smallest vertex of its component.

    Hook-and-shortcut labelling in the style of Shiloach & Vishkin
    (J. Algorithms 1982).  A label is always a vertex of the same component
    and never larger than the vertex it labels.  Each round hooks the root
    of every edge vertex to the smallest root on the edge, then pointer
    jumping points every vertex at its root.  Once every edge sees a single
    root, each component's smallest vertex is its own root and labels it all.
    """
    label = np.arange(n)
    # the loop below costs time per column, and an edgeless r may be huge
    if not len(edges):
        return label
    while True:
        roots = label[edges]
        # column by column: a row-wise reduction over r entries is an
        # order of magnitude slower
        columns = roots.T
        low = columns[0].copy()
        for column in columns[1:]:
            np.minimum(low, column, out=low)
        if all(np.array_equal(column, low) for column in columns):
            return label
        np.minimum.at(label, roots.ravel(), np.repeat(low, edges.shape[1]))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


class UniformHypergraph:
    """An r-uniform hypergraph on vertices ``{0, ..., n-1}``.

    ``edge_array`` holds the edges as one read-only, C-contiguous (m, r)
    intp array in canonical form: each row is sorted ascending, and the
    rows are distinct and in lexicographic order.  ``edges`` is the same
    list as a tuple of tuples, built on first access.  Instances are
    immutable, so degrees and connectivity are computed once and cached;
    equality and hashing are by value over ``(n, r, edges)``.  Instances
    are safe to share across threads.

    The constructor takes any iterable of r-sequences of integers, or an
    integer array; rows may come in any order and repeat.
    """

    def __init__(self, n: int, r: int, edges=()) -> None:
        self.__post_init__(n, r, edges)

    def __post_init__(self, n, r, edges) -> None:
        # construction lives here, under the name the traced benchmark times
        try:
            n, r = _as_int(n), _as_int(r)
        except ValueError:
            raise ValueError(
                f"vertex count and uniformity must be integers, got {n!r} and {r!r}"
            ) from None
        _check_sizes(n, r)
        if not isinstance(edges, (np.ndarray, list, tuple)):
            edges = list(edges)
        if not isinstance(edges, np.ndarray) and not set(map(type, edges)) <= {tuple, list}:
            # a string row would otherwise be read digit by digit
            if any(map(_not_a_row, edges)):
                raise _row_error(edges, n, r)
        ids = _id_matrix(edges, r)
        if ids is None or (len(ids) and (ids.min() < 0 or ids.max() >= n)):
            raise _row_error(edges, n, r)
        ids = np.sort(ids, axis=1)
        if np.any(ids[:, 1:] == ids[:, :-1]):
            raise _row_error(edges, n, r)
        ids = _unique_rows(ids, n)
        ids.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "edge_array", ids)

    def __setattr__(self, name, value):
        raise AttributeError(f"UniformHypergraph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"UniformHypergraph is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, UniformHypergraph):
            return NotImplemented
        return (self.n, self.r) == (other.n, other.r) and np.array_equal(
            self.edge_array, other.edge_array
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"UniformHypergraph(n={self.n}, r={self.r}, edges={self.edges!r})"

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.r, self.edge_array.tobytes()))

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The canonical edges as sorted tuples, in lexicographic order."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    @cached_property
    def degree_array(self) -> np.ndarray:
        """Read-only per-vertex edge counts (``np.bincount`` of the edges)."""
        deg = np.bincount(self.edge_array.ravel(), minlength=self.n)
        deg.setflags(write=False)
        return deg

    def degrees(self) -> tuple[int, ...]:
        """Per-vertex edge counts; their sum equals r times the edge count."""
        return tuple(self.degree_array.tolist())

    def is_regular(self) -> bool:
        """True iff all vertex degrees are equal (vacuously true without edges)."""
        deg = self.degree_array
        return bool(deg.min() == deg.max())

    @cached_property
    def _labels(self) -> np.ndarray:
        labels = _component_labels(self.n, self.edge_array)
        labels.setflags(write=False)
        return labels

    def is_connected(self) -> bool:
        """True iff every pair of vertices is joined by a walk.

        A single vertex is connected; any isolated vertex with n >= 2 makes
        the hypergraph disconnected.
        """
        return not self._labels.any()

    def components(self) -> list[Component]:
        """Split into maximal connected pieces, ordered by smallest vertex id.

        Each component relabels its vertices to ``0..k-1`` preserving the
        original order; ``Component.vertices[new_id]`` recovers the original
        id.  Components partition both the vertex set and the edge set, and
        each keeps its edges in canonical order.  All isolated vertices
        share one edgeless one-vertex graph.
        """
        labels = self._labels
        # vertices grouped by component, ascending inside each
        order = np.argsort(labels, kind="stable")
        grouped = labels[order]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        sizes = np.diff(np.r_[starts, self.n])
        new_id = np.empty(self.n, dtype=np.intp)
        new_id[order] = np.arange(self.n) - np.repeat(starts, sizes)
        # a stable sort by component keeps each component's edges canonical
        edge_comp = np.searchsorted(grouped[starts], labels[self.edge_array[:, 0]])
        edge_order = np.argsort(edge_comp, kind="stable")
        local = new_id[self.edge_array[edge_order]]
        edge_ends = np.cumsum(np.bincount(edge_comp, minlength=len(starts))).tolist()
        vertices = order.tolist()
        isolated = UniformHypergraph(1, self.r) if np.any(sizes == 1) else None
        out: list[Component] = []
        lo_v = lo_e = 0
        for hi_v, hi_e in zip(np.r_[starts[1:], self.n].tolist(), edge_ends):
            graph = (isolated if hi_v - lo_v == 1
                     else UniformHypergraph(hi_v - lo_v, self.r, local[lo_e:hi_e]))
            out.append(Component(graph, tuple(vertices[lo_v:hi_v])))
            lo_v, lo_e = hi_v, hi_e
        return out


@dataclass(frozen=True)
class Component:
    """A connected piece of a hypergraph with vertices relabeled to 0..k-1."""

    graph: UniformHypergraph
    vertices: tuple[int, ...]


def _row_error(rows, n: int, r: int, base: int = 0,
               error: type[ValueError] = ValueError) -> ValueError:
    """The ``error`` for the first row, in input order, that is not an edge
    of an r-uniform hypergraph on the ids base..base+n-1: the constructor
    passes base 0, the parsers base 1.  The checks run in the order the
    messages are listed."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    for verts in rows:
        if _not_a_row(verts) or len(verts) != r:
            shown = verts if _not_a_row(verts) else list(verts)
            return error(f"edge {shown!r} must list exactly {r} vertices")
        try:
            ids = [_as_int(v) for v in verts]
        except ValueError:
            return error(f"edge {list(verts)} holds a non-integer vertex id")
        if any(v < base or v >= base + n for v in ids):
            return error(f"edge {ids} has a vertex outside {base}..{base + n - 1}")
        if len(set(ids)) != r:
            return error(f"edge {ids} repeats a vertex")
    return error(f"vertex ids must fit in {_INTP_BITS}-bit integers")


# ---------------------------------------------------------------------------
# External formats.  Text: header "n r", one edge per line, 1-based ids;
# a line whose first non-blank character is '#' is a comment.
# JSON mirror: {"n": ..., "r": ..., "edges": [[...], ...]}.
# ---------------------------------------------------------------------------


def _from_rows(rows, n: int, r: int) -> tuple[UniformHypergraph, int]:
    """The hypergraph on 1-based edge rows, and the number of duplicate rows
    it dropped.  The constructor's vectorized checks find whether a row is
    bad; only then does a scan find the first one."""
    ids = _id_matrix(rows, r)
    try:
        # an id below 1 is refused before the shift, which would wrap the
        # smallest intp round to the largest
        if ids is None or (len(ids) and ids.min() < 1):
            raise ValueError
        H = UniformHypergraph(n, r, ids - 1)
    except ValueError:
        raise _row_error(rows, n, r, 1, FormatError) from None
    return H, len(rows) - H.num_edges


def _warn_dropped(dups: int) -> None:
    """Warn that ``dups`` duplicate edges were dropped, attributing the
    warning to the first caller outside this module, whichever of the
    parsers it called."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(f"dropped {dups} duplicate edge(s)", stacklevel=level)


def _read_ids(lines: list[str], r: int) -> np.ndarray | None:
    """The edge lines as an (m, r) intp array read in one ``np.loadtxt``
    call, or None when that read raises, warns or finds other than r
    columns; the caller then splits the lines and checks them row by row.

    Call it on ASCII text only.  There a field that the read accepts is one
    that ``int`` reads to the same value, and it splits fields on the same
    whitespace as ``str.split``; ``comments=None`` keeps an inline ``#`` a
    field, as ``str.split`` does.  Some non-ASCII characters inside a field
    are read as digits, where ``int`` refuses them.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids = np.loadtxt(lines, dtype=np.intp, comments=None, ndmin=2)
    except (ValueError, Warning):  # an unreadable field, ragged rows, a warning
        return None
    return ids if ids.shape[1] == r else None


def parse_hypergraph(text: str) -> UniformHypergraph:
    """Parse the text edge-list format.

    Duplicate edges are dropped with a warning reporting how many were
    removed.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line for line in map(str.strip, lines) if line and not line.startswith("#")]
    # blank lines may remain; np.loadtxt skips them, and so does the row
    # by row check
    first = next((k for k, line in enumerate(lines) if line.strip()), None)
    if first is None:
        raise FormatError("empty input: missing 'n r' header line")
    header = lines[first].strip()
    head = header.split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n r', got {header!r}")
    try:
        n, r = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"header must hold two integers, got {header!r}") from None
    _check_sizes(n, r, FormatError)
    lines = lines[first + 1:]
    ids = _read_ids(lines, r) if text.isascii() else None
    if ids is None:
        ids = [row for row in map(str.split, lines) if row]
    H, dups = _from_rows(ids, n, r)
    if dups:
        _warn_dropped(dups)
    return H


def render_hypergraph(H: UniformHypergraph) -> str:
    """Render to the text format (inverse of :func:`parse_hypergraph`)."""
    lines = [f"{H.n} {H.r}"]
    lines.extend(" ".join(str(v + 1) for v in edge) for edge in H.edges)
    return "\n".join(lines) + "\n"


def hypergraph_from_json(text: str) -> UniformHypergraph:
    """Parse the JSON mirror format."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or not {"n", "r", "edges"} <= set(obj):
        raise FormatError("JSON hypergraph needs fields 'n', 'r', 'edges'")
    try:
        n, r = _as_int(obj["n"]), _as_int(obj["r"])
    except ValueError:
        raise FormatError("fields 'n' and 'r' must be integers") from None
    _check_sizes(n, r, FormatError)
    rows = obj["edges"]
    if not isinstance(rows, list):
        raise FormatError("field 'edges' must be an array of edges")
    if not set(map(type, rows)) <= {list}:
        bad = next(row for row in rows if not isinstance(row, list))
        raise FormatError(f"edge {json.dumps(bad)} must be an array of {r} vertex ids")
    H, dups = _from_rows(rows, n, r)
    if dups:
        _warn_dropped(dups)
    return H


def load_hypergraph(text: str) -> UniformHypergraph:
    """Parse either format, sniffing JSON by a leading '{'."""
    if text.lstrip().startswith("{"):
        return hypergraph_from_json(text)
    return parse_hypergraph(text)


# ---------------------------------------------------------------------------
# Generators.  All are deterministic for fixed parameters (and seed).
# ---------------------------------------------------------------------------

#: Most edges a generator builds, checked before it enumerates any; the
#: same size as the blow-up's edge cap.
GENERATOR_EDGE_CAP = 5_000_000


def _check_edge_count(m: int) -> None:
    if m > GENERATOR_EDGE_CAP:
        raise CapacityError(f"generator needs {m} edges, cap is {GENERATOR_EDGE_CAP}")


def complete(n: int, r: int) -> UniformHypergraph:
    """All r-subsets of {0..n-1}; regular of degree C(n-1, r-1)."""
    _check_sizes(n, r)
    if n < r:
        raise ValueError(f"complete({n},{r}) needs n >= r")
    _check_edge_count(math.comb(n, r))
    return UniformHypergraph(n, r, tuple(combinations(range(n), r)))


def single_edge(r: int) -> UniformHypergraph:
    """One edge on exactly r vertices."""
    _check_sizes(r, r)
    return UniformHypergraph(r, r, (tuple(range(r)),))


def loose_path(r: int, length: int) -> UniformHypergraph:
    """length edges in a row, consecutive edges sharing exactly one vertex."""
    if r < 2:
        raise ValueError(f"loose_path({r},{length}) needs r >= 2")
    if length < 1:
        raise ValueError(f"loose_path({r},{length}) needs length >= 1")
    _check_edge_count(length)
    n = length * (r - 1) + 1
    _check_sizes(n, r)
    edges = tuple(tuple(range(k * (r - 1), k * (r - 1) + r)) for k in range(length))
    return UniformHypergraph(n, r, edges)


def random_hypergraph(n: int, r: int, m: int, seed: int) -> UniformHypergraph:
    """m distinct edges drawn uniformly without replacement."""
    _check_sizes(n, r)
    if n < r:
        raise ValueError(f"random({n},{r},...) needs n >= r")
    total = math.comb(n, r)
    if not 0 <= m <= total:
        raise ValueError(f"edge count {m} outside 0..C({n},{r})={total}")
    _check_edge_count(m)
    rng = random.Random(seed)
    if total <= 2_000_000:
        edges = rng.sample(list(combinations(range(n), r)), m)
    else:
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < m:
            chosen.add(tuple(sorted(rng.sample(range(n), r))))
        edges = sorted(chosen)
    return UniformHypergraph(n, r, tuple(edges))


_GENERATORS = {
    "complete": (complete, 2),
    "single_edge": (single_edge, 1),
    "loose_path": (loose_path, 2),
    "random": (random_hypergraph, 4),
}


def generate(spec: str) -> UniformHypergraph:
    """Build a hypergraph from a ``name:args`` spec string.

    Examples: ``complete:5,3``, ``single_edge:3``, ``loose_path:3,2``,
    ``random:8,3,10,42`` (n, r, edges, seed).
    """
    name, _, argstr = spec.partition(":")
    name = name.strip()
    if name not in _GENERATORS:
        raise FormatError(
            f"unknown generator {name!r}; expected one of {sorted(_GENERATORS)}"
        )
    fn, arity = _GENERATORS[name]
    try:
        args = [int(tok) for tok in argstr.split(",")] if argstr.strip() else []
    except ValueError:
        raise FormatError(f"generator arguments must be integers, got {argstr!r}") from None
    if len(args) != arity:
        raise FormatError(f"generator {name!r} takes {arity} argument(s), got {len(args)}")
    try:
        return fn(*args)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# Odd colorings (even uniformity only): a labeling phi: V -> {1..r} such
# that every edge's label sum is congruent to r/2 modulo r.
# ---------------------------------------------------------------------------


def verify_odd_coloring(H: UniformHypergraph, phi: dict[int, int]) -> bool:
    """Check that ``phi`` labels exactly the vertices 0..n-1, each with an
    integer in 1..r, and that every edge's label sum is r/2 modulo r."""
    labels = [phi.get(v) for v in range(H.n)]
    if len(phi) != H.n or not all(
        isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 1 <= x <= H.r
        for x in labels
    ):
        return False
    sums = np.array(labels, dtype=np.int64)[H.edge_array].sum(axis=1)
    return bool(np.all(sums % H.r == H.r // 2))


def find_odd_coloring(H: UniformHypergraph) -> dict[int, int] | None:
    """An odd coloring of H, or None if it has none; decided exactly.

    Write r = 2^a s with s odd.  Modulo s the target r/2 is 0, met by labels
    0 mod s; modulo 2^a it is 2^(a-1).  So H is odd-colorable iff
    B psi = 2^(a-1) (mod 2^a) is solvable, B the edge-vertex incidence
    matrix.  Elimination goes level by level: at level l every entry left in
    the unpivoted rows is divisible by 2^l, and one of 2-adic valuation
    exactly l is a pivot.  An odd multiple of a solution is a solution, so
    phi = s psi, with residue 0 read as label r.  Time O(n m min(n, m)),
    memory O(n m).
    """
    r, n, m = H.r, H.n, H.num_edges
    if r % 2 != 0:
        raise ValueError(f"odd coloring needs even uniformity, got r={r}")
    a = (r & -r).bit_length() - 1
    s, mask = r >> a, (1 << a) - 1
    # [B | right-hand side]; unsigned arithmetic wraps modulo 2^8 or 2^64,
    # both multiples of 2^a, so only the rows still tested are reduced
    M = np.zeros((m, n + 1), dtype=np.uint8 if a <= 8 else np.uint64)
    M[np.arange(m)[:, None], H.edge_array] = 1
    M[:, n] = 1 << (a - 1)
    pivots = []  # (column, level) of row k; rows 0..k-1 are pivoted
    for level in range(a):
        for j in range(n):
            k = len(pivots)
            hits = np.flatnonzero(M[k:, j] & (1 << level))
            if len(hits) == 0:
                continue
            M[[k, k + hits[0]]] = M[[k + hits[0], k]]
            M[k] *= M.dtype.type(pow(int(M[k, j]) >> level, -1, 1 << a))
            below = k + 1 + np.flatnonzero(M[k + 1 :, j])
            M[below] = (M[below] - (M[below, j] >> level)[:, None] * M[k]) & mask
            pivots.append((j, level))
    if np.any(M[len(pivots) :, n]):
        return None
    # back substitution, free variables 0; t is divisible by 2^level because
    # the row's entries are, and every right-hand side is a multiple of 2^(a-1)
    psi = np.zeros(n + 1, dtype=np.int64)
    for k in reversed(range(len(pivots))):
        j, level = pivots[k]
        t = (int(M[k, n]) - int(M[k].astype(np.int64) @ psi)) & mask
        psi[j] = t >> level
    return {v: s * int(x) if x else r for v, x in enumerate(psi[:n])}
