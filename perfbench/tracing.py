"""Span recorder for the traced run.

The wrappers are installed from the benchmark's own files, only in the
traced process; the library is not modified.  Each wrapped function is
replaced in every ``hyperspec`` module namespace that holds it, so a name
imported with ``from .solver import spectral_radius`` is traced where it is
looked up.  Spans (name, start, end, parent, op id) are kept in flat arrays
in memory, written out once at the end, and the per-layer metrics are
derived from them: a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

#: Per-layer metrics, in report order: (name, unit).  Times are medians over
#: the run's ops of the per-op total; counts are totals divided by the op count.
PER_LAYER = [
    # tracing cost: trace.op_s_p50 minus the untraced op_s_p50, per workload
    ("trace.op_s_p50", "s"),
    ("trace.spans", "count"),
    # all workloads; cli.self_s is command time outside library spans
    ("cli.command.s", "s"),
    ("cli.self_s", "s"),
    # -> op_s_p50 and peak_rss_mb on big-random; about zero elsewhere
    ("hypergraph.parse.s", "s"),
    # -> op_s_p50 on big-random (one big build) and shattered (~98k small ones)
    ("hypergraph.construct.s", "s"),
    ("hypergraph.construct.calls", "count"),
    # -> op_s_p50 on big-random (3 BFS runs per op)
    ("hypergraph.degrees.s", "s"),
    ("hypergraph.degrees.calls", "count"),
    ("hypergraph.is_connected.s", "s"),
    ("hypergraph.is_connected.calls", "count"),
    # -> op_s_p50 on shattered; does not run on big-random or long-path
    ("hypergraph.components.s", "s"),
    ("hypergraph.components.count", "count"),
    # -> op_s_p50 on verify-suite
    ("hypergraph.odd_coloring.s", "s"),
    # -> op_s_p50 on big-random (2 builds) and shattered (~98k builds)
    ("tensors.build.s", "s"),
    ("tensors.build.calls", "count"),
    # -> op_s_p50 on big-random; bytes_computed is derived from array sizes
    ("tensors.apply.s", "s"),
    ("tensors.apply.calls", "count"),
    ("tensors.apply.edge_entries", "count"),
    ("tensors.apply.bytes_computed", "bytes"),
    # -> op_s_p50 on verify-suite (dense_tensor_of, direct_product, dense apply)
    ("tensors.residual.s", "s"),
    ("tensors.dense.s", "s"),
    # -> op_s_p50 and failed ops on long-path; little on big-random.
    # A solve is one spectral_radius call; self_s is solver time outside its
    # traced children (apply, residual, operator build, BFS, components).
    ("solver.solve.s", "s"),
    ("solver.solve.calls", "count"),
    ("solver.power_iterate.calls", "count"),
    ("solver.iterations", "count"),
    ("solver.unconverged", "count"),
    ("solver.self_s", "s"),
    # -> op_s_p50 on verify-suite: one graph and kind solved again in one op
    ("solver.duplicate_solves", "count"),
    # -> op_s_p50 on big-random
    ("bounds.verify_bounds.s", "s"),
    ("bounds.self_s", "s"),
    # -> op_s_p50 on verify-suite; reuse_ratio is distinct blow-ups over builds
    ("blowup.build.s", "s"),
    ("blowup.build.calls", "count"),
    ("blowup.build.reuse_ratio", "ratio"),
    ("blowup.product_check.s", "s"),
    ("blowup.q_check.s", "s"),
    ("blowup.scaling.s", "s"),
    ("blowup.kron_apply.s", "s"),
    ("blowup.kron_apply.calls", "count"),
]

#: Counts that must repeat exactly between two traced runs on one seed.
EXACT_COUNTS = [
    "solver.iterations",
    "tensors.apply.calls",
    "tensors.apply.edge_entries",
    "tensors.build.calls",
    "hypergraph.is_connected.calls",
    "hypergraph.components.count",
    "blowup.build.calls",
]

#: Span names whose self time makes up each layer's ``self_s``.
SELF_GROUPS = {
    "cli.self_s": ("cli.command",),
    "solver.self_s": ("solver.solve", "solver.power_iterate"),
    "bounds.self_s": ("bounds.verify_bounds", "bounds.other"),
}

_KIND_ALIASES = {"q": "signless-laplacian", "a": "adjacency"}
_EDGE_WALKING_KINDS = ("adjacency", "signless-laplacian", "laplacian")
_DIAGONAL_KINDS = ("degree-diagonal", "signless-laplacian", "laplacian")
_WORD = np.dtype(np.intp).itemsize


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("H")
        self._stack = [-1]
        self.op_id = 0
        self.counts: Counter = Counter()
        self._seen: set = set()

    def begin_op(self) -> None:
        self.op_id += 1
        self._seen = set()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def first_in_op(self, key) -> bool:
        """True the first time ``key`` is seen in the current op."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as a span named ``name``; ``on_result(args,
        kwargs, result)`` updates counters after a successful call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, starts, ends = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent), op=np.array(self.op))

    def metrics(self, op_walls: list[float]) -> dict[str, float]:
        """Per-layer metrics over ops 1..len(op_walls)."""
        n_ops, width = len(op_walls), max(len(self.names), 1)
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        op = np.array(self.op, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        cell = op * width + name_id
        size = (n_ops + 1) * width

        def per_op(weights=None):
            return np.bincount(cell, weights=weights, minlength=size).reshape(n_ops + 1, width)[1:]

        total, own, calls = per_op(dur), per_op(self_time), per_op()

        def col(table, name):
            nid = self._ids.get(name)
            return np.zeros(n_ops) if nid is None else table[:, nid]

        out = {
            "trace.op_s_p50": statistics.median(op_walls),
            "trace.spans": len(dur) / n_ops,
        }
        for metric, _unit in PER_LAYER:
            if metric in out:
                continue
            if metric in SELF_GROUPS:
                out[metric] = float(np.median(sum(col(own, s) for s in SELF_GROUPS[metric])))
            elif metric.endswith(".s"):
                out[metric] = float(np.median(col(total, metric[:-2])))
            elif metric.endswith(".calls"):
                out[metric] = float(col(calls, metric[: -len(".calls")]).sum() / n_ops)
            elif metric != "blowup.build.reuse_ratio":
                out[metric] = self.counts[metric] / n_ops
        builds = float(col(calls, "blowup.build").sum())
        # no blow-up built means none was wasted
        out["blowup.build.reuse_ratio"] = (
            self.counts["blowup.build.distinct"] / builds if builds else 1.0
        )
        return out


def install(rec: Recorder) -> None:
    """Wrap the public functions of every hyperspec module, where they are
    looked up.  Call after ``import hyperspec``."""
    mods = {name: mod for name, mod in list(sys.modules.items())
            if name == "hyperspec" or name.startswith("hyperspec.")}
    # the package attribute ``hyperspec.blowup`` is the function, not the module
    hg, tensors = mods["hyperspec.hypergraph"], mods["hyperspec.tensors"]
    solver, bounds = mods["hyperspec.solver"], mods["hyperspec.bounds"]
    blowup, cli = mods["hyperspec.blowup"], mods["hyperspec.cli"]

    def patch_function(module, attr, span, on_result=None):
        original = getattr(module, attr)
        traced = rec.wrap(span, original, on_result)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def patch_method(cls, attr, span, on_result=None):
        setattr(cls, attr, rec.wrap(span, getattr(cls, attr), on_result))

    def on_components(args, kwargs, result):
        rec.count("hypergraph.components.count", len(result))

    def on_apply(args, kwargs, result):
        T = args[0]
        H = T.hypergraph
        if H is None:
            return
        entries = H.num_edges * H.r if T.kind in _EDGE_WALKING_KINDS else 0
        rec.count("tensors.apply.edge_entries", entries)
        # computed, not measured: index array and one gathered value per edge
        # entry, plus input, output and (diagonal kinds) degree vectors
        vectors = 3 if T.kind in _DIAGONAL_KINDS else 2
        rec.count("tensors.apply.bytes_computed", entries * (_WORD + 8) + vectors * H.n * 8)

    def on_power_iterate(args, kwargs, result):
        rec.count("solver.iterations", result.iterations)

    def on_solve(args, kwargs, result):
        H = args[0]
        kind = args[1] if len(args) > 1 else kwargs.get("kind", "adjacency")
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        settings = None if cfg is None else tuple(sorted(cfg.to_json().items()))
        if not rec.first_in_op(("solve", H, _KIND_ALIASES.get(kind, kind), settings)):
            rec.count("solver.duplicate_solves")
        if not result.converged:
            rec.count("solver.unconverged")

    def on_blowup(args, kwargs, result):
        if rec.first_in_op(("blowup", args[0])):
            rec.count("blowup.build.distinct")

    patch_function(cli, "main", "cli.command")

    patch_function(hg, "parse_hypergraph", "hypergraph.parse")
    patch_function(hg, "hypergraph_from_json", "hypergraph.parse")
    patch_function(hg, "find_odd_coloring", "hypergraph.odd_coloring")
    patch_method(hg.UniformHypergraph, "__post_init__", "hypergraph.construct")
    patch_method(hg.UniformHypergraph, "degrees", "hypergraph.degrees")
    patch_method(hg.UniformHypergraph, "is_connected", "hypergraph.is_connected")
    patch_method(hg.UniformHypergraph, "components", "hypergraph.components", on_components)

    patch_method(tensors.TensorOperator, "__init__", "tensors.build")
    patch_method(tensors.TensorOperator, "apply", "tensors.apply", on_apply)
    patch_method(tensors.DenseTensor, "apply", "tensors.dense")
    patch_function(tensors, "eigen_residual", "tensors.residual")
    patch_function(tensors, "dense_tensor_of", "tensors.dense")
    patch_function(tensors, "direct_product", "tensors.dense")

    patch_function(solver, "spectral_radius", "solver.solve", on_solve)
    patch_function(solver, "power_iterate", "solver.power_iterate", on_power_iterate)

    patch_function(bounds, "verify_bounds", "bounds.verify_bounds")
    for attr in ("degree_power_mean_bound", "q_degree_bound", "average_degree_bound",
                 "optimal_weights", "certificate_vector"):
        patch_function(bounds, attr, "bounds.other")

    patch_function(blowup, "blowup", "blowup.build", on_blowup)
    patch_function(blowup, "check_product_identity", "blowup.product_check")
    patch_function(blowup, "check_q_identities", "blowup.q_check")
    patch_function(blowup, "_scaling_check", "blowup.scaling")
    patch_function(blowup, "kronecker_adjacency_apply", "blowup.kron_apply")
    patch_function(blowup, "verify_blowup", "blowup.verify")
