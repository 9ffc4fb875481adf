"""The benchmark's workloads: seeded inputs, the CLI commands of one op, and
the checks every op's output must pass.

Inputs are generated here with numpy from the workload seed and reach the
program only as ``.hg`` text files.  One op is one CLI command or a fixed
list of commands, run in-process through ``hyperspec.cli.main``.

Each workload loads one part of the library heavily and bypasses another,
so a change to one layer moves one workload and leaves the others flat:

==============  =====================================  ==========================
workload        loads                                  bypasses
==============  =====================================  ==========================
big-random      parse, degrees/BFS, operator build,    components, blowup, dense
                ~164 applies over 200k edges, bounds
long-path       solver loop (~330k iterations over a   bounds, components,
                tiny apply)                            blowup, parse cost
shattered       quadratic ``components()``, ~98k tiny  apply arithmetic, bounds,
                operator builds and solves             blowup
verify-suite    blowup build and checks, dense          big inputs, components
                cross-checks, pure-Python kron apply,  split of a large graph
                odd-coloring search, bounds
==============  =====================================  ==========================
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: Slack for comparing a radius with an independently computed bound.
BOUND_RTOL = 1e-9

#: Radii of later ops must match the first op of the run this closely.
REPEAT_RTOL = 1e-9


def random_edges(rng: np.random.Generator, n: int, r: int, m: int) -> np.ndarray:
    """m distinct r-subsets of range(n), uniform without replacement.

    Rows are drawn i.i.d. and the first m distinct ones in draw order are
    kept, which is a uniform m-subset; each row is sorted ascending.
    """
    if m > math.comb(n, r):
        raise ValueError(f"cannot draw {m} distinct {r}-subsets of {n} vertices")
    kept = np.empty((0, r), dtype=np.int64)
    while len(kept) < m:
        draw = np.sort(rng.integers(0, n, size=(int(1.2 * m) + 16, r)), axis=1)
        draw = draw[np.all(draw[:, 1:] != draw[:, :-1], axis=1)]
        pool = np.concatenate([kept, draw])
        _, first = np.unique(pool, axis=0, return_index=True)
        kept = pool[np.sort(first)]
    return kept[:m]


def loose_path_edges(r: int, length: int) -> np.ndarray:
    """Edges of the loose path: consecutive edges share exactly one vertex."""
    starts = np.arange(length)[:, None] * (r - 1)
    return starts + np.arange(r)[None, :]


def write_hg(path: Path, n: int, r: int, edges: np.ndarray) -> Path:
    """Write the text edge-list format (header ``n r``, 1-based ids)."""
    lines = [f"{n} {r}"]
    lines.extend(" ".join(map(str, row)) for row in (edges + 1).tolist())
    path.write_text("\n".join(lines) + "\n")
    return path


def power_mean_bound(n: int, r: int, edges: np.ndarray) -> float:
    """The paper's degree power-mean bound, computed from the benchmark's own
    edge array so the check does not trust the library's degrees."""
    d = np.bincount(edges.ravel(), minlength=n).astype(float)
    p = r / (r - 1)
    return float(np.mean(d**p) ** (1.0 / p))


def _bracket_errors(where: str, result: dict) -> list[str]:
    lam, lo, hi = result["lambda"], result["lower"], result["upper"]
    if not lo <= lam <= hi:
        return [f"{where}: lambda {lam!r} outside [{lo!r}, {hi!r}]"]
    return []


class Workload:
    """One workload: ``setup`` writes the inputs, ``commands`` is one op,
    ``check`` returns (radii, problems) for one command's output."""

    name = ""
    why = ""

    def __init__(self, workdir: Path, seed: int):
        self.rng = np.random.default_rng(seed)
        self.commands: list[list[str]] = []
        self.setup(workdir)

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def check(self, index: int, payload: dict) -> tuple[list[float], list[str]]:
        raise NotImplementedError


class BigRandom(Workload):
    name = "big-random"
    why = ("bound --json on a random 3-graph, n=20000 m=200000, seeded relabeling; loads parse, "
           "degrees, is_connected, operator build, applies, bounds; bypasses components, blowup")
    n, r, m = 20_000, 3, 200_000
    # The signless Laplacian solve takes 140 to 318 iterations depending on
    # which random graph is drawn, which would swamp the op time.  So the
    # graph is drawn once from this seed; the workload seed relabels its
    # vertices and shuffles its lines, which leaves the mathematics unchanged.
    graph_seed = 1

    def setup(self, workdir):
        edges = random_edges(np.random.default_rng(self.graph_seed), self.n, self.r, self.m)
        edges = self.rng.permutation(self.n)[edges][self.rng.permutation(self.m)]
        path = write_hg(workdir / "big.hg", self.n, self.r, edges)
        self.bound = power_mean_bound(self.n, self.r, edges)
        self.average = self.r * self.m / self.n
        self.commands = [["bound", "--in", str(path), "--json"]]

    def check(self, index, payload):
        expected = {
            "adjacency": self.bound,
            "signless-laplacian": 2.0 * self.bound,
            "average-degree": self.average,
        }
        radii, problems = [], []
        for rep in payload["reports"]:
            kind, rho, bound = rep["kind"], rep["rho"], expected[rep["kind"]]
            radii.append(rho)
            if abs(rep["bound"] - bound) > BOUND_RTOL * bound:
                problems.append(f"{kind}: reported bound {rep['bound']!r}, expected {bound!r}")
            if rho < bound * (1.0 - BOUND_RTOL):
                problems.append(f"{kind}: rho {rho!r} below the power-mean bound {bound!r}")
        if sorted(expected) != sorted(rep["kind"] for rep in payload["reports"]):
            problems.append(f"unexpected report kinds {[rep['kind'] for rep in payload['reports']]}")
        return radii, problems


class LongPath(Workload):
    name = "long-path"
    why = ("spectrum --json, both kinds, on loose_path(3,200) and loose_path(3,400) (the "
           "400 solves hit the 100k cap); loads the solver loop; bypasses bounds, components, blowup")
    r, lengths, kinds = 3, (200, 400), ("adjacency", "q")

    def setup(self, workdir):
        for length in self.lengths:
            n = length * (self.r - 1) + 1
            # a seeded relabeling keeps the graph isomorphic to loose_path(3, length)
            relabel = self.rng.permutation(n)
            edges = relabel[loose_path_edges(self.r, length)]
            path = write_hg(workdir / f"path{length}.hg", n, self.r, edges)
            self.commands.extend(
                ["spectrum", "--in", str(path), "--kind", kind, "--json"] for kind in self.kinds
            )

    def check(self, index, payload):
        result = payload["result"]
        return [result["lambda"]], _bracket_errors(" ".join(self.commands[index][1:5]), result)


class Shattered(Workload):
    name = "shattered"
    why = ("spectrum --json on a random 3-graph, n=100000 m=1000 (~98k components), seeded "
           "relabeling; loads components() and ~98k tiny solves; bypasses applies, bounds, blowup")
    n, r, m = 100_000, 3, 1_000
    # Drawn once, relabeled and shuffled by the workload seed, as for
    # big-random, so that every seed does the same work.
    graph_seed = 1

    def setup(self, workdir):
        edges = random_edges(np.random.default_rng(self.graph_seed), self.n, self.r, self.m)
        edges = self.rng.permutation(self.n)[edges][self.rng.permutation(self.m)]
        path = write_hg(workdir / "shattered.hg", self.n, self.r, edges)
        self.bound = power_mean_bound(self.n, self.r, edges)
        self.commands = [["spectrum", "--in", str(path), "--kind", "adjacency", "--json"]]

    def check(self, index, payload):
        result = payload["result"]
        problems = _bracket_errors("spectrum", result)
        # the bound holds for every hypergraph, connected or not
        if result["lambda"] < self.bound * (1.0 - BOUND_RTOL):
            problems.append(f"rho {result['lambda']!r} below the power-mean bound {self.bound!r}")
        return [result["lambda"]], problems


class VerifySuite(Workload):
    name = "verify-suite"
    why = ("verify --json (builtin families) then blowup --verify --json on a random 4-graph, "
           "n=60 m=120, seeded relabeling; loads blowup, dense checks, kron apply, odd coloring")
    n, r, m = 60, 4, 120
    # As for big-random: the signless Laplacian solves take 82 to 169
    # iterations depending on which random graph is drawn, so the graph is
    # drawn once and the workload seed relabels and shuffles it.
    graph_seed = 1

    def setup(self, workdir):
        edges = random_edges(np.random.default_rng(self.graph_seed), self.n, self.r, self.m)
        edges = self.rng.permutation(self.n)[edges][self.rng.permutation(self.m)]
        path = write_hg(workdir / "base.hg", self.n, self.r, edges)
        self.commands = [["verify", "--json"], ["blowup", "--in", str(path), "--verify", "--json"]]

    def check(self, index, payload):
        if index == 0:
            problems = [f"verify: {row['instance']} {row['check']} failed: {row['detail']}"
                        for row in payload["results"] if row["status"] == "fail"]
            if payload["failures"] != 0:
                problems.append(f"verify: failures={payload['failures']}")
            return [], problems
        problems = []
        tilde = payload["tilde"]
        want = (self.n * self.r, math.factorial(self.r) * self.m)
        if (tilde["n"], tilde["edges"]) != want:
            problems.append(f"blowup: tilde n/edges {(tilde['n'], tilde['edges'])}, expected {want}")
        check = payload["verify"]
        if check["ok"] is not True:
            problems.append(f"blowup: verify ok={check['ok']!r}")
        radii = []
        for label, scaling in (("A", check["scaling"]), ("Q", check["q"]["scaling"])):
            for side in ("base", "tilde"):
                radii.append(scaling[side]["lambda"])
                problems.extend(_bracket_errors(f"blowup {label} {side}", scaling[side]))
        return radii, problems


WORKLOADS = {cls.name: cls for cls in (BigRandom, LongPath, Shattered, VerifySuite)}
