"""Command line front end: spectra, bounds, blow-ups, verification suites.

Exit codes are a stable contract: 0 success, 2 input error, 3 solver
non-convergence, 4 mathematical check failure, 5 capacity exceeded (a size
cap, or an allocation that fails).  A check that read an unconverged solve
decides nothing, so 3 outranks 4 in every command.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

from .blowup import blowup, verify_blowup
from .bounds import BoundReport, bounds_hold, dominance_holds, verify_bounds
from .errors import CapacityError, FormatError
from .hypergraph import (
    UniformHypergraph,
    find_odd_coloring,
    generate,
    load_hypergraph,
    render_hypergraph,
    verify_odd_coloring,
)
from .solver import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    SolverConfig,
    spectral_radius,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CHECK_FAILED = 4
EXIT_CAPACITY = 5

_KINDS = {"adjacency": "adjacency", "q": "signless-laplacian"}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load(path: Path, where: str = "") -> UniformHypergraph:
    """The hypergraph in the file at ``path``.  A warning of the parse (a
    count of dropped duplicate edges) goes to stderr as one line, after
    ``where``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        H = load_hypergraph(path.read_text())
    for warning in caught:
        print(f"warning: {where}{warning.message}", file=sys.stderr)
    return H


def _resolve_input(args) -> tuple[UniformHypergraph, str]:
    if args.infile:
        return _load(Path(args.infile)), f"file:{args.infile}"
    return generate(args.gen), f"gen:{args.gen}"


def _config(args) -> SolverConfig:
    return SolverConfig(tolerance=args.tol, max_iterations=args.max_iter)


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_spectrum(args) -> tuple[bool, bool]:
    H, desc = _resolve_input(args)
    cfg = _config(args)
    kind = _KINDS[args.kind]
    started = time.perf_counter()
    pair = spectral_radius(H, kind, cfg)
    elapsed = time.perf_counter() - started
    if args.json:
        report = {
            "command": "spectrum",
            "input": desc,
            "kind": kind,
            "config": cfg.to_json(),
            "result": pair.to_json(),
        }
        _emit(args, json.dumps(report, indent=2))
    else:
        lines = [
            f"input       {desc}",
            f"kind        {kind}",
            f"lambda      {_fmt(pair.value)}",
            f"bracket     [{_fmt(pair.lower)}, {_fmt(pair.upper)}]",
            f"residual    {_fmt(pair.residual)}",
            f"iterations  {pair.iterations}",
            f"converged   {'yes' if pair.converged else 'no'}",
            f"elapsed     {elapsed:.3f} s",
        ]
        _emit(args, "\n".join(lines))
    return pair.converged, True


def cmd_bound(args) -> tuple[bool, bool]:
    H, desc = _resolve_input(args)
    cfg = _config(args)
    reports = verify_bounds(H, cfg)
    if args.json:
        payload = {
            "command": "bound",
            "input": desc,
            "config": cfg.to_json(),
            "reports": [rep.to_json() for rep in reports],
        }
        _emit(args, json.dumps(payload, indent=2))
    elif args.csv:
        rows = ["input," + ",".join(BoundReport.COLUMNS)]
        rows.extend(f"{desc},{rep.to_csv_row()}" for rep in reports)
        _emit(args, "\n".join(rows))
    else:
        lines = [f"input  {desc}"]
        for rep in reports:
            lines.append(
                f"{rep.kind:<20} bound={_fmt(rep.bound)}  rho={_fmt(rep.rho)}  "
                f"gap={_fmt(rep.gap)}  regular={rep.regular}  equality={rep.equality}  "
                f"consistent={rep.consistent}"
            )
        _emit(args, "\n".join(lines))
    ok = bounds_hold(reports, cfg.tolerance) and dominance_holds(reports)
    return all(rep.converged for rep in reports), ok


def cmd_blowup(args) -> tuple[bool, bool]:
    H, desc = _resolve_input(args)
    cfg = _config(args)
    verification = verify_blowup(H, cfg) if args.verify else None
    bl = blowup(H) if verification is None else verification.blowup
    # --out receives the blow-up itself; the report always goes to stdout
    if args.out:
        Path(args.out).write_text(render_hypergraph(bl.tilde))
    if args.json:
        payload = {
            "command": "blowup",
            "input": desc,
            "config": cfg.to_json(),
            "base": {"n": H.n, "r": H.r, "edges": H.num_edges},
            "tilde": {"n": bl.tilde.n, "r": bl.tilde.r, "edges": bl.tilde.num_edges},
            "vertex_map": [[i + 1, j + 1, flat + 1] for i, j, flat in bl.vertex_map()],
        }
        if verification is not None:
            payload["verify"] = verification.to_json()
        print(json.dumps(payload, indent=2))
    else:
        lines = [
            f"input       {desc}",
            f"base        n={H.n} r={H.r} edges={H.num_edges}",
            f"blow-up     n={bl.tilde.n} edges={bl.tilde.num_edges}",
        ]
        if verification is not None:
            lines.append(f"verified    {'yes' if verification.ok else 'NO'}")
            lines.append(f"rho(tilde)  {_fmt(verification.scaling.tilde_pair.value)}")
        print("\n".join(lines))
    if verification is None:
        return True, True
    if not verification.ok:
        print("blow-up verification failed:", file=sys.stderr)
        print(json.dumps(verification.to_json(), indent=2), file=sys.stderr)
    converged = (verification.scaling.base_pair.converged
                 and verification.q_identities.scaling.base_pair.converged)
    return converged, verification.ok


def _builtin_instances() -> list[tuple[str, UniformHypergraph]]:
    specs = [
        "complete:4,3",
        "complete:5,3",
        "complete:6,3",
        "single_edge:3",
        "single_edge:4",
        "single_edge:5",
        "loose_path:3,2",
        "loose_path:3,3",
        "loose_path:4,2",
        "random:8,3,10,1",
        "random:9,3,12,2",
        "random:10,4,8,3",
    ]
    out = [(spec, generate(spec)) for spec in specs]
    out.append(("disjoint_pair:3", UniformHypergraph(6, 3, ((0, 1, 2), (3, 4, 5)))))
    return out


def _corpus_instances(root: str) -> list[tuple[str, UniformHypergraph]]:
    folder = Path(root)
    if not folder.is_dir():
        raise FormatError(f"corpus path {root!r} is not a directory")
    files = sorted(p for p in folder.iterdir() if p.is_file() and p.suffix in (".hg", ".json"))
    return [(p.name, _load(p, f"{p.name}: ")) for p in files]


def _instance_checks(name: str, H: UniformHypergraph, cfg: SolverConfig) -> tuple[list, bool]:
    """The check rows of one instance, and whether its solves converged."""
    rows = []
    reports = verify_bounds(H, cfg)
    converged = all(rep.converged for rep in reports)
    bounds_ok = converged and bounds_hold(reports, cfg.tolerance)
    rows.append((name, "bounds", bounds_ok,
                 f"gapA={reports[0].gap:.3e} gapQ={reports[1].gap:.3e}"))
    rows.append((name, "dominance", dominance_holds(reports),
                 f"pm={reports[0].bound:.6g} avg={reports[2].bound:.6g}"))
    base_pairs = {rep.kind: rep.pair for rep in reports[:2]}
    try:
        verification = verify_blowup(H, cfg, base_pairs=base_pairs)
    except CapacityError:
        rows.append((name, "blowup", None, "skipped: size"))
    else:
        rows.append((name, "blowup", verification.ok,
                     f"dev={verification.scaling.deviation:.3e}"))
    if H.r % 2 == 0:
        phi = find_odd_coloring(H)
        coloring_ok = phi is None or verify_odd_coloring(H, phi)
        rows.append((name, "odd-coloring", coloring_ok,
                     "found" if phi is not None else "none exists"))
    else:
        rows.append((name, "odd-coloring", None, "skipped: r is odd"))
    return rows, converged


def cmd_verify(args) -> tuple[bool, bool]:
    cfg = _config(args)
    if args.corpus:
        instances = _corpus_instances(args.corpus)
        source = f"corpus:{args.corpus}"
        if not instances:
            print("warning: empty corpus, nothing verified", file=sys.stderr)
    else:
        instances = _builtin_instances()
        source = "builtin"
    rows: list[tuple] = []
    failures = []
    converged = True
    for name, H in instances:
        checks, solved = _instance_checks(name, H, cfg)
        converged = converged and solved
        rows.extend(checks)
        if any(ok is False for _, _, ok, _ in checks):
            failures.append((name, H))
    if args.json:
        payload = {
            "command": "verify",
            "input": source,
            "config": cfg.to_json(),
            "results": [
                {"instance": name, "check": check,
                 "status": "skip" if ok is None else ("pass" if ok else "fail"),
                 "detail": detail}
                for name, check, ok, detail in rows
            ],
            "failures": len(failures),
        }
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [f"{'instance':<18} {'check':<14} {'status':<7} detail"]
        for name, check, ok, detail in rows:
            status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
            lines.append(f"{name:<18} {check:<14} {status:<7} {detail}")
        lines.append(f"instances={len(instances)} failures={len(failures)}")
        _emit(args, "\n".join(lines))
    for name, H in failures:
        print(f"failing instance {name}:", file=sys.stderr)
        print(render_hypergraph(H), file=sys.stderr, end="")
    return converged, not failures


def _add_common(parser: argparse.ArgumentParser, with_input: bool = True):
    """Add the input, solver and output flags; return the group of
    mutually exclusive report formats, which holds ``--json``."""
    if with_input:
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument("--in", dest="infile", metavar="PATH",
                           help="hypergraph file (text or JSON)")
        group.add_argument("--gen", metavar="SPEC",
                           help="generator spec, e.g. complete:5,3 or random:8,3,10,42")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                        help="bracket-gap convergence tolerance")
    parser.add_argument("--max-iter", dest="max_iter", type=int,
                        default=DEFAULT_MAX_ITERATIONS, help="iteration cap")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--out", metavar="PATH", help="write output to a file")
    return fmt


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspec",
        description="Spectral radii and degree bounds of uniform hypergraph tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spectrum = sub.add_parser("spectrum", help="compute a spectral radius")
    _add_common(p_spectrum)
    p_spectrum.add_argument("--kind", choices=sorted(_KINDS), default="adjacency")
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_bound = sub.add_parser("bound", help="evaluate degree-based lower bounds")
    _add_common(p_bound).add_argument("--csv", action="store_true", help="emit CSV")
    p_bound.set_defaults(func=cmd_bound)

    p_blowup = sub.add_parser("blowup", help="construct and verify the blow-up")
    _add_common(p_blowup)
    p_blowup.add_argument("--verify", action="store_true",
                          help="run the blow-up identity checks")
    p_blowup.set_defaults(func=cmd_blowup)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("corpus", nargs="?", default=None,
                          help="directory of .hg/.json files (default: builtin families)")
    _add_common(p_verify, with_input=False)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command.  Each ``cmd_*`` returns (every solve converged,
    every check passed), which maps to 3 if a solve did not, else 0 or 4."""
    args = build_parser().parse_args(argv)
    try:
        converged, ok = args.func(args)
    except (CapacityError, MemoryError) as exc:
        # a MemoryError raised by Python itself carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
