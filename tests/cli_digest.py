"""A digest of what the command line prints and returns, to show that a
change keeps every output byte and exit code.

    python tests/cli_digest.py [--root CHECKOUT] [--seed N]

Runs the commands of the benchmark's four workloads, on inputs that
``perfbench/workloads.py`` writes at the given seed, and a fixed list of
edge cases, all in one process through ``hyperspec.cli.main`` of the
checkout's ``src`` (by default the checkout holding this file).  Prints one
line per command: the exit code, the first 16 hex digits of the sha256 of
standard output (with the time on its ``elapsed`` line masked) and of
standard error, and the command.
The scratch directory's path is written as ``<work>`` before hashing, so two
checkouts give the same listing when their outputs agree: run it once per
checkout and diff the listings.  The process runs under a 4 GB address-space
limit, so that code which allocates without bound on a hostile input fails
with exit 5 instead of taking the machine's memory.

Its name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import tempfile
from pathlib import Path

ADDRESS_SPACE_LIMIT = 4 << 30

#: Input files of the edge cases: name -> text.
FILES = {
    "path3_2.hg": "5 3\n1 2 3\n3 4 5\n",
    "path3_30.hg": "61 3\n" + "".join(f"{2 * k + 1} {2 * k + 2} {2 * k + 3}\n" for k in range(30)),
    # loose_path(3, 50) with the edge {1, 3, 5} (0-based), which closes a cycle
    "path3_50_cycle.hg": "101 3\n" + "".join(f"{2 * k + 1} {2 * k + 2} {2 * k + 3}\n"
                                             for k in range(50)) + "2 4 6\n",
    # the 3-uniform tight path {k, k+1, k+2} on 200 vertices, not a hypertree
    "tight3_200.hg": "200 3\n" + "".join(f"{k + 1} {k + 2} {k + 3}\n" for k in range(198)),
    # the tight 3-cycle on 1,000 vertices less the edge {1, 2, 3}
    "D1000.hg": "1000 3\n" + "".join(f"{k + 1} {(k + 1) % 1000 + 1} {(k + 2) % 1000 + 1}\n"
                                      for k in range(1, 1000)),
    "disjoint.hg": "7 3\n1 2 3\n4 5 6\n",
    "dup.hg": "4 3\n1 2 3\n3 2 1\n2 3 4\n",
    "r62.hg": f"3 {2**62}\n",
    "r63.json": json.dumps({"n": 3, "r": 2**63, "edges": []}),
    "r60.hg": f"3 {2**60}\n",
    "r1e7.hg": "3 10000000\n",
    "r30.hg": f"3 {2**30}\n",
    "r60m1.hg": f"3 {2**60 - 1}\n",
    "bad.hg": "4 3\n1 2 9\n",
    "repeat.hg": "4 3\n1 2 3\n2 4 2\n",
    "arity.hg": "4 3\n1 2 3\n1 2\n",
    "n0.hg": "0 3\n",
    "r1.hg": "3 1\n",
    "n0.json": json.dumps({"n": 0, "r": 3, "edges": []}),
}

#: Directories for ``verify``: name -> the files above that it holds.
CORPORA = {
    "corpus_path3_2": ["path3_2.hg"],
    "corpus_path3_30": ["path3_30.hg"],
    "corpus_mixed": ["path3_2.hg", "disjoint.hg", "dup.hg"],
}

#: The edge cases; ``{f}`` stands for the directory of the files above.
EDGE_CASES = [
    # a solve that does not converge
    "spectrum --gen loose_path:3,2 --max-iter 1",
    "bound --gen loose_path:3,2 --max-iter 1",
    "blowup --gen loose_path:3,2 --verify --max-iter 1",
    "verify {f}/corpus_path3_2 --max-iter 1",
    "blowup --gen loose_path:3,30 --verify --max-iter 5",
    "blowup --gen loose_path:3,30 --verify --max-iter 5 --json",
    "verify {f}/corpus_path3_30 --max-iter 5",
    "verify {f}/corpus_path3_30 --max-iter 5 --json",
    # r beyond an edge array, and edgeless inputs with a huge r
    *(f"{command} --in {{f}}/{name}"
      for name in ("r62.hg", "r63.json", "r60.hg", "r1e7.hg", "r30.hg", "r60m1.hg")
      for command in ("spectrum", "bound", "blowup")),
    *(f"spectrum --gen {spec}" for spec in (
        f"single_edge:{2**60}", f"loose_path:{2**60},1", f"random:3,{2**60},0,1")),
    # report formats
    "bound --gen complete:5,3 --csv",
    "bound --gen loose_path:3,2 --csv",
    "bound --gen random:9,3,12,2 --csv",
    "bound --gen complete:4,3",
    # a regular input of large degree, where the bound equals the degree
    "bound --gen complete:70,3",
    "bound --gen complete:70,3 --json",
    "bound --gen random:10,4,8,3 --json",
    # loose tolerances: gaps above the tolerance but within 100 times it,
    # and lifted residuals that grow with it
    "bound --in {f}/D1000.hg --tol 1e-4",
    "bound --gen loose_path:3,40 --tol 1e-2",
    "blowup --gen loose_path:3,40 --verify --tol 1e-4",
    "blowup --gen loose_path:3,40 --verify --tol 1e-2",
    "spectrum --gen complete:5,3",
    # the Newton-Noda finish: by elimination on a hypertree, by conjugate
    # gradient off one
    "spectrum --gen loose_path:3,1000 --json",
    "spectrum --gen loose_path:3,1000 --kind q --json",
    "spectrum --in {f}/path3_50_cycle.hg --json",
    "spectrum --in {f}/path3_50_cycle.hg --kind q --json",
    "spectrum --in {f}/tight3_200.hg --json",
    "spectrum --in {f}/tight3_200.hg --kind q --json",
    "spectrum --gen loose_path:3,3 --kind q --json",
    "spectrum --in {f}/disjoint.hg --json",
    "spectrum --in {f}/dup.hg",
    "blowup --gen single_edge:3 --verify",
    "blowup --gen complete:5,3",
    "blowup --gen random:10,4,8,3 --verify --json",
    "verify",
    "verify {f}/corpus_mixed --json",
    # input errors and capacity
    "spectrum --gen nope:1",
    "spectrum --in {f}/bad.hg",
    "spectrum --in {f}/repeat.hg",
    "spectrum --in {f}/arity.hg",
    "spectrum --in {f}/n0.hg",
    "spectrum --in {f}/r1.hg",
    "spectrum --in {f}/n0.json",
    "spectrum --gen single_edge:1",
    "spectrum --gen complete:5,1",
    "spectrum --in {f}/missing.hg",
    "blowup --gen loose_path:3,10000",
]


def run(main, argv: list[str], work: str) -> str:
    """One listing line for ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except SystemExit as exc:
            code = f"exit:{exc.code}"
        except Exception as exc:  # an escaped exception is a finding too
            code = f"raised:{type(exc).__name__}"
    stdout = re.sub(r"^elapsed .*$", "elapsed <masked>", out.getvalue(), flags=re.M)
    digests = (hashlib.sha256(text.replace(work, "<work>").encode()).hexdigest()[:16]
               for text in (stdout, err.getvalue()))
    return f"{code:>4} {' '.join(digests)} {' '.join(argv).replace(work, '<work>')}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src and perfbench are used")
    parser.add_argument("--seed", type=int, default=3, help="workload seed")
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    from hyperspec.cli import main as cli_main
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        work = str(Path(tmp).resolve())
        for name, text in FILES.items():
            Path(work, name).write_text(text)
        for corpus, names in CORPORA.items():
            Path(work, corpus).mkdir()
            for name in names:
                Path(work, corpus, name).write_text(FILES[name])
        for name, workload in WORKLOADS.items():
            folder = Path(work, name)
            folder.mkdir()
            for argv in workload(folder, args.seed).commands:
                print(run(cli_main, argv, work), flush=True)
        for case in EDGE_CASES:
            print(run(cli_main, case.format(f=work).split(), work), flush=True)


if __name__ == "__main__":
    main()
