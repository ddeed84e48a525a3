"""The standard byte-identity corpus, run through cli.main in one process.

Inputs: gen seeds 0-199 in both flavours (strongly connected and
--deterministic), at the default n and at --n 12, plus the doubling map
discretized at orders 3-9 with the potential cos 2πt; 807 systems. Then
three more, whose records follow the first 4,035: a toy with two
critical classes, a two-cycle of weights ±1e10 beside self-loops, and
a system whose labels hold a newline, quotes, a backslash, U+2028, a
non-ASCII letter and the text of phi's key. Then, after the first
4,050 records, a 3-cycle of weights ±2.5e307 beside a self-loop, whose
closure candidates pass float range. Last, after the first 4,055
records, the doubling map at order 7 with its arcs listed in reverse
order. Last of all, after the first 4,060 records, the transposed
systems A^T (every arc s -> t becomes t -> s, weight kept) of gen seed
1 at --n 12 and of the doubling map at order 5; 814 systems in all.
Commands: analyze, sweep, sweep --force, ldp and oracle on each, 4,070
records.
For every record one line goes to stdout: the sha256 of its argv, exit
code, stdout and stderr, then the exit code and the argv.

The records then run again in reverse order. If any record's bytes
differ, the script names it and exits 1: no state may carry over from
one run to the next. A census of exit codes goes to stderr.

Usage, from the repository root:

    PYTHONPATH=src python tests/corpus.py > corpus.txt

Two trees give the same numbers exactly when their outputs are equal
(diff them on one machine). No digest file is kept: the Ruelle solve
calls LAPACK, whose last bits may depend on the CPU.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from collections import Counter
from typing import List, Tuple

from troptherm import cli
from troptherm.dynamics import discretize_doubling, system_to_json

GEN_SEEDS = range(200)
DOUBLING_ORDERS = range(3, 10)
COMMANDS = (["analyze"], ["sweep"], ["sweep", "--force"], ["ldp"], ["oracle"])
EXTRA_SYSTEMS = {
    "two-classes.json": {"n": 2, "arcs": [[0, 0, 0.0], [1, 1, 0.0], [0, 1, -1.0], [1, 0, -2.0]]},
    "two-cycle-1e10.json": {"n": 2, "arcs": [[0, 1, 1e10], [1, 0, -1e10], [0, 0, 0.0], [1, 1, -1.0]]},
    "labelled.json": {
        "n": 2,
        "arcs": [[0, 1, -1.0], [1, 0, 0.5], [1, 1, 0.0]],
        "labels": ["a\nb\"c\\", '\u2028é "phi": ['],
    },
    "three-cycle-2.5e307.json": {
        "n": 3,
        "arcs": [[0, 0, 2.5e307], [0, 1, -2.5e307], [1, 2, -2.5e307], [2, 0, -2.5e307]],
    },
}


def _run(argv: List[str]) -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _digest(argv: List[str], code: int, out: str, err: str) -> str:
    h = hashlib.sha256()
    for part in (json.dumps(argv), str(code), out, err):
        h.update(part.encode("utf-8", "surrogatepass"))
        h.update(b"\0")
    return h.hexdigest()


def build_inputs() -> List[str]:
    """Write the corpus systems into the working directory; their names."""
    names = []
    for seed in GEN_SEEDS:
        for flavour in ([], ["--deterministic"]):
            for size in ([], ["--n", "12"]):
                name = f"gen-{seed}{'-det' if flavour else ''}{'-n12' if size else ''}.json"
                code, _, err = _run(["gen", "--seed", str(seed), *flavour, *size, "--output", name])
                if code != 0:
                    raise SystemExit(f"gen failed for {name}: {err}")
                names.append(name)
    doubling = {
        f"doubling-{order}.json": system_to_json(discretize_doubling(order, lambda t: math.cos(2 * math.pi * t)))
        for order in DOUBLING_ORDERS
    }
    reversed_arcs = {**doubling["doubling-7.json"]}
    reversed_arcs["arcs"] = reversed_arcs["arcs"][::-1]
    with open("gen-1-n12.json") as fh:
        transposed = {"gen-1-n12-transposed.json": json.load(fh)}
    transposed["doubling-5-transposed.json"] = {**doubling["doubling-5.json"]}
    for data in transposed.values():  # A^T: every arc turned round
        data["arcs"] = [[t, s, w] for s, t, w in data["arcs"]]
    for name, data in {**doubling, **EXTRA_SYSTEMS, "doubling-7-reversed.json": reversed_arcs, **transposed}.items():
        with open(name, "w") as fh:
            json.dump(data, fh)
        names.append(name)
    return names


def main() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative paths keep argv and messages the same on every run
        try:
            records = [cmd + ["--input", name] for name in build_inputs() for cmd in COMMANDS]
            first = {}
            for argv in records:
                code, out, err = _run(argv)
                first[tuple(argv)] = (_digest(argv, code, out, err), code)
                print(f"{first[tuple(argv)][0]} {code} {' '.join(argv)}")
            for argv in reversed(records):
                code, out, err = _run(argv)
                if (_digest(argv, code, out, err), code) != first[tuple(argv)]:
                    print(f"error: {' '.join(argv)} differs when run in reverse order", file=sys.stderr)
                    return 1
        finally:
            os.chdir(cwd)
    census = Counter(code for _, code in first.values())
    summary = ", ".join(f"exit {code}: {count}" for code, count in sorted(census.items()))
    print(f"{len(records)} records, the same in reverse order; {summary}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
