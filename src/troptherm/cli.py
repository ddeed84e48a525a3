"""Batch command-line surface.

Subcommands: analyze (ergodic report as JSON), sweep (beta sweep with
limit diagnostics and LDP residuals as CSV), ldp (rate function and
residuals for supplied or seeded observables), gen (random fixtures:
strongly connected by default; --deterministic draws a random
permutation, which usually has several cycles), oracle (brute-force
cross-check of the fast path).

Exit codes: 0 ok, 2 invalid input, 3 assumption violation under
--strict, 4 refusal on multiple critical classes, 5 oracle mismatch.
All output is deterministic byte-for-byte given the input bytes and
flags; CSV uses '.' decimals, '\\n' line endings and 17 significant
digits. JSON is streamed to the output by one writer whose bytes equal
json.dumps(payload, indent=2, default=floats_to_json) followed by a
newline. json's own encoder writes every scalar, and a float64 array
(phi) has each distinct float formatted once.

Start-up loads only the tropical side (dynamics, ergodic_opt and what
they import); sweep and ldp load the Ruelle side (thermo, zerotemp) and
oracle loads bruteforce when they run. numpy loads with OpenBLAS's idle
spin shortened (OPENBLAS_THREAD_TIMEOUT=4) unless the variable is set;
os.environ is restored right after.

A process exits through entry(), the console script's target and what
`python -m troptherm.cli` runs: it moves every object start-up made
(about 21,000, the interpreter's, numpy's and troptherm's) into the
collector's permanent generation with gc.freeze(), then exits with
main's code through sys.exit, so stdout is flushed and atexit handlers
run as before. The collector then never scans those objects again,
during the run or in the interpreter's exit-time collection. main()
itself leaves the collector alone: tests, tests/corpus.py and the
benchmark's traced pass call it inside a longer-lived process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys as _sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator, List, Optional, Sequence

# OpenBLAS reads this once, when numpy loads it: how long (2**k cycles) an
# idle worker thread spins before it sleeps. The default, 28, lets a worker
# that shares the main thread's CPU take it for a large part of start-up.
# A short spin changes no result (the thread count stays), a value the user
# set is kept, and the environment is restored once numpy has loaded.
_BLAS_SPIN = "OPENBLAS_THREAD_TIMEOUT"
_blas_spin_unset = _BLAS_SPIN not in os.environ
if _blas_spin_unset:
    os.environ[_BLAS_SPIN] = "4"
try:
    import numpy as np

    from .dynamics import TransitionSystem, from_map, system_from_json, system_to_json
    from .ergodic_opt import ergodic_report, report_to_json
    from .maxplus_linalg import DEFAULT_TOL, ConvergenceError, MultiClassError, check_tol, strongly_connected
    from .tropical_core import floats_to_json, sup_distance
finally:
    if _blas_spin_unset:
        os.environ.pop(_BLAS_SPIN, None)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ASSUMPTION = 3
EXIT_MULTICLASS = 4
EXIT_ORACLE = 5

GEN_N_MIN, GEN_N_MAX = 2, 12
ORACLE_N_MAX = 10
PROBE_COUNT = 10
WEIGHT_RANGE = (-5, 5)
ECHO_MAX = 60
GEN_TABLE_BLOCK = 4096


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_text(path: Optional[str], pieces: Iterable[str]) -> None:
    if path is None:
        _sys.stdout.writelines(pieces)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(pieces)


def _array_rows(a: np.ndarray) -> List[List[str]]:
    """json's text for each cell of a 2-d float64 array, row by row.

    Each distinct int64 bit pattern (0.0 and -0.0 stay apart) is passed
    through floats_to_json and encoded once, by one json.dumps call;
    json escapes every newline inside a string, so a bare newline
    separates the texts. Any other array is refused as json.dumps would.
    """
    if a.dtype != np.float64 or a.ndim != 2:
        raise TypeError(f"Object of type ndarray ({a.ndim}-d {a.dtype}) is not JSON serializable")
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    texts = json.dumps(floats_to_json(bits.view(np.float64)), separators=("\n", ": "))[1:-1].split("\n")
    return np.array(texts, dtype=object)[inverse.reshape(a.shape)].tolist()


def _json_pieces(obj, depth: int = 0) -> Iterator[str]:
    """The text of json.dumps(obj, indent=2, default=floats_to_json), piece by piece.

    A list of scalars goes out as one piece, and a 2-d float64 array
    (phi) one row per piece.
    """
    inner, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if isinstance(obj, np.ndarray):
        rows, row_inner, sep = _array_rows(obj), inner + "  ", "[" + inner
        for row in rows:
            yield sep + ("[" + row_inner + ("," + row_inner).join(row) + inner + "]" if row else "[]")
            sep = "," + inner
        yield close + "]" if rows else "[]"
        return
    if not isinstance(obj, (list, tuple, dict)) or not obj:  # a scalar, [] or {}
        yield json.dumps(obj)
        return
    if isinstance(obj, dict):
        sep = "{" + inner
        for key, value in obj.items():
            yield sep + _json_str(key) + ": "
            yield from _json_pieces(value, depth + 1)
            sep = "," + inner
        yield close + "}"
        return
    if not any(isinstance(item, (list, tuple, dict, np.ndarray)) for item in obj):
        yield "[" + inner + json.dumps(obj, separators=("," + inner, ": "))[1:-1] + close + "]"
        return
    sep = "[" + inner
    for item in obj:
        yield sep
        yield from _json_pieces(item, depth + 1)
        sep = "," + inner
    yield close + "]"


def _write_json(path: Optional[str], payload) -> None:
    _write_text(path, chain(_json_pieces(payload), ["\n"]))


def _load_system(path: str) -> TransitionSystem:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return system_from_json(data)


def _grid_arg(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: expected comma-separated reals")


def _seed_arg(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text!r}")
    return seed


def _probes(n: int, seed: int) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    lo, hi = WEIGHT_RANGE
    return [rng.uniform(lo, hi, n) for _ in range(PROBE_COUNT)]


def _echo(raw: str) -> str:
    """repr of a command-line value, clipped so an error line stays short."""
    text = repr(raw)
    return text if len(text) <= ECHO_MAX else text[:ECHO_MAX] + "..."


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=_sys.stderr)
    return code


def cmd_analyze(args: argparse.Namespace) -> int:
    sys_ = _load_system(args.input)
    if args.strict and not sys_.surjective_like:
        return _fail(EXIT_ASSUMPTION, "system is not surjective-like: some state has no incoming arc")
    report = ergodic_report(sys_, tol=args.tol)
    _write_json(args.output, report_to_json(report))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    from .zerotemp import DEFAULT_GRID, beta_sweep, check_sweep_grid, ldp_residual, limit_diagnostics, rate_function

    grid = DEFAULT_GRID if args.grid is None else args.grid
    check_sweep_grid(grid)  # before the input is read, --force or not
    sys_ = _load_system(args.input)
    report = ergodic_report(sys_, tol=args.tol)
    if not report.uniquely_calibrated and not args.force:
        return _fail(
            EXIT_MULTICLASS,
            f"{len(report.critical_classes)} critical classes "
            f"{report.critical_classes}; pass --force to sweep without diagnostics",
        )

    records = beta_sweep(sys_, grid, report=report)
    if report.uniquely_calibrated:
        diag = limit_diagnostics(records)
        rate = rate_function(sys_, report=report)
        probes = _probes(sys_.n, args.seed)
        tails = []
        for rec, row in zip(records, diag.rows):
            resid = [ldp_residual(f, rate=rate, spectral=rec.spectral) for f in probes]
            tails.append([row.d_u, row.d_b, row.d_g, row.d_D, *resid])
    else:
        # --force on several classes: each solve starts from one class's
        # limit, and with no single limit to compare against, the
        # diagnostics and residuals go out as nan
        tails = [[math.nan] * (4 + PROBE_COUNT)] * len(records)

    header = ["beta", "pressure_over_beta", "d_u", "d_b", "d_g", "d_D"]
    header += [f"ldp_residual_{k}" for k in range(PROBE_COUNT)]
    lines = [",".join(header)]
    for rec, tail in zip(records, tails):
        lines.append(",".join(map(_fmt, [rec.beta, rec.pressure_over_beta, *tail])))
    _write_text(args.output, ["\n".join(lines) + "\n"])
    return EXIT_OK


def cmd_ldp(args: argparse.Namespace) -> int:
    from . import thermo
    from .zerotemp import DEFAULT_GRID, check_betas, ldp_residual, rate_function

    grid = DEFAULT_GRID if args.grid is None else args.grid
    check_betas(grid)  # in any order
    sys_ = _load_system(args.input)
    report = ergodic_report(sys_, tol=args.tol)
    rate = rate_function(sys_, report=report)

    if args.observables:
        observables = []
        for raw in args.observables:
            try:
                vec = json.loads(raw)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"bad observable {_echo(raw)}: {exc}") from None
            if (
                not isinstance(vec, list)
                or len(vec) != sys_.n
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in vec)
            ):
                raise ValueError(f"observable must be a JSON array of {sys_.n} numbers: {_echo(raw)}")
            try:
                observables.append(np.array(vec, dtype=float))
            except OverflowError:  # an integer beyond float range
                raise ValueError(f"observable must be finite: {_echo(raw)}") from None
    else:
        observables = _probes(sys_.n, args.seed)

    residuals = []
    for beta in grid:
        spectral = thermo.spectral_data(sys_, beta, report=report)
        values = [ldp_residual(f, rate=rate, spectral=spectral) for f in observables]
        residuals.append({"beta": beta, "values": values})

    payload = {
        "rate_function": rate.to_json(),
        "grid": list(grid),
        "observables": [list(map(float, f)) for f in observables],
        "residuals": residuals,
    }
    _write_json(args.output, payload)
    return EXIT_OK


def _gen_system(seed: int, n: Optional[int], deterministic: bool) -> TransitionSystem:
    rng = np.random.default_rng(seed)
    lo, hi = WEIGHT_RANGE
    if n is None:
        n = int(rng.integers(GEN_N_MIN, GEN_N_MAX + 1))
    if deterministic:
        # functional graph; surjectivity of a finite self-map forces a
        # permutation: the first table drawn that is one. Tables are drawn
        # a block at a time, then the generator is rewound and draws up to
        # that table again, which leaves it where one-at-a-time draws would
        while True:
            state = rng.bit_generator.state
            block = rng.integers(0, n, size=(GEN_TABLE_BLOCK, n))
            hits = np.flatnonzero((np.sort(block, axis=1) == np.arange(n)).all(axis=1))
            if len(hits):
                rng.bit_generator.state = state
                table = rng.integers(0, n, size=(hits[0] + 1, n))[-1]
                break
        weights = [float(rng.integers(lo, hi + 1)) for _ in range(n)]
        return from_map([int(x) for x in table], weights)
    arcs = {}
    while not (arcs and len(strongly_connected(range(n), arcs)) == 1):
        s = int(rng.integers(0, n))
        t = int(rng.integers(0, n))
        if (s, t) in arcs:
            continue
        arcs[(s, t)] = float(rng.integers(lo, hi + 1))
    arc_list = sorted((s, t, w) for (s, t), w in arcs.items())
    return TransitionSystem(n, arc_list)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.n is not None and not (GEN_N_MIN <= args.n <= GEN_N_MAX):
        raise ValueError(f"--n must lie in [{GEN_N_MIN}, {GEN_N_MAX}]")
    sys_ = _gen_system(args.seed, args.n, args.deterministic)
    _write_json(args.output, system_to_json(sys_))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    from .bruteforce import enum_aubry, enum_mane, enum_max_cycle_mean

    sys_ = _load_system(args.input)
    if sys_.n > ORACLE_N_MAX:
        raise ValueError(f"oracle is exhaustive, n capped at {ORACLE_N_MAX}")
    report = ergodic_report(sys_, tol=args.tol)

    q_enum = enum_max_cycle_mean(sys_)
    phi_enum = enum_mane(sys_, q_enum)
    aubry_enum = enum_aubry(phi_enum, tol=args.tol)

    q_dev = abs(report.Q - q_enum)
    phi_dev = sup_distance(report.phi.ravel(), np.ravel(phi_enum))
    aubry_dev = 0.0 if tuple(report.aubry) == tuple(aubry_enum) else math.inf

    ok = q_dev <= args.tol and phi_dev <= args.tol and aubry_dev <= args.tol
    payload = {
        "n": sys_.n,
        "tol": args.tol,
        "Q": {"fast": report.Q, "enum": q_enum, "deviation": floats_to_json(q_dev)},
        "phi": {"max_deviation": floats_to_json(phi_dev)},
        "aubry": {
            "fast": list(report.aubry),
            "enum": list(aubry_enum),
            "deviation": floats_to_json(aubry_dev),
        },
        "ok": ok,
    }
    _write_json(args.output, payload)
    return EXIT_OK if ok else EXIT_ORACLE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troptherm",
        description="Tropical thermodynamic formalism on finite transition systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="output path (default stdout)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("analyze", help="ergodic report for a system JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--strict", action="store_true", help="reject non surjective-like systems")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="beta sweep with limit diagnostics, CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--grid", type=_grid_arg)
    p.add_argument("--seed", type=_seed_arg, default=0, help="seed for the LDP probe vectors")
    p.add_argument("--force", action="store_true", help="sweep multi-class systems without diagnostics")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ldp", help="rate function and LDP residuals")
    p.add_argument("--input", required=True)
    p.add_argument("--grid", type=_grid_arg)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument(
        "observables",
        nargs="*",
        help="observables as JSON arrays, e.g. '[0, 5]'; seeded probes when omitted",
    )
    common(p)
    p.set_defaults(func=cmd_ldp)

    p = sub.add_parser("gen", help="random system, strongly connected unless --deterministic")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--n", type=int, help=f"state count in [{GEN_N_MIN}, {GEN_N_MAX}]")
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="functional-graph flavor: a random permutation, usually of several cycles",
    )
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="brute-force cross-check of the fast path")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # one place maps errors to exit codes: unreadable or invalid input (a
    # command raises ValueError for its own refusals), library refusals such
    # as an acyclic system or a critical graph lost to rounding, an
    # eigenvector solve that hits its step cap, and a system too large for
    # memory all exit 2 with a message
    try:
        if "tol" in args:  # gen takes no tol
            check_tol(args.tol)
        return args.func(args)
    except MultiClassError as exc:
        return _fail(EXIT_MULTICLASS, str(exc))
    except (OSError, ValueError, ConvergenceError) as exc:
        return _fail(EXIT_INPUT, str(exc))
    except MemoryError as exc:  # numpy's names the allocation, a bare one nothing
        return _fail(EXIT_INPUT, f"out of memory: {exc}" if str(exc) else "out of memory")


def entry() -> None:
    """The process entry: freeze what start-up built, then exit with main's code."""
    gc.freeze()
    _sys.exit(main())


if __name__ == "__main__":
    entry()
