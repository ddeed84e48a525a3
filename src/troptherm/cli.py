"""Batch command-line surface.

Subcommands: analyze (ergodic report as JSON), sweep (beta sweep with
limit diagnostics and LDP residuals as CSV), ldp (rate function and
residuals for supplied or seeded observables), gen (random irreducible
fixtures), oracle (brute-force cross-check of the fast path).

Exit codes: 0 ok, 2 invalid input, 3 assumption violation under
--strict, 4 refusal on multiple critical classes, 5 oracle mismatch.
All output is deterministic byte-for-byte given the input bytes and
flags; CSV uses '.' decimals, '\\n' line endings and 17 significant
digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from typing import List, Optional, Sequence

import numpy as np

from .bruteforce import enum_aubry, enum_mane, enum_max_cycle_mean
from .dynamics import (
    SystemValidationError,
    TransitionSystem,
    from_map,
    system_from_json,
    system_to_json,
)
from .ergodic_opt import ergodic_report, report_to_json
from .maxplus_linalg import DEFAULT_TOL
from .thermo import ConvergenceError
from .zerotemp import (
    DEFAULT_GRID,
    MultiClassError,
    beta_sweep,
    ldp_residual,
    limit_diagnostics,
    rate_function,
    seeded_spectral_data,
    sweep_record,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ASSUMPTION = 3
EXIT_MULTICLASS = 4
EXIT_ORACLE = 5

GEN_N_MIN, GEN_N_MAX = 2, 12
ORACLE_N_MAX = 10
PROBE_COUNT = 10
WEIGHT_RANGE = (-5, 5)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        _sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _write_json(path: Optional[str], payload) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _load_system(path: str) -> TransitionSystem:
    with open(path) as fh:
        data = json.load(fh)
    return system_from_json(data)


def _grid_arg(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: expected comma-separated reals")


def _probes(n: int, seed: int, count: int = PROBE_COUNT) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    lo, hi = WEIGHT_RANGE
    return [rng.uniform(lo, hi, n) for _ in range(count)]


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=_sys.stderr)
    return code


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.format != "json":
        return _fail(EXIT_INPUT, "analyze emits JSON only")
    sys_ = _load_system(args.input)
    if args.strict and not sys_.surjective_like:
        return _fail(EXIT_ASSUMPTION, "system is not surjective-like: some state has no incoming arc")
    report = ergodic_report(sys_, tol=args.tol)
    _write_json(args.output, report_to_json(report))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.format != "csv":
        return _fail(EXIT_INPUT, "sweep emits CSV only")
    sys_ = _load_system(args.input)
    report = ergodic_report(sys_, tol=args.tol)
    if not report.uniquely_calibrated and not args.force:
        return _fail(
            EXIT_MULTICLASS,
            f"{len(report.mane.critical_classes)} critical classes "
            f"{report.mane.critical_classes}; pass --force to sweep without diagnostics",
        )

    probes = _probes(sys_.n, args.seed)
    if report.uniquely_calibrated:
        records = beta_sweep(sys_, args.grid, report=report)
        diag = limit_diagnostics(sys_, records, report=report)
        rate = rate_function(sys_, report=report, tol=args.tol)
        rows = []
        for rec, drow in zip(records, diag.rows):
            resid = [
                ldp_residual(sys_, f, rec.beta, rate=rate, spectral=rec.spectral)
                for f in probes
            ]
            rows.append(
                (rec.beta, rec.pressure_over_beta, drow.d_u, drow.d_b, drow.d_g, drow.d_D, resid)
            )
    else:
        # --force on multiple classes: no single limit object to compare
        # against, diagnostics columns go out as nan. A row whose solve
        # hits the step cap keeps beta and goes out all-nan instead of
        # pretending the eigendata converged.
        nan = math.nan
        # Each beta after a converged one starts from its rescaled
        # eigenvectors, scaled up to the new beta.
        ref = min(report.mane.aubry)
        rows = []
        prev = None
        for beta in args.grid:
            start_u = start_m = None
            if prev is not None:
                start_u, start_m = prev.scaled_log_u * beta, prev.scaled_log_m * beta
            try:
                rec = sweep_record(
                    sys_, beta, ref, start_log_u=start_u, start_log_m=start_m, q=report.Q
                )
            except ConvergenceError:
                prev = None
                rows.append((beta, nan, nan, nan, nan, nan, [nan] * PROBE_COUNT))
                continue
            prev = rec
            rows.append(
                (beta, rec.pressure_over_beta, nan, nan, nan, nan, [nan] * PROBE_COUNT)
            )

    header = ["beta", "pressure_over_beta", "d_u", "d_b", "d_g", "d_D"]
    header += [f"ldp_residual_{k}" for k in range(PROBE_COUNT)]
    lines = [",".join(header)]
    for beta, pob, d_u, d_b, d_g, d_d, resid in rows:
        cells = [_fmt(beta), _fmt(pob), _fmt(d_u), _fmt(d_b), _fmt(d_g), _fmt(d_d)]
        cells += [_fmt(r) for r in resid]
        lines.append(",".join(cells))
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_ldp(args: argparse.Namespace) -> int:
    if args.format != "json":
        return _fail(EXIT_INPUT, "ldp emits JSON only")
    sys_ = _load_system(args.input)
    report = ergodic_report(sys_, tol=args.tol)
    rate = rate_function(sys_, report=report, tol=args.tol)

    if args.observables:
        observables = []
        for raw in args.observables:
            try:
                vec = json.loads(raw)
            except json.JSONDecodeError as exc:
                return _fail(EXIT_INPUT, f"bad observable {raw!r}: {exc}")
            if (
                not isinstance(vec, list)
                or len(vec) != sys_.n
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in vec)
            ):
                return _fail(
                    EXIT_INPUT,
                    f"observable must be a JSON array of {sys_.n} numbers: {raw!r}",
                )
            try:
                observables.append(np.array(vec, dtype=float))
            except OverflowError:  # an integer beyond float range
                return _fail(EXIT_INPUT, f"observable must be finite: {raw!r}")
    else:
        observables = _probes(sys_.n, args.seed)

    residuals = []
    for beta in args.grid:
        spectral = seeded_spectral_data(sys_, beta, rate, q=report.Q)
        values = [ldp_residual(sys_, f, beta, rate=rate, spectral=spectral) for f in observables]
        residuals.append({"beta": beta, "values": values})

    payload = {
        "rate_function": rate.to_json(),
        "grid": list(args.grid),
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
        # permutation, found by retry
        while True:
            table = rng.integers(0, n, size=n)
            if len(set(int(x) for x in table)) == n:
                break
        weights = [float(rng.integers(lo, hi + 1)) for _ in range(n)]
        return from_map([int(x) for x in table], weights)
    import networkx as nx  # imported here so the other subcommands never load it

    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    arcs = {}
    while not (len(arcs) > 0 and nx.is_strongly_connected(g)):
        s = int(rng.integers(0, n))
        t = int(rng.integers(0, n))
        if (s, t) in arcs:
            continue
        arcs[(s, t)] = float(rng.integers(lo, hi + 1))
        g.add_edge(s, t)
    arc_list = sorted((s, t, w) for (s, t), w in arcs.items())
    return TransitionSystem(n, arc_list)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.format != "json":
        return _fail(EXIT_INPUT, "gen emits JSON only")
    if args.n is not None and not (GEN_N_MIN <= args.n <= GEN_N_MAX):
        return _fail(EXIT_INPUT, f"--n must lie in [{GEN_N_MIN}, {GEN_N_MAX}]")
    sys_ = _gen_system(args.seed, args.n, args.deterministic)
    _write_json(args.output, system_to_json(sys_))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.format != "json":
        return _fail(EXIT_INPUT, "oracle emits JSON only")
    sys_ = _load_system(args.input)
    if sys_.n > ORACLE_N_MAX:
        return _fail(EXIT_INPUT, f"oracle is exhaustive, n capped at {ORACLE_N_MAX}")
    report = ergodic_report(sys_, tol=args.tol)
    q_fast, mane = report.Q, report.mane

    q_enum = enum_max_cycle_mean(sys_)
    phi_enum = enum_mane(sys_, q_enum, horizon=2 * sys_.n)
    aubry_enum = enum_aubry(phi_enum, tol=args.tol)

    q_dev = abs(q_fast - q_enum)
    fast, slow = mane.phi.array, np.array(phi_enum)
    with np.errstate(invalid="ignore"):  # -inf - -inf where both are -inf
        phi_dev = float(np.where(fast == slow, 0.0, np.abs(fast - slow)).max())
    aubry_dev = 0.0 if tuple(mane.aubry) == tuple(aubry_enum) else math.inf

    ok = q_dev <= args.tol and phi_dev <= args.tol and aubry_dev <= args.tol
    payload = {
        "n": sys_.n,
        "tol": args.tol,
        "Q": {"fast": q_fast, "enum": q_enum, "deviation": q_dev},
        "phi": {"max_deviation": phi_dev},
        "aubry": {
            "fast": list(mane.aubry),
            "enum": list(aubry_enum),
            "deviation": aubry_dev,
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

    def common(p: argparse.ArgumentParser, fmt: str) -> None:
        p.add_argument("--output", help="output path (default stdout)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--format", choices=("json", "csv"), default=fmt)

    p = sub.add_parser("analyze", help="ergodic report for a system JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--strict", action="store_true", help="reject non surjective-like systems")
    common(p, "json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="beta sweep with limit diagnostics, CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--grid", type=_grid_arg, default=list(DEFAULT_GRID))
    p.add_argument("--seed", type=int, default=0, help="seed for the LDP probe vectors")
    p.add_argument("--force", action="store_true", help="sweep multi-class systems without diagnostics")
    common(p, "csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ldp", help="rate function and LDP residuals")
    p.add_argument("--input", required=True)
    p.add_argument("--grid", type=_grid_arg, default=list(DEFAULT_GRID))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "observables",
        nargs="*",
        help="observables as JSON arrays, e.g. '[0, 5]'; seeded probes when omitted",
    )
    common(p, "json")
    p.set_defaults(func=cmd_ldp)

    p = sub.add_parser("gen", help="generate a random irreducible system")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, help=f"state count in [{GEN_N_MIN}, {GEN_N_MAX}]")
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="functional-graph flavor (one outgoing arc per state)",
    )
    common(p, "json")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="brute-force cross-check of the fast path")
    p.add_argument("--input", required=True)
    common(p, "json")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # one place maps errors to exit codes: unreadable or invalid input,
    # library refusals such as an acyclic system or a critical graph lost to
    # rounding, and an eigenvector solve that hits its step cap all exit 2
    # with a message
    try:
        return args.func(args)
    except MultiClassError as exc:
        return _fail(EXIT_MULTICLASS, str(exc))
    except (OSError, ValueError, ConvergenceError) as exc:
        return _fail(EXIT_INPUT, str(exc))


if __name__ == "__main__":
    _sys.exit(main())
