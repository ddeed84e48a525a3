"""Correctness gate for every output the benchmark produces.

Three kinds of evidence, strongest first:

- the brute-force oracle (``troptherm.bruteforce``) for Q, the Aubry set
  and the critical classes of ``gen`` systems;
- closed forms for the doubling model with potential cos(2πt): Q = 1,
  maximizing cycle [0, 0], Aubry set (0,), one critical class, and the
  bracket Q <= pressure/beta <= Q + log N / beta on every sweep row;
- reference values recorded at the seed commit (``reference.json``),
  compared within the README's 1e-9.  LDP residuals are recomputed from
  the recorded equilibrium states and rate function, so the probe
  vectors of any seed can be checked.

Every check raises ``CheckError`` with a message naming the first
mismatch.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

TOL = 1e-9
GRID = (10.0, 100.0, 1000.0)
PROBE_COUNT = 10
PROBE_RANGE = (-5.0, 5.0)
SWEEP_HEADER = ["beta", "pressure_over_beta", "d_u", "d_b", "d_g", "d_D"] + [
    f"ldp_residual_{k}" for k in range(PROBE_COUNT)
]


class CheckError(Exception):
    """An output of the program is wrong."""


def _num(x) -> float:
    """A JSON number or one of the "-inf" / "+inf" sentinels as a float."""
    if isinstance(x, str) and x not in ("-inf", "+inf"):
        raise CheckError(f"not a number or infinity sentinel: {x!r}")
    return float(x)


def expect_close(label: str, got, want, tol: float = TOL) -> None:
    g, w = _num(got), _num(want)
    if math.isinf(w) or math.isnan(w):
        ok = g == w or (math.isnan(g) and math.isnan(w))
    else:
        ok = abs(g - w) <= tol
    if not ok:
        raise CheckError(f"{label}: got {g!r}, want {w!r} (tol {tol:g})")


def expect_vec(label: str, got: Sequence, want: Sequence, tol: float = TOL) -> None:
    if len(got) != len(want):
        raise CheckError(f"{label}: length {len(got)}, want {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        expect_close(f"{label}[{i}]", g, w, tol)


def expect_equal(label: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{label}: got {got!r}, want {want!r}")


def oracle(system) -> Tuple[float, Tuple[int, ...], List[Tuple[int, ...]]]:
    """Q, the Aubry set and the critical classes by exhaustive enumeration.

    Two Aubry states share a critical class iff the best round trip
    through both weighs 0.
    """
    from troptherm.bruteforce import enum_aubry, enum_mane, enum_max_cycle_mean

    q = enum_max_cycle_mean(system)
    phi = enum_mane(system, q, horizon=2 * system.n)
    aubry = enum_aubry(phi, tol=TOL)
    classes: List[Tuple[int, ...]] = []
    for x in aubry:
        if any(x in cls for cls in classes):
            continue
        classes.append(tuple(y for y in aubry if abs(phi[x][y] + phi[y][x]) <= TOL))
    return q, aubry, classes


def check_analyze_tropical(report: dict, q: float, aubry, classes) -> None:
    """Q, Aubry set and classes of an `analyze` report against known values."""
    expect_close("Q", report["Q"], q)
    expect_equal("aubry", report["mane"]["aubry"], list(aubry))
    expect_equal("critical_classes", report["mane"]["critical_classes"], [list(c) for c in classes])
    expect_equal("uniquely_calibrated", report["uniquely_calibrated"], len(classes) == 1)


def check_analyze_doubling(report: dict, system: dict, ref: dict) -> None:
    """Closed form of the cos(2πt) doubling model plus recorded Mañé data."""
    n = system["n"]
    check_analyze_tropical(report, 1.0, (0,), [(0,)])
    expect_equal("maximizing_cycle", report["maximizing_cycle"], [0, 0])
    norm = report["normalized_system"]
    expect_equal("normalized n", norm["n"], n)
    expect_equal("normalized arc count", len(norm["arcs"]), len(system["arcs"]))
    for (s, t, w), (s2, t2, w2) in zip(system["arcs"], norm["arcs"]):
        expect_equal("normalized arc", (s2, t2), (s, t))
        expect_close(f"normalized weight {s}->{t}", w2, w - 1.0)
    phi = [[_num(x) for x in row] for row in report["mane"]["phi"]]
    if len(phi) != n or any(len(row) != n for row in phi):
        raise CheckError(f"phi is not {n} x {n}")
    finite = np.isfinite(np.array(phi))
    grid = np.where(finite, np.array(phi), 0.0)
    expect_equal("phi -inf count", int(n * n - finite.sum()), ref["phi_neg_inf"])
    expect_vec("phi row sums", grid.sum(axis=1).tolist(), ref["phi_row_sums"], n * TOL)
    expect_vec("phi column sums", grid.sum(axis=0).tolist(), ref["phi_col_sums"], n * TOL)
    expect_equal("eigenfunction count", len(report["eigenfunction_basis"]), 1)
    expect_equal("eigen-density count", len(report["eigen_density_basis"]), 1)
    expect_vec("eigenfunction", report["eigenfunction_basis"][0], ref["eigenfunction"])
    expect_vec("eigen-density", report["eigen_density_basis"][0], ref["eigen_density"])


def probes(n: int, seed: int) -> List[np.ndarray]:
    """The CLI's seeded LDP probe vectors: uniform on [-5, 5], drawn in order."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(*PROBE_RANGE, n) for _ in range(PROBE_COUNT)]


def ldp_residual(log_mu: Sequence[float], rate: Sequence[float], f: np.ndarray, beta: float) -> float:
    """|(1/beta) log sum e^{beta f} mu  -  max (f - I)| from recorded log mu and I."""
    a = beta * f + np.asarray(log_mu, dtype=float)
    top = float(a.max())
    moment = (top + math.log(float(np.exp(a - top).sum()))) / beta
    return abs(moment - float(np.max(f - np.array([_num(x) for x in rate]))))


def check_sweep(text: str, q: float, max_in_degree: int, probe_seed: int, ref: dict) -> None:
    """Sweep CSV: grid, pressure bracket, recorded diagnostics, LDP residuals."""
    rows = list(csv.reader(io.StringIO(text)))
    expect_equal("sweep header", rows[0] if rows else None, SWEEP_HEADER)
    body = [[float(x) for x in row] for row in rows[1:]]
    expect_equal("sweep betas", [row[0] for row in body], list(GRID))
    fs = probes(len(ref["rate"]), probe_seed)
    for row, want, log_mu in zip(body, ref["sweep_rows"], ref["sweep_log_mu"]):
        beta, pob = row[0], row[1]
        hi = q + math.log(max_in_degree) / beta
        if not (q - TOL <= pob <= hi + TOL):
            raise CheckError(f"beta {beta:g}: pressure/beta {pob!r} outside [{q!r}, {hi!r}]")
        expect_vec(f"beta {beta:g} columns", row[1:6], want[1:6])
        for k, f in enumerate(fs):
            expect_close(f"beta {beta:g} ldp_residual_{k}", row[6 + k], ldp_residual(log_mu, ref["rate"], f, beta))


def max_in_degree(system: dict) -> int:
    indeg: Dict[int, int] = {}
    for _s, t, _w in system["arcs"]:
        indeg[t] = indeg.get(t, 0) + 1
    return max(indeg.values())
