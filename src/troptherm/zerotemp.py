"""Zero-temperature limits: beta sweeps, rate functions, limit diagnostics.

Everything here compares positive-temperature spectral data, rescaled by
1/beta, against the tropical objects it converges to, all read off an
ergodic report that check_report pairs with the system. Every Ruelle
solve here goes through sweep_record, which hands spectral_data the
report. Scalings are fixed once per run: scaled log u is pinned to 0 at
the reference state (the lowest-index Aubry state), scaled log m has
sup 0, and the normalized potential is divided by beta arc by arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .dynamics import TransitionSystem
from .ergodic_opt import ErgodicReport, check_report
from .maxplus_linalg import MultiClassError
from .thermo import SpectralData, check_beta, log_moment, normalized_potential, spectral_data
from .tropical_core import array_mul, array_sup, floats_to_json, trop_vector
from .tropical_measures import Density

DEFAULT_GRID = (10.0, 100.0, 1000.0)
DIVERGENCE_FLOOR = -10.0


@dataclass
class SweepRecord:
    """Rescaled spectral data at one inverse temperature."""

    beta: float
    pressure_over_beta: float
    scaled_log_u: np.ndarray
    scaled_log_m: np.ndarray
    scaled_g: np.ndarray
    ref_state: int
    spectral: SpectralData


@dataclass
class RateFunction:
    """Large-deviation rate I = -(v + b), entries in [0, +inf], read off
    the pair it is built from.

    v is the calibrated subaction and b the eigen-density, jointly
    normalized so that sup b = 0 and sup(v + b) = 0; the minimum of I
    is then 0 and is attained on the support of the maximizing measure.
    """

    eigenfunction: np.ndarray
    density: Density

    @property
    def values(self) -> np.ndarray:
        # + 0.0 turns the -0.0 produced by negating a zero into 0.0
        return -array_mul(self.eigenfunction, self.density.values) + 0.0

    def to_json(self) -> dict:
        return {
            "values": floats_to_json(self.values),
            "eigenfunction": floats_to_json(self.eigenfunction),
            "density": self.density.to_json(),
        }


@dataclass
class DiagnosticsRow:
    d_u: float
    d_b: float
    d_g: float
    d_D: float


@dataclass
class LimitDiagnostics:
    rows: List[DiagnosticsRow]
    divergence_ok: bool


def check_betas(grid: Sequence[float]) -> Tuple[float, ...]:
    """The grid as floats; ValueError when it is empty or holds a beta
    that check_beta refuses."""
    grid = tuple(float(b) for b in grid)
    if not grid:
        raise ValueError("empty beta grid")
    for b in grid:
        check_beta(b)
    return grid


def check_sweep_grid(grid: Sequence[float]) -> Tuple[float, ...]:
    """check_betas, and the grid must be strictly increasing, as a
    sweep walks it."""
    grid = check_betas(grid)
    if any(b1 >= b2 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("beta grid must be strictly increasing")
    return grid


def sweep_record(sys: TransitionSystem, beta: float, report: ErgodicReport) -> SweepRecord:
    """One rescaled spectral record: the Ruelle solve at beta, given the
    report of sys, pinned to the report's lowest-index Aubry state.

    (1/beta) log u and (1/beta) log m of the solve at beta tend to the
    calibrated sub-action v and the eigen-density b, so spectral_data
    starts from beta * v and beta * b, near the answer at every beta, and
    shifts by the report's Q. v and b are the report's first basis pair;
    on several critical classes that pair is one class's limit.
    """
    ref = min(report.aubry)
    data = spectral_data(sys, beta, report=report)
    slu = data.log_u / beta
    slu = slu - slu[ref]
    slm = data.log_m / beta
    slm = slm - slm.max()
    g = normalized_potential(sys, data) / beta
    return SweepRecord(
        beta=beta,
        pressure_over_beta=data.pressure / beta,
        scaled_log_u=slu,
        scaled_log_m=slm,
        scaled_g=g,
        ref_state=ref,
        spectral=data,
    )


def beta_sweep(
    sys: TransitionSystem, grid: Sequence[float] = DEFAULT_GRID, *, report: ErgodicReport
) -> List[SweepRecord]:
    """sweep_record at each point of an increasing beta grid, so every
    beta depends only on the report."""
    grid = check_sweep_grid(grid)
    return [sweep_record(sys, beta, report) for beta in grid]


def rate_function(sys: TransitionSystem, *, report: ErgodicReport) -> RateFunction:
    check_report(sys, report)
    if not report.uniquely_calibrated:
        raise MultiClassError(report.critical_classes)
    b0 = report.eigen_density_basis[0].values
    b_al = b0 - array_sup(b0)
    v0 = report.eigenfunction_basis[0]
    v_al = v0 - array_sup(array_mul(v0, b_al))
    return RateFunction(eigenfunction=trop_vector(v_al), density=Density(b_al))


def ldp_residual(f: Sequence[float], *, rate: RateFunction, spectral: SpectralData) -> float:
    """|(1/beta) log integral of e^{beta f} d mu  -  sup_x (f - I)(x)|, where
    mu is the equilibrium state of the solve spectral and beta its
    inverse temperature.

    The moment is taken against the log-space equilibrium state; linear
    masses underflow at the betas where the comparison is interesting.
    spectral is sweep_record's solve in the CLI, so the residual equals
    the matching cell of a sweep and one solve serves every observable
    at that beta. The state count is the rate function's.
    """
    f = np.asarray(f, dtype=float)
    values = rate.values
    if len(f) != len(values):
        raise ValueError(f"length mismatch: system {len(values)}, observable {len(f)}")
    if not np.all(np.isfinite(f)):
        raise ValueError("observable must be finite")
    moment = log_moment(spectral.log_mu, f, spectral.beta)
    sup_term = float(np.max(f - values))
    return abs(moment - sup_term)


def limit_diagnostics(
    sys: TransitionSystem, records: Sequence[SweepRecord], *, report: ErgodicReport
) -> LimitDiagnostics:
    """Distances from rescaled spectral data to its tropical limit.

    d_u: sup distance from scaled log u to the calibrated subaction.
    d_b: sup distance from scaled log m to the eigen-density, over the
         states where the density is finite.
    d_g: sup distance, over arcs, from the scaled normalized potential to
         the calibrated arc weight  w - Q + v(source) - v(target).
    d_D: residual of the exact limit identity for b-hat = v + b: sup over
         states y of |max over arcs y -> x of (b-hat(x) + scaled_g) - b-hat(y)|.

    States where the density is -inf are checked for divergence instead
    of distance: scaled log m must decrease strictly along the grid and
    end below DIVERGENCE_FLOOR.
    """
    check_report(sys, report)
    if not records:
        raise ValueError("empty sweep")
    if not report.uniquely_calibrated:
        raise MultiClassError(report.critical_classes)
    ref = min(report.aubry)
    for rec in records:
        if rec.ref_state != ref:
            raise ValueError(
                f"sweep reference state {rec.ref_state} does not match the report's {ref}"
            )

    v0 = report.eigenfunction_basis[0]
    v_f = v0 - v0[ref]
    b0 = report.eigen_density_basis[0].values
    b_f = b0 - array_sup(b0)
    finite_b = np.isfinite(b_f)

    arc_src, arc_tgt, arc_w = sys.arc_arrays
    a_hat = arc_w - report.Q + v_f[arc_src] - v_f[arc_tgt]
    bhat = v_f + b_f
    # states where d_D compares: finite b-hat and at least one outgoing arc
    checked = np.isfinite(bhat) & (np.bincount(arc_src, minlength=sys.n) > 0)

    rows: List[DiagnosticsRow] = []
    for rec in records:
        d_u = float(np.max(np.abs(rec.scaled_log_u - v_f)))
        d_b = float(np.max(np.abs(rec.scaled_log_m[finite_b] - b_f[finite_b])))
        d_g = float(np.max(np.abs(rec.scaled_g - a_hat)))
        best = np.full(sys.n, -math.inf)
        np.maximum.at(best, arc_src, bhat[arc_tgt] + rec.scaled_g)
        d_d = float(np.max(np.abs(best[checked] - bhat[checked]), initial=0.0))
        rows.append(DiagnosticsRow(d_u=d_u, d_b=d_b, d_g=d_g, d_D=d_d))

    divergence_ok = True
    for x in np.nonzero(~finite_b)[0]:
        series = [rec.scaled_log_m[x] for rec in records]
        decreasing = all(s2 < s1 for s1, s2 in zip(series, series[1:]))
        if not (decreasing and series[-1] < DIVERGENCE_FLOOR):
            divergence_ok = False
    return LimitDiagnostics(rows=rows, divergence_ok=divergence_ok)
