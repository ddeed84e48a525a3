"""Zero-temperature limits: beta sweeps, rate functions, limit diagnostics.

Everything here compares positive-temperature spectral data, rescaled by
1/beta, against the tropical objects it converges to, all read off the
ergodic report that a solve (thermo.spectral_data) or a rate function
carries; consumers refuse to mix reports, which compare by identity.
limit_diagnostics rescales each solve by 1/beta where it compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import thermo
from .dynamics import TransitionSystem
from .ergodic_opt import ErgodicReport, check_report
from .maxplus_linalg import MultiClassError
from .thermo import SpectralData, check_beta, log_moment, normalized_potential
from .tropical_core import array_mul, array_sup, floats_to_json, trop_vector
from .tropical_measures import Density

DEFAULT_GRID = (10.0, 100.0, 1000.0)
DIVERGENCE_FLOOR = -10.0


@dataclass
class SweepRecord:
    """The Ruelle solve at one inverse temperature, with its pressure
    divided by beta."""

    beta: float
    pressure_over_beta: float
    spectral: SpectralData


@dataclass
class RateFunction:
    """Large-deviation rate I = -(v + b), entries in [0, +inf], read off
    the pair it is built from, with the ergodic report that pair is from.

    v is the calibrated subaction and b the eigen-density, jointly
    normalized so that sup b = 0 and sup(v + b) = 0; the minimum of I
    is then 0 and is attained on the support of the maximizing measure.
    """

    report: ErgodicReport
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


def beta_sweep(
    sys: TransitionSystem, grid: Sequence[float] = DEFAULT_GRID, *, report: ErgodicReport
) -> List[SweepRecord]:
    """The Ruelle solve at each point of an increasing beta grid, given
    the report of sys, so every beta depends only on the report.

    (1/beta) log u and (1/beta) log m of the solve at beta tend to the
    calibrated sub-action v and the eigen-density b, so spectral_data
    starts from beta * v and beta * b, near the answer at every beta, and
    shifts by the report's Q. v and b are the report's first basis pair;
    on several critical classes that pair is one class's limit.
    """
    grid = check_sweep_grid(grid)
    records = []
    for beta in grid:
        data = thermo.spectral_data(sys, beta, report=report)
        records.append(SweepRecord(beta=beta, pressure_over_beta=data.pressure / beta, spectral=data))
    return records


def rate_function(sys: TransitionSystem, *, report: ErgodicReport) -> RateFunction:
    check_report(sys, report)
    if not report.uniquely_calibrated:
        raise MultiClassError(report.critical_classes)
    b0 = report.eigen_density_basis[0].values
    b_al = b0 - array_sup(b0)
    v0 = report.eigenfunction_basis[0]
    v_al = v0 - array_sup(array_mul(v0, b_al))
    return RateFunction(report=report, eigenfunction=trop_vector(v_al), density=Density(b_al))


def ldp_residual(f: Sequence[float], *, rate: RateFunction, spectral: SpectralData) -> float:
    """|(1/beta) log integral of e^{beta f} d mu  -  sup_x (f - I)(x)|, where
    mu is the equilibrium state of the solve spectral and beta its
    inverse temperature.

    The moment is taken against the log-space equilibrium state; linear
    masses underflow at the betas where the comparison is interesting.
    spectral is beta_sweep's solve in the CLI, so the residual equals
    the matching cell of a sweep and one solve serves every observable
    at that beta. It must carry rate's report, or ValueError.
    """
    if spectral.report is not rate.report:
        raise ValueError("the solve and the rate function are of different reports")
    f = np.asarray(f, dtype=float)
    values = rate.values
    if len(f) != len(values):
        raise ValueError(f"length mismatch: system {len(values)}, observable {len(f)}")
    if not np.all(np.isfinite(f)):
        raise ValueError("observable must be finite")
    moment = log_moment(spectral.log_mu, f, spectral.beta)
    sup_term = float(np.max(f - values))
    return abs(moment - sup_term)


def limit_diagnostics(records: Sequence[SweepRecord]) -> LimitDiagnostics:
    """Distances from rescaled spectral data to its tropical limit, read
    off the one report that every record's solve carries, or ValueError.

    Each record's solve is rescaled here: scaled log u is (1/beta) log u
    pinned to 0 at the report's lowest-index Aubry state, scaled log m is
    (1/beta) log m shifted to sup 0, and scaled g is the normalized
    potential divided by beta.

    d_u: sup distance from scaled log u to the calibrated subaction.
    d_b: sup distance from scaled log m to the eigen-density, over the
         states where the density is finite.
    d_g: sup distance, over arcs, from scaled g to the calibrated arc
         weight  w - Q + v(source) - v(target).
    d_D: residual of the exact limit identity for b-hat = v + b: sup over
         states y of |max over arcs y -> x of (b-hat(x) + scaled g) - b-hat(y)|.

    States where the density is -inf are checked for divergence instead
    of distance: scaled log m must decrease strictly along the grid and
    end below DIVERGENCE_FLOOR.
    """
    if not records:
        raise ValueError("empty sweep")
    report = records[0].spectral.report
    if any(rec.spectral.report is not report for rec in records):
        raise ValueError("the sweep mixes solves of different reports")
    if not report.uniquely_calibrated:
        raise MultiClassError(report.critical_classes)
    ref = min(report.aubry)
    v0 = report.eigenfunction_basis[0]
    v_f = v0 - v0[ref]
    b0 = report.eigen_density_basis[0].values
    b_f = b0 - array_sup(b0)
    finite_b = np.isfinite(b_f)

    arc_src, arc_tgt, arc_w = report.system.arc_arrays
    a_hat = arc_w - report.Q + v_f[arc_src] - v_f[arc_tgt]
    bhat = v_f + b_f
    # states where d_D compares: finite b-hat and at least one outgoing arc
    checked = np.isfinite(bhat) & (np.bincount(arc_src, minlength=len(bhat)) > 0)

    rows: List[DiagnosticsRow] = []
    scaled_ms = []
    for rec in records:
        data, beta = rec.spectral, rec.spectral.beta
        slu = data.log_u / beta
        slu = slu - slu[ref]
        slm = data.log_m / beta
        slm = slm - slm.max()
        g = normalized_potential(data) / beta
        d_u = float(np.max(np.abs(slu - v_f)))
        d_b = float(np.max(np.abs(slm[finite_b] - b_f[finite_b])))
        d_g = float(np.max(np.abs(g - a_hat)))
        best = np.full_like(bhat, -math.inf)
        np.maximum.at(best, arc_src, bhat[arc_tgt] + g)
        d_d = float(np.max(np.abs(best[checked] - bhat[checked]), initial=0.0))
        rows.append(DiagnosticsRow(d_u=d_u, d_b=d_b, d_g=d_g, d_D=d_d))
        scaled_ms.append(slm)

    divergence_ok = True
    for x in np.nonzero(~finite_b)[0]:
        series = [slm[x] for slm in scaled_ms]
        decreasing = all(s2 < s1 for s1, s2 in zip(series, series[1:]))
        if not (decreasing and series[-1] < DIVERGENCE_FLOOR):
            divergence_ok = False
    return LimitDiagnostics(rows=rows, divergence_ok=divergence_ok)
