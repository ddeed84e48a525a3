"""Positive-temperature transfer operators: pressure, eigendata, equilibria.

All spectral work runs in log space, from the system's ergodic report
alone. Weights are shifted by its Q before exponentiation (the pressure
is shifted back by beta * Q exactly). The eigenvectors come from one
loop that starts at beta times its limit pair and works in coordinates
scaled by that pair and by the current iterate (the diagonal scaling of
Gaubert and Sharify, 2009): it takes Noda's shifted inverse step (Numer.
Math. 17, 1971), which converges in a few steps whatever the spectral
gap, whenever float64 resolves it, and a +1-damped power step
otherwise; the damping keeps the iteration convergent on periodic
transition structures without moving the eigenvectors. Eigenvectors
and measures are reported as logs only: at large beta their linear
entries underflow or overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import TransitionSystem
from .ergodic_opt import ErgodicReport, check_report
from .maxplus_linalg import ConvergenceError, strongly_connected

BETA_MAX_DEFAULT = 2000.0
POWER_CAP_DEFAULT = 100000
STEP_TOL = 1e-12
# widest log bracket ptp(R - x) at which float64 still resolves a Noda
# step: beyond it the smallest row sum of the scaled matrix, e^-36 times
# the largest, is lost to rounding beside the shift
NODA_BRACKET = -math.log(np.finfo(float).eps)
# most that a pressure may leave its bracket [0, log N] by: within it the
# allowance is the rounding of beta * w and of the start pair, but where
# that rounding alone spans the bracket (weights 1e15 at beta 10) a
# pressure that leaves it by more than this is refused, not excused
BRACKET_SLACK_MAX = 0.05


class ReducibleSystemError(ValueError):
    """Spectral data needs a single strongly connected component."""

    def __init__(self, components: List[List[int]]):
        self.components = components
        super().__init__(
            f"system is reducible: {len(components)} strongly connected components {components}"
        )


class BetaRangeError(ValueError):
    """Requested inverse temperature is outside the guarded range."""


def check_beta(beta: float) -> None:
    """Refuse a beta that is not a finite positive number, before any
    arithmetic on it (nan <= 0 is False, and inf * v warns), one so
    small (below about 5.56e-309) that 1 / beta, by which every rescaled
    quantity is multiplied, overflows, and one above the overflow guard
    BETA_MAX_DEFAULT."""
    if not 0 < beta < math.inf:
        raise BetaRangeError(f"beta must be a finite positive number: {beta!r}")
    if not math.isfinite(1.0 / beta):  # a Python float quotient: no numpy warning
        raise BetaRangeError(f"beta is too small: 1 / beta overflows float64: {beta!r}")
    if beta > BETA_MAX_DEFAULT:
        raise BetaRangeError(f"beta {beta} exceeds the overflow guard {BETA_MAX_DEFAULT}")


@dataclass
class SpectralData:
    """Ruelle eigendata at one inverse temperature, in logs, solved from
    report, the ergodic report of the system report.system.

    log_u is the log of the positive right eigenvector u, scaled so its
    integral against m is 1; log_m is the log of the probability left
    eigenvector m; log_mu = log_u + log_m is the log of the equilibrium
    state u * m.
    """

    report: ErgodicReport
    beta: float
    pressure: float
    log_u: np.ndarray
    log_m: np.ndarray
    log_mu: np.ndarray
    iterations: int


def _logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    if not np.isfinite(m):
        return float(m)
    return float(m + math.log(np.sum(np.exp(a - m))))


def _log_image(x: np.ndarray, rows: np.ndarray, cols: np.ndarray, lw: np.ndarray) -> np.ndarray:
    """log(B e^x) for the matrix B[rows, cols] = e^lw, computed stably."""
    out = np.full(len(x), -math.inf)
    np.logaddexp.at(out, rows, lw + x[cols])
    return out


def _noda_solve(
    x: np.ndarray, gap: np.ndarray, rows: np.ndarray, cols: np.ndarray, lw: np.ndarray
) -> Optional[np.ndarray]:
    """Noda's shifted inverse step for B[rows, cols] = e^lw, scaled by e^x.

    The scaled matrix S = diag(e^-x) B diag(e^x) has row sums e^gap, with
    gap = log(B e^x) - x, so its spectral radius is at most
    sigma = e^max(gap) (Collatz and Wielandt), and sigma * I - S is a
    nonsingular M-matrix unless x is already the eigenvector. The
    solution z of (sigma * I - S) z = 1 is then positive, and x + log z,
    up to a constant, is the next iterate. None when rounding leaves no
    such z.
    """
    n = len(x)
    a = np.diag(np.full(n, math.exp(gap.max())))
    a[rows, cols] -= np.exp(lw + x[cols] - x[rows])
    try:
        z = np.linalg.solve(a, np.ones(n))
    except np.linalg.LinAlgError:
        return None
    if z.sum() < 0:  # a shift rounded below the spectral radius flips the sign
        z = -z
    return z if np.all(np.isfinite(z)) and np.all(z > 0) else None


def _solver_step(
    x: np.ndarray, rows: np.ndarray, cols: np.ndarray, lw: np.ndarray
) -> Tuple[np.ndarray, float]:
    """One step of the eigenvector iteration for the matrix B[rows, cols] = e^lw.

    Returns the new log vector and the log bracket ptp(log(B e^x) - x) of
    the old one, which is 0 exactly at an eigenvector. A Noda step is
    taken while float64 resolves it, the damped power step otherwise.
    """
    image = _log_image(x, rows, cols, lw)
    gap = image - x
    bracket = float(np.ptp(gap))
    # below the float spacing at |x| the bracket is rounding noise, which a
    # Noda step would amplify by the inverse spectral gap
    if np.spacing(-x.min()) < bracket < NODA_BRACKET:
        z = _noda_solve(x, gap, rows, cols, lw)
        if z is not None:
            # scaled to max 1, a converged z moves no entry of x by a
            # rounding of the shift log z.max()
            return x + np.log(z / z.max()), bracket
    # +1 * identity damping: same eigenvectors, eigenvalue moved off the
    # rest of the peripheral spectrum even for periodic graphs
    return np.logaddexp(image, x), bracket


def spectral_data(sys: TransitionSystem, beta: float, report: ErgodicReport) -> SpectralData:
    """Simultaneous left/right eigenvector iteration for the Ruelle operator.

    report is the ergodic report of sys (check_report refuses another
    system's): the weights are shifted by its Q, and the solve starts from
    beta times its first limit pair (v, b), which (1/beta) log u and
    (1/beta) log m tend to. ReducibleSystemError, naming the components,
    when phi is -inf somewhere, that is when sys is not strongly connected.

    The loop solves for the offsets of log u and log m from the start
    pair, that is for the eigenvectors of the operator scaled by the
    start (the diagonal scaling of Gaubert and Sharify). Each step first
    takes the Collatz-Wielandt log bracket ptp(log R(e^y) - y) of each
    offset y. While the bracket lies between the float spacing at |y|,
    below which it is rounding noise, and -log(eps), about 36, the step
    is Noda's: in the coordinates scaled once more by e^y, solve
    (e^max(gap) I - S) z = 1 and move to y + log z. Any other bracket, or
    a solve that rounding spoils, gives the +1-damped power step, which
    climbs a gap of any width by about log 2 per step. The left vector
    takes the same step on the transposed matrix, under its own scaling.
    iterations counts the steps of the loop.

    Convergence is declared when one step moves both sup-normalized
    offsets by less than 1e-12, or when both brackets are already
    below that tolerance, so both iterates solve the eigen-identity
    pointwise. The second test matters on near-degenerate spectra
    (several critical classes at large beta), where the vector step
    stalls below the spectral gap while the iterate is already an
    eigenvector of a 1e-12 perturbation. ConvergenceError reports a run
    that hits the step cap; it never truncates quietly.

    The pressure is the Rayleigh quotient of the undamped operator at
    the converged right vector, weighted by the left one. ValueError when
    P - beta * Q leaves [0, log N], N the largest in-degree, by more than
    1e-12 + 4 eps beta (max|w| + max|v| + max|b|), the rounding at the
    weights' scale, or by more than BRACKET_SLACK_MAX: rounding has then
    spoilt it. ValueError, before any step, when a float that the solve
    or normalized_potential forms would leave float range.
    """
    check_beta(beta)
    check_report(sys, report)
    src, tgt, w = sys.arc_arrays
    if not np.isfinite(report.phi).all():  # some state does not reach another
        raise ReducibleSystemError(strongly_connected(range(sys.n), zip(src.tolist(), tgt.tolist())))
    q, v, b = report.Q, report.eigenfunction_basis[0], report.eigen_density_basis[0].values

    # Up to the offsets from the start, every float that the solve and
    # normalized_potential form is beta times a partial sum of |w - Q| +
    # |x(s)| + |x(t)| on an arc s -> t (x = v or b), of |w| + |u(s)| + |u(t)|
    # (u the normalized limit of (1/beta) log u) or of sup-normalized |v| +
    # |b| on a state. In sixteenths none overflows where 2 n max|w| does not.
    aw, v16, b16 = np.abs(w), v / 16, b / 16
    vn, bn = v16 - v16.max(), b16 - b16.max()
    u16 = vn - np.max(vn + bn)
    sums = [np.abs(w - q) / 16 + np.abs(x[src]) + np.abs(x[tgt]) for x in (v16, b16)]
    sums.append(aw / 16 + np.abs(u16[src]) + np.abs(u16[tgt]))
    worst = max(float(x.max()) for x in sums + [np.abs(vn) + np.abs(bn)])
    if not math.isfinite(beta * 16 * worst):  # Python floats: no numpy warning
        raise ValueError(f"the Ruelle solve overflows float64: beta {beta:g} * {16 * worst:.6g} is inf")
    log_u, log_m = beta * v, beta * b
    lw = beta * (w - q)

    # rounding of lw and of the offsets below is about eps times these
    # magnitudes; P - beta * Q strayed from its bracket by up to 1.4 times
    # it on scaled gen, doubling and single-cycle systems
    magnitude = beta * float(aw.max()) + float(np.max(np.abs(log_u))) + float(np.max(np.abs(log_m)))
    slack = min(1e-12 + 4 * np.finfo(float).eps * magnitude, BRACKET_SLACK_MAX)
    # offsets y from the start pair: near a tropical start they stay of
    # order 1, so the 1e-12 tests are not lost to the float spacing at
    # |log u|, about beta * range(v)
    lw_u = lw + log_u[src] - log_u[tgt]
    lw_m = lw + log_m[tgt] - log_m[src]
    y_u, y_m = np.zeros(sys.n), np.zeros(sys.n)

    iterations = 0
    for iterations in range(1, POWER_CAP_DEFAULT + 1):
        # right vector: arcs src -> tgt; left vector: the same arcs reversed
        new_u, resid_u = _solver_step(y_u, tgt, src, lw_u)
        new_m, resid_m = _solver_step(y_m, src, tgt, lw_m)
        new_u -= new_u.max()
        new_m -= new_m.max()
        du = float(np.max(np.abs(new_u - y_u)))
        dm = float(np.max(np.abs(new_m - y_m)))
        y_u, y_m = new_u, new_m
        if (du < STEP_TOL and dm < STEP_TOL) or (resid_u < STEP_TOL and resid_m < STEP_TOL):
            break
    else:
        raise ConvergenceError(f"power iteration did not converge within {POWER_CAP_DEFAULT} steps")
    log_u = log_u + y_u
    log_m = log_m + y_m
    log_u -= log_u.max()
    log_m -= log_m.max()

    # Rayleigh-style pressure of the undamped operator, weighted by the
    # converged left eigenvector: log(1 + sum of weights * (e^gap - 1)),
    # with gap = log(R u) - log u summed in the scaled coordinates, so a
    # small pressure keeps its relative precision and is not the difference
    # of two logs of order |log u| + |log m|
    gap = np.full(sys.n, -math.inf)
    np.logaddexp.at(gap, tgt, lw_u + y_u[src] - y_u[tgt])
    weights = np.exp(log_m + log_u - _logsumexp(log_m + log_u))
    p_shifted = math.log1p(float(np.dot(weights, np.expm1(gap))))
    top = math.log(sys.max_in_degree())
    if not -slack <= p_shifted <= top + slack:
        raise ValueError(
            f"pressure at beta {beta:g} leaves its bracket: P - beta * Q = {p_shifted:.6g} "
            f"is outside [0, log N] = [0, {top:.6g}] by more than {slack:.3g}; "
            "rounding at this weight scale spoils it"
        )
    pressure = p_shifted + beta * q

    log_m = log_m - _logsumexp(log_m)  # sum m = 1
    log_u = log_u - _logsumexp(log_u + log_m)  # integral of u against m = 1

    return SpectralData(
        report=report,
        beta=float(beta),
        pressure=float(pressure),
        log_u=log_u,
        log_m=log_m,
        log_mu=log_u + log_m,  # sums to 1 by the scaling of log_u above
        iterations=iterations,
    )


def normalized_potential(data: SpectralData) -> np.ndarray:
    """Per arc y -> x of data.report.system: g = beta*weight + log u(y) - log u(x) - pressure.

    The induced operator at beta' = 1 fixes the constant-1 function, so
    exp(g) summed over the arcs into each target equals 1.
    """
    src, tgt, w = data.report.system.arc_arrays
    return data.beta * w + data.log_u[src] - data.log_u[tgt] - data.pressure


def log_moment(log_measure: Sequence[float], f: Sequence[float], beta: float) -> float:
    """(1/beta) log of the integral of e^{beta f} against the measure whose
    log masses are log_measure.

    Equilibrium states at large beta underflow in linear space, so their
    moments are only recoverable from log masses. ValueError when
    beta * f leaves float range.
    """
    check_beta(beta)
    f = np.asarray(f, dtype=float)
    logm = np.asarray(log_measure, dtype=float)
    top = float(np.max(np.abs(f), initial=0.0))
    if not math.isfinite(beta * top):  # a Python float product: no numpy warning
        raise ValueError(f"beta * f overflows float64: beta * max |f| = {beta:g} * {top:.6g} is inf")
    if len(f) != len(logm):
        raise ValueError(f"length mismatch: {len(f)} vs {len(logm)}")
    return _logsumexp(beta * f + logm) / beta
