"""Positive-temperature transfer operators: pressure, eigendata, equilibria.

All spectral work runs in log space. Weights are shifted by the maximal
potential energy before exponentiation (the pressure is shifted back by
beta * Q exactly), and a +1 diagonal damping keeps power iteration
convergent on periodic transition structures without moving the
eigenvectors. Linear-space vectors are also reported, but at large beta
their small entries underflow; the log fields are the faithful ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import TransitionSystem
from .maxplus_linalg import _karp_mean, strongly_connected

BETA_MAX_DEFAULT = 2000.0
POWER_CAP_DEFAULT = 100000
STEP_TOL = 1e-12


class ReducibleSystemError(ValueError):
    """Spectral data needs a single strongly connected component."""

    def __init__(self, components: List[List[int]]):
        self.components = components
        super().__init__(
            f"system is reducible: {len(components)} strongly connected components {components}"
        )


class BetaRangeError(ValueError):
    """Requested inverse temperature is outside the guarded range."""


@dataclass
class SpectralData:
    """Ruelle eigendata at one inverse temperature.

    u_beta is the positive right eigenvector scaled so its integral
    against m_beta is 1; m_beta is the probability left eigenvector;
    mu_beta = u_beta * m_beta is the equilibrium state. log_u, log_m and
    log_mu carry the same data exactly even where exp underflows.
    """

    beta: float
    pressure: float
    u_beta: np.ndarray
    m_beta: np.ndarray
    mu_beta: np.ndarray
    log_u: np.ndarray
    log_m: np.ndarray
    log_mu: np.ndarray
    iterations: int

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "pressure": self.pressure,
            "u_beta": self.u_beta.tolist(),
            "m_beta": self.m_beta.tolist(),
            "mu_beta": self.mu_beta.tolist(),
            "log_u": self.log_u.tolist(),
            "log_m": self.log_m.tolist(),
            "log_mu": self.log_mu.tolist(),
            "iterations": self.iterations,
        }


def _logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    if not np.isfinite(m):
        return float(m)
    return float(m + math.log(np.sum(np.exp(a - m))))


def strongly_connected_components(sys: TransitionSystem) -> List[Tuple[int, ...]]:
    return strongly_connected(range(sys.n), ((s, t) for s, t, _ in sys.arcs))


def ruelle_apply(sys: TransitionSystem, u: Sequence[float], beta: float) -> np.ndarray:
    """out(x) = sum over arcs y -> x of u(y) * exp(beta * weight).

    Raw linear-space operator; overflow-prone for large beta * weight,
    which is why the spectral path works on logarithms instead.
    """
    u = np.asarray(u, dtype=float)
    if len(u) != sys.n:
        raise ValueError(f"length mismatch: system {sys.n}, vector {len(u)}")
    if np.any(u <= 0):
        raise ValueError("input entries must be positive")
    out = np.zeros(sys.n)
    for s, t, w in sys.arcs:
        out[t] += u[s] * math.exp(beta * w)
    return out


def log_ruelle_apply(sys: TransitionSystem, log_u: Sequence[float], beta: float) -> np.ndarray:
    """log of the Ruelle image of e^{log_u}, computed stably."""
    log_u = np.asarray(log_u, dtype=float)
    if len(log_u) != sys.n:
        raise ValueError(f"length mismatch: system {sys.n}, vector {len(log_u)}")
    out = np.full(sys.n, -math.inf)
    src, tgt, w = sys.arc_arrays
    np.logaddexp.at(out, tgt, beta * w + log_u[src])
    return out


def spectral_data(
    sys: TransitionSystem,
    beta: float,
    beta_max: float = BETA_MAX_DEFAULT,
    cap: int = POWER_CAP_DEFAULT,
    start_log_u: Optional[Sequence[float]] = None,
    start_log_m: Optional[Sequence[float]] = None,
    q: Optional[float] = None,
) -> SpectralData:
    """Simultaneous left/right power iteration for the Ruelle operator.

    q is the maximal potential energy of sys (its maximum cycle mean);
    callers holding an ergodic report pass report.Q, otherwise Karp
    computes it. The start vectors default to 0; see
    zerotemp.beta_sweep for a start near the answer.

    Convergence is declared when one step moves both sup-normalized log
    eigenvectors by less than 1e-12, or when both iterates already solve
    the eigen-identity pointwise to the same tolerance. The second test
    matters on near-degenerate spectra (several critical classes at
    large beta), where the vector step stalls below the spectral gap
    while the iterate is already an eigenvector of a 1e-12 perturbation.
    A step cap guards against anything else; failure is reported, never
    truncated past quietly.
    """
    if beta <= 0:
        raise BetaRangeError("beta must be positive")
    if beta > beta_max:
        raise BetaRangeError(f"beta {beta} exceeds the overflow guard {beta_max}")
    if not sys.arcs:
        raise ValueError("system has no arcs")
    comps = strongly_connected_components(sys)
    if len(comps) > 1:
        raise ReducibleSystemError(comps)

    n = sys.n
    src, tgt, w = sys.arc_arrays
    if q is None:
        q = _karp_mean(n, src, tgt, w)
    lw = beta * (w - q)

    log_u = np.zeros(n) if start_log_u is None else np.asarray(start_log_u, dtype=float).copy()
    log_m = np.zeros(n) if start_log_m is None else np.asarray(start_log_m, dtype=float).copy()
    log_u -= log_u.max()
    log_m -= log_m.max()

    def step_right(vec: np.ndarray) -> np.ndarray:
        out = np.full(n, -math.inf)
        np.logaddexp.at(out, tgt, lw + vec[src])
        return out

    def step_left(vec: np.ndarray) -> np.ndarray:
        out = np.full(n, -math.inf)
        np.logaddexp.at(out, src, lw + vec[tgt])
        return out

    iterations = 0
    for iterations in range(1, cap + 1):
        ru = step_right(log_u)
        rm = step_left(log_m)
        # ptp = 0 would mean the iterate is exactly an eigenvector of the
        # undamped operator
        resid_u = float(np.ptp(ru - log_u))
        resid_m = float(np.ptp(rm - log_m))
        # +1 * identity damping: same eigenvectors, eigenvalue moved off
        # the rest of the peripheral spectrum even for periodic graphs
        new_u = np.logaddexp(ru, log_u)
        new_m = np.logaddexp(rm, log_m)
        new_u -= new_u.max()
        new_m -= new_m.max()
        du = float(np.max(np.abs(new_u - log_u)))
        dm = float(np.max(np.abs(new_m - log_m)))
        log_u, log_m = new_u, new_m
        if (du < STEP_TOL and dm < STEP_TOL) or (resid_u < STEP_TOL and resid_m < STEP_TOL):
            break
    else:
        raise RuntimeError(f"power iteration did not converge within {cap} steps")

    # Rayleigh-style pressure of the undamped operator, weighted by the
    # converged left eigenvector
    ru = step_right(log_u)
    p_shifted = _logsumexp(log_m + ru) - _logsumexp(log_m + log_u)
    pressure = p_shifted + beta * q

    log_m = log_m - _logsumexp(log_m)  # sum m = 1
    log_u = log_u - _logsumexp(log_u + log_m)  # integral of u against m = 1
    log_mu = log_u + log_m  # sums to 1 by the previous line

    # at large beta the linear eigenfunction can exceed float range; inf
    # entries are the honest limit, the log fields stay exact
    with np.errstate(over="ignore"):
        u_lin = np.exp(log_u)
        m_lin = np.exp(log_m)
        mu_lin = np.exp(log_mu)

    return SpectralData(
        beta=float(beta),
        pressure=float(pressure),
        u_beta=u_lin,
        m_beta=m_lin,
        mu_beta=mu_lin,
        log_u=log_u,
        log_m=log_m,
        log_mu=log_mu,
        iterations=iterations,
    )


def normalized_potential(sys: TransitionSystem, data: SpectralData) -> np.ndarray:
    """Per arc y -> x: g = beta*weight + log u(y) - log u(x) - pressure.

    The induced operator at beta' = 1 fixes the constant-1 function, so
    exp(g) summed over the arcs into each target equals 1.
    """
    src, tgt, w = sys.arc_arrays
    return data.beta * w + data.log_u[src] - data.log_u[tgt] - data.pressure


def log_moment(
    measure: Sequence[float],
    f: Sequence[float],
    beta: float,
    measure_is_log: bool = False,
) -> float:
    """(1/beta) log of the integral of e^{beta f} against the measure.

    Pass measure_is_log=True to hand in log masses directly; equilibrium
    states at large beta underflow in linear space, and their moments are
    only recoverable from the log representation.
    """
    if beta <= 0:
        raise BetaRangeError("beta must be positive")
    f = np.asarray(f, dtype=float)
    if measure_is_log:
        logm = np.asarray(measure, dtype=float)
    else:
        m = np.asarray(measure, dtype=float)
        if np.any(m < 0):
            raise ValueError("measure masses must be nonnegative")
        with np.errstate(divide="ignore"):
            logm = np.log(m)
    if len(f) != len(logm):
        raise ValueError(f"length mismatch: {len(f)} vs {len(logm)}")
    return _logsumexp(beta * f + logm) / beta
