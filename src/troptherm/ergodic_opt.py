"""Maximal potential energy, Mañé potentials, Aubry sets, and calibrated
sub-actions on finite transition systems.

Everything here runs on the normalized potential (weights shifted so the
maximum cycle mean is 0): the Mañé potential is then the all-pairs
maximum path weight, the Aubry set is its zero diagonal, and the rows
and columns at critical states give eigenfunctions of the Bousch
operator and fixed densities of its tropical adjoint.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .dynamics import PathRecord, TransitionSystem, bousch_apply, system_from_json, system_to_json
from .maxplus_linalg import DEFAULT_TOL, TropMatrix, _karp_mean, _TropicalPass
from .tropical_core import TropVector, array_mul, floats_to_json, sup_distance, vec_add
from .tropical_measures import Density

_NINF = -math.inf


@dataclass
class ManeMatrix:
    """phi(x, y) = maximum normalized weight of a path x -> y of length >= 1,
    together with the Aubry states (zero diagonal) and their critical classes."""

    phi: TropMatrix
    aubry: Tuple[int, ...]
    critical_classes: List[Tuple[int, ...]]


@dataclass
class ErgodicReport:
    Q: float
    maximizing_cycle: PathRecord
    normalized_system: TransitionSystem
    mane: ManeMatrix
    eigenfunction_basis: List[TropVector]
    eigen_density_basis: List[Density]
    uniquely_calibrated: bool


def _q_and_cycle(p: _TropicalPass) -> Tuple[float, PathRecord]:
    if p.mean == _NINF:
        raise ValueError("acyclic system carries no invariant measure")
    cycle = p.witness
    return p.mean, PathRecord(tuple(cycle) + (cycle[0],))


def _mane(p: _TropicalPass) -> ManeMatrix:
    return ManeMatrix(phi=TropMatrix.from_floats(p.plus), aubry=p.aubry, critical_classes=p.classes)


def max_potential_energy(sys: TransitionSystem, tol: float = DEFAULT_TOL) -> Tuple[float, PathRecord]:
    """The maximum cycle mean of the weights, with one maximizing cycle.

    On a finite system every invariant measure is carried by cycles, so
    the maximum time-average of the potential is attained on a cycle and
    the witness cycle's uniform measure is maximizing.
    """
    return _q_and_cycle(_TropicalPass(sys.n, *sys.arc_arrays, tol))


def normalize(sys: TransitionSystem, tol: float = DEFAULT_TOL) -> TransitionSystem:
    """Shift every weight by -Q so the maximum cycle mean becomes 0."""
    q, _ = max_potential_energy(sys, tol=tol)
    return sys.shifted(-q)


def mane_potential(sys: TransitionSystem, tol: float = DEFAULT_TOL) -> ManeMatrix:
    """All-pairs maximum normalized path weight, Aubry set, critical classes.

    Requires a normalized system: a positive cycle mean makes the path
    supremum diverge, a negative one empties the Aubry set.
    """
    p = _TropicalPass(sys.n, *sys.arc_arrays, tol, normalized=True)
    if p.mean == _NINF:
        raise ValueError("acyclic system has no normalized potential")
    if p.mean < -tol:
        raise ValueError(
            f"system is not normalized: max cycle mean {p.mean:.6g} < 0 would empty the Aubry set"
        )
    return _mane(p)


def subaction_limsup(
    sys: TransitionSystem,
    u0: TropVector,
    cap: Optional[int] = None,
    window: Optional[int] = None,
    tol: float = DEFAULT_TOL,
) -> TropVector:
    """The limsup of Bousch iterates of u0 on a normalized system.

    Iterates are eventually periodic, so the supremum over a sliding
    window becomes stationary; since the operator distributes over
    finite sups, a stationary window supremum is already a fixed point.
    Convergence is declared once the window supremum holds still across
    one full window. The default window is the state count and the
    default cap 4 n^2 iterations.
    """
    n = sys.n
    if len(u0) != n:
        raise ValueError(f"length mismatch: system {n}, vector {len(u0)}")
    if not u0.is_finite:
        raise ValueError("start vector must be finite-valued")
    mean = _karp_mean(n, *sys.arc_arrays)
    if mean == _NINF or abs(mean) > tol:
        raise ValueError("system is not normalized (max cycle mean must be 0)")
    w = window if window is not None else n
    limit = cap if cap is not None else 4 * n * n
    if w < 1 or limit < w:
        raise ValueError("window must be >= 1 and cap >= window")
    recent = deque(maxlen=w)
    recent.append(u0)
    prev_sup = None
    last_change = math.inf
    streak = 0
    u = u0
    for _step in range(limit):
        u = bousch_apply(sys, u)
        recent.append(u)
        if len(recent) < w:
            continue
        cur = recent[0]
        for item in list(recent)[1:]:
            cur = vec_add(cur, item)
        if prev_sup is not None:
            last_change = sup_distance(cur, prev_sup)
            if last_change <= 1e-12:
                streak += 1
                if streak >= w:
                    resid = sup_distance(bousch_apply(sys, cur), cur)
                    if resid > tol:
                        raise RuntimeError(
                            f"window supremum stabilized but fixed-point residual {resid:.3e} exceeds {tol:.1e}"
                        )
                    return cur
            else:
                streak = 0
        prev_sup = cur
    raise RuntimeError(
        f"no stabilization within {limit} iterations "
        f"(window {w}, last window-sup change {last_change:.3e})"
    )


def eigenfunction_spectral(
    sys: TransitionSystem, mane: Optional[ManeMatrix] = None, tol: float = DEFAULT_TOL
) -> List[TropVector]:
    """One Bousch fixed point phi(x, ·) per critical class representative x."""
    if mane is None:
        mane = mane_potential(sys, tol=tol)
    return [TropVector(mane.phi.array[cls[0]]) for cls in mane.critical_classes]


def eigen_density_spectral(
    sys: TransitionSystem, mane: Optional[ManeMatrix] = None, tol: float = DEFAULT_TOL
) -> List[Density]:
    """One adjoint fixed point phi(·, y) per critical class representative y.

    Each column has a 0 at its own state, so it is never the constant
    -inf density, and path weights are +inf-free, so it is never top.
    """
    if mane is None:
        mane = mane_potential(sys, tol=tol)
    return [Density(TropVector(mane.phi.array[:, cls[0]])) for cls in mane.critical_classes]


def representation_check(
    report: ErgodicReport,
    v: Optional[TropVector] = None,
    b: Optional[Density] = None,
) -> float:
    """Residual of the Aubry-set representation of an eigenfunction or a
    fixed density.

    For v: sup over y of the gap between v(y) and
    ⊕_{x in aubry} (v(x) ⊗ phi(x, y)). For b: sup over singleton probes
    of the functional gap between b and ⊕_{y in aubry} (phi(·, y) ⊗ b(y)),
    which on singletons is the pointwise gap.
    """
    if (v is None) == (b is None):
        raise ValueError("pass exactly one of v or b")
    # rows x of phi weighted by v(x), or columns y weighted by b(y)
    phi = report.mane.phi.array if v is not None else report.mane.phi.array.T
    vec = v if v is not None else b.values
    if len(vec) != phi.shape[0]:
        raise ValueError(f"length mismatch: {len(vec)} vs {phi.shape[0]}")
    aubry = list(report.mane.aubry)
    terms = array_mul(vec.array[aubry, None], phi[aubry])
    return sup_distance(vec, TropVector(terms.max(axis=0, initial=_NINF)))


def is_uniquely_calibrated(report: ErgodicReport, tol: float = DEFAULT_TOL) -> bool:
    """True when phi(x,y) ⊗ phi(y,x) = 0 for all Aubry pairs, which pins the
    eigenfunction and the fixed density up to one tropical constant each
    (equivalently: a single critical class)."""
    aubry = list(report.mane.aubry)
    phi = report.mane.phi.array[np.ix_(aubry, aubry)]
    return bool(np.all(np.abs(phi + phi.T) <= tol))


def is_subaction(sys: TransitionSystem, u: TropVector, tol: float = DEFAULT_TOL) -> bool:
    """Whether the Bousch image of u stays below u shifted by the maximal
    potential energy."""
    if not u.is_finite:
        raise ValueError("sub-action candidates must be finite-valued")
    q = _karp_mean(sys.n, *sys.arc_arrays)  # the mean alone: no witness, no closure
    if q == _NINF:
        raise ValueError("acyclic system carries no invariant measure")
    return not np.any(bousch_apply(sys, u).array > u.array + q + tol)


def ergodic_report(sys: TransitionSystem, tol: float = DEFAULT_TOL) -> ErgodicReport:
    """Full analysis bundle: Q, a maximizing cycle, the normalized system,
    the Mañé data, and one eigenfunction/density pair per critical class."""
    p = _TropicalPass(sys.n, *sys.arc_arrays, tol)
    q, witness = _q_and_cycle(p)
    norm = sys.shifted(-q)
    mane = _mane(p)
    report = ErgodicReport(
        Q=q,
        maximizing_cycle=witness,
        normalized_system=norm,
        mane=mane,
        eigenfunction_basis=eigenfunction_spectral(norm, mane=mane, tol=tol),
        eigen_density_basis=eigen_density_spectral(norm, mane=mane, tol=tol),
        uniquely_calibrated=False,
    )
    report.uniquely_calibrated = is_uniquely_calibrated(report, tol=tol)
    return report


def report_to_json(report: ErgodicReport) -> dict:
    return {
        "Q": report.Q,
        "maximizing_cycle": list(report.maximizing_cycle.states),
        "normalized_system": system_to_json(report.normalized_system),
        "mane": {
            "phi": floats_to_json(report.mane.phi.array),
            "aubry": list(report.mane.aubry),
            "critical_classes": [list(c) for c in report.mane.critical_classes],
        },
        "eigenfunction_basis": [v.to_json() for v in report.eigenfunction_basis],
        "eigen_density_basis": [d.to_json() for d in report.eigen_density_basis],
        "uniquely_calibrated": report.uniquely_calibrated,
    }


def report_from_json(data: dict) -> ErgodicReport:
    mane = ManeMatrix(
        phi=TropMatrix.from_floats([TropVector.from_json(row).array for row in data["mane"]["phi"]]),
        aubry=tuple(data["mane"]["aubry"]),
        critical_classes=[tuple(c) for c in data["mane"]["critical_classes"]],
    )
    return ErgodicReport(
        Q=float(data["Q"]),
        maximizing_cycle=PathRecord(tuple(data["maximizing_cycle"])),
        normalized_system=system_from_json(data["normalized_system"]),
        mane=mane,
        eigenfunction_basis=[TropVector.from_json(v) for v in data["eigenfunction_basis"]],
        eigen_density_basis=[Density.from_json(d) for d in data["eigen_density_basis"]],
        uniquely_calibrated=bool(data["uniquely_calibrated"]),
    )
