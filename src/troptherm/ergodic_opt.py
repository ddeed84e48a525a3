"""Maximal potential energy, Mañé potentials, Aubry sets, and calibrated
sub-actions on finite transition systems.

Everything here runs on the normalized potential (weights shifted so the
maximum cycle mean is 0): the Mañé potential is then the all-pairs
maximum path weight, the Aubry set is its zero diagonal, and the rows
and columns at critical states give eigenfunctions of the Bousch
operator and fixed densities of its tropical adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .dynamics import PathRecord, TransitionSystem, system_to_json
from .maxplus_linalg import DEFAULT_TOL, AcyclicError, PositiveCycleError, tropical_pass
from .tropical_core import floats_to_json, trop_vector
from .tropical_measures import Density


@dataclass
class ManeMatrix:
    """phi(x, y) = maximum normalized weight of a path x -> y of length >= 1,
    together with the Aubry states (zero diagonal) and their critical classes;
    phi is a read-only (n, n) float64 array with -inf where no path runs."""

    phi: np.ndarray
    aubry: Tuple[int, ...]
    critical_classes: List[Tuple[int, ...]]


@dataclass
class ErgodicReport:
    Q: float
    maximizing_cycle: PathRecord
    normalized_system: TransitionSystem
    mane: ManeMatrix
    eigenfunction_basis: List[np.ndarray]
    eigen_density_basis: List[Density]
    uniquely_calibrated: bool


def max_potential_energy(sys: TransitionSystem) -> Tuple[float, PathRecord]:
    """The maximum cycle mean of the weights, with one maximizing cycle.

    On a finite system every invariant measure is carried by cycles, so
    the maximum time-average of the potential is attained on a cycle and
    the witness cycle's uniform measure is maximizing.
    """
    p = tropical_pass(sys.n, *sys.arc_arrays, DEFAULT_TOL)
    return p.mean, PathRecord(p.witness + p.witness[:1])


def mane_potential(sys: TransitionSystem) -> ManeMatrix:
    """All-pairs maximum normalized path weight, Aubry set, critical classes.

    Requires a normalized system: a positive cycle mean makes the path
    supremum diverge (reported with a maximizing cycle), a negative one
    empties the Aubry set. A mean within DEFAULT_TOL of 0 is shifted away.
    Like ergodic_report, it refuses a system whose critical cycle is lost
    to rounding.
    """
    try:
        p = tropical_pass(sys.n, *sys.arc_arrays, DEFAULT_TOL)
    except AcyclicError:
        raise ValueError("acyclic system has no normalized potential") from None
    if p.mean < -DEFAULT_TOL:
        raise ValueError(
            f"system is not normalized (max cycle mean {p.mean:.6g} < 0 would empty the Aubry set)"
        )
    if p.mean > DEFAULT_TOL:
        raise PositiveCycleError(p.mean, list(p.witness))
    return ManeMatrix(phi=p.plus, aubry=p.aubry, critical_classes=p.classes)


def eigenfunction_spectral(mane: ManeMatrix) -> List[np.ndarray]:
    """One Bousch fixed point phi(x, ·) per critical class representative x."""
    return [trop_vector(mane.phi[cls[0]]) for cls in mane.critical_classes]


def eigen_density_spectral(mane: ManeMatrix) -> List[Density]:
    """One adjoint fixed point phi(·, y) per critical class representative y.

    Each column has a 0 at its own state, so it is never the constant
    -inf density, and path weights are +inf-free, so it is never top.
    """
    return [Density(mane.phi[:, cls[0]]) for cls in mane.critical_classes]


def ergodic_report(sys: TransitionSystem, tol: float = DEFAULT_TOL) -> ErgodicReport:
    """Full analysis bundle: Q, a maximizing cycle, the normalized system,
    the Mañé data, and one eigenfunction/density pair per critical class.

    uniquely_calibrated is a single critical class: the eigenfunction and
    the fixed density are then unique up to one tropical constant each.
    The classes cover the Aubry set (see tropical_pass), so one class
    means every two Aubry states lie on one cycle of weight 0."""
    p = tropical_pass(sys.n, *sys.arc_arrays, tol)
    mane = ManeMatrix(phi=p.plus, aubry=p.aubry, critical_classes=p.classes)
    return ErgodicReport(
        Q=p.mean,
        maximizing_cycle=PathRecord(p.witness + p.witness[:1]),
        normalized_system=sys.shifted(-p.mean),
        mane=mane,
        eigenfunction_basis=eigenfunction_spectral(mane),
        eigen_density_basis=eigen_density_spectral(mane),
        uniquely_calibrated=len(mane.critical_classes) == 1,
    )


def report_to_json(report: ErgodicReport) -> dict:
    return {
        "Q": report.Q,
        "maximizing_cycle": list(report.maximizing_cycle.states),
        "normalized_system": system_to_json(report.normalized_system),
        "mane": {
            "phi": floats_to_json(report.mane.phi),
            "aubry": list(report.mane.aubry),
            "critical_classes": [list(c) for c in report.mane.critical_classes],
        },
        "eigenfunction_basis": [floats_to_json(v) for v in report.eigenfunction_basis],
        "eigen_density_basis": [d.to_json() for d in report.eigen_density_basis],
        "uniquely_calibrated": report.uniquely_calibrated,
    }
