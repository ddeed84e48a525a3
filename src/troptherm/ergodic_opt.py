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
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .dynamics import PathRecord, TransitionSystem, bousch_apply, system_from_json, system_to_json
from .maxplus_linalg import DEFAULT_TOL, PositiveCycleError, _karp_mean, _TropicalPass, _weight_array
from .tropical_core import array_mul, floats_to_json, sup_distance, trop_vector, vector_from_json
from .tropical_measures import Density

_NINF = -math.inf


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


def _q_and_cycle(p: _TropicalPass) -> Tuple[float, PathRecord]:
    if p.mean == _NINF:
        raise ValueError("acyclic system carries no invariant measure")
    cycle = p.witness
    return p.mean, PathRecord(tuple(cycle) + (cycle[0],))


def _mane(p: _TropicalPass) -> ManeMatrix:
    p.plus.flags.writeable = False
    return ManeMatrix(phi=p.plus, aubry=p.aubry, critical_classes=p.classes)


def max_potential_energy(sys: TransitionSystem) -> Tuple[float, PathRecord]:
    """The maximum cycle mean of the weights, with one maximizing cycle.

    On a finite system every invariant measure is carried by cycles, so
    the maximum time-average of the potential is attained on a cycle and
    the witness cycle's uniform measure is maximizing.
    """
    return _q_and_cycle(_TropicalPass(sys.n, *sys.arc_arrays, DEFAULT_TOL))


def normalize(sys: TransitionSystem) -> TransitionSystem:
    """Shift every weight by -Q so the maximum cycle mean becomes 0."""
    q, _ = max_potential_energy(sys)
    return sys.shifted(-q)


def mane_potential(sys: TransitionSystem) -> ManeMatrix:
    """All-pairs maximum normalized path weight, Aubry set, critical classes.

    Requires a normalized system: a positive cycle mean makes the path
    supremum diverge (reported with a maximizing cycle), a negative one
    empties the Aubry set. A mean within DEFAULT_TOL of 0 is shifted away.
    """
    p = _TropicalPass(sys.n, *sys.arc_arrays, DEFAULT_TOL)
    if p.mean == _NINF:
        raise ValueError("acyclic system has no normalized potential")
    if p.mean < -DEFAULT_TOL:
        raise ValueError(
            f"system is not normalized (max cycle mean {p.mean:.6g} < 0 would empty the Aubry set)"
        )
    if p.mean > DEFAULT_TOL:
        raise PositiveCycleError(p.mean, p.witness)
    return _mane(p)


def eigenfunction_spectral(mane: ManeMatrix) -> List[np.ndarray]:
    """One Bousch fixed point phi(x, ·) per critical class representative x."""
    return [trop_vector(mane.phi[cls[0]]) for cls in mane.critical_classes]


def eigen_density_spectral(mane: ManeMatrix) -> List[Density]:
    """One adjoint fixed point phi(·, y) per critical class representative y.

    Each column has a 0 at its own state, so it is never the constant
    -inf density, and path weights are +inf-free, so it is never top.
    """
    return [Density(mane.phi[:, cls[0]]) for cls in mane.critical_classes]


def representation_check(
    report: ErgodicReport,
    v: Optional[np.ndarray] = None,
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
    phi = report.mane.phi if v is not None else report.mane.phi.T
    vec = trop_vector(v) if v is not None else b.values
    if len(vec) != phi.shape[0]:
        raise ValueError(f"length mismatch: {len(vec)} vs {phi.shape[0]}")
    aubry = list(report.mane.aubry)
    terms = array_mul(vec[aubry, None], phi[aubry])
    return sup_distance(vec, terms.max(axis=0, initial=_NINF))


def is_subaction(sys: TransitionSystem, u: np.ndarray) -> bool:
    """Whether the Bousch image of u stays below u shifted by the maximal
    potential energy, within DEFAULT_TOL."""
    u = trop_vector(u)
    if not np.isfinite(u).all():
        raise ValueError("sub-action candidates must be finite-valued")
    q = _karp_mean(sys.n, *sys.arc_arrays)  # the mean alone: no witness, no closure
    if q == _NINF:
        raise ValueError("acyclic system carries no invariant measure")
    return not np.any(bousch_apply(sys, u) > u + q + DEFAULT_TOL)


def ergodic_report(sys: TransitionSystem, tol: float = DEFAULT_TOL) -> ErgodicReport:
    """Full analysis bundle: Q, a maximizing cycle, the normalized system,
    the Mañé data, and one eigenfunction/density pair per critical class.

    uniquely_calibrated is a single critical class: the eigenfunction and
    the fixed density are then unique up to one tropical constant each.
    The classes cover the Aubry set (see _TropicalPass.critical_arcs), so
    one class means every two Aubry states lie on one cycle of weight 0."""
    p = _TropicalPass(sys.n, *sys.arc_arrays, tol)
    q, witness = _q_and_cycle(p)
    mane = _mane(p)
    return ErgodicReport(
        Q=q,
        maximizing_cycle=witness,
        normalized_system=sys.shifted(-q),
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


def report_from_json(data: dict) -> ErgodicReport:
    mane = ManeMatrix(
        phi=_weight_array([vector_from_json(row) for row in data["mane"]["phi"]]),
        aubry=tuple(data["mane"]["aubry"]),
        critical_classes=[tuple(c) for c in data["mane"]["critical_classes"]],
    )
    return ErgodicReport(
        Q=float(data["Q"]),
        maximizing_cycle=PathRecord(tuple(data["maximizing_cycle"])),
        normalized_system=system_from_json(data["normalized_system"]),
        mane=mane,
        eigenfunction_basis=[vector_from_json(v) for v in data["eigenfunction_basis"]],
        eigen_density_basis=[Density.from_json(d) for d in data["eigen_density_basis"]],
        uniquely_calibrated=bool(data["uniquely_calibrated"]),
    )
