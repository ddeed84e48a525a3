"""Maximal potential energy, Mañé potentials, Aubry sets, and calibrated
sub-actions on finite transition systems.

Everything here reads one tropical pass (maxplus_linalg.tropical_pass),
which runs on the normalized potential (weights shifted so the maximum
cycle mean is 0): its record is the Mañé data, with phi the all-pairs
maximum path weight, the Aubry set its zero diagonal, and the rows and
columns at critical states eigenfunctions of the Bousch operator and
fixed densities of its tropical adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .dynamics import TransitionSystem, system_to_json
from .maxplus_linalg import DEFAULT_TOL, AcyclicError, PositiveCycleError, TropicalPass, tropical_pass
from .tropical_core import floats_to_json, trop_vector
from .tropical_measures import Density


@dataclass
class ErgodicReport:
    """The system as given and its tropical pass as the Mañé data. Q,
    the maximizing cycle, unique calibration and one eigenfunction/density
    pair per critical class (phi's row and column at its least state) are
    read off the Mañé data, so a report cannot contradict its own pass;
    check_report refuses it beside another system."""

    system: TransitionSystem
    mane: TropicalPass

    @property
    def eigenfunction_basis(self) -> List[np.ndarray]:
        return [trop_vector(self.mane.phi[cls[0]]) for cls in self.mane.critical_classes]

    @property
    def eigen_density_basis(self) -> List[Density]:
        return [Density(self.mane.phi[:, cls[0]]) for cls in self.mane.critical_classes]

    @property
    def Q(self) -> float:
        return self.mane.mean

    @property
    def maximizing_cycle(self) -> Tuple[int, ...]:
        """The witness cycle's states, the first one repeated at the end."""
        return self.mane.witness + self.mane.witness[:1]

    @property
    def uniquely_calibrated(self) -> bool:
        return len(self.mane.critical_classes) == 1


def check_report(sys: TransitionSystem, report: ErgodicReport) -> None:
    """ValueError unless report is the ergodic report of sys or of an equal system."""
    other = report.system
    if not (sys is other or sys == other):
        what = "state counts" if sys.n != other.n else "arcs or weights" if sys.arcs != other.arcs else "labels"
        raise ValueError(f"the report is of another system: the {what} differ")


def max_potential_energy(sys: TransitionSystem) -> Tuple[float, Tuple[int, ...]]:
    """The maximum cycle mean of the weights, with one maximizing cycle.

    On a finite system every invariant measure is carried by cycles, so
    the maximum time-average of the potential is attained on a cycle and
    the witness cycle's uniform measure is maximizing.
    """
    p = tropical_pass(sys.n, *sys.arc_arrays, DEFAULT_TOL)
    return p.mean, p.witness + p.witness[:1]


def mane_potential(sys: TransitionSystem) -> TropicalPass:
    """The tropical pass of a normalized system: all-pairs maximum path
    weight phi, Aubry set, critical classes.

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
    return p


def ergodic_report(sys: TransitionSystem, tol: float = DEFAULT_TOL) -> ErgodicReport:
    """Full analysis bundle read off one tropical pass.

    Each critical class representative x gives one Bousch fixed point
    phi(x, ·) and one adjoint fixed point phi(·, x). The column has a 0
    at x, so it is never the constant -inf density, and path weights are
    +inf-free, so it is never top. uniquely_calibrated is a single
    critical class: the eigenfunction and the fixed density are then
    unique up to one tropical constant each. The classes cover the Aubry
    set (see tropical_pass), so one class means every two Aubry states
    lie on one cycle of weight 0."""
    return ErgodicReport(system=sys, mane=tropical_pass(sys.n, *sys.arc_arrays, tol))


def report_to_json(report: ErgodicReport) -> dict:
    normalized = system_to_json(report.system)
    normalized["arcs"] = [[s, t, w - report.Q] for s, t, w in normalized["arcs"]]
    return {
        "Q": report.Q,
        "maximizing_cycle": list(report.maximizing_cycle),
        "normalized_system": normalized,
        "mane": {
            "phi": floats_to_json(report.mane.phi),
            "aubry": list(report.mane.aubry),
            "critical_classes": [list(c) for c in report.mane.critical_classes],
        },
        "eigenfunction_basis": [floats_to_json(v) for v in report.eigenfunction_basis],
        "eigen_density_basis": [d.to_json() for d in report.eigen_density_basis],
        "uniquely_calibrated": report.uniquely_calibrated,
    }
