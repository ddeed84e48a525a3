"""Maximal potential energy, Mañé potentials, Aubry sets, and calibrated
sub-actions on finite transition systems.

ergodic_report runs the one tropical pass per system on the max-plus
primitives of maxplus_linalg: Karp's maximum cycle mean Q over the arcs,
then one Kleene closure in place of the weights shifted by it (the
normalized potential), whose critical classes are read on the arcs. Its
record, ErgodicReport, is the Mañé data: phi the all-pairs maximum path
weight, the Aubry set the union of the critical classes, and the rows
and columns at critical states eigenfunctions of the Bousch operator
and fixed densities of its tropical adjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import maxplus_linalg
from .dynamics import TransitionSystem, system_to_json
from .maxplus_linalg import DEFAULT_TOL, PositiveCycleError, check_tol, strongly_connected
from .tropical_core import floats_to_json, trop_vector
from .tropical_measures import Density


@dataclass(frozen=True, eq=False)
class ErgodicReport:
    """The system as given and the Mañé data its tropical pass reads off.

    Q is Karp's maximum cycle mean and phi the read-only Kleene closure
    of the weights shifted by it (paths of length >= 1, -inf where none
    runs); critical_classes are the strongly connected classes of the
    critical arcs that carry a cycle, aubry their union, and
    maximizing_cycle the shortest critical cycle from the first class's
    least state, that state repeated at the end. Unique calibration and
    one eigenfunction/density pair per critical class (phi's row and
    column at its least state) are read off these fields, so a report
    cannot contradict its own pass. Frozen, a report keeps its system,
    and check_report refuses it beside another; two reports compare by
    identity."""

    system: TransitionSystem
    Q: float
    maximizing_cycle: Tuple[int, ...]
    phi: np.ndarray
    aubry: Tuple[int, ...]
    critical_classes: List[Tuple[int, ...]]

    @property
    def eigenfunction_basis(self) -> List[np.ndarray]:
        return [trop_vector(self.phi[cls[0]]) for cls in self.critical_classes]

    @property
    def eigen_density_basis(self) -> List[Density]:
        return [Density(self.phi[:, cls[0]]) for cls in self.critical_classes]

    @property
    def uniquely_calibrated(self) -> bool:
        return len(self.critical_classes) == 1


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
    report = ergodic_report(sys)
    return report.Q, report.maximizing_cycle


def mane_potential(sys: TransitionSystem) -> ErgodicReport:
    """The report of a normalized system: all-pairs maximum path weight
    phi, Aubry set, critical classes.

    Requires a normalized system: a positive cycle mean makes the path
    supremum diverge (reported with a maximizing cycle), a negative one
    empties the Aubry set. A mean within DEFAULT_TOL of 0 is shifted away.
    Like ergodic_report, it refuses a system whose critical cycle is lost
    to rounding.
    """
    report = ergodic_report(sys)
    if report.Q < -DEFAULT_TOL:
        raise ValueError(
            f"system is not normalized (max cycle mean {report.Q:.6g} < 0 would empty the Aubry set)"
        )
    if report.Q > DEFAULT_TOL:
        raise PositiveCycleError(report.Q, list(report.maximizing_cycle[:-1]))
    return report


def ergodic_report(sys: TransitionSystem, tol: float = DEFAULT_TOL) -> ErgodicReport:
    """Karp once, then one Kleene closure of the weights shifted by the
    mean, from which everything else is read.

    ValueError before any closure when no cycle exists. The shifted
    weights are closed in place in phi, the one n x n float array built.
    Criticality is read on the m arcs: i -> j is on a cycle of weight 0
    when |w(i, j) + star(j, i)| <= tol, and a loop's way back may be the
    empty path, max(phi(i, i), 0). The strongly connected classes of the
    critical arcs that carry a cycle are the one criticality reading,
    the Aubry set their union; ValueError when rounding leaves none.

    Each critical class representative x gives one Bousch fixed point
    phi(x, ·) and one adjoint fixed point phi(·, x). The column has a 0
    at x, so it is never the constant -inf density, and path weights are
    +inf-free, so it is never top. uniquely_calibrated is a single
    critical class: the eigenfunction and the fixed density are then
    unique up to one tropical constant each, and every two Aubry states
    lie on one cycle of weight 0."""
    check_tol(tol)
    n, (src, tgt, w) = sys.n, sys.arc_arrays
    # the primitives are looked up on their module, so a patch there
    # (the tests count Karp and closure runs) reaches this pass
    mean = maxplus_linalg._karp_mean(n, src, tgt, w)
    if mean == -math.inf:
        raise ValueError("acyclic system carries no invariant measure")
    shifted = w - mean
    phi = np.full((n, n), -math.inf)
    phi[src, tgt] = shifted
    phi = maxplus_linalg._closure(phi)
    phi.flags.writeable = False
    back = np.where(src == tgt, np.maximum(phi[src, src], 0.0), phi[tgt, src])
    crit = np.flatnonzero(np.abs(shifted + back) <= tol)
    succ = [[] for _ in range(n)]
    for s, t in sorted(zip(src[crit].tolist(), tgt[crit].tolist())):  # row-major: each list ascends
        succ[s].append(t)
    classes = [c for c in strongly_connected(succ) if len(c) > 1 or c[0] in succ[c[0]]]
    if not classes:
        raise ValueError(
            f"no cycle is critical within tol {tol:g} at Q = {mean!r}: "
            "rounding at this weight scale exceeds the tolerance"
        )
    witness = maxplus_linalg._witness(succ, classes[0][0])
    return ErgodicReport(
        system=sys,
        Q=mean,
        maximizing_cycle=witness + witness[:1],
        phi=phi,
        aubry=tuple(sorted(x for c in classes for x in c)),
        critical_classes=classes,
    )


def report_to_json(report: ErgodicReport) -> dict:
    normalized = system_to_json(report.system)
    normalized["arcs"] = [[s, t, w - report.Q] for s, t, w in normalized["arcs"]]
    return {
        "Q": report.Q,
        "maximizing_cycle": list(report.maximizing_cycle),
        "normalized_system": normalized,
        "mane": {
            "phi": report.phi,
            "aubry": list(report.aubry),
            "critical_classes": [list(c) for c in report.critical_classes],
        },
        "eigenfunction_basis": [floats_to_json(v) for v in report.eigenfunction_basis],
        "eigen_density_basis": [d.to_json() for d in report.eigen_density_basis],
        "uniquely_calibrated": report.uniquely_calibrated,
    }
