"""Checks of the library's own outputs, shared by the test modules.

They check what the fast path returns (an eigenfunction or density
against its Aubry-set representation, a vector against the sub-action
inequality), so they live with the tests, not in the library.
"""

import math
from typing import Optional

import numpy as np

from troptherm.dynamics import TransitionSystem, bousch_apply
from troptherm.ergodic_opt import ErgodicReport, ergodic_report
from troptherm.maxplus_linalg import DEFAULT_TOL, _karp_mean
from troptherm.tropical_core import array_mul, sup_distance, trop_vector
from troptherm.tropical_measures import Density


def shift(sys: TransitionSystem, delta: float) -> TransitionSystem:
    """sys with every weight moved by delta, built through the constructor."""
    return TransitionSystem(sys.n, [(s, t, w + delta) for s, t, w in sys.arcs], sys.labels)


def normalize(sys: TransitionSystem) -> TransitionSystem:
    """sys with every weight shifted by -Q, as analyze writes it."""
    return shift(sys, -ergodic_report(sys).Q)


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
    return sup_distance(vec, terms.max(axis=0, initial=-math.inf))


def is_subaction(sys: TransitionSystem, u: np.ndarray) -> bool:
    """Whether the Bousch image of u stays below u shifted by the maximal
    potential energy, within DEFAULT_TOL."""
    u = trop_vector(u)
    if not np.isfinite(u).all():
        raise ValueError("sub-action candidates must be finite-valued")
    q = _karp_mean(sys.n, *sys.arc_arrays)  # the mean alone: no witness, no closure
    if q == -math.inf:
        raise ValueError("acyclic system carries no invariant measure")
    return not np.any(bousch_apply(sys, u) > u + q + DEFAULT_TOL)

