"""Checks of the library's own outputs, shared by the test modules.

They check what the fast path returns (an eigenfunction or density
against its Aubry-set representation, a vector against the sub-action
inequality), so they live with the tests, not in the library. So does
cold_report, the test double that gives the Ruelle solve a cold start
as its reference.
"""

import dataclasses
import math
from typing import List, Optional, Tuple

import numpy as np

from troptherm.dynamics import TransitionSystem, bousch_apply
from troptherm.ergodic_opt import ErgodicReport, ergodic_report
from troptherm.maxplus_linalg import DEFAULT_TOL, _karp_mean
from troptherm.tropical_core import array_mul, sup_distance, trop_vector
from troptherm.tropical_measures import Density


def shift(sys: TransitionSystem, delta: float) -> TransitionSystem:
    """sys with every weight moved by delta, built through the constructor."""
    return TransitionSystem(sys.n, [(s, t, w + delta) for s, t, w in sys.arcs], sys.labels)


def successors(n: int, arcs) -> List[List[int]]:
    """The successor lists over states 0..n-1 of (source, target) pairs, in arc order."""
    succ = [[] for _ in range(n)]
    for s, t in arcs:
        succ[s].append(t)
    return succ


def mutual_reachability_components(n: int, arcs) -> List[Tuple[int, ...]]:
    """Components as classes of mutual reachability, from a closure of the
    reflexive reachability relation over plain sets."""
    reach = [{x} for x in range(n)]
    for s, t in arcs:
        reach[s].add(t)
    for k in range(n):
        for x in range(n):
            if k in reach[x]:
                reach[x] |= reach[k]
    return sorted({tuple(sorted(y for y in reach[x] if x in reach[y])) for x in range(n)})


def assert_close(a, b, tol: float) -> None:
    """The same -inf pattern, and the finite entries within tol; -inf - -inf
    is masked out, since it would be NaN under a warning."""
    a, b = np.asarray(a), np.asarray(b)
    missing = np.isneginf(a)
    assert np.array_equal(missing, np.isneginf(b))
    assert np.all(np.abs(a[~missing] - b[~missing]) <= tol)


def normalize(sys: TransitionSystem) -> TransitionSystem:
    """sys with every weight shifted by -Q, as analyze writes it."""
    return shift(sys, -ergodic_report(sys).Q)


def cold_report(sys: TransitionSystem) -> ErgodicReport:
    """The report of sys with phi zeroed: spectral_data then starts cold,
    from log u = log m = 0, and shifts by the same Karp mean. For
    irreducible systems only, since a finite phi reads as strongly
    connected."""
    return dataclasses.replace(ergodic_report(sys), phi=np.zeros((sys.n, sys.n)))


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
    phi = report.phi if v is not None else report.phi.T
    vec = trop_vector(v) if v is not None else b.values
    if len(vec) != phi.shape[0]:
        raise ValueError(f"length mismatch: {len(vec)} vs {phi.shape[0]}")
    aubry = list(report.aubry)
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

