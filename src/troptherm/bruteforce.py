"""Brute-force reference computations.

Deliberately independent of the fast paths: cycle means come from
exhaustive simple-cycle enumeration (a depth-first search rooted at each
cycle's least state), path suprema from naive max-plus matrix powers,
calibrated sub-actions from the spectral projector on that enumerated
phi, and the Ruelle operator is applied arc by arc, in linear space
and in log space.
Standard library and numpy only. Sized for small systems: path suprema
cost O(n^4) float operations in n^3-cell temporaries, the CLI caps the
oracle at 10 states and the tests stay at n <= 12.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .dynamics import TransitionSystem, bousch_apply
from .maxplus_linalg import DEFAULT_TOL
from .tropical_core import sup_distance, trop_vector

_NINF = -math.inf


def enum_max_cycle_mean(sys: TransitionSystem) -> float:
    """Maximum over all simple cycles of (total weight / length); -inf when acyclic.

    Each simple cycle is found once, from its least state (entered from
    a state no less, so only such states are roots): the search walks
    only through greater states and closes a cycle on an arc back to the
    root. Weights are summed in path order from the root.
    """
    succ = [[] for _ in range(sys.n)]
    for s, t, w in sys.arcs:
        succ[s].append((t, w))
    best = _NINF
    on_path = [False] * sys.n
    for root in sorted({t for s, t, _ in sys.arcs if s >= t}):
        # one (state, weight so far, arcs still to try) per path state; an
        # explicit stack, so no recursion limit
        stack = [(root, 0.0, iter(succ[root]))]
        while stack:
            _, total, arcs = stack[-1]
            for t, w in arcs:
                if t == root:
                    mean = (total + w) / len(stack)
                    if mean > best:
                        best = mean
                elif t > root and not on_path[t]:
                    on_path[t] = True
                    stack.append((t, total + w, iter(succ[t])))
                    break
            else:
                on_path[stack.pop()[0]] = False
    return best


def enum_mane(sys: TransitionSystem, q: float, horizon: int = None) -> np.ndarray:
    """Max normalized path weight by powering the shifted weight matrix.

    With all cycle means <= 0 a maximizing walk never gains from length
    beyond 2n, so the default horizon is exact. Each max-plus power is
    one broadcast sum reduced over the middle state, and phi is the
    running max of the powers. The floats are those of a scalar loop:
    a sum past float range goes to +-inf without a warning, and np.fmax
    skips the NaN of inf - inf, so such a sum never wins a max.
    """
    n = sys.n
    if horizon is None:
        horizon = 2 * n
    src, tgt, w = sys.arc_arrays
    grid = np.full((n, n), _NINF)
    with np.errstate(over="ignore", invalid="ignore"):
        grid[src, tgt] = w - q
        phi = power = grid
        for _ in range(horizon - 1):
            power = np.fmax.reduce(power[:, :, None] + grid, axis=1, initial=_NINF)
            phi = np.fmax(phi, power)
    return phi


def enum_aubry(phi: np.ndarray, tol: float = DEFAULT_TOL) -> Tuple[int, ...]:
    """States whose best return path has weight 0 (within tol); a -inf
    diagonal is excluded whatever tol is."""
    d = np.diagonal(phi)
    return tuple(np.flatnonzero((d > _NINF) & (np.abs(d) <= tol)).tolist())


def enum_critical_classes(phi: np.ndarray, aubry: Sequence[int]) -> List[Tuple[int, ...]]:
    """Aubry states grouped by round trip: x and y share a class when
    phi(x, y) + phi(y, x) is within DEFAULT_TOL of 0 (x is in its own);
    ordered by least member, and a partition unless a round trip sits at
    the tolerance edge."""
    classes: List[Tuple[int, ...]] = []
    for x in aubry:
        if not any(x in c for c in classes):
            classes.append(tuple(y for y in aubry if y == x or abs(phi[x, y] + phi[y, x]) <= DEFAULT_TOL))
    return classes


def subaction_limsup(sys: TransitionSystem, u0: np.ndarray) -> np.ndarray:
    """The limsup of Bousch iterates of u0 on a normalized system.

    The Bousch operator is tropical linear, so the limsup is the spectral
    projector P u0: (P u0)(x) is the max over Aubry states c of
    [max_y u0(y) + phi*(y, c)] + phi*(c, x), where phi* is enum_mane's
    phi at Q = 0 with the empty path, its diagonal max(phi(x, x), 0)
    (Baccelli, Cohen, Olsder, Quadrat, Synchronization and Linearity,
    1992, ch. 3). Normalization is checked by enumeration, and both it
    and the limit's fixed-point residual must hold within DEFAULT_TOL.
    enum_max_cycle_mean is exhaustive, so this is a small-n reference.
    """
    n = sys.n
    u0 = trop_vector(u0)
    if len(u0) != n:
        raise ValueError(f"length mismatch: system {n}, vector {len(u0)}")
    if not np.isfinite(u0).all():
        raise ValueError("start vector must be finite-valued")
    mean = enum_max_cycle_mean(sys)
    if mean == _NINF or abs(mean) > DEFAULT_TOL:
        raise ValueError("system is not normalized (max cycle mean must be 0)")
    star = enum_mane(sys, 0.0)
    aubry = list(enum_aubry(star))
    np.fill_diagonal(star, np.maximum(star.diagonal(), 0.0))
    into = np.max(u0[:, None] + star[:, aubry], axis=0, initial=_NINF)
    out = trop_vector(np.max(into[:, None] + star[aubry, :], axis=0, initial=_NINF))
    resid = sup_distance(bousch_apply(sys, out), out)
    if resid > DEFAULT_TOL:
        raise RuntimeError(f"projected limit's fixed-point residual {resid:.3e} exceeds {DEFAULT_TOL:.1e}")
    return out


def ruelle_apply(sys: TransitionSystem, u: Sequence[float], beta: float) -> np.ndarray:
    """out(x) = sum over arcs y -> x of u(y) * exp(beta * weight).

    The Ruelle operator in linear space, arc by arc; it overflows for
    large beta * weight, which is why thermo works on logarithms instead.
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
    """log of the Ruelle image of e^{log_u}, arc by arc in arc order:
    out(x) = log of the sum over arcs y -> x of e^{log_u(y) + beta * weight},
    accumulated with logaddexp, so it does not overflow where ruelle_apply
    does."""
    log_u = np.asarray(log_u, dtype=float)
    if len(log_u) != sys.n:
        raise ValueError(f"length mismatch: system {sys.n}, vector {len(log_u)}")
    out = np.full(sys.n, _NINF)
    for s, t, w in sys.arcs:
        out[t] = np.logaddexp(out[t], beta * w + log_u[s])
    return out
