"""Brute-force reference computations.

Deliberately independent of the fast paths: cycle means come from
exhaustive simple-cycle enumeration (a depth-first search rooted at each
cycle's least state), path suprema from naive max-plus matrix powers
over plain floats, calibrated sub-actions from iterating the Bousch
operator, and the Ruelle operator is applied in linear space arc by arc.
Standard library and numpy only. Sized for small systems (the CLI caps
the oracle at 10 states).
"""

from __future__ import annotations

import math
from collections import deque
from typing import List, Sequence, Tuple

import numpy as np

from .dynamics import TransitionSystem, bousch_apply
from .maxplus_linalg import DEFAULT_TOL
from .tropical_core import sup_distance, trop_vector

_NINF = -math.inf


def enum_max_cycle_mean(sys: TransitionSystem) -> float:
    """Maximum over all simple cycles of (total weight / length); -inf when acyclic.

    Each simple cycle is found once, from its least state: the search
    rooted at a state walks only through greater states and closes a
    cycle on an arc back to the root. Weights are summed in path order
    from the root.
    """
    succ = [[] for _ in range(sys.n)]
    for s, t, w in sys.arcs:
        succ[s].append((t, w))
    best = _NINF
    on_path = [False] * sys.n
    for root in range(sys.n):
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


def _matmul_maxplus(a: List[List[float]], b: List[List[float]]) -> List[List[float]]:
    n = len(a)
    out = [[_NINF] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            aik = ai[k]
            if aik == _NINF:
                continue
            bk = b[k]
            for j in range(n):
                c = aik + bk[j]
                if c > oi[j]:
                    oi[j] = c
    return out


def enum_mane(sys: TransitionSystem, q: float, horizon: int = None) -> List[List[float]]:
    """Max normalized path weight by powering the shifted weight matrix.

    With all cycle means <= 0 a maximizing walk never gains from length
    beyond 2n, so the default horizon is exact.
    """
    n = sys.n
    if horizon is None:
        horizon = 2 * n
    grid = [[_NINF] * n for _ in range(n)]
    for s, t, w in sys.arcs:
        grid[s][t] = w - q
    phi = [row[:] for row in grid]
    power = [row[:] for row in grid]
    for _ in range(horizon - 1):
        power = _matmul_maxplus(power, grid)
        for i in range(n):
            pi = power[i]
            fi = phi[i]
            for j in range(n):
                if pi[j] > fi[j]:
                    fi[j] = pi[j]
    return phi


def enum_aubry(phi: List[List[float]], tol: float = 1e-9) -> Tuple[int, ...]:
    """States whose best return path has weight 0 (within tol)."""
    out = []
    for i, row in enumerate(phi):
        d = row[i]
        if d != _NINF and abs(d) <= tol:
            out.append(i)
    return tuple(out)


def subaction_limsup(sys: TransitionSystem, u0: np.ndarray) -> np.ndarray:
    """The limsup of Bousch iterates of u0 on a normalized system.

    Iterates are eventually periodic, so the supremum over a sliding
    window becomes stationary; since the operator distributes over
    finite sups, a stationary window supremum is already a fixed point.
    Convergence is declared once the window supremum holds still across
    one full window. The window is the state count and the cap 4 n^2
    iterations. Normalization is checked by enumeration, and both it and
    the limit's fixed-point residual must hold within DEFAULT_TOL.
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
    w, limit = n, 4 * n * n
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
            cur = np.where(cur >= item, cur, item)  # the first operand wins ties, as t_add does
        if prev_sup is not None:
            last_change = sup_distance(cur, prev_sup)
            if last_change <= 1e-12:
                streak += 1
                if streak >= w:
                    resid = sup_distance(bousch_apply(sys, cur), cur)
                    if resid > DEFAULT_TOL:
                        raise RuntimeError(
                            f"window supremum stabilized but fixed-point residual {resid:.3e} exceeds {DEFAULT_TOL:.1e}"
                        )
                    return trop_vector(cur)
            else:
                streak = 0
        prev_sup = cur
    raise RuntimeError(
        f"no stabilization within {limit} iterations "
        f"(window {w}, last window-sup change {last_change:.3e})"
    )


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
