"""Max-plus matrices and the primitives of the one tropical pass: cycle
means, Kleene closures, strongly connected classes, critical cycles.

Matrix entry (i, j) is the weight of the arc i -> j; -inf marks a missing
arc. Weights come from real potentials, so +inf never appears here and
the arithmetic runs on float64 arrays (the only infinity in play is
-inf, which is safe under + and max). ergodic_opt.ergodic_report runs
the pass with these: Karp's maximum cycle mean over the arcs
(_karp_mean), one Kleene closure in place of the weights shifted by it
(_closure), Tarjan's strongly connected components of the critical arcs
(strongly_connected) and a maximizing cycle by a BFS over them
(_witness); both walk one table of successor lists, one per state, and
the pass holds one n x n float array at a time.
_arc_reduce is the one arc product of both transfer operators: ⊕ = max
for Bousch, logaddexp for Ruelle in logs. Karp's recurrence writes the
max product into its own rows in place.
"""

from __future__ import annotations

import math
from collections import deque
from typing import List, Sequence, Tuple

import numpy as np

DEFAULT_TOL = 1e-9
# cells of one gathered block in the closure: 256 KiB of float64
_BLOCK_CELLS = 1 << 15

_NINF = -math.inf


class MultiClassError(ValueError):
    """Several critical classes: no single zero-temperature selection."""

    def __init__(self, classes: List[Tuple[int, ...]]):
        self.classes = classes
        super().__init__(
            f"{len(classes)} critical classes {classes}: "
            "the zero-temperature limit is not a single point"
        )


class ConvergenceError(RuntimeError):
    """The eigenvector iteration hit its step cap."""


class PositiveCycleError(ValueError):
    """A cycle of positive mean makes the Kleene closure diverge."""

    def __init__(self, mean: float, cycle: List[int]):
        self.mean = mean
        self.cycle = cycle
        super().__init__(
            f"positive cycle mean {mean:.6g} on cycle {cycle}; closure diverges"
        )


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is not a finite number >= 0: an infinite
    one makes every arc critical, a negative or NaN one none."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0: {tol!r}")


def _weight_array(grid) -> np.ndarray:
    a = np.array(grid, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError("matrix must be square and nonempty")
    if np.isnan(a).any():
        raise ValueError("NaN has no tropical meaning")
    if np.isposinf(a).any():
        raise ValueError("+inf entries are not allowed in a weight matrix")
    a.flags.writeable = False
    return a


class TropMatrix:
    """Square max-plus matrix; entry (i, j) weighs the arc i -> j.

    Stored as a read-only float64 array with -inf for missing arcs.
    """

    __slots__ = ("_a",)

    def __init__(self, grid: Sequence[Sequence[float]]):
        self._a = _weight_array(grid)

    @property
    def n(self) -> int:
        return self._a.shape[0]

    @property
    def array(self) -> np.ndarray:
        """The read-only float64 grid."""
        return self._a


def _arc_reduce(op: np.ufunc, x: np.ndarray, frm: np.ndarray, to: np.ndarray, w) -> np.ndarray:
    """out[t] = op over arcs f -> t, in arc order, of x[f] + w; -inf where
    no arc enters. w is finite, so no sum is NaN; one past float range
    goes to +-inf quietly."""
    out = np.full(len(x), _NINF)
    with np.errstate(over="ignore"):
        op.at(out, to, x[frm] + w)
    return out


def _karp_mean(n: int, src: np.ndarray, tgt: np.ndarray, w: np.ndarray) -> float:
    """Maximum cycle mean by Karp's recurrence with a free multi-source start.

    D[k, v] = max weight of a walk with exactly k arcs ending at v, any
    start; each k is one pass over the arcs, O(n·m) in all. Returns -inf
    when the graph is acyclic. ValueError when 2·n·max|w|, which bounds
    |D[n] - D[k]| and the weight of every simple path, overflows float64.
    The gaps overwrite D's first n rows: no n x n array beyond D.
    """
    top = float(np.max(np.abs(w), initial=0.0))
    if not math.isfinite(2.0 * n * top):  # a Python float product: no numpy warning
        raise ValueError(f"path sums overflow float64: 2 * n * max |w| = 2 * {n} * {top:.6g} is inf")
    D = np.full((n + 1, n), _NINF)
    D[0] = 0.0
    for k in range(1, n + 1):  # D is -inf-filled, and the guard rules out overflow
        np.maximum.at(D[k], tgt, D[k - 1][src] + w)
    with np.errstate(invalid="ignore"):  # unmasked: -inf D[k] gives +inf, NaN only where D[n] is -inf
        np.subtract(D[n], D[:n], out=D[:n])
        np.divide(D[:n], (n - np.arange(n))[:, None], out=D[:n])
        ends = D[:n].min(axis=0)[D[n] > _NINF]
    return float(ends.max()) if ends.size else _NINF


def _raise_to(dst: np.ndarray, cand: np.ndarray) -> None:
    # only a strictly larger candidate replaces, so a -0.0 survives a tie
    # with 0.0 (np.maximum would take the later zero)
    np.copyto(dst, cand, where=cand > dst)


def _relax(a: np.ndarray, rows: np.ndarray, k: int) -> None:
    # gathered in blocks of about _BLOCK_CELLS cells, so the temporaries
    # stay in cache: a whole n x n temporary per k is 8 MiB at n = 1,024
    step = max(1, _BLOCK_CELLS // a.shape[1])
    for lo in range(0, rows.size, step):
        block = rows[lo : lo + step]
        sub = a[block]
        _raise_to(sub, sub[:, k, None] + a[k])
        a[block] = sub


def _closure(a: np.ndarray) -> np.ndarray:
    """Floyd-Warshall all-pairs maximum path weight, paths of length >= 1,
    computed in place: a is the one n x n float array the pass holds.

    Only valid when every cycle mean is <= 0 (up to rounding). For each
    k only the rows i with a[i, k] > -inf are relaxed against row k: the
    candidates of any other row are -inf + a[k, j] = -inf (a[k, j] is
    never +inf), which never pass the strict > test. On the doubling
    models at most a quarter of a column is finite on average over k,
    so most of the O(n³) work is skipped; a dense matrix still costs
    O(n³). Row k changes only when a[k, k] > 0, which Karp's rounding
    allows; then the rows before k are relaxed against row k as it was,
    row k is updated, and the one relaxation of each step takes the rows
    after k. That ordering keeps the result bit for bit the scalar
    recurrence.

    Karp's guard bounds every best path, but not a candidate a[i, k] +
    a[k, j] of up to 2n arcs: one that passes float range goes quietly
    to -inf, below every best path, and never wins the max.
    """
    with np.errstate(over="ignore"):
        for k in range(a.shape[0]):
            live = np.flatnonzero(a[:, k] > _NINF)
            if a[k, k] > 0:
                cut = np.searchsorted(live, k)  # live[cut] == k
                _relax(a, live[:cut], k)
                _raise_to(a[k], a[k, k] + a[k])
                live = live[cut + 1 :]
            _relax(a, live, k)
    return a


def strongly_connected(succ: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Strongly connected components of the graph with successor lists
    succ[s] over states 0..n-1, each sorted, ordered by least member.

    Iterative Tarjan, so deep graphs cannot hit the recursion limit. A
    state's index is -1 until it is reached, then its place on Tarjan's
    stack (places keep the order of discovery), and n once its component
    closes, so a closed successor never lowers low: no on-stack set.
    """
    n = len(succ)
    index, low = [-1] * n, [-1] * n
    stack: List[int] = []
    comps = []
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = 0  # every earlier component is closed
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if index[w] < 0:
                    index[w] = low[w] = len(stack)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                # every successor of v is done: close v
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = stack[index[v] :]
                    del stack[index[v] :]
                    for w in comp:
                        index[w] = n
                    comps.append(tuple(sorted(comp)))
    # components are disjoint, so tuple order is order by least member
    comps.sort()
    return comps


def _witness(succ: Sequence[Sequence[int]], start: int) -> Tuple[int, ...]:
    """The shortest critical cycle through start, found by a deterministic
    BFS over the critical successor lists, each ascending: a maximizing
    cycle, as every cycle of critical arcs has mean exactly the maximum.
    start lies in a critical class, so it closes."""
    parent = [-1] * len(succ)
    queue = deque([start])
    while True:
        u = queue.popleft()
        for w in succ[u]:
            if w == start:
                cycle = [u]
                while cycle[-1] != start:
                    cycle.append(parent[cycle[-1]])
                return tuple(cycle[::-1])
            if parent[w] < 0:
                parent[w] = u
                queue.append(w)
