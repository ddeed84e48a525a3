"""Max-plus matrices and the primitives of the one tropical pass: cycle
means, Kleene closures, strongly connected classes, critical cycles.

Matrix entry (i, j) is the weight of the arc i -> j; -inf marks a missing
arc. Weights come from real potentials, so +inf never appears here and
the arithmetic runs on float64 arrays (the only infinity in play is
-inf, which is safe under + and max). ergodic_opt.ergodic_report runs
the pass with these: Karp's maximum cycle mean over the arcs
(_karp_mean), one Kleene closure in place of the weights shifted by it
(_closure), Tarjan's strongly connected components of the critical arcs,
read on the arcs (strongly_connected), and a maximizing cycle by a BFS
over them (_witness); it holds one n x n float array at a time.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Iterable, List, Sequence, Tuple

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
    for k in range(1, n + 1):
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


def strongly_connected(
    nodes: Iterable[int], arcs: Iterable[Tuple[int, int]]
) -> List[Tuple[int, ...]]:
    """Strongly connected components, each sorted, ordered by least member.

    Iterative Tarjan, so deep graphs cannot hit the recursion limit.
    Nodes named only by arcs are included.
    """
    succ: Dict[int, List[int]] = {v: [] for v in nodes}
    for s, t in arcs:
        succ.setdefault(s, []).append(t)
        succ.setdefault(t, [])
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    on_stack = set()
    comps = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                # every successor of v is done: close v
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(tuple(sorted(comp)))
    # components are disjoint, so tuple order is order by least member
    comps.sort()
    return comps


def _witness(n: int, arcs: List[Tuple[int, int]], start: int) -> Tuple[int, ...]:
    """The shortest critical cycle through start, found by a deterministic
    BFS: a maximizing cycle, as every cycle of critical arcs has mean
    exactly the maximum. start lies in a critical class, so it closes."""
    adj: List[List[int]] = [[] for _ in range(n)]
    for i, j in arcs:  # row-major, so each list comes out sorted
        adj[i].append(j)
    parent: Dict[int, int] = {}
    queue = deque([start])
    while True:
        u = queue.popleft()
        for w in adj[u]:
            if w == start:
                cycle = [u]
                while cycle[-1] != start:
                    cycle.append(parent[cycle[-1]])
                return tuple(cycle[::-1])
            if w not in parent:
                parent[w] = u
                queue.append(w)
