"""Max-plus matrices and the one tropical pass: cycle means, Kleene
closures, the critical graph.

Matrix entry (i, j) is the weight of the arc i -> j; -inf marks a missing
arc. Weights come from real potentials, so +inf never appears here and
the arithmetic runs on float64 arrays (the only infinity in play is
-inf, which is safe under + and max). One eager tropical pass serves
every question about a system (tropical_pass): Karp's maximum cycle
mean over the arcs, then one Kleene closure of the weights shifted by
it, from which the critical arcs, a maximizing cycle, the Aubry set and
the critical classes are all read. Its record, TropicalPass, is the
Mañé data that `ergodic_opt` hands out unchanged.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

DEFAULT_TOL = 1e-9
# cells of one gathered block in the closure: 256 KiB of float64
_BLOCK_CELLS = 1 << 15

_NINF = -math.inf


class AcyclicError(ValueError):
    """A graph without cycles has no cycle mean to shift by."""


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

    def __init__(self, rows: Iterable[Iterable]):
        self._a = _weight_array([[float(x) for x in row] for row in rows])

    @classmethod
    def from_floats(cls, grid: Sequence[Sequence[float]]) -> "TropMatrix":
        """From a float grid (-inf for missing arcs), copied as one array."""
        M = cls.__new__(cls)
        M._a = _weight_array(grid)
        return M

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
    |D[n] - D[k]| and every path sum of the closure, overflows float64.
    """
    top = float(np.max(np.abs(w), initial=0.0))
    if not math.isfinite(2.0 * n * top):  # a Python float product: no numpy warning
        raise ValueError(f"path sums overflow float64: 2 * n * max |w| = 2 * {n} * {top:.6g} is inf")
    D = np.full((n + 1, n), _NINF)
    D[0] = 0.0
    for k in range(1, n + 1):
        np.maximum.at(D[k], tgt, D[k - 1][src] + w)
    with np.errstate(invalid="ignore"):  # -inf - -inf, masked below
        gaps = (D[n] - D[:n]) / (n - np.arange(n))[:, None]
    worst = np.where(D[:n] > _NINF, gaps, math.inf).min(axis=0)
    ends = worst[D[n] > _NINF]
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
    computed in place.

    Only valid when every cycle mean is <= 0 (up to rounding). For each
    k only the rows i with a[i, k] > -inf are relaxed against row k: the
    candidates of any other row are -inf + a[k, j] = -inf (a[k, j] is
    never +inf), which never pass the strict > test. On the doubling
    models at most a quarter of a column is finite on average over k,
    so most of the O(n³) work is skipped; a dense matrix still costs
    O(n³). Row k changes only when a[k, k] > 0, which Karp's rounding
    allows; then the rows before k see row k as it was and the rows
    after k see it after its own update. That ordering keeps the result
    bit for bit the scalar recurrence.
    """
    for k in range(a.shape[0]):
        live = np.flatnonzero(a[:, k] > _NINF)
        if a[k, k] > 0:
            cut = np.searchsorted(live, k)  # live[cut] == k
            _relax(a, live[:cut], k)
            _raise_to(a[k], a[k, k] + a[k])
            _relax(a, live[cut + 1 :], k)
        else:
            # row k does not move, so every live row sees the same row k
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


@dataclass(frozen=True)
class TropicalPass:
    """The Mañé data one tropical pass reads off a max-plus matrix.

    mean is Karp's maximum cycle mean and phi the read-only Kleene
    closure of the weights shifted by it (paths of length >= 1, -inf
    where none runs); witness is a maximizing cycle (its states, first
    one not repeated), aubry the nodes on a zero-weight cycle,
    critical_classes the strongly connected classes of the critical
    arcs that carry a cycle.
    """

    mean: float
    witness: Tuple[int, ...]
    phi: np.ndarray
    aubry: Tuple[int, ...]
    critical_classes: List[Tuple[int, ...]]


def tropical_pass(n: int, src: np.ndarray, tgt: np.ndarray, w: np.ndarray, tol: float) -> TropicalPass:
    """Karp once, then one Kleene closure of the weights shifted by the
    mean, from which everything else is read.

    AcyclicError before any closure when no cycle exists. Critical arcs
    lie on some cycle of total weight 0: |w(i, j) + star(j, i)| <= tol,
    the way back read from the Kleene star, whose diagonal
    max(phi(i, i), 0) is the empty path. So a self-loop is counted
    once, as the Aubry test |phi(i, i)| <= tol counts it, and the
    critical classes cover the Aubry set.
    """
    check_tol(tol)
    mean = _karp_mean(n, src, tgt, w)
    if mean == _NINF:
        raise AcyclicError("acyclic system carries no invariant measure")
    grid = np.full((n, n), _NINF)
    grid[src, tgt] = w - mean
    phi = _closure(grid.copy())
    phi.flags.writeable = False
    cycle = grid + phi.T
    np.fill_diagonal(cycle, np.diagonal(grid) + np.maximum(np.diagonal(phi), 0.0))
    i, j = np.nonzero(np.abs(cycle) <= tol)
    arcs = list(zip(i.tolist(), j.tolist()))  # row-major
    witness = _witness(n, arcs)
    if witness is None:
        raise ValueError(
            f"no cycle is critical within tol {tol:g} at Q = {mean!r}: "
            "rounding at this weight scale exceeds the tolerance"
        )
    loops = {s for s, t in arcs if s == t}
    return TropicalPass(
        mean=mean,
        witness=witness,
        phi=phi,
        aubry=tuple(np.flatnonzero(np.abs(np.diagonal(phi)) <= tol).tolist()),
        critical_classes=[c for c in strongly_connected((), arcs) if len(c) > 1 or c[0] in loops],
    )


def _witness(n: int, arcs: List[Tuple[int, int]]) -> Optional[Tuple[int, ...]]:
    """Deterministic maximizing cycle: lowest-index critical node, then
    shortest.

    Every cycle inside the critical arc set has mean exactly the maximum,
    so a BFS that closes back on the start node returns a valid witness.
    When rounding at the weights' scale exceeds tol, the critical arcs
    may close no cycle there: None.
    """
    if not arcs:
        return None
    adj: List[List[int]] = [[] for _ in range(n)]
    for i, j in arcs:  # row-major, so each list comes out sorted
        adj[i].append(j)
    # BFS from the lowest critical node until an arc closes back on it
    start = min(min(arc) for arc in arcs)
    parent: Dict[int, int] = {}
    queue = deque([start])
    while queue:
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
    return None
