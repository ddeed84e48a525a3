"""Max-plus matrices: cycle means, Kleene closures, critical graph, eigenproblem.

Matrix entry (i, j) is the weight of the arc i -> j; -inf marks a missing
arc. Weights come from real potentials, so +inf never appears here and
the arithmetic runs on float64 arrays (the only infinity in play is
-inf, which is safe under + and max). One tropical pass serves every
question about a matrix: Karp's maximum cycle mean over the arcs, then
one Kleene closure, from which the critical arcs, a maximizing cycle,
the Aubry set and the critical classes are all read.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .tropical_core import NEG_INF, TropValue, TropVector, array_mul, as_trop

DEFAULT_TOL = 1e-9

_NINF = -math.inf


class PositiveCycleError(ValueError):
    """A cycle of positive mean makes the Kleene closure diverge."""

    def __init__(self, mean: float, cycle: List[int]):
        self.mean = mean
        self.cycle = cycle
        super().__init__(
            f"positive cycle mean {mean:.6g} on cycle {cycle}; closure diverges"
        )


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

    Stored as a read-only float64 array with -inf for missing arcs;
    TropValue views are built only when asked for.
    """

    __slots__ = ("_a",)

    def __init__(self, rows: Iterable[Iterable]):
        self._a = _weight_array([[as_trop(x).to_float() for x in row] for row in rows])

    @classmethod
    def from_floats(cls, grid: Sequence[Sequence[float]]) -> "TropMatrix":
        """From a float grid (-inf for missing arcs), copied without building TropValues."""
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

    def entry(self, i: int, j: int) -> TropValue:
        return TropValue(self._a[i, j])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropMatrix):
            return NotImplemented
        return bool(np.array_equal(self._a, other._a))

    def __repr__(self) -> str:
        return f"TropMatrix(n={self.n})"

    def to_floats(self) -> List[List[float]]:
        """Plain float grid with -inf for missing arcs."""
        return self._a.tolist()

    def _arc_arrays(self) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        src, tgt = np.nonzero(self._a > _NINF)
        return self.n, src, tgt, self._a[src, tgt]


@dataclass
class CycleMeanResult:
    mean: TropValue
    witness: List[int]  # one maximizing simple cycle, empty when acyclic


def mat_vec(M: TropMatrix, v: TropVector) -> TropVector:
    """out(j) = ⊕_i M(i,j) ⊗ v(i): push values along arcs into their targets."""
    if len(v) != M.n:
        raise ValueError(f"dimension mismatch: matrix {M.n}, vector {len(v)}")
    return TropVector(array_mul(M.array, v.array[:, None]).max(axis=0))


def _karp_mean(n: int, src: np.ndarray, tgt: np.ndarray, w: np.ndarray) -> float:
    """Maximum cycle mean by Karp's recurrence with a free multi-source start.

    D[k, v] = max weight of a walk with exactly k arcs ending at v, any
    start; each k is one pass over the arcs, O(n·m) in all. Returns -inf
    when the graph is acyclic.
    """
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


def _closure(a: np.ndarray) -> np.ndarray:
    """Floyd-Warshall all-pairs maximum path weight, paths of length >= 1,
    computed in place.

    Only valid when every cycle mean is <= 0 (up to rounding). For each
    k the rows are relaxed against row k in index order: rows before k
    see row k as it was, rows after k see it after its own update. Row k
    changes only when a[k, k] > 0, which Karp's rounding allows, so this
    ordering is what keeps the result bit for bit the scalar recurrence.
    """
    for k in range(a.shape[0]):
        _raise_to(a[:k], a[:k, k, None] + a[k])
        _raise_to(a[k], a[k, k] + a[k])
        _raise_to(a[k + 1 :], a[k + 1 :, k, None] + a[k])
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


class _TropicalPass:
    """One tropical analysis of a max-plus matrix given by its arcs.

    Karp runs once, on construction. The closure runs at most once, on
    the matrix shifted by the mean, or unshifted when the caller states
    that the matrix is already normalized (a positive mean is then
    reported with a witness). Everything else is read off that closure.
    """

    def __init__(self, n, src, tgt, w, tol: float, normalized: bool = False):
        self.n, self.tol = n, tol
        self.mean = _karp_mean(n, src, tgt, w)
        if normalized and self.mean > tol:
            raise PositiveCycleError(self.mean, _TropicalPass(n, src, tgt, w, tol).witness)
        # x - 0.0 is x bit for bit; the weights shifted by an acyclic
        # graph's -inf mean are never read
        self._arcs = (src, tgt, w - (0.0 if normalized else self.mean))

    @cached_property
    def grid(self) -> np.ndarray:
        """The matrix the closure runs on."""
        src, tgt, w = self._arcs
        grid = np.full((self.n, self.n), _NINF)
        grid[src, tgt] = w
        return grid

    @cached_property
    def plus(self) -> np.ndarray:
        """The Kleene closure of grid."""
        return _closure(self.grid.copy())

    @cached_property
    def critical_arcs(self) -> List[Tuple[int, int]]:
        """Arcs lying on some cycle of total weight 0, in row-major order."""
        i, j = np.nonzero(np.abs(self.grid + self.plus.T) <= self.tol)
        return list(zip(i.tolist(), j.tolist()))

    @property
    def aubry(self) -> Tuple[int, ...]:
        """Nodes on a zero-weight cycle: |plus(i, i)| <= tol."""
        return tuple(np.flatnonzero(np.abs(np.diagonal(self.plus)) <= self.tol).tolist())

    @property
    def classes(self) -> List[Tuple[int, ...]]:
        """Strongly connected classes of the critical arcs that carry a cycle."""
        arcs = self.critical_arcs
        loops = {i for i, j in arcs if i == j}
        return [c for c in strongly_connected((), arcs) if len(c) > 1 or c[0] in loops]

    @property
    def witness(self) -> List[int]:
        """Deterministic maximizing cycle: lowest-index critical node, then
        shortest.

        Every cycle inside the critical arc set has mean exactly the
        maximum, so a BFS that closes back on the start node returns a
        valid witness. When rounding at the weights' scale exceeds tol,
        the critical arcs may close no cycle there; that is an error.
        """
        arcs = self.critical_arcs
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for i, j in arcs:  # row-major, so each list comes out sorted
            adj[i].append(j)
        if arcs:
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
                        return cycle[::-1]
                    if w not in parent:
                        parent[w] = u
                        queue.append(w)
        raise ValueError(
            f"no cycle is critical within tol {self.tol:g} at Q = {self.mean!r}: "
            "rounding at this weight scale exceeds the tolerance"
        )


def max_cycle_mean(M: TropMatrix, tol: float = DEFAULT_TOL) -> CycleMeanResult:
    """Karp's maximum cycle mean plus one deterministic witness cycle."""
    p = _TropicalPass(*M._arc_arrays(), tol)
    if p.mean == _NINF:
        return CycleMeanResult(mean=NEG_INF, witness=[])
    return CycleMeanResult(mean=TropValue(p.mean), witness=p.witness)


def kleene_plus(M: TropMatrix, tol: float = DEFAULT_TOL) -> TropMatrix:
    """M⁺ = ⊕_{k>=1} M^⊗k, the all-pairs maximum path weight.

    Requires every cycle mean <= 0 (+tol); a positive-mean cycle is
    reported with a witness instead of silently diverging.
    """
    return TropMatrix.from_floats(_TropicalPass(*M._arc_arrays(), tol, normalized=True).plus)


def critical_nodes(M: TropMatrix, tol: float = DEFAULT_TOL) -> Tuple[int, ...]:
    """Nodes on a zero-weight cycle of a normalized matrix: |M⁺(i,i)| <= tol."""
    return _TropicalPass(*M._arc_arrays(), tol, normalized=True).aubry


def critical_classes(M: TropMatrix, tol: float = DEFAULT_TOL) -> List[Tuple[int, ...]]:
    """Strongly connected classes of the zero-mean-cycle arc subgraph."""
    p = _TropicalPass(*M._arc_arrays(), tol)
    return [] if p.mean == _NINF else p.classes


def eigenproblem(
    M: TropMatrix, tol: float = DEFAULT_TOL
) -> Tuple[TropValue, List[TropVector]]:
    """Tropical eigenvalue and one eigenvector per critical class.

    λ is the maximum cycle mean; the basis vectors are the rows
    (M - λ)⁺(x, ·) for one representative x per critical class. Each
    satisfies mat_vec(M, v) = λ ⊗ v.
    """
    p = _TropicalPass(*M._arc_arrays(), tol)
    if p.mean == _NINF:
        raise ValueError("acyclic matrix has no tropical eigenvalue")
    return TropValue(p.mean), [TropVector(p.plus[cls[0]]) for cls in p.classes]
