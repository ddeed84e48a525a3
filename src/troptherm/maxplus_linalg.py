"""Max-plus matrices: cycle means, Kleene closures, critical graph, eigenproblem.

Matrix entry (i, j) is the weight of the arc i -> j; NEG_INF marks a
missing arc. Weights come from real potentials, so +inf never appears
here and the internal arithmetic can run on plain floats (the only
infinity in play is -inf, which is safe under + and max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .tropical_core import (
    NEG_INF,
    TropValue,
    TropVector,
    as_trop,
    t_add,
    t_mul,
)

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


class TropMatrix:
    """Square max-plus matrix; entry (i, j) weighs the arc i -> j."""

    __slots__ = ("_n", "_rows")

    def __init__(self, rows: Iterable[Iterable]):
        mat = tuple(tuple(as_trop(x) for x in row) for row in rows)
        n = len(mat)
        if n == 0 or any(len(row) != n for row in mat):
            raise ValueError("matrix must be square and nonempty")
        for row in mat:
            for x in row:
                if x.is_pos_inf:
                    raise ValueError("+inf entries are not allowed in a weight matrix")
        self._n = n
        self._rows = mat

    @property
    def n(self) -> int:
        return self._n

    @property
    def rows(self) -> tuple:
        return self._rows

    def entry(self, i: int, j: int) -> TropValue:
        return self._rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"TropMatrix(n={self._n})"

    def to_floats(self) -> List[List[float]]:
        """Plain float grid with -inf for missing arcs."""
        return [[x.to_float() for x in row] for row in self._rows]

    @classmethod
    def from_floats(cls, grid: Sequence[Sequence[float]]) -> "TropMatrix":
        return cls(grid)


@dataclass
class CycleMeanResult:
    mean: TropValue
    witness: List[int]  # one maximizing simple cycle, empty when acyclic


def mat_vec(M: TropMatrix, v: TropVector) -> TropVector:
    """out(j) = ⊕_i M(i,j) ⊗ v(i): push values along arcs into their targets."""
    if len(v) != M.n:
        raise ValueError(f"dimension mismatch: matrix {M.n}, vector {len(v)}")
    out = []
    for j in range(M.n):
        acc = NEG_INF
        for i in range(M.n):
            acc = t_add(acc, t_mul(M.entry(i, j), v[i]))
        out.append(acc)
    return TropVector(out)


def _karp_mean(grid: List[List[float]]) -> float:
    """Maximum cycle mean by Karp's recurrence with a free multi-source start.

    D[k][v] = max weight of a walk with exactly k arcs ending at v, any
    start. Returns -inf when the graph is acyclic.
    """
    n = len(grid)
    D = [[0.0] * n]
    for k in range(1, n + 1):
        prev = D[-1]
        cur = [_NINF] * n
        for u in range(n):
            pu = prev[u]
            if pu == _NINF:
                continue
            row = grid[u]
            for v in range(n):
                w = row[v]
                if w == _NINF:
                    continue
                c = pu + w
                if c > cur[v]:
                    cur[v] = c
        D.append(cur)
    best = _NINF
    Dn = D[n]
    for v in range(n):
        if Dn[v] == _NINF:
            continue
        worst = math.inf
        for k in range(n):
            if D[k][v] == _NINF:
                continue
            cand = (Dn[v] - D[k][v]) / (n - k)
            if cand < worst:
                worst = cand
        if worst < math.inf and worst > best:
            best = worst
    return best


def _closure_floats(grid: List[List[float]]) -> List[List[float]]:
    """Floyd-Warshall style all-pairs maximum path weight, paths of length >= 1.

    Only valid when every cycle mean is <= 0; callers check first.
    """
    n = len(grid)
    a = [row[:] for row in grid]
    for k in range(n):
        ak = a[k]
        for i in range(n):
            aik = a[i][k]
            if aik == _NINF:
                continue
            row = a[i]
            for j in range(n):
                c = aik + ak[j]
                if c > row[j]:
                    row[j] = c
    return a


def _critical_arcs(
    grid: List[List[float]], plus: List[List[float]], tol: float
) -> List[Tuple[int, int]]:
    """Arcs lying on some cycle of total weight 0 (matrix assumed normalized)."""
    n = len(grid)
    arcs = []
    for i in range(n):
        for j in range(n):
            w = grid[i][j]
            if w == _NINF:
                continue
            back = plus[j][i]
            if back == _NINF:
                continue
            if abs(w + back) <= tol:
                arcs.append((i, j))
    return arcs


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


def _critical_classes_from_arcs(arcs: List[Tuple[int, int]]) -> List[Tuple[int, ...]]:
    loops = {i for i, j in arcs if i == j}
    # keep only components that actually carry a cycle
    return [c for c in strongly_connected((), arcs) if len(c) > 1 or c[0] in loops]


def _witness_cycle(
    grid: List[List[float]], mean: float, tol: float
) -> List[int]:
    """Deterministic maximizing cycle: lowest-index critical node, then shortest.

    Works on the matrix shifted by the (already computed) maximum cycle
    mean; every cycle inside the critical arc set has mean exactly the
    maximum, so a BFS that closes back on the start node returns a valid
    witness.
    """
    n = len(grid)
    shifted = [[(x - mean if x != _NINF else _NINF) for x in row] for row in grid]
    plus = _closure_floats(shifted)
    arcs = _critical_arcs(shifted, plus, tol)
    adj: List[List[int]] = [[] for _ in range(n)]
    for i, j in arcs:
        adj[i].append(j)
    for nbrs in adj:
        nbrs.sort()
    crit_nodes = sorted({i for i, _ in arcs} | {j for _, j in arcs})
    start = crit_nodes[0]
    if start in adj[start]:
        return [start]
    # BFS for the shortest path start -> ... -> start of length >= 1
    parent = {}
    frontier = [start]
    seen = {start}
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w == start:
                    cycle = [u]
                    while u != start:
                        u = parent[u]
                        cycle.append(u)
                    cycle.reverse()
                    return cycle
                if w not in seen:
                    seen.add(w)
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    raise AssertionError("critical graph lost its cycle")  # unreachable by construction


def max_cycle_mean(M: TropMatrix, tol: float = DEFAULT_TOL) -> CycleMeanResult:
    """Karp's maximum cycle mean plus one deterministic witness cycle."""
    grid = M.to_floats()
    mean = _karp_mean(grid)
    if mean == _NINF:
        return CycleMeanResult(mean=NEG_INF, witness=[])
    return CycleMeanResult(mean=TropValue(mean), witness=_witness_cycle(grid, mean, tol))


def kleene_plus(M: TropMatrix, tol: float = DEFAULT_TOL) -> TropMatrix:
    """M⁺ = ⊕_{k>=1} M^⊗k, the all-pairs maximum path weight.

    Requires every cycle mean <= 0 (+tol); a positive-mean cycle is
    reported with a witness instead of silently diverging.
    """
    grid = M.to_floats()
    mean = _karp_mean(grid)
    if mean != _NINF and mean > tol:
        raise PositiveCycleError(mean, _witness_cycle(grid, mean, tol))
    return TropMatrix.from_floats(_closure_floats(grid))


def critical_nodes(M: TropMatrix, tol: float = DEFAULT_TOL) -> Tuple[int, ...]:
    """Nodes on a zero-weight cycle of a normalized matrix: |M⁺(i,i)| <= tol."""
    plus = kleene_plus(M, tol=tol)
    out = []
    for i in range(M.n):
        d = plus.entry(i, i)
        if d.is_finite and abs(d.finite) <= tol:
            out.append(i)
    return tuple(out)


def critical_classes(M: TropMatrix, tol: float = DEFAULT_TOL) -> List[Tuple[int, ...]]:
    """Strongly connected classes of the zero-mean-cycle arc subgraph."""
    grid = M.to_floats()
    mean = _karp_mean(grid)
    if mean == _NINF:
        return []
    shifted = [[(x - mean if x != _NINF else _NINF) for x in row] for row in grid]
    plus = _closure_floats(shifted)
    return _critical_classes_from_arcs(_critical_arcs(shifted, plus, tol))


def eigenproblem(
    M: TropMatrix, tol: float = DEFAULT_TOL
) -> Tuple[TropValue, List[TropVector]]:
    """Tropical eigenvalue and one eigenvector per critical class.

    λ is the maximum cycle mean; the basis vectors are the rows
    (M - λ)⁺(x, ·) for one representative x per critical class. Each
    satisfies mat_vec(M, v) = λ ⊗ v.
    """
    grid = M.to_floats()
    mean = _karp_mean(grid)
    if mean == _NINF:
        raise ValueError("acyclic matrix has no tropical eigenvalue")
    shifted = [[(x - mean if x != _NINF else _NINF) for x in row] for row in grid]
    plus = _closure_floats(shifted)
    classes = _critical_classes_from_arcs(_critical_arcs(shifted, plus, tol))
    basis = [TropVector(plus[cls[0]]) for cls in classes]
    return TropValue(mean), basis
