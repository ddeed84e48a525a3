"""Finite edge-weighted models of expanding dynamics with a potential.

A TransitionSystem is a digraph on states 0..n-1 whose arc y -> x means
"x is an image of y"; the arc weight is the potential charged at the
step's source. Deterministic systems (every source has exactly one
outgoing arc) model a map directly; the general case models a subshift
of finite type with a locally constant potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .tropical_core import TropVector, array_mul
from .tropical_measures import Density
from .maxplus_linalg import TropMatrix


class SystemValidationError(ValueError):
    """The description violates the transition-system invariants."""


@dataclass(frozen=True)
class PathRecord:
    """An orbit segment z, T(z), ..., T^n(z); length n may be zero."""

    states: Tuple[int, ...]

    def __post_init__(self):
        if len(self.states) == 0:
            raise ValueError("a path visits at least one state")

    @property
    def length(self) -> int:
        return len(self.states) - 1


class TransitionSystem:
    """Immutable weighted digraph with the potential charged at arc sources."""

    __slots__ = ("_n", "_arcs", "_arc_arrays", "_labels", "_deterministic", "_surjective_like", "_preds", "_succs", "_weight")

    def __init__(
        self,
        n: int,
        arcs: Sequence[Tuple[int, int, float]],
        labels: Optional[Sequence[str]] = None,
    ):
        if n < 1:
            raise SystemValidationError("state count must be positive")
        weight = {}
        clean = []
        for arc in arcs:
            if len(arc) != 3:
                raise SystemValidationError(f"arc must be (source, target, weight): {arc!r}")
            s, t, w = arc
            if not (isinstance(s, int) and isinstance(t, int)):
                raise SystemValidationError(f"arc endpoints must be integers: {arc!r}")
            if not (0 <= s < n and 0 <= t < n):
                raise SystemValidationError(f"arc endpoint out of range: {arc!r}")
            try:
                w = float(w)
            except OverflowError:  # an integer beyond float range
                w = math.inf
            if not math.isfinite(w):
                raise SystemValidationError(f"arc weight must be finite: {arc!r}")
            if (s, t) in weight:
                raise SystemValidationError(f"duplicate arc ({s}, {t})")
            weight[(s, t)] = w
            clean.append((s, t, w))
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise SystemValidationError("labels must cover every state")
        self._n = n
        self._arcs = tuple(clean)
        self._labels = labels
        self._weight = weight
        self._arc_arrays = (
            np.array([s for s, _, _ in clean], dtype=np.intp),
            np.array([t for _, t, _ in clean], dtype=np.intp),
            np.array([w for _, _, w in clean], dtype=float),
        )
        for col in self._arc_arrays:
            col.flags.writeable = False
        src, tgt, _ = self._arc_arrays
        self._deterministic = bool(np.all(np.bincount(src, minlength=n) == 1))
        self._surjective_like = bool(np.all(np.bincount(tgt, minlength=n) >= 1))
        preds: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        succs: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for s, t, w in clean:
            preds[t].append((s, w))
            succs[s].append((t, w))
        self._preds = tuple(tuple(p) for p in preds)
        self._succs = tuple(tuple(p) for p in succs)

    @property
    def n(self) -> int:
        return self._n

    @property
    def arcs(self) -> tuple:
        return self._arcs

    @property
    def arc_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only arrays of arc sources, targets and weights, in arc order."""
        return self._arc_arrays

    @property
    def labels(self) -> Optional[tuple]:
        return self._labels

    @property
    def deterministic(self) -> bool:
        return self._deterministic

    @property
    def surjective_like(self) -> bool:
        return self._surjective_like

    def predecessors(self, x: int) -> tuple:
        """(source, weight) pairs of arcs into x."""
        return self._preds[x]

    def successors(self, y: int) -> tuple:
        """(target, weight) pairs of arcs out of y."""
        return self._succs[y]

    def arc_weight(self, s: int, t: int) -> float:
        return self._weight[(s, t)]

    def image(self, y: int) -> int:
        """The unique image of y; deterministic systems only."""
        if not self._deterministic:
            raise SystemValidationError("image map is defined only for deterministic systems")
        return self._succs[y][0][0]

    def max_in_degree(self) -> int:
        """The preimage-count bound N."""
        return max((len(p) for p in self._preds), default=0)

    def shifted(self, delta: float) -> "TransitionSystem":
        """Same arcs with every weight moved by delta."""
        return TransitionSystem(
            self._n, [(s, t, w + delta) for s, t, w in self._arcs], self._labels
        )

    def to_matrix(self) -> TropMatrix:
        src, tgt, w = self._arc_arrays
        grid = np.full((self._n, self._n), -math.inf)
        grid[src, tgt] = w
        return TropMatrix.from_floats(grid)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransitionSystem):
            return NotImplemented
        return (
            self._n == other._n
            and self._arcs == other._arcs
            and self._labels == other._labels
        )

    def __repr__(self) -> str:
        return f"TransitionSystem(n={self._n}, arcs={len(self._arcs)})"


def from_sft(
    transition_matrix: Sequence[Sequence[int]],
    edge_potential: Sequence[Sequence[float]],
) -> TransitionSystem:
    """Subshift-of-finite-type flavor: arcs where the 0/1 matrix has a 1.

    Every row and column must contain a 1; a zero row (dead end) or zero
    column (unreachable state) breaks the surjective transitive modeling
    intent and is rejected.
    """
    n = len(transition_matrix)
    if n == 0 or any(len(row) != n for row in transition_matrix):
        raise SystemValidationError("transition matrix must be square and nonempty")
    if len(edge_potential) != n or any(len(row) != n for row in edge_potential):
        raise SystemValidationError("edge potential must match the transition matrix shape")
    for i, row in enumerate(transition_matrix):
        if not any(row):
            raise SystemValidationError(f"row {i} of the transition matrix is zero")
    for j in range(n):
        if not any(transition_matrix[i][j] for i in range(n)):
            raise SystemValidationError(f"column {j} of the transition matrix is zero")
    arcs = []
    for i in range(n):
        for j in range(n):
            if transition_matrix[i][j]:
                arcs.append((i, j, float(edge_potential[i][j])))
    return TransitionSystem(n, arcs)


def from_map(
    image_table: Sequence[int], vertex_potential: Sequence[float]
) -> TransitionSystem:
    """Functional-graph flavor: state y steps to image_table[y]."""
    n = len(image_table)
    if len(vertex_potential) != n:
        raise SystemValidationError("potential must assign a value to every state")
    arcs = [(y, int(image_table[y]), float(vertex_potential[y])) for y in range(n)]
    return TransitionSystem(n, arcs)


def discretize_doubling(order: int, sample: Callable[[float], float]) -> TransitionSystem:
    """De Bruijn model of the doubling map on binary words of a given length.

    Word w maps to its shift with either bit appended; the weight of both
    outgoing arcs is the sample at the left endpoint of the source
    cylinder. Every state has in-degree and out-degree 2.
    """
    if order < 1:
        raise SystemValidationError("order must be >= 1")
    if order > 20:
        raise SystemValidationError("order capped at 20")
    n = 1 << order
    arcs = []
    for s in range(n):
        w = float(sample(s / n))
        base = (s << 1) & (n - 1)
        arcs.append((s, base, w))
        arcs.append((s, base | 1, w))
    labels = [format(s, f"0{order}b") for s in range(n)]
    return TransitionSystem(n, arcs, labels=labels)


def bousch_apply(sys: TransitionSystem, u: TropVector) -> TropVector:
    """out(x) = ⊕ over arcs y -> x of u(y) ⊗ weight; sup over an empty
    preimage set is -inf."""
    if len(u) != sys.n:
        raise ValueError(f"length mismatch: system {sys.n}, vector {len(u)}")
    src, tgt, w = sys.arc_arrays
    out = np.full(sys.n, -math.inf)
    np.maximum.at(out, tgt, array_mul(u.array[src], w))
    return TropVector(out)


def adjoint_apply(sys: TransitionSystem, b: Density) -> Density:
    """out(y) = ⊕ over arcs y -> x of weight ⊗ b(x).

    For a deterministic system this is b(T(y)) + A(y). The top density is
    a fixed point of the dual of any tropical linear map and is returned
    unchanged.
    """
    if len(b) != sys.n:
        raise ValueError(f"length mismatch: system {sys.n}, density {len(b)}")
    if b.is_top:
        return b
    src, tgt, w = sys.arc_arrays
    out = np.full(sys.n, -math.inf)
    np.maximum.at(out, src, array_mul(w, b.values.array[tgt]))
    return Density(TropVector(out))


def birkhoff_sum(sys: TransitionSystem, path: PathRecord) -> float:
    """Total potential along an orbit segment; the empty segment sums to 0."""
    total = 0.0
    for a, b in zip(path.states, path.states[1:]):
        try:
            total += sys.arc_weight(a, b)
        except KeyError:
            raise ValueError(f"({a}, {b}) is not an arc of the system") from None
    return total


def system_to_json(sys: TransitionSystem) -> dict:
    data = {
        "n": sys.n,
        "arcs": [[s, t, w] for s, t, w in sys.arcs],
    }
    if sys.labels is not None:
        data["labels"] = list(sys.labels)
    return data


def system_from_json(data) -> TransitionSystem:
    if not isinstance(data, dict):
        raise SystemValidationError("system JSON must be an object")
    unknown = set(data) - {"n", "arcs", "labels"}
    if unknown:
        raise SystemValidationError(f"unknown keys in system JSON: {sorted(unknown)}")
    if "n" not in data or "arcs" not in data:
        raise SystemValidationError("system JSON needs 'n' and 'arcs'")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise SystemValidationError("'n' must be an integer")
    arcs = data["arcs"]
    if not isinstance(arcs, list):
        raise SystemValidationError("'arcs' must be a list")
    parsed = []
    for arc in arcs:
        if not isinstance(arc, list) or len(arc) != 3:
            raise SystemValidationError(f"arc must be [source, target, weight]: {arc!r}")
        s, t, w = arc
        if not isinstance(s, int) or not isinstance(t, int) or isinstance(s, bool) or isinstance(t, bool):
            raise SystemValidationError(f"arc endpoints must be integers: {arc!r}")
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise SystemValidationError(f"arc weight must be a number: {arc!r}")
        parsed.append((s, t, w))
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise SystemValidationError("'labels' must be an array")
    return TransitionSystem(n, parsed, labels=labels)
