"""Finite edge-weighted models of expanding dynamics with a potential.

A TransitionSystem is a digraph on states 0..n-1 whose arc y -> x means
"x is an image of y"; the arc weight is the potential charged at the
step's source. Deterministic systems (every source has exactly one
outgoing arc) model a map directly; the general case models a subshift
of finite type with a locally constant potential.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .tropical_core import array_mul, trop_vector
from .tropical_measures import Density
from .maxplus_linalg import TropMatrix


N_MAX = 2**20  # the most states of a system: discretize_doubling at order 20


class SystemValidationError(ValueError):
    """The description violates the transition-system invariants."""


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


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
    """Immutable weighted digraph with the potential charged at arc sources.

    The constructor is the one validator (`shifted` rechecks only the
    moved weights). The store is the (source, target) -> weight dict in
    arc order, plus read-only arc arrays; everything is read off these.
    """

    __slots__ = ("_n", "_weight", "_arc_arrays", "_labels")

    def __init__(
        self,
        n: int,
        arcs: Sequence[Tuple[int, int, float]],
        labels: Optional[Sequence[str]] = None,
    ):
        if not _is_integer(n):
            raise SystemValidationError(f"state count must be an integer: {n!r}")
        if not 1 <= n <= N_MAX:
            raise SystemValidationError(f"state count must lie in [1, {N_MAX}]: {n}")
        n = int(n)
        weight = {}
        for arc in arcs:
            try:
                s, t, w = arc
            except (TypeError, ValueError):
                raise SystemValidationError(f"arc must be (source, target, weight): {arc!r}") from None
            if not (_is_integer(s) and _is_integer(t)):
                raise SystemValidationError(f"arc endpoints must be integers: {arc!r}")
            if not (0 <= s < n and 0 <= t < n):
                raise SystemValidationError(f"arc endpoint out of range: {arc!r}")
            if isinstance(w, bool) or not isinstance(w, numbers.Real):
                raise SystemValidationError(f"arc weight must be a real number: {arc!r}")
            try:
                w = float(w)
            except OverflowError:  # an integer beyond float range
                w = math.inf
            if not math.isfinite(w):
                raise SystemValidationError(f"arc weight must be finite: {arc!r}")
            key = (int(s), int(t))
            if key in weight:
                raise SystemValidationError(f"duplicate arc {key}")
            weight[key] = w
        if labels is not None:
            labels = () if isinstance(labels, str) else tuple(labels)
            if len(labels) != n or not all(isinstance(x, str) for x in labels):
                raise SystemValidationError("labels must be one string per state")
        self._n = n
        self._weight = weight
        self._labels = labels
        m = len(weight)
        self._arc_arrays = (
            np.fromiter((s for s, _ in weight), np.intp, m),
            np.fromiter((t for _, t in weight), np.intp, m),
            np.fromiter(weight.values(), float, m),
        )
        for col in self._arc_arrays:
            col.flags.writeable = False

    @property
    def n(self) -> int:
        return self._n

    @property
    def arcs(self) -> tuple:
        """(source, target, weight) triples in arc order."""
        return tuple((s, t, w) for (s, t), w in self._weight.items())

    @property
    def arc_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only arrays of arc sources, targets and weights, in arc order."""
        return self._arc_arrays

    @property
    def labels(self) -> Optional[tuple]:
        return self._labels

    @property
    def deterministic(self) -> bool:
        return bool(np.all(np.bincount(self._arc_arrays[0], minlength=self._n) == 1))

    @property
    def surjective_like(self) -> bool:
        return bool(np.all(np.bincount(self._arc_arrays[1], minlength=self._n) >= 1))

    def predecessors(self, x: int) -> tuple:
        """(source, weight) pairs of arcs into x, in arc order."""
        src, tgt, w = self._arc_arrays
        hit = tgt == x
        return tuple(zip(src[hit].tolist(), w[hit].tolist()))

    def successors(self, y: int) -> tuple:
        """(target, weight) pairs of arcs out of y, in arc order."""
        src, tgt, w = self._arc_arrays
        hit = src == y
        return tuple(zip(tgt[hit].tolist(), w[hit].tolist()))

    def arc_weight(self, s: int, t: int) -> float:
        return self._weight[(s, t)]

    def image(self, y: int) -> int:
        """The unique image of y; deterministic systems only."""
        if not self.deterministic:
            raise SystemValidationError("image map is defined only for deterministic systems")
        return self.successors(y)[0][0]

    def max_in_degree(self) -> int:
        """The preimage-count bound N."""
        return int(np.bincount(self._arc_arrays[1], minlength=self._n).max())

    def shifted(self, delta: float) -> "TransitionSystem":
        """Same arcs with every weight moved by delta, bit for bit what the
        constructor would store; only the moved weights are checked again."""
        src, tgt, w = self._arc_arrays
        with np.errstate(over="ignore"):
            w = w + delta
        if not np.isfinite(w).all():
            raise SystemValidationError(f"arc weight must be finite: shifted by {delta!r}")
        w.flags.writeable = False
        out = object.__new__(TransitionSystem)
        out._n, out._labels, out._arc_arrays = self._n, self._labels, (src, tgt, w)
        out._weight = dict(zip(self._weight, w.tolist()))
        return out

    def to_matrix(self) -> TropMatrix:
        src, tgt, w = self._arc_arrays
        grid = np.full((self._n, self._n), -math.inf)
        grid[src, tgt] = w
        return TropMatrix.from_floats(grid)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransitionSystem):
            return NotImplemented
        return (self._n, self.arcs, self._labels) == (other._n, other.arcs, other._labels)

    def __repr__(self) -> str:
        return f"TransitionSystem(n={self._n}, arcs={len(self._weight)})"


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
    if not 1 <= order <= 20:
        raise SystemValidationError(f"order must lie in [1, 20]: {order}")
    n = 1 << order
    arcs = []
    for s in range(n):
        w = float(sample(s / n))
        base = (s << 1) & (n - 1)
        arcs.append((s, base, w))
        arcs.append((s, base | 1, w))
    labels = [format(s, f"0{order}b") for s in range(n)]
    return TransitionSystem(n, arcs, labels=labels)


def bousch_apply(sys: TransitionSystem, u: np.ndarray) -> np.ndarray:
    """out(x) = ⊕ over arcs y -> x of u(y) ⊗ weight; sup over an empty
    preimage set is -inf."""
    u = trop_vector(u)
    if len(u) != sys.n:
        raise ValueError(f"length mismatch: system {sys.n}, vector {len(u)}")
    src, tgt, w = sys.arc_arrays
    out = np.full(sys.n, -math.inf)
    np.maximum.at(out, tgt, array_mul(u[src], w))
    return trop_vector(out)


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
    np.maximum.at(out, src, array_mul(w, b.values[tgt]))
    return Density(out)


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
    """Check the JSON shape; the constructor checks the values."""
    if not isinstance(data, dict):
        raise SystemValidationError("system JSON must be an object")
    unknown = set(data) - {"n", "arcs", "labels"}
    if unknown:
        raise SystemValidationError(f"unknown keys in system JSON: {sorted(unknown)}")
    if "n" not in data or "arcs" not in data:
        raise SystemValidationError("system JSON needs 'n' and 'arcs'")
    arcs, labels = data["arcs"], data.get("labels")
    if not (isinstance(arcs, list) and all(isinstance(arc, list) for arc in arcs)):
        raise SystemValidationError("'arcs' must be an array of [source, target, weight] arrays")
    if labels is not None and not isinstance(labels, list):
        raise SystemValidationError("'labels' must be an array of strings")
    return TransitionSystem(data["n"], arcs, labels=labels)
