"""Tropical measures on a finite state set, via densities and functionals.

Every subset of a finite discrete space is open, so a tropical measure
is determined by its values on singletons: the density is the stored
object and the measure view is derived. A density wraps a TropVector,
so its masses are one read-only float64 array. The distinguished top
density (constant +inf) is kept behind an explicit flag; every other
density is +inf-free.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

import numpy as np

from .tropical_core import POS_INF, TropValue, TropVector, array_mul, array_sup

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import TransitionSystem


class Density:
    """A tropical density: the state-wise masses of a tropical measure,
    held as a TropVector, with the top density flagged explicitly."""

    __slots__ = ("_values", "_is_top")

    def __init__(self, values: TropVector, is_top: bool = False):
        if is_top:
            values = TropVector.constant(len(values), POS_INF)
        elif np.isposinf(values.array).any():
            raise ValueError("only the top density may carry +inf entries")
        self._values = values
        self._is_top = is_top

    @classmethod
    def top(cls, n: int) -> "Density":
        return cls(TropVector.constant(n, POS_INF), is_top=True)

    @property
    def values(self) -> TropVector:
        return self._values

    @property
    def is_top(self) -> bool:
        return self._is_top

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i: int) -> TropValue:
        return self._values[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Density):
            return NotImplemented
        return self._is_top == other._is_top and self._values == other._values

    def __repr__(self) -> str:
        if self._is_top:
            return f"Density.top({len(self._values)})"
        return f"Density({self._values.to_json()})"

    def to_json(self) -> list:
        return self._values.to_json()

    @classmethod
    def from_json(cls, data: list) -> "Density":
        vec = TropVector.from_json(data)
        top = np.isposinf(vec.array)
        if top.any():
            if not top.all():
                raise ValueError("+inf entries only occur in the constant top density")
            return cls.top(len(vec))
        return cls(vec)


@dataclass(frozen=True)
class TropicalFunctional:
    """The tropical linear functional f ↦ ⊕_x (f(x) ⊗ b(x))."""

    density: Density


def functional_eval(l: TropicalFunctional, f: TropVector) -> TropValue:
    """⊕_x (f(x) ⊗ b(x)). The -inf ⊗ +inf = -inf convention makes the top
    functional return +inf except on the constant -inf input."""
    return tropical_integral(l.density, f, range(len(l.density)))


def _states(b: Density, S: Iterable[int]) -> np.ndarray:
    idx = np.fromiter(map(operator.index, S), dtype=np.intp)
    bad = idx[(idx < 0) | (idx >= len(b))]
    if bad.size:
        raise IndexError(f"unknown state index {bad[0]}")
    return idx


def measure_of(b: Density, S: Iterable[int]) -> TropValue:
    """Mass of a state subset: ⊕ over S of b; the empty set has mass -inf."""
    return TropValue(array_sup(b.values.array[_states(b, S)]))


def tropical_integral(b: Density, f: TropVector, S: Iterable[int]) -> TropValue:
    """⊕ over S of f(x) ⊗ b(x); over the full set this is the functional."""
    if len(f) != len(b):
        raise ValueError(f"length mismatch: {len(f)} vs {len(b)}")
    idx = _states(b, S)
    return TropValue(array_sup(array_mul(f.array[idx], b.values.array[idx])))


def is_invariant(sys: "TransitionSystem", b: Density) -> bool:
    """Whether b(x) = ⊕ over preimages y of b(y) at every state.

    Defined for deterministic systems, where arcs form the graph of a
    map and the sup runs over T^{-1}(x); an empty preimage set gives
    -inf.
    """
    if not sys.deterministic:
        raise ValueError("invariance is defined for deterministic systems")
    if len(b) != sys.n:
        raise ValueError(f"length mismatch: system {sys.n}, density {len(b)}")
    src, tgt, _ = sys.arc_arrays
    image = np.full(sys.n, -math.inf)
    np.maximum.at(image, tgt, b.values.array[src])
    return bool(np.array_equal(image, b.values.array))


def is_ergodic(sys: "TransitionSystem", b: Density) -> bool:
    """Whether orbits see the global mass in the limit.

    For an invariant density on a deterministic system, b is
    non-decreasing along orbits, so b(T^k(x)) stabilizes on the terminal
    cycle of x. Ergodicity asks that the stable value is ⊕b whenever
    b(x) > -inf, and -inf whenever b(x) = -inf.
    """
    if not sys.deterministic:
        raise ValueError("ergodicity is defined for deterministic systems")
    if not is_invariant(sys, b):
        raise ValueError("ergodicity presupposes an invariant density")
    total = b.values.sup()
    for x in range(sys.n):
        seen = set()
        y = x
        while y not in seen:
            seen.add(y)
            y = sys.image(y)
        limit = b[y]  # constant on the terminal cycle
        if b[x].is_neg_inf:
            if not limit.is_neg_inf:
                return False
        elif limit != total:
            return False
    return True


def singleton_probes(n: int) -> List[TropVector]:
    """The exact probe basis: 0 at one state, -inf elsewhere."""
    return [TropVector(np.where(np.arange(n) == s, 0.0, -math.inf)) for s in range(n)]


def densities_equivalent(
    b1: Density, b2: Density, probes: Optional[Sequence[TropVector]] = None
) -> bool:
    """Whether two densities induce the same functional on the probes.

    With the default singleton probe basis this is exact on a finite
    state set; user probes are a convenience for coarser comparisons.
    """
    if len(b1) != len(b2):
        raise ValueError(f"length mismatch: {len(b1)} vs {len(b2)}")
    if probes is None:
        probes = singleton_probes(len(b1))
    l1, l2 = TropicalFunctional(b1), TropicalFunctional(b2)
    return all(functional_eval(l1, f) == functional_eval(l2, f) for f in probes)
