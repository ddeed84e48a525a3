"""Tropical measures on a finite state set, via densities and functionals.

Every subset of a finite discrete space is open, so a tropical measure
is determined by its values on singletons: the density is the stored
object and the measure view is derived. A density wraps one read-only
float64 array of masses. The distinguished top density (constant +inf)
is kept behind an explicit flag; every other density is +inf-free.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List

import numpy as np

from .tropical_core import TropValue, array_mul, array_sup, floats_to_json, trop_vector, vector_from_json

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import TransitionSystem


class Density:
    """A tropical density: the state-wise masses of a tropical measure,
    held as a read-only float64 array, with the top density flagged
    explicitly."""

    __slots__ = ("_values", "_is_top")

    def __init__(self, values, is_top: bool = False):
        values = trop_vector(values)
        if is_top:
            values = trop_vector(np.full(len(values), math.inf))
        elif np.isposinf(values).any():
            raise ValueError("only the top density may carry +inf entries")
        self._values = values
        self._is_top = is_top

    @classmethod
    def top(cls, n: int) -> "Density":
        return cls(np.full(n, math.inf), is_top=True)

    @property
    def values(self) -> np.ndarray:
        """The read-only float64 masses."""
        return self._values

    @property
    def is_top(self) -> bool:
        return self._is_top

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Density):
            return NotImplemented
        return self._is_top == other._is_top and bool(np.array_equal(self._values, other._values))

    def __repr__(self) -> str:
        if self._is_top:
            return f"Density.top({len(self._values)})"
        return f"Density({self.to_json()})"

    def to_json(self) -> list:
        return floats_to_json(self._values)

    @classmethod
    def from_json(cls, data: list) -> "Density":
        values = vector_from_json(data)
        top = np.isposinf(values)
        if top.any():
            if not top.all():
                raise ValueError("+inf entries only occur in the constant top density")
            return cls.top(len(values))
        return cls(values)


@dataclass(frozen=True)
class TropicalFunctional:
    """The tropical linear functional f ↦ ⊕_x (f(x) ⊗ b(x))."""

    density: Density


def functional_eval(l: TropicalFunctional, f: np.ndarray) -> TropValue:
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
    return TropValue(array_sup(b.values[_states(b, S)]))


def tropical_integral(b: Density, f: np.ndarray, S: Iterable[int]) -> TropValue:
    """⊕ over S of f(x) ⊗ b(x); over the full set this is the functional."""
    f = trop_vector(f)
    if len(f) != len(b):
        raise ValueError(f"length mismatch: {len(f)} vs {len(b)}")
    idx = _states(b, S)
    return TropValue(array_sup(array_mul(f[idx], b.values[idx])))


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
    np.maximum.at(image, tgt, b.values[src])
    return bool(np.array_equal(image, b.values))


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
    values = b.values.tolist()
    total = array_sup(b.values)
    src, tgt, _ = sys.arc_arrays
    image = dict(zip(src.tolist(), tgt.tolist()))  # one arc per source
    for x in range(sys.n):
        seen = set()
        y = x
        while y not in seen:
            seen.add(y)
            y = image[y]
        expected = -math.inf if values[x] == -math.inf else total
        if values[y] != expected:  # b is constant on the terminal cycle
            return False
    return True


def singleton_probes(n: int) -> List[np.ndarray]:
    """The exact probe basis: 0 at one state, -inf elsewhere."""
    return [trop_vector(np.where(np.arange(n) == s, 0.0, -math.inf)) for s in range(n)]


def densities_equivalent(b1: Density, b2: Density) -> bool:
    """Whether two densities induce the same functional on the singleton
    probe basis, which is exact on a finite state set."""
    if len(b1) != len(b2):
        raise ValueError(f"length mismatch: {len(b1)} vs {len(b2)}")
    l1, l2 = TropicalFunctional(b1), TropicalFunctional(b2)
    return all(functional_eval(l1, f) == functional_eval(l2, f) for f in singleton_probes(len(b1)))
