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
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .maxplus_linalg import _arc_reduce
from .tropical_core import array_mul, array_sup, floats_to_json, trop_vector

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import TransitionSystem


class Density:
    """A tropical density: the state-wise masses of a tropical measure,
    held as a read-only float64 array, with the top density flagged
    explicitly; Density.top(n) is the only way to build it."""

    __slots__ = ("_values", "_is_top")

    def __init__(self, values):
        values = trop_vector(values)
        if np.isposinf(values).any():
            raise ValueError("only the top density may carry +inf entries")
        self._values = values
        self._is_top = False

    @classmethod
    def top(cls, n: int) -> "Density":
        b = cls.__new__(cls)
        b._values = trop_vector(np.full(n, math.inf))
        b._is_top = True
        return b

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


def functional_eval(b: Density, f: np.ndarray) -> float:
    """The tropical linear functional of b at f: ⊕_x (f(x) ⊗ b(x)). The
    -inf ⊗ +inf = -inf convention makes the top density return +inf
    except on the constant -inf input."""
    return tropical_integral(b, f, range(len(b)))


def _states(b: Density, S: Iterable[int]) -> np.ndarray:
    idx = np.fromiter(map(operator.index, S), dtype=np.intp)
    bad = idx[(idx < 0) | (idx >= len(b))]
    if bad.size:
        raise IndexError(f"unknown state index {bad[0]}")
    return idx


def measure_of(b: Density, S: Iterable[int]) -> float:
    """Mass of a state subset: ⊕ over S of b; the empty set has mass -inf."""
    return array_sup(b.values[_states(b, S)])


def tropical_integral(b: Density, f: np.ndarray, S: Iterable[int]) -> float:
    """⊕ over S of f(x) ⊗ b(x); over the full set this is the functional."""
    f = trop_vector(f)
    if len(f) != len(b):
        raise ValueError(f"length mismatch: {len(f)} vs {len(b)}")
    idx = _states(b, S)
    return array_sup(array_mul(f[idx], b.values[idx]))


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
    image = _arc_reduce(np.maximum, b.values, src, tgt, 0.0)
    return bool(np.array_equal(image, b.values))


def is_ergodic(sys: "TransitionSystem", b: Density) -> bool:
    """Whether orbits see the global mass in the limit.

    For an invariant density on a deterministic system, b is
    non-decreasing along orbits, so b(T^k(x)) stabilizes on the terminal
    cycle of x. Ergodicity asks that the stable value is ⊕b whenever
    b(x) > -inf, and -inf whenever b(x) = -inf.

    One step of T decides it. Invariance makes b -inf on every state off
    a cycle (a tail state's preimages are tail states, and a state with
    no preimage has mass -inf) and constant on each cycle. So b(T(x))
    checks a cycle's value at each state x on it, and at the last tail
    state before it, whose own mass is -inf; at any other tail state both
    sides are -inf.
    """
    if not sys.deterministic:
        raise ValueError("ergodicity is defined for deterministic systems")
    if not is_invariant(sys, b):
        raise ValueError("ergodicity presupposes an invariant density")
    src, tgt, _ = sys.arc_arrays
    image = np.empty(sys.n, dtype=np.intp)
    image[src] = tgt  # one arc per source
    expected = np.where(b.values == -math.inf, -math.inf, array_sup(b.values))
    return bool(np.array_equal(b.values[image], expected))
