"""Tropical measures on a finite state set, via densities and functionals.

Every subset of a finite discrete space is open, so a tropical measure
is determined by its values on singletons: the density is the stored
object and the measure view is derived. The distinguished top density
(constant +inf) is kept behind an explicit flag; every other density is
+inf-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from .tropical_core import (
    NEG_INF,
    POS_INF,
    TropValue,
    TropVector,
    t_add,
    t_mul,
)

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import TransitionSystem


class Density:
    """A tropical density: the state-wise masses of a tropical measure."""

    __slots__ = ("_values", "_is_top")

    def __init__(self, values: TropVector, is_top: bool = False):
        if is_top:
            values = TropVector.constant(len(values), POS_INF)
        elif any(v.is_pos_inf for v in values):
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
        if any(v.is_pos_inf for v in vec):
            if not all(v.is_pos_inf for v in vec):
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


def measure_of(b: Density, S: Iterable[int]) -> TropValue:
    """Mass of a state subset: ⊕ over S of b; the empty set has mass -inf."""
    acc = NEG_INF
    for x in S:
        if not 0 <= x < len(b):
            raise IndexError(f"unknown state index {x}")
        acc = t_add(acc, b[x])
    return acc


def tropical_integral(b: Density, f: TropVector, S: Iterable[int]) -> TropValue:
    """⊕ over S of f(x) ⊗ b(x); over the full set this is the functional."""
    if len(f) != len(b):
        raise ValueError(f"length mismatch: {len(f)} vs {len(b)}")
    acc = NEG_INF
    for x in S:
        if not 0 <= x < len(b):
            raise IndexError(f"unknown state index {x}")
        acc = t_add(acc, t_mul(f[x], b[x]))
    return acc


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
    for x in range(sys.n):
        acc = NEG_INF
        for y, _w in sys.predecessors(x):
            acc = t_add(acc, b[y])
        if acc != b[x]:
            return False
    return True


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
    probes = []
    for s in range(n):
        entries = [NEG_INF] * n
        entries[s] = TropValue(0.0)
        probes.append(TropVector(entries))
    return probes


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
