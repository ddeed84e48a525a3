"""Scalar max-plus semiring and its pointwise vector extension.

Elements live in R ∪ {-inf, +inf} with ⊕ = max and ⊗ = +. A scalar
TropValue holds one IEEE float, whose order already is the tropical
order; t_mul enforces the convention (-inf) ⊗ (+inf) = -inf with one
explicit test. A TropVector holds one read-only float64 array with IEEE
±inf; its arithmetic applies the same convention by turning the NaN of
-inf + inf into -inf (array_mul), and ⊕ keeps the first operand on ties
as t_add does. Comparisons between finite values are exact; no
tolerance enters at this level.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Union

import numpy as np

Number = Union[int, float]


class TropValue:
    """A single tropical scalar: a finite real or one of the two infinities."""

    __slots__ = ("_v",)

    def __init__(self, value: Number):
        value = float(value)
        if math.isnan(value):
            raise ValueError("NaN has no tropical meaning")
        self._v = value

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self._v)

    @property
    def is_neg_inf(self) -> bool:
        return self._v == -math.inf

    @property
    def is_pos_inf(self) -> bool:
        return self._v == math.inf

    @property
    def finite(self) -> float:
        """The finite payload; raises on infinities."""
        if not math.isfinite(self._v):
            raise ValueError("not a finite tropical value")
        return self._v

    def to_float(self) -> float:
        """IEEE view, for display and numeric hand-off only."""
        return self._v

    __float__ = to_float

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropValue):
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        return hash(self._v)

    def __lt__(self, other: "TropValue") -> bool:
        return self._v < other._v

    def __le__(self, other: "TropValue") -> bool:
        return self._v <= other._v

    def __gt__(self, other: "TropValue") -> bool:
        return self._v > other._v

    def __ge__(self, other: "TropValue") -> bool:
        return self._v >= other._v

    def __repr__(self) -> str:
        if self._v == -math.inf:
            return "NEG_INF"
        if self._v == math.inf:
            return "POS_INF"
        return f"TropValue({self._v!r})"


NEG_INF = TropValue(-math.inf)
POS_INF = TropValue(math.inf)


def as_trop(x: Union[TropValue, Number]) -> TropValue:
    return x if isinstance(x, TropValue) else TropValue(x)


def t_add(a: TropValue, b: TropValue) -> TropValue:
    """Tropical addition: max under the order -inf < reals < +inf."""
    return a if a >= b else b


def t_mul(a: TropValue, b: TropValue) -> TropValue:
    """Tropical multiplication: ordinary +, with -inf absorbing +inf."""
    if a._v == -math.inf or b._v == -math.inf:
        return NEG_INF
    return TropValue(a._v + b._v)


def floats_to_json(a):
    """A float, or a list (nested for a matrix), with the infinities as the
    sentinel strings \"-inf\" / \"+inf\"."""
    a = np.asarray(a, dtype=float)
    out = a.astype(object)
    out[a == -math.inf] = "-inf"
    out[a == math.inf] = "+inf"
    return out.tolist()


def _float_from_json(x) -> float:
    if x == "-inf":
        return -math.inf
    if x == "+inf":
        return math.inf
    if isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x):
        return float(x)
    raise ValueError(f"not a tropical JSON value: {x!r}")


def trop_to_json(a: TropValue):
    """A number, or the sentinel strings \"-inf\" / \"+inf\"."""
    return floats_to_json(float(a))


def trop_from_json(x) -> TropValue:
    return TropValue(_float_from_json(x))


def array_mul(a, b) -> np.ndarray:
    """t_mul elementwise on floats: ordinary +, with -inf absorbing +inf."""
    with np.errstate(invalid="ignore", over="ignore"):
        s = np.add(a, b)
    return np.where(np.isnan(s), -math.inf, s)


def array_sup(a: np.ndarray) -> float:
    """⊕ over a 1-d float array, -inf when it is empty; the first of tied
    entries wins, as in a t_add fold (np.max may return a later zero)."""
    return float(a[np.argmax(a)]) if a.size else -math.inf


class TropVector:
    """State-indexed table of tropical values (a function on a finite state set).

    Stored as one read-only float64 array with ±inf; TropValue views are
    built only when entries are asked for. An array argument is copied
    without building them.
    """

    __slots__ = ("_a",)

    def __init__(self, entries: Iterable[Union[TropValue, Number]]):
        if not isinstance(entries, np.ndarray):
            entries = [float(e) for e in entries]
        a = np.array(entries, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("a tropical vector needs at least one entry, in one dimension")
        if np.isnan(a).any():
            raise ValueError("NaN has no tropical meaning")
        a.flags.writeable = False
        self._a = a

    @classmethod
    def constant(cls, n: int, value: Union[TropValue, Number]) -> "TropVector":
        return cls(np.full(n, float(value)))

    @property
    def array(self) -> np.ndarray:
        """The read-only float64 entries."""
        return self._a

    @property
    def entries(self) -> tuple:
        return tuple(self)

    def __len__(self) -> int:
        return len(self._a)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.entries[i]
        return TropValue(self._a[operator.index(i)])

    def __iter__(self):
        return map(TropValue, self._a.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropVector):
            return NotImplemented
        return bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        # float hashing maps -0.0 and 0.0 alike, as == does; the array
        # bytes would not
        return hash(tuple(self._a.tolist()))

    def __repr__(self) -> str:
        return f"TropVector({self.to_json()})"

    @property
    def is_finite(self) -> bool:
        return bool(np.isfinite(self._a).all())

    def sup(self) -> TropValue:
        """⊕ over all entries."""
        return TropValue(array_sup(self._a))

    def to_json(self) -> list:
        return floats_to_json(self._a)

    @classmethod
    def from_json(cls, data: list) -> "TropVector":
        return cls([_float_from_json(x) for x in data])


def vec_add(u: TropVector, v: TropVector) -> TropVector:
    """Pointwise ⊕."""
    _check_len(u, v)
    # u wins ties, as in t_add, so -0.0 survives against 0.0 (np.maximum
    # would take the second operand)
    return TropVector(np.where(u.array >= v.array, u.array, v.array))


def vec_scale(lam: TropValue, u: TropVector) -> TropVector:
    """Pointwise λ ⊗ u."""
    return TropVector(array_mul(float(lam), u.array))


def vec_leq(u: TropVector, v: TropVector) -> bool:
    """Pointwise order u ≼ v."""
    _check_len(u, v)
    return bool(np.all(u.array <= v.array))


def residual(u: TropVector, v: TropVector) -> TropValue:
    """The residuation u ⊘ v = sup{λ : λ ⊗ v ≼ u}.

    Computed as the inf over states of u(x) - v(x) with the conventions:
    the term is +inf when v(x) = -inf (no constraint), -inf when
    v(x) = +inf and u(x) ≠ +inf (only λ = -inf survives, by the
    -inf ⊗ +inf = -inf convention), and an empty constraint set yields
    the top element.
    """
    _check_len(u, v)
    with np.errstate(invalid="ignore", over="ignore"):
        terms = u.array - v.array
    # the NaNs are inf - inf and -inf - -inf: no constraint
    terms[np.isnan(terms)] = math.inf
    return TropValue(terms[np.argmin(terms)])


def sup_distance(u: TropVector, v: TropVector) -> float:
    """Sup-norm distance as a plain float.

    Entries that are the same infinity contribute 0; a mismatch involving
    an infinity contributes +inf.
    """
    _check_len(u, v)
    with np.errstate(invalid="ignore", over="ignore"):
        gaps = np.abs(u.array - v.array)
    # NaN is the same infinity on both sides
    return float(np.where(np.isnan(gaps), 0.0, gaps).max())


def _check_len(u: TropVector, v: TropVector) -> None:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
