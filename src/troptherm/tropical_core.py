"""Scalar max-plus semiring and its pointwise extension to vectors.

Elements live in R ∪ {-inf, +inf} with ⊕ = max and ⊗ = +. A scalar
TropValue holds one IEEE float, whose order already is the tropical
order; t_mul enforces the convention (-inf) ⊗ (+inf) = -inf with one
explicit test. A vector is a plain read-only float64 array with IEEE
±inf, checked once where it enters (trop_vector); array_mul applies the
same convention by turning the NaN of -inf + inf into -inf, and
array_sup keeps the first of tied entries as a t_add fold does.
Comparisons between finite values are exact; no tolerance enters at
this level.
"""

from __future__ import annotations

import math
from typing import Union

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


def trop_vector(entries) -> np.ndarray:
    """A tropical vector (a function on a finite state set) as a read-only
    float64 copy; ValueError unless it is one-dimensional, non-empty and
    NaN-free."""
    a = np.array(entries, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("a tropical vector needs at least one entry, in one dimension")
    if np.isnan(a).any():
        raise ValueError("NaN has no tropical meaning")
    a.flags.writeable = False
    return a


def vector_from_json(data: list) -> np.ndarray:
    """The inverse of floats_to_json on a vector."""
    return trop_vector([_float_from_json(x) for x in data])


def residual(u: np.ndarray, v: np.ndarray) -> TropValue:
    """The residuation u ⊘ v = sup{λ : λ ⊗ v ≼ u}.

    Computed as the inf over states of u(x) - v(x) with the conventions:
    the term is +inf when v(x) = -inf (no constraint), -inf when
    v(x) = +inf and u(x) ≠ +inf (only λ = -inf survives, by the
    -inf ⊗ +inf = -inf convention), and an empty constraint set yields
    the top element.
    """
    u, v = _pair(u, v)
    with np.errstate(invalid="ignore", over="ignore"):
        terms = u - v
    # the NaNs are inf - inf and -inf - -inf: no constraint
    terms[np.isnan(terms)] = math.inf
    return TropValue(terms[np.argmin(terms)])


def sup_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Sup-norm distance as a plain float.

    Entries that are the same infinity contribute 0; a mismatch involving
    an infinity contributes +inf.
    """
    u, v = _pair(u, v)
    with np.errstate(invalid="ignore", over="ignore"):
        gaps = np.abs(u - v)
    # NaN is the same infinity on both sides
    return float(np.where(np.isnan(gaps), 0.0, gaps).max())


def _pair(u, v):
    u, v = trop_vector(u), trop_vector(v)
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return u, v
