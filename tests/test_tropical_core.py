"""Semiring laws, residuation, and the vector layer (read-only float64 arrays)."""

import math
import random

import numpy as np
import pytest

from troptherm.dynamics import TransitionSystem, adjoint_apply, bousch_apply
from troptherm.tropical_core import (
    NEG_INF,
    POS_INF,
    TropValue,
    array_mul,
    array_sup,
    residual,
    sup_distance,
    t_add,
    t_mul,
    trop_vector,
)
from troptherm.tropical_measures import Density, tropical_integral

SMALL = [NEG_INF, TropValue(-2.0), TropValue(-1.0), TropValue(0.0), TropValue(1.5), TropValue(3.0), POS_INF]


INF = math.inf


def tv(*xs):
    return trop_vector(xs)


def leq(u, v):
    """The pointwise order u ≼ v."""
    return bool(np.all(u <= v))


def test_add_examples():
    assert t_add(TropValue(3.0), TropValue(5.0)) == TropValue(5.0)
    assert t_add(NEG_INF, TropValue(7.0)) == TropValue(7.0)
    assert t_add(POS_INF, TropValue(-2.0)) == POS_INF


def test_mul_examples():
    assert t_mul(TropValue(3.0), TropValue(5.0)) == TropValue(8.0)
    assert t_mul(NEG_INF, POS_INF) == NEG_INF
    assert t_mul(POS_INF, NEG_INF) == NEG_INF
    for a in (TropValue(-4.0), NEG_INF, POS_INF):
        assert t_mul(a, TropValue(0.0)) == a
        assert t_mul(TropValue(0.0), a) == a


def test_additive_identity_exhaustive():
    for a in SMALL:
        assert t_add(a, NEG_INF) == a
        assert t_add(NEG_INF, a) == a


def test_pos_inf_times_values():
    assert t_mul(POS_INF, POS_INF) == POS_INF
    assert t_mul(POS_INF, TropValue(2.0)) == POS_INF
    assert t_mul(NEG_INF, NEG_INF) == NEG_INF


def test_semiring_laws_exhaustive():
    # associativity, commutativity, distributivity over the small grid,
    # exact (no float slop: the grid sums stay representable)
    for a in SMALL:
        for b in SMALL:
            assert t_add(a, b) == t_add(b, a)
            assert t_mul(a, b) == t_mul(b, a)
            for c in SMALL:
                assert t_add(t_add(a, b), c) == t_add(a, t_add(b, c))
                assert t_mul(t_mul(a, b), c) == t_mul(a, t_mul(b, c))
                assert t_mul(t_add(a, b), c) == t_add(t_mul(a, c), t_mul(b, c))


def test_semiring_laws_seeded():
    rng = random.Random(11)
    for _ in range(1000):
        x, y = rng.uniform(-50, 50), rng.uniform(-50, 50)
        assert t_add(TropValue(x), TropValue(y)) == TropValue(max(x, y))
        assert t_mul(TropValue(x), TropValue(y)) == TropValue(x + y)


def test_nan_rejected():
    with pytest.raises(ValueError):
        TropValue(math.nan)


def test_total_order():
    assert NEG_INF < TropValue(-1e300) < TropValue(0.0) < TropValue(1e300) < POS_INF
    assert sorted([POS_INF, TropValue(1.0), NEG_INF]) == [NEG_INF, TropValue(1.0), POS_INF]


def test_finite_accessor():
    assert TropValue(2.5).finite == 2.5
    with pytest.raises(ValueError):
        NEG_INF.finite
    assert NEG_INF.to_float() == -math.inf
    assert POS_INF.to_float() == math.inf


def test_residual_examples():
    assert residual(tv(0, 0), tv(0, -1)) == 0.0
    u = tv(1.5, -2, 0)
    assert residual(u, u) == 0.0
    assert residual(tv(0, 0), tv(-INF, 0)) == 0.0
    assert type(residual(u, u)) is float


def test_residual_conventions():
    # v = NEG_INF everywhere: every lambda is feasible
    assert residual(tv(0, 0), tv(-INF, -INF)) == INF
    # v = POS_INF against finite u: nothing above NEG_INF is feasible
    assert residual(tv(0, 0), tv(INF, 0)) == -INF
    # matching tops contribute POS_INF terms
    assert residual(tv(INF), tv(INF)) == INF
    with pytest.raises(ValueError):
        residual(tv(0), tv(0, 0))


def _grid_vectors(values, length):
    if length == 0:
        yield []
        return
    for head in values:
        for tail in _grid_vectors(values, length - 1):
            yield [head] + tail


def test_galois_connection_exhaustive():
    values = [NEG_INF, TropValue(-1.0), TropValue(0.0), TropValue(2.0), POS_INF]
    lambdas = values
    for uu in _grid_vectors(values, 2):
        u = trop_vector([float(x) for x in uu])
        for vv in _grid_vectors(values, 2):
            v = trop_vector([float(x) for x in vv])
            r = residual(u, v)
            for lam in lambdas:
                feasible = leq(array_mul(float(lam), v), u)
                assert feasible == (float(lam) <= r), (u, v, lam, r)


def _random_entry(rng):
    roll = rng.random()
    if roll < 0.1:
        return NEG_INF
    if roll < 0.15:
        return POS_INF
    # integer-valued doubles keep feasibility checks bit-exact
    return TropValue(float(rng.randint(-50, 50)))


def test_galois_connection_seeded():
    rng = random.Random(23)
    for _ in range(1000):
        n = rng.randint(1, 6)
        u = trop_vector([float(_random_entry(rng)) for _ in range(n)])
        v = trop_vector([float(_random_entry(rng)) for _ in range(n)])
        r = residual(u, v)
        assert leq(array_mul(r, v), u)
        if math.isfinite(r):
            # exact boundary: r feasible (above), r + 1 not
            assert not leq(array_mul(r + 1.0, v), u)
        lam = _random_entry(rng)
        assert leq(array_mul(float(lam), v), u) == (float(lam) <= r)


def test_vec_ops():
    u = tv(0, -1)
    assert array_mul(2.0, u).tolist() == [2.0, 1.0]
    assert array_mul(-INF, u).tolist() == [-INF, -INF]
    # -inf ⊗ +inf = -inf, in either order
    assert array_mul(tv(-INF, INF), tv(INF, -INF)).tolist() == [-INF, -INF]
    assert leq(tv(-1, -1), tv(0, 0))
    assert not leq(tv(1, -1), tv(0, 0))
    assert array_sup(u) == 0.0
    assert array_sup(tv(-INF, -INF)) == -INF


def test_trop_vector_is_checked_and_read_only():
    v = tv(0, -INF, INF)
    assert v.dtype == np.float64 and v.tolist() == [0.0, -INF, INF]
    with pytest.raises(ValueError):
        v[0] = 1.0
    source = np.array([1.0, 2.0])
    copy = trop_vector(source)
    source[0] = 5.0  # the vector is a copy
    assert copy.tolist() == [1.0, 2.0]
    for bad in ([], [[0.0, 1.0]], [0.0, math.nan], 3.0):
        with pytest.raises(ValueError):
            trop_vector(bad)


def test_sup_distance():
    assert sup_distance(tv(0, 1), tv(0, 1)) == 0.0
    assert sup_distance(tv(0, 1), tv(0, 3)) == 2.0
    assert sup_distance(tv(-INF), tv(-INF)) == 0.0
    assert sup_distance(tv(-INF), tv(0)) == math.inf
    with pytest.raises(ValueError):
        sup_distance(tv(0), tv(0, 0))


# The scalar TropValue loops the vector layer used to run, kept here as
# references for the array expressions that replaced them. They take
# lists of TropValues (see _tv).


def _tv(a):
    return [TropValue(x) for x in a.tolist()]


def _scale_loop(lam, u):
    return [t_mul(lam, a) for a in u]


def _sup_loop(u):
    best = u[0]
    for e in u[1:]:
        if e > best:
            best = e
    return best


def _residual_loop(u, v):
    best = POS_INF
    for ux, vx in zip(u, v):
        if vx.is_neg_inf:
            term = POS_INF
        elif vx.is_pos_inf:
            term = POS_INF if ux.is_pos_inf else NEG_INF
        elif not ux.is_finite:
            term = ux
        else:
            term = TropValue(ux.finite - vx.finite)
        if term < best:
            best = term
    return best


def _sup_distance_loop(u, v):
    worst = 0.0
    for a, b in zip(u, v):
        if a.is_finite != b.is_finite or (not a.is_finite and a != b):
            return math.inf
        if a.is_finite and abs(a.finite - b.finite) > worst:
            worst = abs(a.finite - b.finite)
    return worst


def _fold(terms):
    acc = NEG_INF
    for t in terms:
        acc = t_add(acc, t)
    return acc


def _bousch_loop(sys_, u):
    return [_fold(t_mul(u[y], TropValue(w)) for y, t, w in sys_.arcs if t == x) for x in range(sys_.n)]


def _adjoint_loop(sys_, b):
    values = _tv(b.values)
    if b.is_top:  # the top density is returned unchanged
        return values
    return [_fold(t_mul(TropValue(w), values[x]) for s, x, w in sys_.arcs if s == y) for y in range(sys_.n)]


def _integral_loop(b, f, states):
    return _fold(t_mul(f[x], b[x]) for x in states)


def _bits(values):
    # repr tells -0.0 from 0.0 and names both infinities
    return [repr(x.to_float() if isinstance(x, TropValue) else float(x)) for x in values]


def _draw(rng, n, pos_inf=True):
    zeros_only = rng.random() < 0.3  # ties between signed zeros at the top
    pool = [-math.inf, -1.0, -0.0, 0.0] if zeros_only else [-math.inf, -0.0, 0.0, -2.5, 1.25, 3.0]
    if pos_inf and not zeros_only:
        pool.append(math.inf)
    return trop_vector([rng.choice(pool) if rng.random() < 0.7 else rng.uniform(-4, 4) for _ in range(n)])


def test_vector_layer_matches_scalar_loops():
    rng = random.Random(61)
    for _ in range(400):
        n = rng.randint(1, 7)
        u, v = _draw(rng, n), _draw(rng, n)
        lam = rng.choice([NEG_INF, POS_INF, TropValue(-0.0), TropValue(0.0), TropValue(rng.uniform(-3, 3))])
        assert _bits(array_mul(float(lam), u)) == _bits(_scale_loop(lam, _tv(u)))
        assert _bits([array_sup(u)]) == _bits([_sup_loop(_tv(u))])
        assert _bits([residual(u, v)]) == _bits([_residual_loop(_tv(u), _tv(v))])
        assert _bits([sup_distance(u, v)]) == _bits([_sup_distance_loop(_tv(u), _tv(v))])

        arcs = [(s, t, rng.choice([-0.0, 0.0, -1.0, rng.uniform(-3, 3)])) for s in range(n) for t in range(n) if rng.random() < 0.4]
        sys_ = TransitionSystem(n, arcs)
        b = Density.top(n) if rng.random() < 0.1 else Density(_draw(rng, n, pos_inf=False))
        states = [rng.randrange(n) for _ in range(rng.randint(0, n))]
        # the arc reductions may return either zero of a tie, so by value
        assert _tv(bousch_apply(sys_, u)) == _bousch_loop(sys_, _tv(u))
        assert _tv(adjoint_apply(sys_, b).values) == _adjoint_loop(sys_, b)
        assert tropical_integral(b, u, states) == _integral_loop(_tv(b.values), _tv(u), states).to_float()


def test_signed_zeros_compare_alike():
    a, b = tv(-0.0, 1.0, -INF), tv(0.0, 1.0, -INF)
    assert np.array_equal(a, b)
    assert Density(a) == Density(b)
    assert Density(tv(0.0, 1.0)) != Density(tv(0.0, 1.0, 1.0))
