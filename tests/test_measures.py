"""Densities, tropical functionals, invariance and ergodicity checks."""

import math
import random

import numpy as np
import pytest

from troptherm.dynamics import from_map, from_sft
from troptherm.tropical_core import NEG_INF, POS_INF, TropValue, array_mul, t_add, t_mul, trop_vector
from troptherm.tropical_measures import (
    Density,
    TropicalFunctional,
    densities_equivalent,
    functional_eval,
    is_ergodic,
    is_invariant,
    measure_of,
    singleton_probes,
    tropical_integral,
)


INF = math.inf


def tv(*xs):
    return trop_vector(xs)


def dens(*xs):
    return Density(xs)


def _ints(rng, n):
    return [float(rng.randint(-9, 9)) for _ in range(n)]


def test_density_rejects_pos_inf_entries():
    with pytest.raises(ValueError):
        Density([0.0, INF])
    top = Density.top(3)
    assert top.is_top and top.values.tolist() == [INF] * 3
    for bad in ([0.0, math.nan], [[0.0, -1.0]], []):  # not a tropical vector
        with pytest.raises(ValueError):
            Density(bad)


def test_density_values_are_a_read_only_copy():
    source = np.array([0.0, -1.0])
    b = Density(source)
    source[1] = 5.0
    assert type(b.values) is np.ndarray and b.values.dtype == np.float64
    assert b.values.tolist() == [0.0, -1.0]
    with pytest.raises(ValueError):
        b.values[0] = 1.0


def test_functional_eval_examples():
    b = dens(0, -1)
    assert functional_eval(TropicalFunctional(b), tv(0, 0)) == TropValue(0.0)
    assert functional_eval(TropicalFunctional(b), tv(-5, 3)) == TropValue(2.0)
    bottom = dens(-INF, -INF)
    assert functional_eval(TropicalFunctional(bottom), tv(7, 7)) == NEG_INF


def test_functional_eval_top():
    l = TropicalFunctional(Density.top(2))
    assert functional_eval(l, tv(0, 0)) == POS_INF
    everywhere_bottom = tv(-INF, -INF)
    assert functional_eval(l, everywhere_bottom) == NEG_INF


def test_functional_linearity_seeded():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 5)
        b = Density(_ints(rng, n))
        l = TropicalFunctional(b)
        f = tv(*_ints(rng, n))
        g = tv(*_ints(rng, n))
        lam = TropValue(float(rng.randint(-9, 9)))
        lhs = functional_eval(l, np.maximum(f, g))
        assert lhs == t_add(functional_eval(l, f), functional_eval(l, g))
        scaled = array_mul(float(lam), f)
        assert functional_eval(l, scaled) == t_mul(lam, functional_eval(l, f))


def test_measure_of_examples():
    b = dens(0, -1)
    assert measure_of(b, {0, 1}) == TropValue(0.0)
    assert measure_of(b, set()) == NEG_INF
    assert measure_of(b, {1}) == TropValue(-1.0)
    with pytest.raises(IndexError):
        measure_of(b, {2})


def test_finite_union_additivity_seeded():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 6)
        b = Density(_ints(rng, n))
        s1 = {i for i in range(n) if rng.random() < 0.5}
        s2 = {i for i in range(n) if rng.random() < 0.5}
        assert measure_of(b, s1 | s2) == t_add(measure_of(b, s1), measure_of(b, s2))


def test_tropical_integral_examples():
    b = dens(0, -1)
    f = tv(1, 5)
    assert tropical_integral(b, f, {0, 1}) == functional_eval(TropicalFunctional(b), f)
    assert tropical_integral(b, f, {1}) == TropValue(4.0)
    assert tropical_integral(b, f, set()) == NEG_INF
    for bad in ([0.0, math.nan], [[1.0, 5.0]], [1.0, 5.0, 0.0]):
        with pytest.raises(ValueError):
            tropical_integral(b, bad, {0, 1})


def test_is_invariant_examples():
    cyc = from_map([1, 2, 0], [0.0, 0.0, 0.0])
    assert is_invariant(cyc, dens(0, 0, 0))
    assert not is_invariant(cyc, dens(0, -1, 0))
    assert is_invariant(cyc, Density([-INF] * 3))
    sft = from_sft([[1, 1], [1, 1]], [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        is_invariant(sft, dens(0, 0))


def test_is_ergodic_examples():
    cyc = from_map([1, 2, 0], [0.0, 0.0, 0.0])
    assert is_ergodic(cyc, dens(0, 0, 0))
    two_cycles = from_map([1, 0, 3, 2], [0.0, 0.0, 0.0, 0.0])
    assert not is_ergodic(two_cycles, dens(0, 0, -3, -3))
    assert is_ergodic(two_cycles, Density([-INF] * 4))
    with pytest.raises(ValueError):
        is_ergodic(cyc, dens(0, -1, 0))  # not invariant


def test_densities_equivalent():
    b1, b2 = dens(0, -1), dens(0, -2)
    assert densities_equivalent(b1, dens(0, -1))
    assert not densities_equivalent(b1, b2)  # the singleton basis
    # functional-level agreement of two top densities
    assert densities_equivalent(Density.top(2), Density.top(2))


def test_singleton_probes_distinguish():
    rng = random.Random(71)
    for _ in range(100):
        n = rng.randint(1, 6)
        vals1 = [float(rng.randint(-5, 5)) for _ in range(n)]
        vals2 = list(vals1)
        k = rng.randrange(n)
        vals2[k] = vals1[k] + 1.0
        assert not densities_equivalent(Density(vals1), Density(vals2))
    assert len(singleton_probes(4)) == 4


def test_functional_lipschitz_seeded():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 6)
        vals = [-INF if rng.random() < 0.3 else float(rng.randint(-9, 9)) for _ in range(n)]
        if all(x == -INF for x in vals):
            vals[0] = 0.0
        l = TropicalFunctional(Density(vals))
        f = tv(*[rng.uniform(-9, 9) for _ in range(n)])
        g = tv(*[rng.uniform(-9, 9) for _ in range(n)])
        gap = float(np.max(np.abs(f - g)))
        lf, lg = functional_eval(l, f), functional_eval(l, g)
        assert abs(lf.finite - lg.finite) <= gap + 1e-12


def test_density_json_round_trip():
    b = dens(-INF, 0.5)
    assert Density.from_json(b.to_json()) == b
    top = Density.top(2)
    assert Density.from_json(top.to_json()).is_top
    with pytest.raises(ValueError):
        Density.from_json([0.0, "+inf"])  # mixed finite and top entries
