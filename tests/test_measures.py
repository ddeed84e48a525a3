"""Densities, tropical functionals, invariance and ergodicity checks."""

import math
import random

import pytest

from troptherm.dynamics import from_map, from_sft
from troptherm.tropical_core import NEG_INF, POS_INF, TropValue, TropVector, as_trop, t_add, t_mul
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


def tv(*xs):
    return TropVector([as_trop(x) for x in xs])


def dens(*xs):
    return Density(tv(*xs))


def test_density_rejects_pos_inf_entries():
    with pytest.raises(ValueError):
        Density(TropVector([as_trop(0), POS_INF]))
    top = Density.top(3)
    assert top.is_top and all(x == POS_INF for x in top.values)


def test_functional_eval_examples():
    b = dens(0, -1)
    assert functional_eval(TropicalFunctional(b), tv(0, 0)) == TropValue(0.0)
    assert functional_eval(TropicalFunctional(b), tv(-5, 3)) == TropValue(2.0)
    bottom = Density(TropVector([NEG_INF, NEG_INF]))
    assert functional_eval(TropicalFunctional(bottom), tv(7, 7)) == NEG_INF


def test_functional_eval_top():
    l = TropicalFunctional(Density.top(2))
    assert functional_eval(l, tv(0, 0)) == POS_INF
    everywhere_bottom = TropVector([NEG_INF, NEG_INF])
    assert functional_eval(l, everywhere_bottom) == NEG_INF


def test_functional_linearity_seeded():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 5)
        b = Density(TropVector([TropValue(float(rng.randint(-9, 9))) for _ in range(n)]))
        l = TropicalFunctional(b)
        f = TropVector([TropValue(float(rng.randint(-9, 9))) for _ in range(n)])
        g = TropVector([TropValue(float(rng.randint(-9, 9))) for _ in range(n)])
        lam = TropValue(float(rng.randint(-9, 9)))
        lhs = functional_eval(l, TropVector([t_add(a, c) for a, c in zip(f, g)]))
        assert lhs == t_add(functional_eval(l, f), functional_eval(l, g))
        scaled = TropVector([t_mul(lam, a) for a in f])
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
        b = Density(TropVector([TropValue(float(rng.randint(-9, 9))) for _ in range(n)]))
        s1 = {i for i in range(n) if rng.random() < 0.5}
        s2 = {i for i in range(n) if rng.random() < 0.5}
        assert measure_of(b, s1 | s2) == t_add(measure_of(b, s1), measure_of(b, s2))


def test_tropical_integral_examples():
    b = dens(0, -1)
    f = tv(1, 5)
    assert tropical_integral(b, f, {0, 1}) == functional_eval(TropicalFunctional(b), f)
    assert tropical_integral(b, f, {1}) == TropValue(4.0)
    assert tropical_integral(b, f, set()) == NEG_INF


def test_is_invariant_examples():
    cyc = from_map([1, 2, 0], [0.0, 0.0, 0.0])
    assert is_invariant(cyc, dens(0, 0, 0))
    assert not is_invariant(cyc, dens(0, -1, 0))
    assert is_invariant(cyc, Density(TropVector([NEG_INF] * 3)))
    sft = from_sft([[1, 1], [1, 1]], [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        is_invariant(sft, dens(0, 0))


def test_is_ergodic_examples():
    cyc = from_map([1, 2, 0], [0.0, 0.0, 0.0])
    assert is_ergodic(cyc, dens(0, 0, 0))
    two_cycles = from_map([1, 0, 3, 2], [0.0, 0.0, 0.0, 0.0])
    assert not is_ergodic(two_cycles, dens(0, 0, -3, -3))
    assert is_ergodic(two_cycles, Density(TropVector([NEG_INF] * 4)))
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
        vals1 = [TropValue(float(rng.randint(-5, 5))) for _ in range(n)]
        vals2 = list(vals1)
        k = rng.randrange(n)
        vals2[k] = TropValue(vals1[k].finite + 1.0)
        assert not densities_equivalent(Density(TropVector(vals1)), Density(TropVector(vals2)))
    assert len(singleton_probes(4)) == 4


def test_functional_lipschitz_seeded():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 6)
        vals = [
            NEG_INF if rng.random() < 0.3 else TropValue(float(rng.randint(-9, 9)))
            for _ in range(n)
        ]
        if all(x == NEG_INF for x in vals):
            vals[0] = TropValue(0.0)
        l = TropicalFunctional(Density(TropVector(vals)))
        f = TropVector([TropValue(rng.uniform(-9, 9)) for _ in range(n)])
        g = TropVector([TropValue(rng.uniform(-9, 9)) for _ in range(n)])
        gap = max(abs(a.finite - b.finite) for a, b in zip(f, g))
        lf, lg = functional_eval(l, f), functional_eval(l, g)
        assert abs(lf.finite - lg.finite) <= gap + 1e-12


def test_density_json_round_trip():
    b = Density(TropVector([NEG_INF, as_trop(0.5)]))
    assert Density.from_json(b.to_json()) == b
    top = Density.top(2)
    assert Density.from_json(top.to_json()).is_top
    with pytest.raises(ValueError):
        Density.from_json([0.0, "+inf"])  # mixed finite and top entries
