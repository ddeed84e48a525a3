"""Densities, tropical functionals, invariance and ergodicity checks."""

import math
import random

import numpy as np
import pytest

from troptherm.dynamics import from_map, from_sft
from troptherm.tropical_core import array_mul, trop_vector
from troptherm.tropical_measures import (
    Density,
    functional_eval,
    is_ergodic,
    is_invariant,
    measure_of,
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
    assert top.to_json() == ["+inf"] * 3
    with pytest.raises(TypeError):  # Density.top is the one way to build top
        Density([INF] * 3, is_top=True)
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
    assert functional_eval(b, tv(0, 0)) == 0.0
    assert functional_eval(b, tv(-5, 3)) == 2.0
    assert type(functional_eval(b, tv(-5, 3))) is float
    bottom = dens(-INF, -INF)
    assert functional_eval(bottom, tv(7, 7)) == -INF


def test_functional_eval_top():
    top = Density.top(2)
    assert functional_eval(top, tv(0, 0)) == INF
    everywhere_bottom = tv(-INF, -INF)
    assert functional_eval(top, everywhere_bottom) == -INF


def test_functional_linearity_seeded():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 5)
        b = Density(_ints(rng, n))
        f = tv(*_ints(rng, n))
        g = tv(*_ints(rng, n))
        lam = float(rng.randint(-9, 9))
        lhs = functional_eval(b, np.maximum(f, g))
        assert lhs == max(functional_eval(b, f), functional_eval(b, g))
        scaled = array_mul(lam, f)
        assert functional_eval(b, scaled) == lam + functional_eval(b, f)


def test_measure_of_examples():
    b = dens(0, -1)
    assert measure_of(b, {0, 1}) == 0.0
    assert measure_of(b, set()) == -INF
    assert measure_of(b, {1}) == -1.0
    assert type(measure_of(b, {1})) is float
    with pytest.raises(IndexError):
        measure_of(b, {2})


def test_finite_union_additivity_seeded():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 6)
        b = Density(_ints(rng, n))
        s1 = {i for i in range(n) if rng.random() < 0.5}
        s2 = {i for i in range(n) if rng.random() < 0.5}
        assert measure_of(b, s1 | s2) == max(measure_of(b, s1), measure_of(b, s2))


def test_tropical_integral_examples():
    b = dens(0, -1)
    f = tv(1, 5)
    assert tropical_integral(b, f, {0, 1}) == functional_eval(b, f)
    assert tropical_integral(b, f, {1}) == 4.0
    assert type(tropical_integral(b, f, {1})) is float
    assert tropical_integral(b, f, set()) == -INF
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


def test_is_ergodic_long_tail():
    # a 2,000-state chain into a loop at its end, beside a second loop:
    # every tail state has mass -inf, so ergodicity hangs on whether the
    # chain's loop also has mass -inf
    n = 2001
    chain_loop = from_map(list(range(1, n - 1)) + [n - 2, n - 1], [0.0] * n)
    assert is_ergodic(chain_loop, Density([-INF] * (n - 1) + [0.0]))
    assert not is_ergodic(chain_loop, Density([-INF] * (n - 2) + [0.0, 0.0]))


def _ergodic_by_orbit_walk(table, values):
    """Reference for is_ergodic: walk each orbit until it repeats a state,
    which lies on its terminal cycle."""
    total = max(values)
    for x in range(len(table)):
        seen, y = set(), x
        while y not in seen:
            seen.add(y)
            y = table[y]
        if values[y] != (-INF if values[x] == -INF else total):
            return False
    return True


def test_is_ergodic_matches_orbit_walk():
    rng = random.Random(5)
    checked = 0
    for _ in range(2000):
        n = rng.randint(1, 9)
        table = [rng.randrange(n) for _ in range(n)]
        sys = from_map(table, [0.0] * n)
        values = [rng.choice([-INF, 0.0, -1.0]) for _ in range(n)]
        if not is_invariant(sys, Density(values)):
            continue
        assert is_ergodic(sys, Density(values)) == _ergodic_by_orbit_walk(table, values), (table, values)
        checked += 1
    assert checked >= 200


def test_densities_equivalent():
    # equal masses (either zero of a tie), or both top; on a finite state
    # set this is equality of the functionals on the singleton probes
    b1, b2 = dens(0, -1), dens(0, -2)
    assert b1 == dens(-0.0, -1)
    assert b1 != b2
    assert Density.top(2) == Density.top(2)
    assert Density.top(2) != dens(0, 0) and Density.top(2) != Density.top(3)


def test_singleton_probes_distinguish():
    rng = random.Random(71)
    for _ in range(100):
        n = rng.randint(1, 6)
        vals1 = [float(rng.randint(-5, 5)) for _ in range(n)]
        vals2 = list(vals1)
        k = rng.randrange(n)
        vals2[k] = vals1[k] + 1.0
        assert Density(vals1) != Density(vals2)
        probe = np.where(np.arange(n) == k, 0.0, -INF)
        assert functional_eval(Density(vals1), probe) != functional_eval(Density(vals2), probe)


def test_functional_lipschitz_seeded():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 6)
        vals = [-INF if rng.random() < 0.3 else float(rng.randint(-9, 9)) for _ in range(n)]
        if all(x == -INF for x in vals):
            vals[0] = 0.0
        b = Density(vals)
        f = tv(*[rng.uniform(-9, 9) for _ in range(n)])
        g = tv(*[rng.uniform(-9, 9) for _ in range(n)])
        gap = float(np.max(np.abs(f - g)))
        lf, lg = functional_eval(b, f), functional_eval(b, g)
        assert math.isfinite(lf) and math.isfinite(lg)
        assert abs(lf - lg) <= gap + 1e-12
