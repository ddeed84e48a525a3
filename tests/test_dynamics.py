"""Transition systems, both transfer operators, orbit sums, JSON I/O."""

import json
import math
import random

import numpy as np
import pytest

from troptherm.cli import _gen_system
from troptherm.dynamics import (
    N_MAX,
    PathRecord,
    SystemValidationError,
    TransitionSystem,
    adjoint_apply,
    birkhoff_sum,
    bousch_apply,
    discretize_doubling,
    from_map,
    from_sft,
    system_from_json,
    system_to_json,
)
from troptherm.tropical_core import array_mul, array_sup, trop_vector
from troptherm.tropical_measures import Density

INF = math.inf


def tv(*xs):
    return trop_vector(xs)


def _rand_vector(rng, n):
    return trop_vector([-INF if rng.random() < 0.1 else rng.uniform(-5, 5) for _ in range(n)])


def _assert_close(x, y):
    """Equal infinities, finite entries within 1e-12."""
    finite = np.isfinite(x) & np.isfinite(y)
    assert np.all(np.abs(x[finite] - y[finite]) <= 1e-12)
    assert np.array_equal(x[~finite], y[~finite])


def test_constructor_fixa(fixa):
    assert fixa.n == 2
    assert len(fixa.arcs) == 4
    assert fixa.arc_weight(0, 1) == -1.0
    assert fixa.arc_weight(1, 1) == -3.0
    assert not fixa.deterministic
    assert fixa.surjective_like


def test_constructor_flags_and_errors():
    ident = from_sft([[1, 0], [0, 1]], [[2.0, 0.0], [0.0, 5.0]])
    assert ident.deterministic
    with pytest.raises(SystemValidationError):
        from_sft([[0, 0], [1, 1]], [[0.0] * 2] * 2)  # zero row
    with pytest.raises(SystemValidationError):
        from_sft([[1, 0], [1, 0]], [[0.0] * 2] * 2)  # zero column
    with pytest.raises(SystemValidationError):
        TransitionSystem(2, [(0, 1, 1.0), (0, 1, 2.0)])  # duplicate arc
    with pytest.raises(SystemValidationError):
        TransitionSystem(2, [(0, 2, 1.0)])
    with pytest.raises(SystemValidationError):
        TransitionSystem(1, [(0, 0, math.inf)])
    with pytest.raises(SystemValidationError):
        TransitionSystem(0, [])
    # one rule for every caller: no bool endpoints, no string weights, one
    # string label per state
    with pytest.raises(SystemValidationError):
        TransitionSystem(2, [(True, 0, 2.5), (0, 1, 1.0)])
    with pytest.raises(SystemValidationError):
        TransitionSystem(2, [(1, 0, "2.5"), (0, 1, 1.0)])
    with pytest.raises(SystemValidationError):
        TransitionSystem(2, [(1, 0, 2.5), (0, 1, 1.0)], labels=[None, 1])
    with pytest.raises(SystemValidationError):
        TransitionSystem(N_MAX + 1, [])
    with pytest.raises(SystemValidationError):
        TransitionSystem(2.0, [(0, 1, 1.0)])


def test_from_map_flags(fixc):
    assert fixc.deterministic
    assert fixc.surjective_like
    assert fixc.image(0) == 1 and fixc.image(2) == 0
    squash = from_map([0, 0], [1.0, 1.0])
    assert squash.deterministic
    assert not squash.surjective_like
    ident = from_map([0, 1], [0.5, -0.5])
    assert all(s == t for s, t, _ in ident.arcs)


def test_discretize_doubling_order2(fixb):
    assert fixb.n == 4
    assert fixb.labels == ("00", "01", "10", "11")
    # sample points 0, 1/4, 1/2, 3/4 of cos(2 pi t)
    assert abs(fixb.arc_weight(0, 0) - 1.0) <= 1e-12
    assert abs(fixb.arc_weight(1, 2)) <= 1e-12
    assert abs(fixb.arc_weight(2, 0) + 1.0) <= 1e-12
    assert abs(fixb.arc_weight(3, 2)) <= 1e-12
    # shift structure: word s goes to (2s mod 4) and (2s mod 4)+1
    assert sorted(t for t, _ in fixb.successors(1)) == [2, 3]
    assert fixb.max_in_degree() == 2


def test_discretize_doubling_edge_orders():
    flat = discretize_doubling(1, lambda t: 3.25)
    assert flat.n == 2 and len(flat.arcs) == 4
    assert all(w == 3.25 for _, _, w in flat.arcs)
    cube = discretize_doubling(3, lambda t: t)
    assert cube.n == 8 and len(cube.arcs) == 16
    with pytest.raises(SystemValidationError):
        discretize_doubling(0, lambda t: 0.0)


def test_bousch_examples(fixa, fixc):
    assert bousch_apply(fixa, tv(0, -1)).tolist() == [0.0, -1.0]
    bottom = tv(-INF, -INF)
    assert np.array_equal(bousch_apply(fixa, bottom), bottom)
    # weights normalized by Q=2: (-1, 0, 1) on the 3-cycle
    norm = from_map([1, 2, 0], [-1.0, 0.0, 1.0])
    assert bousch_apply(norm, tv(0, -1, -1)).tolist() == [0.0, -1.0, -1.0]
    for bad in ([0.0], [0.0, math.nan], [[0.0, -1.0]], [0.0, -1.0, 0.0], []):
        with pytest.raises(ValueError):
            bousch_apply(fixa, bad)
    out = bousch_apply(fixa, [0.0, -1.0])  # any 1-d sequence of floats
    assert type(out) is np.ndarray and out.dtype == np.float64
    with pytest.raises(ValueError):
        out[0] = 1.0  # read-only


def test_adjoint_examples(fixa):
    assert adjoint_apply(fixa, Density([0.0, -1.0])).values.tolist() == [0.0, -1.0]
    norm = from_map([1, 2, 0], [-1.0, 0.0, 1.0])
    assert adjoint_apply(norm, Density([0.0, 1.0, 1.0])).values.tolist() == [0.0, 1.0, 1.0]
    bottom = Density([-INF, -INF])
    assert np.array_equal(adjoint_apply(fixa, bottom).values, bottom.values)
    with pytest.raises(ValueError):
        adjoint_apply(fixa, Density([0.0, -1.0, 0.0]))


def test_adjoint_fixes_top(fixa):
    top = Density.top(2)
    assert adjoint_apply(fixa, top).is_top


def test_birkhoff_sum(fixa, fixc):
    assert birkhoff_sum(fixc, PathRecord([0, 1, 2])) == 3.0
    assert birkhoff_sum(fixc, PathRecord([2])) == 0.0
    assert birkhoff_sum(fixa, PathRecord([0, 1, 0])) == -2.0
    with pytest.raises(ValueError):
        birkhoff_sum(fixc, PathRecord([0, 2]))


def test_shifted_equals_constructor():
    # shifted builds its store from the validated one: the same arcs,
    # weights bit for bit (signed zeros included) and labels as the
    # constructor gives on the moved arcs
    systems = [discretize_doubling(order, lambda t: math.cos(2 * math.pi * t)) for order in range(3, 9)]
    systems += [_gen_system(seed, None, False) for seed in range(50)]
    for sys in systems:
        mean = float(np.max(sys.arc_arrays[2]))
        for delta in (-mean, 0.1, -0.0, np.float64(-2.5e-17), -3):
            got = sys.shifted(delta)
            want = TransitionSystem(sys.n, [(s, t, w + delta) for s, t, w in sys.arcs], sys.labels)
            assert got == want
            assert repr(got.arcs) == repr(want.arcs)
            assert all(type(w) is float for _, _, w in got.arcs)
            for a, b in zip(got.arc_arrays, want.arc_arrays):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes() and not a.flags.writeable
            assert got.labels == want.labels
    # the moved weights are checked again: overflow and nan are refused
    with pytest.raises(SystemValidationError):
        TransitionSystem(1, [(0, 0, 1e308)]).shifted(1e308)
    with pytest.raises(SystemValidationError):
        TransitionSystem(1, [(0, 0, 1.0)]).shifted(math.nan)


def test_json_round_trip(fixb):
    data = system_to_json(fixb)
    again = system_from_json(data)
    assert again == fixb
    # string labels survive the text round trip (equality compares labels)
    for order in range(3, 7):
        sys = discretize_doubling(order, lambda t: math.cos(2 * math.pi * t))
        assert system_from_json(json.loads(json.dumps(system_to_json(sys)))) == sys
    # numpy scalars are stored as Python numbers, so what the constructor
    # accepts writes as JSON and reads back
    lib = TransitionSystem(np.int64(2), [(np.int64(0), 1, np.float64(-0.5)), (1, np.int32(0), 3)], labels=("a", "b"))
    assert system_from_json(json.loads(json.dumps(system_to_json(lib)))) == lib
    with pytest.raises(SystemValidationError):
        system_from_json({"n": 2, "arcs": [[0, 1, 1.0]], "labels": ["a", None]})
    with pytest.raises(SystemValidationError):
        system_from_json({"n": 2})
    with pytest.raises(SystemValidationError):
        system_from_json({"n": 2, "arcs": [[0, 1, 1.0]], "extra": 1})
    with pytest.raises(SystemValidationError):
        system_from_json({"n": 2, "arcs": [[0, 1.5, 0.0]]})
    with pytest.raises(SystemValidationError):
        system_from_json([1, 2])


def test_operator_tropical_linearity():
    rng = random.Random(101)
    for seed in range(40):
        sys = _gen_system(rng.randrange(10**6), None, False)
        u = _rand_vector(rng, sys.n)
        v = _rand_vector(rng, sys.n)
        a = rng.uniform(-3, 3)
        b = rng.uniform(-3, 3)
        # a ⊗ u ⊕ b ⊗ v
        combo = np.maximum(array_mul(a, u), array_mul(b, v))
        lhs = bousch_apply(sys, combo)
        lu = bousch_apply(sys, u)
        lv = bousch_apply(sys, v)
        rhs = np.maximum(array_mul(a, lu), array_mul(b, lv))
        _assert_close(lhs, rhs)


def test_operator_nonexpansive_and_monotone():
    rng = random.Random(202)
    for _ in range(40):
        sys = _gen_system(rng.randrange(10**6), None, False)
        u = tv(*[rng.uniform(-5, 5) for _ in range(sys.n)])
        v = tv(*[rng.uniform(-5, 5) for _ in range(sys.n)])
        gap = float(np.max(np.abs(u - v)))
        lu = bousch_apply(sys, u)
        lv = bousch_apply(sys, v)
        assert np.isfinite(lu).all()  # gen systems are strongly connected
        assert float(np.max(np.abs(lu - lv))) <= gap + 1e-12
        dominated = tv(*[x - rng.uniform(0, 2) for x in u.tolist()])
        ld = bousch_apply(sys, dominated)
        assert np.all(ld <= lu + 1e-12)


def test_adjoint_duality():
    # sup_y (L u)(y) + b(y)  ==  sup_x u(x) + (L* b)(x)
    rng = random.Random(303)
    for _ in range(40):
        sys = _gen_system(rng.randrange(10**6), None, False)
        u = _rand_vector(rng, sys.n)
        b = Density(_rand_vector(rng, sys.n))
        lu = bousch_apply(sys, u)
        lb = adjoint_apply(sys, b)
        lhs = array_sup(array_mul(lu, b.values))
        rhs = array_sup(array_mul(u, lb.values))
        _assert_close(np.array([lhs]), np.array([rhs]))
