"""Transition systems, both transfer operators, orbit sums, JSON I/O."""

import json
import math
import random
import warnings

import numpy as np
import pytest

from troptherm.cli import _gen_system
from troptherm.dynamics import (
    N_MAX,
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


def test_from_sft_and_from_map_shape_errors():
    for matrix in ([], [[1, 1]], [[1, 1], [1]]):
        with pytest.raises(SystemValidationError, match="^transition matrix must be square and nonempty$"):
            from_sft(matrix, matrix)
    for potential in ([[0.0, 0.0]], [[0.0, 0.0], [0.0]], [[0.0] * 3] * 3):
        with pytest.raises(SystemValidationError, match="^edge potential must match the transition matrix shape$"):
            from_sft([[1, 1], [1, 1]], potential)
    for potential in ([0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(SystemValidationError, match="^potential must assign a value to every state$"):
            from_map([0, 1], potential)


def test_from_sft_and_from_map_entries_meet_the_constructor():
    # the entries reach the constructor as given, so its one check decides:
    # no float or bool image, and a weight beyond float range is refused
    # like any infinite one
    for table in ([0, 1.7], [True, 0]):
        with pytest.raises(SystemValidationError, match="^arc endpoints must be integers: "):
            from_map(table, [0.0, 1.0])
    with pytest.raises(SystemValidationError, match="^arc weight must be finite: "):
        from_sft([[1, 1], [1, 1]], [[0.0, 10**400], [0.0, 0.0]])
    with pytest.raises(SystemValidationError, match="^arc weight must be a real number: "):
        from_map([1, 0], [0.0, "1"])
    # numpy entries and integer weights still give plain ints and floats
    sys_ = from_map(np.array([1, 0]), np.array([2, -1]))
    assert sys_.arcs == ((0, 1, 2.0), (1, 0, -1.0))
    assert [type(x) for arc in sys_.arcs for x in arc] == [int, int, float] * 2
    assert from_sft(np.eye(2, dtype=int), [[np.float64(0.5), 0], [0, 7]]).arcs == ((0, 0, 0.5), (1, 1, 7.0))


def test_from_map_flags(fixc):
    assert fixc.deterministic
    assert fixc.surjective_like
    assert [(s, t) for s, t, _ in fixc.arcs] == [(0, 1), (1, 2), (2, 0)]
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
    assert sorted(t for s, t, _ in fixb.arcs if s == 1) == [2, 3]
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


def test_operators_keep_the_arc_sum_conventions():
    # an empty sup is -inf, +inf passes through the Bousch operator, and a
    # sum past float range is +inf with no numpy warning
    sys = TransitionSystem(3, [(0, 1, 1.0), (1, 1, -2.0)])  # no arc enters 0 or 2, none leaves 2
    assert bousch_apply(sys, tv(0.0, 0.0, 0.0)).tolist() == [-INF, 1.0, -INF]
    assert adjoint_apply(sys, Density([0.0, 0.0, 0.0])).values.tolist() == [1.0, -2.0, -INF]
    assert bousch_apply(sys, tv(INF, -INF, INF)).tolist() == [-INF, INF, -INF]
    big = TransitionSystem(2, [(0, 1, 1e308), (1, 0, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bousch_apply(big, tv(1e308, 0.0)).tolist() == [0.0, INF]


def test_adjoint_fixes_top(fixa):
    top = Density.top(2)
    assert adjoint_apply(fixa, top).is_top


def test_birkhoff_sum(fixa, fixc):
    # a list and a tuple of states are both accepted
    assert birkhoff_sum(fixc, [0, 1, 2]) == 3.0
    assert birkhoff_sum(fixc, (0, 1, 2)) == 3.0
    assert birkhoff_sum(fixc, (2,)) == 0.0
    assert birkhoff_sum(fixa, [0, 1, 0]) == -2.0
    with pytest.raises(ValueError, match="not an arc"):
        birkhoff_sum(fixc, [0, 2])
    # a path visits at least one state
    for empty in ([], ()):
        with pytest.raises(ValueError, match="at least one state"):
            birkhoff_sum(fixc, empty)


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
