"""Ergodic optimization layer: Q, normalization, Mañé data, sub-actions."""

import math
import random

import numpy as np
import pytest

import troptherm.ergodic_opt as ergodic_opt
import troptherm.maxplus_linalg as maxplus_linalg
from troptherm.bruteforce import subaction_limsup
from troptherm.cli import _gen_system
from troptherm.dynamics import PathRecord, TransitionSystem, adjoint_apply, bousch_apply, discretize_doubling
from troptherm.ergodic_opt import (
    ergodic_report,
    eigen_density_spectral,
    eigenfunction_spectral,
    is_subaction,
    mane_potential,
    max_potential_energy,
    normalize,
    report_from_json,
    report_to_json,
    representation_check,
)
from troptherm.maxplus_linalg import PositiveCycleError
from troptherm.tropical_core import sup_distance, trop_vector


def tv(*xs):
    return trop_vector(xs)


def _floats(vec):
    return vec.tolist()


def test_max_potential_energy_examples(fixa, fixb, fixc):
    q, cycle = max_potential_energy(fixa)
    assert q == 0.0 and cycle.states == (0, 0)
    q, cycle = max_potential_energy(fixc)
    assert q == 2.0 and cycle.states == (0, 1, 2, 0)
    q, cycle = max_potential_energy(fixb)
    assert abs(q - 1.0) <= 1e-12 and cycle.states == (0, 0)
    with pytest.raises(ValueError):
        max_potential_energy(TransitionSystem(2, [(0, 1, 1.0)]))


def test_normalize(fixb, fixc):
    norm = normalize(fixc)
    assert [w for _, _, w in norm.arcs] == [-1.0, 0.0, 1.0]
    normb = normalize(fixb)
    assert abs(normb.arc_weight(0, 0)) <= 1e-12
    assert abs(normb.arc_weight(2, 0) + 2.0) <= 1e-12


def test_mane_potential_fixa(fixa):
    mane = mane_potential(fixa)
    assert mane.phi.tolist() == [[0.0, -1.0], [-1.0, -2.0]]
    assert mane.aubry == (0,)
    assert mane.critical_classes == [(0,)]


def test_mane_potential_fixc(fixc):
    mane = mane_potential(normalize(fixc))
    assert mane.aubry == (0, 1, 2)
    assert mane.critical_classes == [(0, 1, 2)]
    # phi(x, x) = 0 on the Aubry set
    assert all(mane.phi[i, i] == 0.0 for i in range(3))


def test_mane_potential_rejects_unnormalized(fixc, one_state):
    # a positive mean is reported with its maximizing cycle, read off the
    # same pass
    with pytest.raises(PositiveCycleError) as err:
        mane_potential(fixc)  # Q = 2
    assert err.value.mean == 2.0 and err.value.cycle == [0, 1, 2]
    with pytest.raises(PositiveCycleError) as err:
        mane_potential(one_state)  # Q = 1.5
    assert err.value.mean == 1.5 and err.value.cycle == [0]
    with pytest.raises(ValueError, match="not normalized"):
        mane_potential(fixc.shifted(-3.0))  # mean -1
    with pytest.raises(ValueError, match="acyclic"):
        mane_potential(TransitionSystem(2, [(0, 1, 0.0)]))
    # within tol of 0 the mean is shifted away, as in ergodic_report
    near = fixc.shifted(-2.0 + 1e-12)
    assert np.array_equal(mane_potential(near).phi, ergodic_report(near).mane.phi)


def test_subaction_limsup_examples(fixa, fixc):
    u = subaction_limsup(fixa, tv(0, 0))
    assert _floats(u) == [0.0, -1.0]
    v = subaction_limsup(normalize(fixc), tv(0, 0, 0))
    assert (v - v[0]).tolist() == [0.0, -1.0, -1.0]
    # an eigenfunction is already a fixed point
    again = subaction_limsup(fixa, tv(0, -1))
    assert _floats(again) == [0.0, -1.0]


def test_subaction_limsup_rejects_bad_input(fixa, fixc):
    with pytest.raises(ValueError):
        subaction_limsup(fixc, tv(0, 0, 0))  # not normalized
    with pytest.raises(ValueError):
        subaction_limsup(fixa, tv(0))
    with pytest.raises(ValueError):
        subaction_limsup(fixa, tv(0.0, -math.inf))
    for bad in ([0.0, math.nan], [[0.0, 0.0]], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            subaction_limsup(fixa, bad)


def test_subaction_limsup_fixed_point_seeded():
    rng = random.Random(17)
    for _ in range(15):
        sys = normalize(_gen_system(rng.randrange(10**6), None, False))
        for _ in range(3):
            u0 = tv(*[float(rng.randint(-4, 4)) for _ in range(sys.n)])
            u = subaction_limsup(sys, u0)
            assert sup_distance(bousch_apply(sys, u), u) <= 1e-9
            assert is_subaction(sys, u)


def test_spectral_bases_fixtures(fixa, fixb, fixc):
    amane = mane_potential(fixa)
    assert [_floats(v) for v in eigenfunction_spectral(amane)] == [[0.0, -1.0]]
    assert [_floats(d.values) for d in eigen_density_spectral(amane)] == [[0.0, -1.0]]
    cmane = mane_potential(normalize(fixc))
    assert [_floats(v) for v in eigenfunction_spectral(cmane)] == [[0.0, -1.0, -1.0]]
    assert [_floats(d.values) for d in eigen_density_spectral(cmane)] == [[0.0, 1.0, 1.0]]
    bmane = mane_potential(normalize(fixb))
    (v,) = eigenfunction_spectral(bmane)
    (d,) = eigen_density_spectral(bmane)
    assert max(abs(a - b) for a, b in zip(_floats(v), [0.0, 0.0, -1.0, -1.0])) <= 1e-12
    assert max(abs(a - b) for a, b in zip(_floats(d.values), [0.0, -3.0, -2.0, -3.0])) <= 1e-12


def test_spectral_bases_are_fixed_points(fixa, fixb, fixc, two_loops):
    for sys in (fixa, normalize(fixb), normalize(fixc), two_loops):
        mane = mane_potential(sys)
        for v in eigenfunction_spectral(mane):
            assert sup_distance(bousch_apply(sys, v), v) <= 1e-12
        for d in eigen_density_spectral(mane):
            assert sup_distance(adjoint_apply(sys, d).values, d.values) <= 1e-12


def test_two_class_system(two_loops):
    report = ergodic_report(two_loops)
    assert report.Q == 0.0
    assert report.mane.aubry == (0, 1)
    assert report.mane.critical_classes == [(0,), (1,)]
    assert not report.uniquely_calibrated
    assert [_floats(v) for v in report.eigenfunction_basis] == [[0.0, -2.0], [-1.0, 0.0]]
    assert [_floats(d.values) for d in report.eigen_density_basis] == [[0.0, -1.0], [-2.0, 0.0]]


def test_unique_calibration_flags(fixa, fixb, fixc):
    assert ergodic_report(fixa).uniquely_calibrated
    assert ergodic_report(fixb).uniquely_calibrated
    assert ergodic_report(fixc).uniquely_calibrated
    # the two-cycle 0 -> 1 -> 0 is 7e-10 short of zero, within tol: one
    # class with the loop at 1, though phi(0, 0) + phi(0, 0) is beyond tol
    tie = TransitionSystem(2, [(0, 1, 1.0), (1, 0, -1.0000000007), (1, 1, 0.0)])
    report = ergodic_report(tie)
    assert report.mane.critical_classes == [(0, 1)]
    assert report.uniquely_calibrated
    # a loop 9e-10 short of zero is critical once, not 1.8e-9 short twice
    selfloop = TransitionSystem(2, [(0, 0, 0.0), (1, 1, -9e-10), (0, 1, -5.0), (1, 0, -5.0)])
    report = ergodic_report(selfloop)
    assert report.mane.aubry == (0, 1)
    assert report.mane.critical_classes == [(0,), (1,)]
    assert not report.uniquely_calibrated


def _perturbed(sys, eps, rng):
    src, tgt, w = sys.arc_arrays
    noisy = w + rng.uniform(-eps, eps, len(w))
    return TransitionSystem(sys.n, list(zip(src.tolist(), tgt.tolist(), noisy.tolist())))


def test_classes_cover_aubry_seeded():
    # one test decides unique calibration, so the critical classes must
    # cover the Aubry set, also within tol of the boundary
    rng = np.random.default_rng(5)
    systems = [discretize_doubling(k, lambda t: math.cos(2 * math.pi * t)) for k in range(3, 10)]
    for seed in range(200):
        gen = _gen_system(seed, 12, False)
        systems += [gen, _perturbed(gen, 1e-9, rng)]
    for sys in systems:
        report = ergodic_report(sys)
        covered = sorted(x for c in report.mane.critical_classes for x in c)
        assert tuple(covered) == report.mane.aubry
        assert report.uniquely_calibrated == (len(report.mane.critical_classes) == 1)


def test_representation_check(fixa):
    report = ergodic_report(fixa)
    (v,) = report.eigenfunction_basis
    assert representation_check(report, v=v) == 0.0
    shifted = v + 2.5
    assert representation_check(report, v=shifted) <= 1e-12
    (d,) = report.eigen_density_basis
    assert representation_check(report, b=d) == 0.0
    with pytest.raises(ValueError):
        representation_check(report)
    with pytest.raises(ValueError):
        representation_check(report, v=v, b=d)


def test_is_subaction(fixa):
    assert is_subaction(fixa, tv(0, 0))
    assert is_subaction(fixa, tv(0, -1))
    assert not is_subaction(fixa, tv(-5, 0))
    with pytest.raises(ValueError):
        is_subaction(fixa, tv(-math.inf, 0.0))
    for bad in ([0.0, math.nan], [[0.0, 0.0]], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            is_subaction(fixa, bad)


def test_domination_inequalities(fixa, two_loops):
    # eigenfunction: u(y) + w(y -> x) <= u(x); density: w(y -> x) + b(x) <= b(y)
    for sys in (fixa, two_loops):
        report = ergodic_report(sys)
        for v in report.eigenfunction_basis:
            for y, x, w in report.normalized_system.arcs:
                lhs = v[y] + w
                assert lhs <= v[x] + 1e-12 or lhs == -math.inf
        for d in report.eigen_density_basis:
            for y, x, w in report.normalized_system.arcs:
                lhs = w + d.values[x]
                assert lhs <= d.values[y] + 1e-12 or lhs == -math.inf


def test_witness_cycle_inside_aubry_seeded():
    rng = random.Random(29)
    for _ in range(25):
        sys = _gen_system(rng.randrange(10**6), None, False)
        report = ergodic_report(sys)
        cycle_states = set(report.maximizing_cycle.states)
        assert cycle_states <= set(report.mane.aubry)
        # the maximizing cycle realizes Q exactly on the original weights
        total = sum(
            sys.arc_weight(a, b)
            for a, b in zip(report.maximizing_cycle.states, report.maximizing_cycle.states[1:])
        )
        assert abs(total / report.maximizing_cycle.length - report.Q) <= 1e-9


def test_report_json_round_trip(fixa, two_loops):
    for sys in (fixa, two_loops):
        report = ergodic_report(sys)
        again = report_from_json(report_to_json(report))
        assert again.Q == report.Q
        assert again.maximizing_cycle.states == report.maximizing_cycle.states
        assert again.normalized_system == report.normalized_system
        assert again.mane.phi.tolist() == report.mane.phi.tolist()
        assert again.mane.aubry == report.mane.aubry
        assert again.mane.critical_classes == report.mane.critical_classes
        assert [v.tolist() for v in again.eigenfunction_basis] == [v.tolist() for v in report.eigenfunction_basis]
        assert again.eigen_density_basis == report.eigen_density_basis
        assert again.uniquely_calibrated == report.uniquely_calibrated


def test_report_runs_one_tropical_pass(fixa, two_loops, monkeypatch):
    calls = {"karp": 0, "closure": 0, "to_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    karp = counted("karp", maxplus_linalg._karp_mean)
    monkeypatch.setattr(maxplus_linalg, "_karp_mean", karp)
    monkeypatch.setattr(ergodic_opt, "_karp_mean", karp)
    monkeypatch.setattr(maxplus_linalg, "_closure", counted("closure", maxplus_linalg._closure))
    monkeypatch.setattr(TransitionSystem, "to_matrix", counted("to_matrix", TransitionSystem.to_matrix))
    doubling = discretize_doubling(5, lambda t: math.cos(2 * math.pi * t))
    for sys in (fixa, two_loops, doubling):
        for key in calls:
            calls[key] = 0
        ergodic_report(sys)
        assert calls == {"karp": 1, "closure": 1, "to_matrix": 0}


def test_report_holds_read_only_arrays(fixa, two_loops):
    for report in (ergodic_report(fixa), ergodic_report(two_loops), report_from_json(report_to_json(ergodic_report(fixa)))):
        n = report.normalized_system.n
        phi = report.mane.phi
        assert type(phi) is np.ndarray and phi.dtype == np.float64 and phi.shape == (n, n)
        vectors = list(report.eigenfunction_basis) + [d.values for d in report.eigen_density_basis]
        for a in [phi] + vectors:
            assert type(a) is np.ndarray and a.dtype == np.float64
            with pytest.raises(ValueError):
                a[0] = 1.0
