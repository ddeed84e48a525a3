"""Ergodic optimization layer: Q, normalization, Mañé data, sub-actions."""

import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import troptherm.cli as cli
import troptherm.maxplus_linalg as maxplus_linalg
from troptherm.bruteforce import subaction_limsup
from troptherm.cli import _gen_system
from troptherm.dynamics import (
    TransitionSystem,
    adjoint_apply,
    bousch_apply,
    discretize_doubling,
    from_map,
    system_from_json,
    system_to_json,
)
from troptherm.ergodic_opt import ergodic_report, mane_potential, max_potential_energy
from troptherm.maxplus_linalg import DEFAULT_TOL, PositiveCycleError
from troptherm.tropical_core import sup_distance, trop_vector

from helpers import is_subaction, normalize, representation_check, shift


def tv(*xs):
    return trop_vector(xs)


def _floats(vec):
    return vec.tolist()


def test_max_potential_energy_examples(fixa, fixb, fixc):
    assert max_potential_energy(fixa) == (0.0, (0, 0))
    assert max_potential_energy(fixc) == (2.0, (0, 1, 2, 0))
    q, cycle = max_potential_energy(fixb)
    assert abs(q - 1.0) <= 1e-12 and cycle == (0, 0)
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
        mane_potential(shift(fixc, -3.0))  # mean -1
    with pytest.raises(ValueError, match="acyclic"):
        mane_potential(TransitionSystem(2, [(0, 1, 0.0)]))
    # within tol of 0 the mean is shifted away, as in ergodic_report
    near = shift(fixc, -2.0 + 1e-12)
    assert np.array_equal(mane_potential(near).phi, ergodic_report(near).phi)


def test_mane_potential_matches_report_seeded():
    # on a normalized system the two front ends read the same pass
    for seed in range(40):
        for n, deterministic in ((None, False), (None, True), (12, False)):
            sys = normalize(_gen_system(seed, n, deterministic))
            mane, report = mane_potential(sys), ergodic_report(sys)
            assert mane.Q == report.Q
            assert mane.maximizing_cycle == report.maximizing_cycle
            assert mane.aubry == report.aubry
            assert mane.critical_classes == report.critical_classes
            assert mane.phi.tobytes() == report.phi.tobytes()


def test_mane_potential_refuses_lost_critical_cycle():
    # gen seed 1 --deterministic, every weight scaled by 1e7 and moved by
    # 0.1, then shifted by its Karp mean: the mean is 0.0, but at this
    # scale rounding leaves no cycle critical within the default tol.
    # mane_potential returned Aubry states with no critical class here;
    # it now refuses the system as ergodic_report does
    base = _gen_system(1, None, True)
    scaled = TransitionSystem(base.n, [(s, t, w * 1e7 + 0.1) for s, t, w in base.arcs])
    system = shift(scaled, -maxplus_linalg._karp_mean(scaled.n, *scaled.arc_arrays))
    for front_end in (mane_potential, ergodic_report):
        with pytest.raises(ValueError, match="no cycle is critical within tol 1e-09 at Q = 0.0"):
            front_end(system)


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


def test_subaction_limsup_is_the_iterates_limsup():
    # on a normalized system the exact iterates repeat within 71 steps at
    # n = 12, so the sup of the last n of 4 n^2 of them is their limsup
    for seed in range(50):
        sys = normalize(_gen_system(seed, 12, False))
        u0 = np.random.default_rng(seed).uniform(-5, 5, sys.n)
        iterates = [u0]
        for _ in range(4 * sys.n**2):
            iterates.append(bousch_apply(sys, iterates[-1]))
        assert sup_distance(subaction_limsup(sys, u0), np.max(iterates[-sys.n :], axis=0)) <= 1e-9
        for v in ergodic_report(sys).eigenfunction_basis:
            assert sup_distance(subaction_limsup(sys, v), v) <= 1e-9


@pytest.mark.parametrize("seed, eps", [(162, 1e-3), (162, 1e-5), (0, 1e-3), (0, 1e-5), (46, 1e-5), (111, 1e-5)])
def test_subaction_limsup_near_ties(seed, eps):
    # gen --seed <seed> --n 12 with every arc moved by eps * uniform(-1, 1),
    # drawn in arc order: the Aubry gap shrinks with eps, and iterating the
    # Bousch operator from 0 needs up to millions of steps to reach its limsup
    base = _gen_system(seed, 12, False)
    rng = np.random.default_rng(seed)
    sys = normalize(TransitionSystem(base.n, [(s, t, w + eps * rng.uniform(-1, 1)) for s, t, w in base.arcs]))
    v = subaction_limsup(sys, np.zeros(sys.n))
    assert sup_distance(bousch_apply(sys, v), v) <= 1e-12
    assert representation_check(ergodic_report(sys), v=v) <= 1e-9
    assert sup_distance(subaction_limsup(sys, v), v) <= 1e-12


def test_spectral_bases_fixtures(fixa, fixb, fixc):
    areport = ergodic_report(fixa)
    assert [_floats(v) for v in areport.eigenfunction_basis] == [[0.0, -1.0]]
    assert [_floats(d.values) for d in areport.eigen_density_basis] == [[0.0, -1.0]]
    creport = ergodic_report(normalize(fixc))
    assert [_floats(v) for v in creport.eigenfunction_basis] == [[0.0, -1.0, -1.0]]
    assert [_floats(d.values) for d in creport.eigen_density_basis] == [[0.0, 1.0, 1.0]]
    breport = ergodic_report(normalize(fixb))
    (v,) = breport.eigenfunction_basis
    (d,) = breport.eigen_density_basis
    assert max(abs(a - b) for a, b in zip(_floats(v), [0.0, 0.0, -1.0, -1.0])) <= 1e-12
    assert max(abs(a - b) for a, b in zip(_floats(d.values), [0.0, -3.0, -2.0, -3.0])) <= 1e-12


def test_spectral_bases_are_fixed_points(fixa, fixb, fixc, two_loops):
    for sys in (fixa, normalize(fixb), normalize(fixc), two_loops):
        report = ergodic_report(sys)
        for v in report.eigenfunction_basis:
            assert sup_distance(bousch_apply(sys, v), v) <= 1e-12
        for d in report.eigen_density_basis:
            assert sup_distance(adjoint_apply(sys, d).values, d.values) <= 1e-12


def test_two_class_system(two_loops):
    report = ergodic_report(two_loops)
    assert report.Q == 0.0
    assert report.aubry == (0, 1)
    assert report.critical_classes == [(0,), (1,)]
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
    assert report.critical_classes == [(0, 1)]
    assert report.uniquely_calibrated
    # a loop 9e-10 short of zero is critical once, not 1.8e-9 short twice
    selfloop = TransitionSystem(2, [(0, 0, 0.0), (1, 1, -9e-10), (0, 1, -5.0), (1, 0, -5.0)])
    report = ergodic_report(selfloop)
    assert report.aubry == (0, 1)
    assert report.critical_classes == [(0,), (1,)]
    assert not report.uniquely_calibrated


def _perturbed(sys, eps, rng):
    src, tgt, w = sys.arc_arrays
    noisy = w + rng.uniform(-eps, eps, len(w))
    return TransitionSystem(sys.n, list(zip(src.tolist(), tgt.tolist(), noisy.tolist())))


def test_classes_cover_aubry_seeded():
    # the Aubry set is the union of the critical classes; it must equal
    # the diagonal definition |phi(i, i)| <= tol, also within tol of the
    # boundary, and the witness starts at the least state of the first class
    rng = np.random.default_rng(5)
    systems = [discretize_doubling(k, lambda t: math.cos(2 * math.pi * t)) for k in range(3, 10)]
    for seed in range(200):
        gen = _gen_system(seed, 12, False)
        systems += [gen, _perturbed(gen, 1e-9, rng)]
    for sys in systems:
        report = ergodic_report(sys)
        diagonal = np.flatnonzero(np.abs(np.diagonal(report.phi)) <= DEFAULT_TOL)
        assert report.aubry == tuple(diagonal.tolist())
        assert report.maximizing_cycle[0] == report.critical_classes[0][0] == min(report.aubry)
        assert report.uniquely_calibrated == (len(report.critical_classes) == 1)


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
        report, arcs = ergodic_report(sys), normalize(sys).arcs
        for v in report.eigenfunction_basis:
            for y, x, w in arcs:
                lhs = v[y] + w
                assert lhs <= v[x] + 1e-12 or lhs == -math.inf
        for d in report.eigen_density_basis:
            for y, x, w in arcs:
                lhs = w + d.values[x]
                assert lhs <= d.values[y] + 1e-12 or lhs == -math.inf


def test_witness_cycle_inside_aubry_seeded():
    rng = random.Random(29)
    for _ in range(25):
        sys = _gen_system(rng.randrange(10**6), None, False)
        report = ergodic_report(sys)
        cycle = report.maximizing_cycle
        assert set(cycle) <= set(report.aubry)
        # the maximizing cycle realizes Q exactly on the original weights
        total = sum(sys.arc_weight(a, b) for a, b in zip(cycle, cycle[1:]))
        assert abs(total / (len(cycle) - 1) - report.Q) <= 1e-9


def test_report_json_round_trip(tmp_path, fixa, two_loops):
    # no command reads a report back: the test decodes analyze's JSON
    # itself, so the "-inf" / "+inf" sentinels are checked against the
    # report bit for bit; the two fixed points of split reach each other
    # by no path, so phi, the eigenfunction and the density hold -inf
    sentinels = {"-inf": -math.inf, "+inf": math.inf}

    def floats(rows):
        return np.array([[sentinels.get(x, x) for x in row] for row in rows], dtype=float)

    doublings = [discretize_doubling(k, lambda t: math.cos(2 * math.pi * t)) for k in (3, 4, 5)]
    split = from_map([0, 1], [1.0, 0.0])
    for sys in (fixa, two_loops, *doublings, split):
        path, out = tmp_path / "system.json", tmp_path / "report.json"
        path.write_text(json.dumps(system_to_json(sys)))
        assert cli.main(["analyze", "--input", str(path), "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        report = ergodic_report(sys)
        assert np.float64(data["Q"]).tobytes() == np.float64(report.Q).tobytes()
        assert floats(data["mane"]["phi"]).tobytes() == report.phi.tobytes()
        assert floats(data["eigenfunction_basis"]).tobytes() == np.array(report.eigenfunction_basis).tobytes()
        densities = np.array([d.values for d in report.eigen_density_basis])
        assert floats(data["eigen_density_basis"]).tobytes() == densities.tobytes()
        assert tuple(data["maximizing_cycle"]) == report.maximizing_cycle
        # the normalized arcs are w - Q, bit for bit the constructor's w + (-Q)
        norm, want = system_from_json(data["normalized_system"]), normalize(sys)
        assert norm == want and norm.labels == want.labels
        for got, expected in zip(norm.arc_arrays, want.arc_arrays):
            assert got.tobytes() == expected.tobytes()
        assert tuple(data["mane"]["aubry"]) == report.aubry
        assert [tuple(c) for c in data["mane"]["critical_classes"]] == report.critical_classes
        assert data["uniquely_calibrated"] is report.uniquely_calibrated
    assert data["mane"]["phi"] == [[0.0, "-inf"], ["-inf", -1.0]]
    assert data["eigenfunction_basis"] == data["eigen_density_basis"] == [[0.0, "-inf"]]


def test_report_runs_one_tropical_pass(fixa, two_loops, monkeypatch):
    calls = {"karp": 0, "closure": 0, "to_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    karp = counted("karp", maxplus_linalg._karp_mean)
    monkeypatch.setattr(maxplus_linalg, "_karp_mean", karp)
    monkeypatch.setattr(maxplus_linalg, "_closure", counted("closure", maxplus_linalg._closure))
    monkeypatch.setattr(TransitionSystem, "to_matrix", counted("to_matrix", TransitionSystem.to_matrix))
    doubling = discretize_doubling(5, lambda t: math.cos(2 * math.pi * t))
    for sys in (fixa, two_loops, doubling):
        normalized = normalize(sys)
        for front_end, system in ((ergodic_report, sys), (max_potential_energy, sys), (mane_potential, normalized)):
            for key in calls:
                calls[key] = 0
            front_end(system)
            assert calls == {"karp": 1, "closure": 1, "to_matrix": 0}, front_end.__name__
    # an acyclic system is refused before any closure
    chain = TransitionSystem(2, [(0, 1, 0.0)])
    for front_end in (ergodic_report, max_potential_energy, mane_potential):
        for key in calls:
            calls[key] = 0
        with pytest.raises(ValueError, match="acyclic"):
            front_end(chain)
        assert calls == {"karp": 1, "closure": 0, "to_matrix": 0}, front_end.__name__


def test_report_holds_read_only_arrays(fixa, two_loops):
    for report, other in ((ergodic_report(fixa), two_loops), (ergodic_report(two_loops), fixa)):
        n = report.system.n
        phi = report.phi
        assert type(phi) is np.ndarray and phi.dtype == np.float64 and phi.shape == (n, n)
        vectors = list(report.eigenfunction_basis) + [d.values for d in report.eigen_density_basis]
        for a in [phi] + vectors:
            assert type(a) is np.ndarray and a.dtype == np.float64
            with pytest.raises(ValueError):
                a[0] = 1.0
        # frozen: a report keeps the system its pass was read off
        for field, value in (("system", other), ("phi", np.zeros((n, n)))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, field, value)
        # two reports of one system compare by identity, not by their arrays
        again = ergodic_report(report.system)
        assert report == report and report != again


def test_report_ignores_arc_order(two_loops):
    # criticality is read on the arcs and sorted row-major, so the same
    # arcs listed in another order give the same report
    rng = random.Random(11)
    doubling = discretize_doubling(6, lambda t: math.cos(2 * math.pi * t))
    for sys in (doubling, _gen_system(0, 12, False), two_loops):
        arcs = list(sys.arcs)
        report = ergodic_report(sys)
        for listing in (arcs[::-1], rng.sample(arcs, len(arcs))):
            other = ergodic_report(TransitionSystem(sys.n, listing))
            assert other.Q == report.Q
            assert other.phi.tobytes() == report.phi.tobytes()
            assert other.aubry == report.aubry
            assert other.critical_classes == report.critical_classes
            assert other.maximizing_cycle == report.maximizing_cycle


def test_report_holds_one_square_array():
    # Karp's gaps and the closure run in place and criticality is read on
    # the arcs, so the pass never holds two n x n float arrays at once
    sys = discretize_doubling(9, lambda t: math.cos(2 * math.pi * t))
    tracemalloc.start()
    try:
        report = ergodic_report(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * report.phi.nbytes
