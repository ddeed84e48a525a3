"""Positive-temperature layer: transfer operator, spectral data, moments."""

import math
import random
import warnings

import numpy as np
import pytest

import troptherm.thermo as thermo
from troptherm.bruteforce import log_ruelle_apply, ruelle_apply
from troptherm.cli import _gen_system, _probes
from troptherm.dynamics import TransitionSystem, discretize_doubling, from_sft
from troptherm.ergodic_opt import ergodic_report
from troptherm.maxplus_linalg import ConvergenceError, _arc_reduce, strongly_connected
from troptherm.thermo import (
    BETA_MAX_DEFAULT,
    BetaRangeError,
    ReducibleSystemError,
    log_moment,
    normalized_potential,
    spectral_data,
)
from troptherm.zerotemp import beta_sweep, ldp_residual, limit_diagnostics, rate_function

from helpers import cold_report, mutual_reachability_components, successors


def full_shift():
    return from_sft([[1, 1], [1, 1]], [[0.0, 0.0], [0.0, 0.0]])


def _dense_pressure(sys, beta):
    r = np.zeros((sys.n, sys.n))
    for s, t, w in sys.arcs:
        r[t, s] = math.exp(beta * w)
    eig = np.linalg.eigvals(r)
    rho = max(eig, key=lambda z: z.real)
    assert abs(rho.imag) <= 1e-9 * max(1.0, abs(rho.real))
    return math.log(rho.real)


def test_ruelle_apply_examples(fixa, one_state):
    out = ruelle_apply(full_shift(), np.ones(2), 1.0)
    assert np.allclose(out, [2.0, 2.0], rtol=0, atol=1e-15)
    out = ruelle_apply(fixa, np.ones(2), 1.0)
    expect = [1.0 + math.e**-1, math.e**-1 + math.e**-3]
    assert np.allclose(out, expect, rtol=1e-15, atol=0)
    out = ruelle_apply(one_state, np.array([2.0]), 2.0)
    assert np.allclose(out, [2.0 * math.exp(3.0)], rtol=1e-15, atol=0)
    with pytest.raises(ValueError):
        ruelle_apply(fixa, np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        ruelle_apply(fixa, np.array([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError, match="length mismatch: system 2, vector 3"):
        ruelle_apply(fixa, np.ones(3), 1.0)
    with pytest.raises(ValueError, match="length mismatch: system 2, vector 1"):
        log_ruelle_apply(fixa, np.zeros(1), 1.0)


def test_log_ruelle_matches_linear(fixa):
    rng = np.random.default_rng(7)
    for beta in (0.5, 1.0, 3.0):
        log_u = rng.uniform(-2, 2, 2)
        lin = ruelle_apply(fixa, np.exp(log_u), beta)
        assert np.allclose(log_ruelle_apply(fixa, log_u, beta), np.log(lin), atol=1e-12)


def test_log_ruelle_apply_matches_the_solver_bit_for_bit():
    # the oracle's arc-by-arc logaddexp and the solver's arc product
    # (np.logaddexp.at) visit the arcs in the same order, so they agree to
    # the last bit
    rng = np.random.default_rng(41)
    systems = [_gen_system(seed, None, False) for seed in range(20)]
    systems.append(discretize_doubling(4, lambda t: math.cos(2 * math.pi * t)))
    for sys in systems:
        src, tgt, w = sys.arc_arrays
        for beta in (0.5, 10.0, 1000.0):
            log_u = rng.uniform(-50, 50, sys.n)
            got = log_ruelle_apply(sys, log_u, beta)
            assert got.tobytes() == _arc_reduce(np.logaddexp, log_u, src, tgt, beta * w).tobytes()


def test_spectral_full_shift():
    data = spectral_data(full_shift(), 1.0, cold_report(full_shift()))
    assert abs(data.pressure - math.log(2.0)) <= 1e-12
    assert np.allclose(np.exp(data.log_u), [1.0, 1.0], atol=1e-12)
    assert np.allclose(np.exp(data.log_m), [0.5, 0.5], atol=1e-12)
    assert np.allclose(np.exp(data.log_mu), [0.5, 0.5], atol=1e-12)


def test_spectral_one_state(one_state):
    for beta in (0.5, 2.0, 100.0):
        data = spectral_data(one_state, beta, cold_report(one_state))
        assert abs(data.pressure - 1.5 * beta) <= 1e-12 * max(1.0, 1.5 * beta)
        assert np.allclose(np.exp(data.log_u), [1.0])
        assert np.allclose(np.exp(data.log_m), [1.0])
        assert np.allclose(np.exp(data.log_mu), [1.0])


def test_spectral_fixa_pressure_window(fixa):
    # Q = 0, N = 2: pressure/beta must sit in (0, log 2 / beta]
    data = spectral_data(fixa, 2.0, cold_report(fixa))
    pob = data.pressure / 2.0
    assert 0.0 < pob <= math.log(2.0) / 2.0 + 1e-12


def test_spectral_matches_dense_oracle():
    rng = random.Random(11)
    for _ in range(25):
        sys = _gen_system(rng.randrange(10**6), 8, False)
        beta = rng.choice((0.5, 1.0, 2.0, 5.0))
        data = spectral_data(sys, beta, cold_report(sys))
        assert abs(data.pressure - _dense_pressure(sys, beta)) <= 1e-10 * max(
            1.0, abs(data.pressure)
        )


def test_spectral_eigen_identities():
    rng = random.Random(23)
    for _ in range(20):
        sys = _gen_system(rng.randrange(10**6), 8, False)
        beta = rng.choice((0.5, 1.0, 2.0))
        data = spectral_data(sys, beta, cold_report(sys))
        u, m, mu = np.exp(data.log_u), np.exp(data.log_m), np.exp(data.log_mu)
        scale = math.exp(data.pressure)
        ru = ruelle_apply(sys, u, beta)
        assert np.allclose(ru, scale * u, rtol=1e-9, atol=1e-12)
        # adjoint identity through the dense matrix
        r = np.zeros((sys.n, sys.n))
        for s, t, w in sys.arcs:
            r[t, s] = math.exp(beta * w)
        assert np.allclose(m @ r, scale * m, rtol=1e-9, atol=1e-12)
        assert abs(m.sum() - 1.0) <= 1e-10
        assert abs((u * m).sum() - 1.0) <= 1e-10
        assert np.allclose(mu, u * m, atol=1e-12)


def test_normalized_potential_stochastic():
    # keep to uniquely calibrated draws, as the sweeps do
    rng = random.Random(37)
    checked = 0
    while checked < 12:
        sys = _gen_system(rng.randrange(10**6), 8, False)
        if not ergodic_report(sys).uniquely_calibrated:
            continue
        beta = rng.choice((1.0, 2.0, 10.0))
        data = spectral_data(sys, beta, cold_report(sys))
        g = normalized_potential(data)
        mass = np.zeros(sys.n)
        np.add.at(mass, [t for _, t, _ in sys.arcs], np.exp(g))
        assert np.allclose(mass, 1.0, atol=1e-10)
        checked += 1


def test_noda_steps_on_doubling():
    # the damped iteration needs 3,750 steps at beta 10 on order 7: it
    # converges at the mixing rate, however close the tropical seed is
    for order in (6, 7):
        sys = discretize_doubling(order, lambda t: math.cos(2 * math.pi * t))
        solves = beta_sweep(sys, report=ergodic_report(sys))
        iterations = [data.iterations for data in solves]
        assert max(iterations) <= 30, iterations
        data = solves[0]
        assert data.beta == 10.0
        dense = _dense_pressure(sys, 10.0)
        assert abs(data.pressure - dense) <= 1e-12 * abs(dense)
        scale = math.exp(data.pressure)
        u = np.exp(data.log_u)
        ru = ruelle_apply(sys, u, 10.0)
        assert np.allclose(ru, scale * u, rtol=1e-9, atol=0)


def test_step_tests_survive_large_log_vectors():
    # |log u| reaches beta * 1e6 here, where one float spacing is far
    # above the 1e-12 step tolerance; the loop runs on offsets from the
    # tropical start, which stay of order 1
    base = _gen_system(77, None, False)
    sys = TransitionSystem(base.n, [(s, t, w * 1e6) for s, t, w in base.arcs])
    report = ergodic_report(sys)
    slack = math.log(sys.max_in_degree())
    tol = 1e-15 * abs(report.Q)
    for data in beta_sweep(sys, report=report):
        assert data.iterations <= 30
        assert report.Q - tol <= data.pressure / data.beta <= report.Q + slack / data.beta + tol
    # a cold start at beta 1000 ends at the float spacing of |log u|, about
    # 1e4, where a Noda step only amplifies rounding noise: damped steps
    # finish the solve, which raises ConvergenceError at the step cap
    cold = _gen_system(39, None, False)
    q = ergodic_report(cold).Q
    pob = spectral_data(cold, 1000.0, cold_report(cold)).pressure / 1000.0
    assert q - 1e-12 <= pob <= q + math.log(cold.max_in_degree()) / 1000.0 + 1e-12


def test_periodic_system_converges(fixc):
    # a 3-cycle: the peripheral spectrum is rho times the cube roots of 1
    for beta in (0.5, 1.0, 10.0, 100.0, 1000.0):
        data = spectral_data(fixc, beta, cold_report(fixc))
        assert abs(data.pressure - 2.0 * beta) <= 1e-12 * 2.0 * beta
        assert np.allclose(np.exp(data.log_mu), 1.0 / 3.0, rtol=1e-12)
        lu = log_ruelle_apply(fixc, data.log_u, beta)
        assert np.allclose(lu - data.log_u, data.pressure, rtol=1e-12, atol=1e-12)


def test_reducible_and_beta_guards(one_state):
    chain = TransitionSystem(2, [(0, 0, 0.0), (0, 1, 0.0), (1, 1, 0.0)])
    assert strongly_connected(successors(chain.n, [(s, t) for s, t, _ in chain.arcs])) == [(0,), (1,)]
    with pytest.raises(ReducibleSystemError) as err:
        spectral_data(chain, 1.0, ergodic_report(chain))
    assert err.value.components == [(0,), (1,)]
    cold = cold_report(one_state)
    with pytest.raises(BetaRangeError):
        spectral_data(one_state, 0.0, cold)
    with pytest.raises(BetaRangeError):
        spectral_data(one_state, -1.0, cold)
    # one guard for every beta: the solve and the moment refuse alike
    with pytest.raises(BetaRangeError, match="overflow guard"):
        spectral_data(one_state, BETA_MAX_DEFAULT * 2, cold)
    with pytest.raises(BetaRangeError, match="overflow guard"):
        log_moment(np.zeros(2), np.zeros(2), BETA_MAX_DEFAULT * 2)
    # the start pair and the shift come only from a report of the same
    # system: one of another system is refused, whatever its size
    swap = TransitionSystem(2, [(0, 1, 0.0), (1, 0, 0.0)])
    for other in (TransitionSystem(2, [(0, 1, 0.0), (1, 0, 1.0)]), one_state):
        with pytest.raises(ValueError, match="report is of another system"):
            spectral_data(swap, 1.0, report=ergodic_report(other))
    # beta times that pair must stay in float range
    wide = TransitionSystem(2, [(0, 1, 1e306), (1, 0, -1e306), (0, 0, 0.0), (1, 1, -1.0)])
    with pytest.raises(ValueError, match="the Ruelle solve overflows float64"):
        spectral_data(wide, 1999.9, report=ergodic_report(wide))
    # the ceiling is fixed and itself in range
    data = spectral_data(one_state, BETA_MAX_DEFAULT, cold)
    assert abs(data.pressure - 1.5 * BETA_MAX_DEFAULT) <= 1e-9
    # a beta whose reciprocal overflows is refused; 1e-300 still solves
    with pytest.raises(BetaRangeError, match="1 / beta overflows"):
        spectral_data(one_state, 1e-310, cold)
    assert abs(spectral_data(one_state, 1e-300, cold).pressure - 1.5e-300) <= 1e-12 * 1.5e-300


def test_reducible_components_match_reachability_seeded():
    # the refusal names the components that mutual reachability gives
    rng = random.Random(43)
    checked = 0
    for _ in range(150):
        n = rng.randint(2, 12)
        density = rng.choice((0.1, 0.2, 0.35))
        arcs = [(s, t) for s in range(n) for t in range(n) if rng.random() < density]
        rng.shuffle(arcs)
        sys_ = TransitionSystem(n, [(s, t, float(rng.randint(-5, 5))) for s, t in arcs])
        try:
            report = ergodic_report(sys_)
        except ValueError:  # acyclic: no report to refuse
            continue
        components = mutual_reachability_components(n, arcs)
        if len(components) == 1:
            continue
        with pytest.raises(ReducibleSystemError) as err:
            spectral_data(sys_, 1.0, report)
        assert err.value.components == components
        checked += 1
    assert checked > 50


def test_ruelle_overflow_is_refused_before_any_step():
    # beta * max|w| = 1.5e308 is in range at beta 150, but beta * (w - Q)
    # is not: a cold start warned, then ran to the step cap
    cycle = TransitionSystem(3, [(0, 1, 1e306), (1, 2, -1e306), (2, 0, -1e306)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the Ruelle solve overflows float64: beta 150"):
            spectral_data(cycle, 150.0, ergodic_report(cycle))
    # the refusal bounds the sums the solve forms, arc by arc: here max|w - Q|
    # = 1.8e305, max|v| = 4e305 and max|b| = 1.6e305, and 150 times 3 max|w|
    # + 2 max|v| + 2 max|b| overflows, but the solve stays in range
    base = _gen_system(12, 6, False)
    sys = TransitionSystem(base.n, [(s, t, w * 10.0**305 / 5) for s, t, w in base.arcs])
    data = spectral_data(sys, 150.0, ergodic_report(sys))
    assert data.pressure == float.fromhex("0x1.116ac579aac1ep+1020") and data.iterations == 2


def test_edge_weights_solve_finite_or_are_refused(monkeypatch):
    # gen weights scaled toward the float64 limit: every solve, normalized
    # potential, limit distance and LDP residual is finite, or the solve
    # raises ValueError, and no numpy overflow warning is raised on the
    # way. About one solve in twenty keeps to float range but runs to the
    # step cap (3 s at the default cap), so the cap is lowered here and
    # ConvergenceError counted as a refusal
    monkeypatch.setattr(thermo, "POWER_CAP_DEFAULT", 1000)
    rng = random.Random(0)
    outcomes = {"solved": 0, "diagnosed": 0, ValueError: 0, ConvergenceError: 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(300):
            base = _gen_system(rng.randrange(10**6), rng.choice((2, 3, 4)), False)
            scale = 10.0 ** rng.choice((300, 303, 305, 306, 307)) / 5
            sys = TransitionSystem(base.n, [(s, t, w * scale) for s, t, w in base.arcs])
            try:
                report = ergodic_report(sys)
            except ValueError:  # Karp's path sums overflow
                continue
            beta = rng.choice((1e-300, 1.0, 10.0, 100.0, 150.0, 1000.0, 2000.0))
            try:
                (data,) = beta_sweep(sys, (beta,), report=report)
            except (ValueError, ConvergenceError) as exc:
                outcomes[type(exc)] += 1
                continue
            outcomes["solved"] += 1
            assert math.isfinite(data.pressure / data.beta)
            for x in (data.log_u, data.log_m, normalized_potential(data)):
                assert np.isfinite(x).all()
            if report.uniquely_calibrated:
                row = limit_diagnostics(data)
                assert all(math.isfinite(d) for d in (row.d_u, row.d_b, row.d_g, row.d_D))
                outcomes["diagnosed"] += 1
                rate = rate_function(sys, report=report)
                for f in _probes(sys.n, 0):
                    assert math.isfinite(ldp_residual(f, rate=rate, spectral=data))
    assert all(outcomes.values()), outcomes


def test_pressure_outside_its_bracket_is_refused():
    # at weights 1e17 the two-cycle's rounding leaves P - beta * Q at log 3,
    # beyond log N = log 2; with 1 in place of 1e17 the pressure is right
    # (the solves start where sweep starts them, at beta times the limit pair)
    for scale in (1e17, 1e15, 1.0):
        sys = TransitionSystem(2, [(0, 1, scale), (1, 0, -scale), (0, 0, 0.0), (1, 1, -1.0)])
        report = ergodic_report(sys)
        if scale == 1.0:
            assert abs(spectral_data(sys, 10.0, report=report).pressure / 10.0 - 0.0481220) <= 1e-7
            continue
        with pytest.raises(ValueError, match=r"pressure at beta 10 leaves its bracket"):
            spectral_data(sys, 10.0, report=report)


def test_log_moment():
    measure = np.log([0.5, 0.5])
    assert abs(log_moment(measure, np.array([3.0, 3.0]), 7.0) - 3.0) <= 1e-12
    got = log_moment(measure, np.array([0.0, 1.0]), 1.0)
    assert abs(got - math.log((1.0 + math.e) / 2.0)) <= 1e-12
    logs = [log_moment(measure, np.array([0.0, 1.0]), b) for b in (1.0, 2.0, 4.0, 8.0)]
    assert all(a < b for a, b in zip(logs, logs[1:]))  # Jensen, non-constant f
    # a zero mass is a -inf log, which the linear form could not carry past exp
    viaLog = log_moment(np.array([math.log(0.5), math.log(0.5), -math.inf]), np.array([0.0, 1.0, 9.0]), 1.0)
    assert abs(viaLog - got) <= 1e-12
    # no mass at all: the log-sum-exp of all -inf is -inf, not NaN
    assert log_moment(np.full(3, -math.inf), np.zeros(3), 2.0) == -math.inf
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
        log_moment(np.zeros(3), np.zeros(2), 1.0)


def test_bracketing_log_vs_tropical():
    # L(f) <= (1/beta) log R(e^{beta f}) <= L(f) + log(N)/beta, elementwise
    from troptherm.dynamics import bousch_apply

    rng = np.random.default_rng(53)
    for _ in range(10):
        sys = _gen_system(int(rng.integers(10**6)), 8, False)
        slack = math.log(sys.max_in_degree())
        for beta in (10.0, 100.0, 1000.0):
            f = rng.uniform(-5, 5, sys.n)
            soft = log_ruelle_apply(sys, beta * f, beta) / beta
            hard = bousch_apply(sys, f)
            assert np.isfinite(hard).all()
            assert np.all(soft >= hard - 1e-9)
            assert np.all(soft <= hard + slack / beta + 1e-9)
