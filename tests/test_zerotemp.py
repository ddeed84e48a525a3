"""Zero-temperature limit: rescaled sweeps, diagnostics, rate functions."""

import math
import random

import numpy as np
import pytest

from troptherm.cli import _gen_system
from troptherm.dynamics import from_sft, system_from_json, system_to_json
from troptherm.ergodic_opt import ergodic_report
from troptherm.thermo import SpectralData, normalized_potential, spectral_data
from troptherm.tropical_measures import Density
from troptherm.zerotemp import (
    DEFAULT_GRID,
    MultiClassError,
    RateFunction,
    beta_sweep,
    check_sweep_grid,
    ldp_residual,
    limit_diagnostics,
    rate_function,
)

from helpers import normalize


def test_grid_validation(one_state):
    for bad in ((), (0.0, 1.0), (-1.0,)):
        with pytest.raises(ValueError):
            beta_sweep(one_state, grid=bad, report=ergodic_report(one_state))
    # only the sweep CSV needs its rows in increasing order
    for bad in ((10.0, 10.0), (100.0, 10.0)):
        with pytest.raises(ValueError, match="beta grid must be strictly increasing"):
            check_sweep_grid(bad)


def _scaled(data, ref):
    """(1/beta) log u pinned to 0 at ref, (1/beta) log m shifted to sup 0
    and the normalized potential over beta, as limit_diagnostics forms them."""
    slu = data.log_u / data.beta
    slm = data.log_m / data.beta
    return slu - slu[ref], slm - slm.max(), normalized_potential(data) / data.beta


def test_beta_sweep_returns_the_solves(fixa):
    # bench/record.py reads rec.spectral.log_mu off each element, which
    # the read-only alias SpectralData.spectral serves
    report = ergodic_report(fixa)
    solves = beta_sweep(fixa, report=report)
    assert all(type(data) is SpectralData and data.spectral is data for data in solves)
    own = [spectral_data(fixa, beta, report=report).log_mu.tolist() for beta in DEFAULT_GRID]
    assert [rec.spectral.log_mu.tolist() for rec in solves] == own


def test_sweep_alignment_invariants(fixa):
    # each diagnostics row is, bit for bit, the distances from the solve
    # pinned at the report's lowest-index Aubry state and shifted to sup 0
    report = ergodic_report(fixa)
    solves = beta_sweep(fixa, report=report)
    assert [data.beta for data in solves] == list(DEFAULT_GRID)
    ref = min(report.aubry)
    assert ref == 0
    v_f = report.eigenfunction_basis[0] - report.eigenfunction_basis[0][ref]
    b_f = report.eigen_density_basis[0].values - report.eigen_density_basis[0].values.max()
    src, tgt, w = fixa.arc_arrays
    a_hat = w - report.Q + v_f[src] - v_f[tgt]
    for data in solves:
        row = limit_diagnostics(data)
        slu, slm, g = _scaled(data, ref)
        assert slu[ref] == 0.0
        assert slm.max() == 0.0
        best = np.full(fixa.n, -math.inf)
        np.maximum.at(best, src, v_f[tgt] + b_f[tgt] + g)
        assert row.d_u == float(np.max(np.abs(slu - v_f)))
        assert row.d_b == float(np.max(np.abs(slm - b_f)))
        assert row.d_g == float(np.max(np.abs(g - a_hat)))
        assert row.d_D == float(np.max(np.abs(best - (v_f + b_f))))


def test_sweep_one_state(one_state):
    for data in beta_sweep(one_state, report=ergodic_report(one_state)):
        assert data.pressure / data.beta == pytest.approx(1.5, abs=1e-12)
        slu, slm, g = _scaled(data, 0)
        assert slu == pytest.approx([0.0], abs=1e-15)
        assert slm == pytest.approx([0.0], abs=1e-15)
        assert g == pytest.approx([0.0], abs=1e-12)


def test_sweep_full_shift():
    from troptherm.dynamics import from_sft

    sys = from_sft([[1, 1], [1, 1]], [[0.0] * 2] * 2)
    report = ergodic_report(sys)
    for data in beta_sweep(sys, report=report):
        assert data.pressure / data.beta == pytest.approx(math.log(2.0) / data.beta, abs=1e-12)
        slu, slm, _ = _scaled(data, min(report.aubry))
        assert np.max(np.abs(slu)) <= 1e-12
        # m is uniform (1/2, 1/2): scaled log m is log(1/2)/beta aligned to max 0
        assert np.max(np.abs(slm)) <= 1e-12


def test_sweep_fixa_limits(fixa):
    report = ergodic_report(fixa)
    solves = beta_sweep(fixa, report=report)
    slu, slm, _ = _scaled(solves[-1], min(report.aubry))
    assert slu == pytest.approx([0.0, -1.0], abs=1e-6)
    assert slm == pytest.approx([0.0, -1.0], abs=1e-6)
    # pressure bracket: Q <= P/beta <= Q + log(N)/beta, hard bound at every beta
    for data in solves:
        assert 0.0 - 1e-12 <= data.pressure / data.beta <= math.log(2.0) / data.beta + 1e-12


def test_pressure_bracket_seeded():
    rng = random.Random(61)
    checked = 0
    while checked < 6:
        sys = _gen_system(rng.randrange(10**6), 8, False)
        report = ergodic_report(sys)
        if not report.uniquely_calibrated:
            continue
        slack = math.log(sys.max_in_degree())
        for data in beta_sweep(sys, report=report):
            low = report.Q - 1e-12
            high = report.Q + slack / data.beta + 1e-12
            assert low <= data.pressure / data.beta <= high
        checked += 1


def test_limit_diagnostics_one_state(one_state):
    report = ergodic_report(one_state)
    for data in beta_sweep(one_state, report=report):
        row = limit_diagnostics(data)
        assert row.d_u == 0.0 and row.d_b == 0.0
        assert abs(row.d_g) <= 1e-12 and abs(row.d_D) <= 1e-12


def test_limit_diagnostics_fixa(fixa):
    report = ergodic_report(fixa)
    rows = [limit_diagnostics(data) for data in beta_sweep(fixa, report=report)]
    d_u = [row.d_u for row in rows]
    d_g = [row.d_g for row in rows]
    assert all(a >= b for a, b in zip(d_u, d_u[1:]))
    assert all(a >= b for a, b in zip(d_g, d_g[1:]))
    assert d_u[-1] <= 0.02
    assert rows[-1].d_b <= 0.05
    assert rows[-1].d_D <= 0.05


def test_limit_diagnostics_is_one_solves(fixa):
    # a row is a function of one solve and the report it carries: a lone
    # solve gets, bit for bit, the row of the same beta in a sweep, and a
    # solve of another system gets the row of its own report
    report = ergodic_report(fixa)
    lone = limit_diagnostics(spectral_data(fixa, 100.0, report=report))
    assert lone == limit_diagnostics(beta_sweep(fixa, report=report)[1])
    c = from_sft([[1, 1], [1, 1]], [[0.0, -2.0], [-1.5, -3.0]])
    own = ergodic_report(c)
    theirs = limit_diagnostics(spectral_data(c, 10.0, report=own))
    assert theirs == limit_diagnostics(beta_sweep(c, report=own)[0])
    assert theirs != limit_diagnostics(beta_sweep(fixa, report=report)[0])


def test_limit_diagnostics_guards(two_loops):
    with pytest.raises(MultiClassError) as err:
        limit_diagnostics(spectral_data(two_loops, 1.0, report=ergodic_report(two_loops)))
    assert err.value.classes == [(0,), (1,)]


def test_rate_function_fixa(fixa):
    rate = rate_function(fixa, report=ergodic_report(fixa))
    assert rate.values == pytest.approx([0.0, 2.0], abs=0)
    assert rate.eigenfunction.tolist() == [0.0, -1.0]
    assert rate.density.values.tolist() == [0.0, -1.0]
    for a in (rate.eigenfunction, rate.density.values):
        assert type(a) is np.ndarray and a.dtype == np.float64
        with pytest.raises(ValueError):
            a[0] = 1.0
    # normalizations: sup b = 0, sup (v + b) = 0, min I = 0
    assert rate.values.min() == 0.0


def test_rate_function_fixc(fixc):
    sys = normalize(fixc)
    rate = rate_function(sys, report=ergodic_report(sys))
    assert rate.values == pytest.approx([0.0, 0.0, 0.0], abs=0)


def test_rate_zero_exactly_on_witness_seeded():
    rng = random.Random(71)
    checked = 0
    while checked < 8:
        sys = _gen_system(rng.randrange(10**6), 8, False)
        report = ergodic_report(sys)
        if not report.uniquely_calibrated:
            continue
        rate = rate_function(sys, report=report)
        # exact zeros need integer data; rational Q leaves sub-ulp noise
        for x in set(report.maximizing_cycle):
            assert abs(rate.values[x]) <= 1e-9
        assert np.all(rate.values >= -1e-12)
        assert str(rate.values[0]) != "-0.0"
        checked += 1


def test_rate_function_multiclass(two_loops):
    with pytest.raises(MultiClassError):
        rate_function(two_loops, report=ergodic_report(two_loops))


def test_report_of_another_system_is_refused(fixa):
    # C has fixa's graph and Q = 0, so nothing but the pairing check tells
    # them apart; B differs in Q, which the bracket check once misread as
    # rounding at the weight scale
    c = from_sft([[1, 1], [1, 1]], [[0.0, -2.0], [-1.5, -3.0]])
    b = from_sft([[1, 1], [1, 1]], [[2.0, -1.0], [-1.0, -3.0]])
    for other in (c, b):
        report = ergodic_report(other)
        assert report.system != fixa
        calls = (
            lambda: spectral_data(fixa, 10.0, report=report),
            lambda: beta_sweep(fixa, report=report),
            lambda: rate_function(fixa, report=report),
        )
        for call in calls:
            with pytest.raises(ValueError, match="report is of another system: the arcs or weights differ"):
                call()
    with pytest.raises(ValueError, match="the state counts differ"):
        rate_function(fixa, report=ergodic_report(from_sft([[1]], [[0.0]])))
    # a solve and a rate function carry their report, and reports compare
    # by identity: a solve of another report is refused where they meet
    rate = rate_function(fixa, report=ergodic_report(fixa))
    solve = spectral_data(c, 1000.0, report=ergodic_report(c))
    with pytest.raises(ValueError, match="the solve and the rate function are of different reports"):
        ldp_residual([0.0, 1.0], rate=rate, spectral=solve)


def test_report_of_an_equal_system_is_accepted(fixa):
    twin = system_from_json(system_to_json(fixa))
    assert twin is not fixa and twin == fixa
    own, other = ergodic_report(fixa), ergodic_report(twin)
    mine = beta_sweep(fixa, report=own)
    theirs = beta_sweep(fixa, report=other)
    for a, b in zip(mine, theirs):
        assert a.pressure == b.pressure
        for name in ("log_u", "log_m", "log_mu"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert spectral_data(fixa, 10.0, report=other).log_mu.tobytes() == mine[0].log_mu.tobytes()
    assert rate_function(fixa, report=other).to_json() == rate_function(fixa, report=own).to_json()
    assert [limit_diagnostics(data) for data in theirs] == [limit_diagnostics(data) for data in mine]


def test_rate_function_json_sentinel(fixa):
    # the values are read off the pair: I = -(v + b)
    rate = RateFunction(
        report=ergodic_report(fixa),
        eigenfunction=np.array([0.0, -math.inf]),
        density=Density([0.0, -math.inf]),
    )
    data = rate.to_json()
    assert data["values"] == [0.0, "+inf"]
    assert data["eigenfunction"] == [0.0, "-inf"]


def _ldp_inputs(sys, betas):
    """The rate function and the sweep's solve at each beta."""
    report = ergodic_report(sys)
    return rate_function(sys, report=report), {b: spectral_data(sys, b, report=report) for b in betas}


def test_ldp_residual_examples(fixa):
    rate, spectral = _ldp_inputs(fixa, DEFAULT_GRID)
    # constant observables give a zero gap at every beta
    for beta in DEFAULT_GRID:
        assert ldp_residual([2.0, 2.0], rate=rate, spectral=spectral[beta]) <= 1e-9
    r10 = ldp_residual([0.0, 5.0], rate=rate, spectral=spectral[10.0])
    r1000 = ldp_residual([0.0, 5.0], rate=rate, spectral=spectral[1000.0])
    assert r1000 <= 0.05
    assert r1000 <= r10
    with pytest.raises(ValueError):
        ldp_residual([0.0], rate=rate, spectral=spectral[10.0])
    with pytest.raises(ValueError):
        ldp_residual([0.0, math.inf], rate=rate, spectral=spectral[10.0])


def test_ldp_residual_seeded_probes(fixa):
    rate, spectral = _ldp_inputs(fixa, (10.0, 1000.0))
    rng = np.random.default_rng(83)
    for _ in range(10):
        f = rng.uniform(-5, 5, 2)
        r10 = ldp_residual(f, rate=rate, spectral=spectral[10.0])
        r1000 = ldp_residual(f, rate=rate, spectral=spectral[1000.0])
        assert r1000 <= 0.05
        assert r1000 <= r10 + 1e-12


def test_ldp_residual_at_rate_minimizer(fixc):
    sys = normalize(fixc)
    rate, spectral = _ldp_inputs(sys, (1000.0,))
    # f = -I makes the sup term 0 and the moment converge to 0
    f = -rate.values
    assert ldp_residual(f, rate=rate, spectral=spectral[1000.0]) <= 0.05
