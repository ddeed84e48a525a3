"""Zero-temperature limit: rescaled sweeps, diagnostics, rate functions."""

import math
import random

import numpy as np
import pytest

from troptherm.cli import _gen_system
from troptherm.dynamics import TransitionSystem, from_sft, system_from_json, system_to_json
from troptherm.ergodic_opt import ergodic_report
from troptherm.thermo import SpectralData, normalized_potential, spectral_data
from troptherm.tropical_measures import Density
from troptherm.zerotemp import (
    DEFAULT_GRID,
    MultiClassError,
    RateFunction,
    SweepRecord,
    beta_sweep,
    ldp_residual,
    limit_diagnostics,
    rate_function,
)

from helpers import normalize


def test_grid_validation(one_state):
    for bad in ((), (0.0, 1.0), (-1.0,), (10.0, 10.0), (100.0, 10.0)):
        with pytest.raises(ValueError):
            beta_sweep(one_state, grid=bad, report=ergodic_report(one_state))


def _scaled(rec, ref):
    """(1/beta) log u pinned to 0 at ref, (1/beta) log m shifted to sup 0
    and the normalized potential over beta, as limit_diagnostics forms them."""
    data = rec.spectral
    slu = data.log_u / rec.beta
    slm = data.log_m / rec.beta
    return slu - slu[ref], slm - slm.max(), normalized_potential(data) / rec.beta


def test_sweep_alignment_invariants(fixa):
    # each diagnostics row is, bit for bit, the distances from the solve
    # pinned at the report's lowest-index Aubry state and shifted to sup 0
    report = ergodic_report(fixa)
    records = beta_sweep(fixa, report=report)
    assert [r.beta for r in records] == list(DEFAULT_GRID)
    ref = min(report.aubry)
    assert ref == 0
    v_f = report.eigenfunction_basis[0] - report.eigenfunction_basis[0][ref]
    b_f = report.eigen_density_basis[0].values - report.eigen_density_basis[0].values.max()
    src, tgt, w = fixa.arc_arrays
    a_hat = w - report.Q + v_f[src] - v_f[tgt]
    rows = limit_diagnostics(records).rows
    for rec, row in zip(records, rows):
        slu, slm, g = _scaled(rec, ref)
        assert slu[ref] == 0.0
        assert slm.max() == 0.0
        best = np.full(fixa.n, -math.inf)
        np.maximum.at(best, src, v_f[tgt] + b_f[tgt] + g)
        assert row.d_u == float(np.max(np.abs(slu - v_f)))
        assert row.d_b == float(np.max(np.abs(slm - b_f)))
        assert row.d_g == float(np.max(np.abs(g - a_hat)))
        assert row.d_D == float(np.max(np.abs(best - (v_f + b_f))))


def test_sweep_one_state(one_state):
    for rec in beta_sweep(one_state, report=ergodic_report(one_state)):
        assert rec.pressure_over_beta == pytest.approx(1.5, abs=1e-12)
        slu, slm, g = _scaled(rec, 0)
        assert slu == pytest.approx([0.0], abs=1e-15)
        assert slm == pytest.approx([0.0], abs=1e-15)
        assert g == pytest.approx([0.0], abs=1e-12)


def test_sweep_full_shift():
    from troptherm.dynamics import from_sft

    sys = from_sft([[1, 1], [1, 1]], [[0.0] * 2] * 2)
    report = ergodic_report(sys)
    for rec in beta_sweep(sys, report=report):
        assert rec.pressure_over_beta == pytest.approx(math.log(2.0) / rec.beta, abs=1e-12)
        slu, slm, _ = _scaled(rec, min(report.aubry))
        assert np.max(np.abs(slu)) <= 1e-12
        # m is uniform (1/2, 1/2): scaled log m is log(1/2)/beta aligned to max 0
        assert np.max(np.abs(slm)) <= 1e-12


def test_sweep_fixa_limits(fixa):
    report = ergodic_report(fixa)
    records = beta_sweep(fixa, report=report)
    slu, slm, _ = _scaled(records[-1], min(report.aubry))
    assert slu == pytest.approx([0.0, -1.0], abs=1e-6)
    assert slm == pytest.approx([0.0, -1.0], abs=1e-6)
    # pressure bracket: Q <= P/beta <= Q + log(N)/beta, hard bound at every beta
    for rec in records:
        assert 0.0 - 1e-12 <= rec.pressure_over_beta <= math.log(2.0) / rec.beta + 1e-12


def test_pressure_bracket_seeded():
    rng = random.Random(61)
    checked = 0
    while checked < 6:
        sys = _gen_system(rng.randrange(10**6), 8, False)
        report = ergodic_report(sys)
        if not report.uniquely_calibrated:
            continue
        slack = math.log(sys.max_in_degree())
        for rec in beta_sweep(sys, report=report):
            low = report.Q - 1e-12
            high = report.Q + slack / rec.beta + 1e-12
            assert low <= rec.pressure_over_beta <= high
        checked += 1


def test_limit_diagnostics_one_state(one_state):
    report = ergodic_report(one_state)
    diag = limit_diagnostics(beta_sweep(one_state, report=report))
    assert diag.divergence_ok
    for row in diag.rows:
        assert row.d_u == 0.0 and row.d_b == 0.0
        assert abs(row.d_g) <= 1e-12 and abs(row.d_D) <= 1e-12


def test_limit_diagnostics_fixa(fixa):
    report = ergodic_report(fixa)
    records = beta_sweep(fixa, report=report)
    diag = limit_diagnostics(records)
    assert diag.divergence_ok
    d_u = [row.d_u for row in diag.rows]
    d_g = [row.d_g for row in diag.rows]
    assert all(a >= b for a, b in zip(d_u, d_u[1:]))
    assert all(a >= b for a, b in zip(d_g, d_g[1:]))
    assert d_u[-1] <= 0.02
    assert diag.rows[-1].d_b <= 0.05
    assert diag.rows[-1].d_D <= 0.05


def test_limit_diagnostics_guards(two_loops):
    with pytest.raises(ValueError):
        limit_diagnostics([])
    with pytest.raises(MultiClassError) as err:
        limit_diagnostics(beta_sweep(two_loops, (1.0,), report=ergodic_report(two_loops)))
    assert err.value.classes == [(0,), (1,)]


def test_limit_diagnostics_divergence():
    # state 0 leads to state 1, which never leads back, so the
    # eigen-density is [0, -inf]: at state 1 scaled log m must fall strictly
    # along the grid and end below DIVERGENCE_FLOOR, and d_b leaves it out.
    # spectral_data refuses reducible systems, so the solves are built by
    # hand: log u = beta * [0, -1] and log m = beta * [0, s], exact in
    # float, so limit_diagnostics' rescaling gives back [0, -1] and [0, s]
    system = TransitionSystem(2, [(0, 0, 0.0), (0, 1, -1.0), (1, 1, -2.0)])
    report = ergodic_report(system)
    assert report.critical_classes == [(0,)]
    assert report.eigen_density_basis[0].values.tolist() == [0.0, -math.inf]
    for series, expected in (([-5, -8, -12], True), ([-5, -12, -11], False), ([-2, -4, -6], False)):
        records = []
        for beta, s in zip(DEFAULT_GRID, series):
            log_u, log_m = beta * np.array([0.0, -1.0]), beta * np.array([0.0, float(s)])
            data = SpectralData(
                report=report, beta=beta, pressure=0.0, log_u=log_u, log_m=log_m, log_mu=log_u + log_m,
                iterations=0,
            )
            records.append(SweepRecord(beta=beta, pressure_over_beta=0.0, spectral=data))
        diag = limit_diagnostics(records)
        assert diag.divergence_ok is expected, series
        assert [row.d_b for row in diag.rows] == [0.0] * 3


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
    # by identity: solves of another report are refused where they meet,
    # the twin's too, whose system equals fixa but whose report is another
    own = ergodic_report(fixa)
    mine = beta_sweep(fixa, report=own)
    twin = system_from_json(system_to_json(fixa))
    for other in (c, b, twin):
        theirs = beta_sweep(other, report=ergodic_report(other))
        for mixed in (mine + theirs, theirs[:1] + mine):
            with pytest.raises(ValueError, match="the sweep mixes solves of different reports"):
                limit_diagnostics(mixed)
    rate = rate_function(fixa, report=own)
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
        assert a.pressure_over_beta == b.pressure_over_beta
        for name in ("log_u", "log_m", "log_mu"):
            assert getattr(a.spectral, name).tobytes() == getattr(b.spectral, name).tobytes()
    assert spectral_data(fixa, 10.0, report=other).log_mu.tobytes() == mine[0].spectral.log_mu.tobytes()
    assert rate_function(fixa, report=other).to_json() == rate_function(fixa, report=own).to_json()
    assert limit_diagnostics(theirs) == limit_diagnostics(mine)


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
