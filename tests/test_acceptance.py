"""End-to-end acceptance suite.

One test per shipped guarantee; each prints a single PASS line (run with
pytest -s to see them) and fails loudly otherwise. Runtime-bounded
criteria assert their own wall-clock budgets.
"""

import contextlib
import math
import random
import time

import numpy as np

import troptherm.cli as cli
from troptherm.bruteforce import (
    enum_aubry,
    enum_critical_classes,
    enum_max_cycle_mean,
    enum_mane,
    log_ruelle_apply,
    subaction_limsup,
)
from troptherm.dynamics import adjoint_apply, bousch_apply, from_sft, system_to_json
from troptherm.ergodic_opt import ergodic_report, max_potential_energy, mane_potential
from troptherm.thermo import NODA_BRACKET, spectral_data
from troptherm.tropical_core import (
    NEG_INF,
    POS_INF,
    TropValue,
    array_mul,
    array_sup,
    residual,
    sup_distance,
    t_add,
    t_mul,
    trop_vector,
)
from troptherm.tropical_measures import Density, functional_eval
from troptherm.zerotemp import beta_sweep, ldp_residual, limit_diagnostics, rate_function

from helpers import cold_report, normalize, representation_check


@contextlib.contextmanager
def criterion(k, summary):
    try:
        yield
    except Exception as exc:
        print(f"ACCEPTANCE {k} FAIL: {summary} ({exc})", flush=True)
        raise
    print(f"ACCEPTANCE {k} PASS: {summary}", flush=True)


def _seeded_system(k, n_max=12):
    n = random.Random(10_000 + k).randint(2, n_max)
    return cli._gen_system(k, n, False)


def _uniquely_calibrated_systems(count, n_max=12):
    out = []
    seed = 0
    while len(out) < count:
        sys_ = _seeded_system(seed, n_max)
        report = ergodic_report(sys_)
        if report.uniquely_calibrated:
            out.append((sys_, report))
        seed += 1
    return out


def test_acceptance_1_fixture_end_to_end():
    with criterion(1, "2-state fixture end to end, exact integer agreement"):
        t0 = time.perf_counter()
        sys_ = from_sft([[1, 1], [1, 1]], [[0.0, -1.0], [-1.0, -3.0]])
        report = ergodic_report(sys_)
        assert report.Q == 0.0
        assert report.aubry == (0,)
        assert report.phi.tolist() == [[0.0, -1.0], [-1.0, -2.0]]
        (v,) = report.eigenfunction_basis
        assert v.tolist() == [0.0, -1.0]
        (b,) = report.eigen_density_basis
        assert b.values.tolist() == [0.0, -1.0]
        rate = rate_function(sys_, report=report)
        assert abs(rate.values[0]) <= 1e-12 and abs(rate.values[1] - 2.0) <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_acceptance_2_oracle_equivalence():
    with criterion(2, "200 seeded systems agree with exhaustive enumeration"):
        t0 = time.perf_counter()
        for k in range(200):
            sys_ = _seeded_system(k, n_max=10)
            q_fast, _ = max_potential_energy(sys_)
            q_enum = enum_max_cycle_mean(sys_)
            assert abs(q_fast - q_enum) <= 1e-9
            mane = mane_potential(normalize(sys_))
            phi_enum = enum_mane(sys_, q_enum, horizon=2 * sys_.n)
            for i in range(sys_.n):
                for j in range(sys_.n):
                    fast = mane.phi[i, j]
                    slow = phi_enum[i][j]
                    if math.isinf(fast) or math.isinf(slow):
                        assert fast == slow
                    else:
                        assert abs(fast - slow) <= 1e-9
            aubry_enum = enum_aubry(phi_enum)
            assert tuple(mane.aubry) == aubry_enum
            assert mane.critical_classes == enum_critical_classes(phi_enum, aubry_enum)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_acceptance_3_fixed_point_suite():
    with criterion(3, "sub-action and eigen-density fixed points, 50 systems x 5 starts"):
        rng = random.Random(42)
        for k in range(50):
            sys_ = normalize(_seeded_system(k))
            report = ergodic_report(sys_)
            for _ in range(5):
                u0 = trop_vector([float(rng.randint(-4, 4)) for _ in range(sys_.n)])
                v = subaction_limsup(sys_, u0)
                assert sup_distance(bousch_apply(sys_, v), v) <= 1e-9
                assert representation_check(report, v=v) <= 1e-9
            # the singleton probes, 0 at one state and -inf elsewhere
            probes = [np.where(np.arange(sys_.n) == s, 0.0, -math.inf) for s in range(sys_.n)]
            for b in report.eigen_density_basis:
                assert sup_distance(adjoint_apply(sys_, b).values, b.values) <= 1e-9
                for probe in probes:
                    lhs = functional_eval(b, bousch_apply(sys_, probe))
                    rhs = functional_eval(b, probe)
                    if math.isfinite(lhs) and math.isfinite(rhs):
                        assert abs(lhs - rhs) <= 1e-9
                    else:
                        assert lhs == rhs


def test_acceptance_4_eigenvalue_uniqueness():
    with criterion(4, "every produced eigenvalue equals Q within 1e-9"):
        for k in range(100):
            sys_ = _seeded_system(k)
            q, _ = max_potential_energy(sys_)
            report = ergodic_report(sys_)
            assert abs(report.Q - q) <= 1e-9
            # on the system as given each eigenfunction has eigenvalue Q
            for v in report.eigenfunction_basis:
                assert sup_distance(bousch_apply(sys_, v), v + q) <= 1e-9
            norm = normalize(sys_)
            # normalized spectral pairs: eigenvalue 0, i.e. Q before the shift
            for v in report.eigenfunction_basis:
                assert sup_distance(bousch_apply(norm, v), v) <= 1e-9
            for b in report.eigen_density_basis:
                assert sup_distance(adjoint_apply(norm, b).values, b.values) <= 1e-9


def _random_entry(rng):
    r = rng.random()
    if r < 0.10:
        return NEG_INF
    if r < 0.15:
        return POS_INF
    return TropValue(float(rng.randint(-50, 50)))


def test_acceptance_5_algebraic_laws():
    with criterion(5, "semiring, Galois, and operator laws, exhaustive plus 1000 seeded, exact"):
        small = [NEG_INF, TropValue(-2.0), TropValue(0.0), TropValue(1.0), POS_INF]
        for a in small:
            for b in small:
                assert t_add(a, b) == t_add(b, a)
                assert t_mul(a, b) == t_mul(b, a)
                assert t_add(a, NEG_INF) == a
                assert t_mul(a, TropValue(0.0)) == a
                assert t_mul(a, NEG_INF) == NEG_INF
                for c in small:
                    assert t_add(t_add(a, b), c) == t_add(a, t_add(b, c))
                    assert t_mul(t_mul(a, b), c) == t_mul(a, t_mul(b, c))
                    assert t_mul(a, t_add(b, c)) == t_add(t_mul(a, b), t_mul(a, c))
        rng = random.Random(7)
        for _ in range(1000):
            u = trop_vector([float(_random_entry(rng)) for _ in range(3)])
            v = trop_vector([float(_random_entry(rng)) for _ in range(3)])
            r = residual(u, v)
            lam = _random_entry(rng)
            # lam (x) v <= u  iff  lam <= residual(u, v), exactly
            feasible = bool(np.all(array_mul(float(lam), v) <= u))
            assert feasible == (float(lam) <= r)
        rng = random.Random(11)
        for k in range(30):
            sys_ = _seeded_system(k, n_max=8)
            u = trop_vector([float(rng.randint(-9, 9)) for _ in range(sys_.n)])
            v = trop_vector([float(rng.randint(-9, 9)) for _ in range(sys_.n)])
            a = float(rng.randint(-3, 3))
            b = float(rng.randint(-3, 3))
            # a (x) u (+) b (x) v
            combo = np.maximum(array_mul(a, u), array_mul(b, v))
            lu, lv = bousch_apply(sys_, u), bousch_apply(sys_, v)
            expect = np.maximum(array_mul(a, lu), array_mul(b, lv))
            assert np.array_equal(bousch_apply(sys_, combo), expect)  # tropical linearity
            gap = np.max(np.abs(u - v))
            assert np.isfinite(lu).all() and np.isfinite(lv).all()
            assert np.all(np.abs(lu - lv) <= gap)  # nonexpansive
            low = trop_vector([x - rng.randint(0, 3) for x in u.tolist()])
            assert np.all(bousch_apply(sys_, low) <= lu)  # monotone

            # densities exclude +inf entries (only the top density carries them)
            d = Density(
                [-math.inf if rng.random() < 0.1 else float(rng.randint(-50, 50)) for _ in range(sys_.n)]
            )
            if not d.is_top:
                lb = adjoint_apply(sys_, d)
                lhs = array_sup(array_mul(lu, d.values))
                rhs = array_sup(array_mul(u, lb.values))
                assert lhs == rhs  # adjoint duality


def test_acceptance_6_bracketing():
    with criterion(6, "log-sum operator brackets the tropical one within log(N)/beta"):
        rng = np.random.default_rng(2024)
        for k in range(20):
            sys_ = _seeded_system(k, n_max=10)
            slack = math.log(sys_.max_in_degree())
            for _ in range(5):
                f = rng.uniform(-5, 5, sys_.n)
                hard = bousch_apply(sys_, f)
                assert np.isfinite(hard).all()
                for beta in (10.0, 100.0, 1000.0):
                    soft = log_ruelle_apply(sys_, beta * f, beta) / beta
                    assert np.all(soft >= hard - 1e-9)
                    assert np.all(soft <= hard + slack / beta + 1e-9)


def test_acceptance_7_zero_temperature_convergence():
    with criterion(7, "rescaled spectral data converges to the tropical limit"):
        t0 = time.perf_counter()
        for sys_, report in _uniquely_calibrated_systems(10):
            records = beta_sweep(sys_, report=report)
            diag = limit_diagnostics(records)
            assert diag.divergence_ok
            first, last = diag.rows[0], diag.rows[-1]
            assert last.d_u <= min(first.d_u, 0.02)
            assert last.d_b <= 0.05
            assert last.d_g <= 0.05
            assert last.d_D <= 0.05
            slack = math.log(sys_.max_in_degree())
            for rec in records:
                low = report.Q - 1e-12
                high = report.Q + slack / rec.beta + 1e-12
                assert low <= rec.pressure_over_beta <= high
        elapsed = time.perf_counter() - t0
        assert elapsed < 20.0, f"took {elapsed:.2f}s"


def test_tropical_seed_iteration_counts():
    # a cold start needs up to 28,893 steps at beta 1000 on these systems
    for sys_, report in _uniquely_calibrated_systems(10):
        for rec in beta_sweep(sys_, report=report):
            assert rec.spectral.iterations <= 100, (rec.beta, rec.spectral.iterations)


def test_tropical_seed_matches_cold_start():
    def sup_normalized(x):
        return x - x.max()

    for sys_, report in _uniquely_calibrated_systems(10):
        for rec in beta_sweep(sys_, grid=(10.0, 100.0), report=report):
            seeded, cold = rec.spectral, spectral_data(sys_, rec.beta, cold_report(sys_))
            assert abs(seeded.pressure - cold.pressure) <= 1e-12 * max(1.0, abs(cold.pressure))
            for a, b in ((seeded.log_u, cold.log_u), (seeded.log_m, cold.log_m)):
                assert np.max(np.abs(sup_normalized(a) - sup_normalized(b))) <= 1e-10


def test_cold_start_takes_damped_steps_at_beta_1000():
    # from a cold start the log bracket ptp(R - x) is beta * (a weight gap)
    # wide, beyond what a float64 Noda step resolves, so the solver first
    # takes damped steps; it must still land on the seeded solve
    sys_, report = _uniquely_calibrated_systems(1)[0]
    beta = 1000.0
    assert np.ptp(log_ruelle_apply(sys_, np.zeros(sys_.n), beta)) > NODA_BRACKET
    (rec,) = beta_sweep(sys_, grid=(beta,), report=report)
    seeded, cold = rec.spectral, spectral_data(sys_, beta, cold_report(sys_))
    assert cold.iterations > seeded.iterations
    assert abs(seeded.pressure - cold.pressure) <= 1e-10 * abs(cold.pressure)
    for a, b in ((seeded.log_u, cold.log_u), (seeded.log_m, cold.log_m)):
        assert np.max(np.abs((a - a.max()) - (b - b.max()))) <= 1e-10


def test_acceptance_8_ldp():
    with criterion(8, "LDP residuals small at beta 1000 and below their beta 10 value"):
        fixa = from_sft([[1, 1], [1, 1]], [[0.0, -1.0], [-1.0, -3.0]])
        cases = [(fixa, ergodic_report(fixa))] + _uniquely_calibrated_systems(10)
        for sys_, report in cases:
            rate = rate_function(sys_, report=report)
            s10, s1000 = (rec.spectral for rec in beta_sweep(sys_, (10.0, 1000.0), report=report))
            probes = cli._probes(sys_.n, seed=99)
            for f in probes:
                r10 = ldp_residual(f, rate=rate, spectral=s10)
                r1000 = ldp_residual(f, rate=rate, spectral=s1000)
                assert r1000 <= 0.05
                assert r1000 <= r10 + 1e-12


def test_acceptance_9_cli_determinism(tmp_path):
    with criterion(9, "CLI output deterministic and golden files stable"):
        import json
        import pathlib

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["gen", "--seed", "17", "--output", str(a)]) == 0
        assert cli.main(["gen", "--seed", "17", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        fixa = from_sft([[1, 1], [1, 1]], [[0.0, -1.0], [-1.0, -3.0]])
        sys_path = tmp_path / "fixa.json"
        sys_path.write_text(json.dumps(system_to_json(fixa)))
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli.main(["sweep", "--input", str(sys_path), "--output", str(s1)]) == 0
        assert cli.main(["sweep", "--input", str(sys_path), "--output", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

        golden = pathlib.Path(__file__).parent / "golden"
        report_out = tmp_path / "report.json"
        assert cli.main(["analyze", "--input", str(sys_path), "--output", str(report_out)]) == 0
        assert report_out.read_bytes() == (golden / "fixa_analyze.json").read_bytes()
        assert s1.read_bytes() == (golden / "fixa_sweep.csv").read_bytes()
