"""Command-line surface: exit codes, determinism, schemas, golden files."""

import json
import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

import troptherm
import troptherm.bruteforce as bruteforce
import troptherm.cli as cli
import troptherm.maxplus_linalg as maxplus_linalg
import troptherm.zerotemp as zerotemp
from troptherm.dynamics import N_MAX, TransitionSystem, discretize_doubling, from_map, system_from_json, system_to_json
from troptherm.ergodic_opt import ergodic_report, report_to_json
from troptherm.thermo import ConvergenceError, spectral_data

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _dump(tmp_path, name, sys_):
    path = tmp_path / name
    path.write_text(json.dumps(system_to_json(sys_)))
    return str(path)


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["gen", "--seed", "5", "--output", str(a)]) == 0
    assert cli.main(["gen", "--seed", "5", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    sys_ = system_from_json(json.loads(a.read_text()))
    assert 2 <= sys_.n <= 12
    assert all(float(w).is_integer() and -5 <= w <= 5 for _, _, w in sys_.arcs)


def test_gen_seeds_differ(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["gen", "--seed", "1", "--output", str(a)])
    cli.main(["gen", "--seed", "2", "--output", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_gen_n_guard(tmp_path):
    out = str(tmp_path / "x.json")
    assert cli.main(["gen", "--n", "13", "--output", out]) == cli.EXIT_INPUT
    assert cli.main(["gen", "--n", "1", "--output", out]) == cli.EXIT_INPUT
    assert cli.main(["gen", "--n", "12", "--output", out]) == cli.EXIT_OK
    assert system_from_json(json.loads(pathlib.Path(out).read_text())).n == 12


def test_gen_deterministic_block_draw_matches_one_at_a_time():
    # the permutation search draws tables in blocks and rewinds; it must
    # give the system, and leave the stream, as drawing one table at a time
    def one_at_a_time(seed, n):
        rng = np.random.default_rng(seed)
        while True:
            table = rng.integers(0, n, size=n)
            if len(set(int(x) for x in table)) == n:
                break
        weights = [float(rng.integers(cli.WEIGHT_RANGE[0], cli.WEIGHT_RANGE[1] + 1)) for _ in range(n)]
        return from_map([int(x) for x in table], weights)

    for n in range(2, 8):
        for seed in range(200):
            assert cli._gen_system(seed, n, True) == one_at_a_time(seed, n), (seed, n)


def test_gen_deterministic_flag(tmp_path):
    out = tmp_path / "perm.json"
    assert cli.main(["gen", "--seed", "9", "--deterministic", "--output", str(out)]) == 0
    sys_ = system_from_json(json.loads(out.read_text()))
    assert sys_.deterministic
    assert sys_.surjective_like  # permutation: strongly connected union of cycles


def test_analyze_fixa(tmp_path, fixa, capsys):
    path = _dump(tmp_path, "fixa.json", fixa)
    assert cli.main(["analyze", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["Q"] == 0.0
    assert data["maximizing_cycle"] == [0, 0]
    assert data["mane"]["aubry"] == [0]
    assert data["uniquely_calibrated"] is True
    assert data["mane"]["phi"] == [[0.0, -1.0], [-1.0, -2.0]]


def test_analyze_one_state(tmp_path, one_state, capsys):
    path = _dump(tmp_path, "one.json", one_state)
    assert cli.main(["analyze", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["Q"] == 1.5
    assert data["normalized_system"]["arcs"] == [[0, 0, 0.0]]


def test_analyze_strict(tmp_path, capsys):
    squash = from_map([0, 0], [1.0, 0.0])
    path = _dump(tmp_path, "squash.json", squash)
    assert cli.main(["analyze", "--input", path, "--strict"]) == cli.EXIT_ASSUMPTION
    capsys.readouterr()
    assert cli.main(["analyze", "--input", path]) == cli.EXIT_OK


def test_bad_input_paths(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["analyze", "--input", missing]) == cli.EXIT_INPUT
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["analyze", "--input", str(broken)]) == cli.EXIT_INPUT
    schema = tmp_path / "schema.json"
    schema.write_text('{"n": 2, "arcs": [[0, 1, 0.0]], "bogus": 1}')
    assert cli.main(["analyze", "--input", str(schema)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "bogus" in err


def test_sweep_deterministic_and_shape(tmp_path, fixa):
    path = _dump(tmp_path, "fixa.json", fixa)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--input", path, "--output", str(a)]) == 0
    assert cli.main(["sweep", "--input", path, "--output", str(b)]) == 0
    raw = a.read_bytes()
    assert raw == b.read_bytes()
    assert b"\r" not in raw
    lines = a.read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["beta", "pressure_over_beta", "d_u", "d_b", "d_g", "d_D"] + [
        f"ldp_residual_{k}" for k in range(10)
    ]
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 16
        floats = [float(c) for c in cells]  # parseable, '.' decimal separator
        assert floats[0] in (10.0, 100.0, 1000.0)


def test_sweep_multiclass_exit(tmp_path, two_loops, capsys):
    path = _dump(tmp_path, "two.json", two_loops)
    assert cli.main(["sweep", "--input", path]) == cli.EXIT_MULTICLASS
    err = capsys.readouterr().err
    assert "--force" in err
    # within tol of the boundary the decision is the class count: a
    # two-cycle 7e-10 short of zero joins the loop at 1 in one class, and
    # a loop 9e-10 short of zero is a class of its own
    tie = TransitionSystem(2, [(0, 1, 1.0), (1, 0, -1.0000000007), (1, 1, 0.0)])
    assert cli.main(["sweep", "--input", _dump(tmp_path, "tie.json", tie)]) == 0
    assert capsys.readouterr().err == ""
    selfloop = TransitionSystem(2, [(0, 0, 0.0), (1, 1, -9e-10), (0, 1, -5.0), (1, 0, -5.0)])
    assert cli.main(["sweep", "--input", _dump(tmp_path, "selfloop.json", selfloop)]) == cli.EXIT_MULTICLASS
    assert "error: 2 critical classes [(0,), (1,)]" in capsys.readouterr().err


def test_sweep_force_nan_rows(tmp_path, two_loops):
    path = _dump(tmp_path, "two.json", two_loops)
    out = tmp_path / "force.csv"
    assert (
        cli.main(
            ["sweep", "--input", path, "--force", "--grid", "100,1000", "--output", str(out)]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[1])) <= 1e-9  # pressure/beta near Q = 0
        assert all(math.isnan(float(c)) for c in cells[2:])


def test_sweep_grid_order_checked_before_input(tmp_path, fixa, two_loops, capsys):
    # sweep --force on several critical classes skipped the order check
    # and printed one row per beta, repeats included; the check now runs
    # once, before the input is read, whichever branch follows
    paths = [_dump(tmp_path, "two.json", two_loops), _dump(tmp_path, "fixa.json", fixa), str(tmp_path / "nope.json")]
    for path in paths:
        for force in ([], ["--force"]):
            for grid in ("100,10", "10,10"):
                assert cli.main(["sweep", "--input", path, *force, "--grid", grid]) == cli.EXIT_INPUT
                assert capsys.readouterr() == ("", "error: beta grid must be strictly increasing\n")


def test_negative_seed_refused_up_front(tmp_path, capsys):
    # numpy refused a negative seed only after the report was built, with
    # a message that named no flag; argparse now refuses it first
    missing = str(tmp_path / "nope.json")
    for argv in (["gen"], ["sweep", "--input", missing], ["ldp", "--input", missing]):
        for seed, message in (("-1", "must be a non-negative integer: '-1'"), ("abc", "invalid int value: 'abc'")):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--seed", seed])
            assert exc.value.code == cli.EXIT_INPUT
            out, err = capsys.readouterr()
            assert out == "" and err.endswith(f"error: argument --seed: {message}\n"), err
    assert cli.main(["gen", "--seed", "0", "--output", str(tmp_path / "g.json")]) == cli.EXIT_OK


def test_sweep_force_reports_stall(tmp_path, two_loops, monkeypatch):
    # a row whose solve hits the step cap goes out all-nan rather than as
    # a block mixture; the next beta starts from the report's pair and is
    # reported
    solve = zerotemp.sweep_record

    def stalled(sys_, beta, report):
        if beta == 10.0:
            raise ConvergenceError("power iteration did not converge within 100000 steps")
        return solve(sys_, beta, report)

    monkeypatch.setattr(zerotemp, "sweep_record", stalled)
    path = _dump(tmp_path, "two.json", two_loops)
    out = tmp_path / "stall.csv"
    assert (
        cli.main(["sweep", "--input", path, "--force", "--grid", "10,100", "--output", str(out)])
        == 0
    )
    stalled_row, next_row = (line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(stalled_row[0]) == 10.0
    assert all(math.isnan(float(c)) for c in stalled_row[1:])
    assert float(next_row[0]) == 100.0
    assert abs(float(next_row[1])) <= 1e-9
    assert all(math.isnan(float(c)) for c in next_row[2:])


def test_sweep_force_two_loops_closed_form(tmp_path, two_loops):
    # the shifted Ruelle matrix at beta 10 is [[1, e^-10], [e^-20, 1]], with
    # leading eigenvalue 1 + e^-15; the class coupling sits at e^-15, which
    # stalled the damped iteration at the step cap
    path = _dump(tmp_path, "two.json", two_loops)
    out = tmp_path / "two.csv"
    assert (
        cli.main(["sweep", "--input", path, "--force", "--grid", "10", "--output", str(out)])
        == 0
    )
    cells = out.read_text().splitlines()[1].split(",")
    assert float(cells[0]) == 10.0
    exact = math.log1p(math.exp(-15.0)) / 10.0
    assert abs(float(cells[1]) - exact) <= 1e-12 * exact
    assert all(math.isnan(float(c)) for c in cells[2:])


def test_convergence_error_exits_2(tmp_path, fixa, capsys, monkeypatch):
    def capped(sys_, beta, **kwargs):
        raise ConvergenceError("power iteration did not converge within 100000 steps")

    monkeypatch.setattr(zerotemp, "spectral_data", capped)
    path = _dump(tmp_path, "fixa.json", fixa)
    for command in ("sweep", "ldp"):
        assert cli.main([command, "--input", path]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: power iteration did not converge within 100000 steps\n"


def test_ldp_residuals_equal_sweep_cells(tmp_path, capsys):
    # one seeded solve per (system, beta): ldp prints the residuals of the
    # sweep CSV bit for bit
    paths = []
    for seed, n in ((10, []), (3, ["--n", "12"]), (17, ["--n", "12"])):
        path = str(tmp_path / f"gen{seed}.json")
        assert cli.main(["gen", "--seed", str(seed), *n, "--output", path]) == 0
        paths.append(path)
    paths.append(_dump(tmp_path, "doubling5.json", discretize_doubling(5, lambda t: math.cos(2 * math.pi * t))))
    for path in paths:
        assert cli.main(["sweep", "--input", path]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert cli.main(["ldp", "--input", path]) == 0
        residuals = json.loads(capsys.readouterr().out)["residuals"]
        assert len(rows) == len(residuals) == len(zerotemp.DEFAULT_GRID)
        for row, res in zip(rows, residuals):
            assert float(row[0]) == res["beta"]
            assert len(res["values"]) == cli.PROBE_COUNT
            assert [float(cell) for cell in row[6:]] == res["values"], (path, res["beta"])


def test_cli_solves_never_start_cold(tmp_path, two_loops, capsys, monkeypatch):
    calls = []
    solve = zerotemp.spectral_data

    def seeded_only(sys, beta, **kwargs):
        assert kwargs.get("report") is not None
        calls.append(beta)
        return solve(sys, beta, **kwargs)

    monkeypatch.setattr(zerotemp, "spectral_data", seeded_only)
    gen0 = str(tmp_path / "gen0.json")
    assert cli.main(["gen", "--seed", "0", "--n", "12", "--output", gen0]) == 0
    two = _dump(tmp_path, "two.json", two_loops)
    for path in (gen0, two):  # both have several critical classes
        assert cli.main(["sweep", "--input", path]) == cli.EXIT_MULTICLASS
        assert cli.main(["sweep", "--input", path, "--force"]) == 0
    gen17 = str(tmp_path / "gen17.json")
    assert cli.main(["gen", "--seed", "17", "--n", "12", "--output", gen17]) == 0
    assert cli.main(["ldp", "--input", gen17]) == 0
    capsys.readouterr()
    assert calls == 3 * list(zerotemp.DEFAULT_GRID)


def test_ldp_fixa(tmp_path, fixa, capsys):
    path = _dump(tmp_path, "fixa.json", fixa)
    assert cli.main(["ldp", "--input", path, "[0, 5]"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rate_function"]["values"] == [0.0, 2.0]
    assert data["grid"] == [10.0, 100.0, 1000.0]
    assert data["observables"] == [[0.0, 5.0]]
    series = [row["values"][0] for row in data["residuals"]]
    assert series[-1] <= 0.05
    assert series[-1] <= series[0]


def test_ldp_one_solve_per_beta(tmp_path, fixa, capsys, monkeypatch):
    calls = []
    solve = zerotemp.spectral_data

    def counted(sys, beta, **kwargs):
        calls.append(beta)
        return solve(sys, beta, **kwargs)

    monkeypatch.setattr(zerotemp, "spectral_data", counted)
    path = _dump(tmp_path, "fixa.json", fixa)
    assert cli.main(["ldp", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["observables"]) == cli.PROBE_COUNT
    assert calls == list(zerotemp.DEFAULT_GRID)


def test_cli_runs_one_tropical_pass(tmp_path, capsys, monkeypatch):
    # every consumer takes the command's one report: Karp and the closure
    # run once per run, whatever the command
    calls = {"karp": 0, "closure": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(maxplus_linalg, "_karp_mean", counted("karp", maxplus_linalg._karp_mean))
    monkeypatch.setattr(maxplus_linalg, "_closure", counted("closure", maxplus_linalg._closure))
    gen17 = str(tmp_path / "gen17.json")
    assert cli.main(["gen", "--seed", "17", "--n", "12", "--output", gen17]) == 0
    doubling = _dump(tmp_path, "doubling5.json", discretize_doubling(5, lambda t: math.cos(2 * math.pi * t)))
    for path in (gen17, doubling):
        for command in ("analyze", "sweep", "ldp"):
            for key in calls:
                calls[key] = 0
            assert cli.main([command, "--input", path]) == 0
            assert calls == {"karp": 1, "closure": 1}, (path, command)
    capsys.readouterr()


def test_cli_import_skips_networkx(tmp_path):
    # neither the import nor gen's default, strongly connected flavour
    # loads networkx, and the oracle runs where it cannot be imported
    out = str(tmp_path / "gen.json")
    report = str(tmp_path / "oracle.json")
    code = (
        "import sys, troptherm.cli as cli\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
        f"assert cli.main(['gen', '--seed', '1', '--n', '6', '--output', {out!r}]) == 0\n"
        "assert 'networkx' not in sys.modules, 'networkx imported by gen'\n"
        "sys.modules['networkx'] = None\n"
        f"sys.exit(cli.main(['oracle', '--input', {out!r}, '--output', {report!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_child_env(None),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(pathlib.Path(report).read_text())["ok"] is True


def _child_env(blas_spin):
    """os.environ with src on PYTHONPATH and OPENBLAS_THREAD_TIMEOUT set
    to blas_spin, or unset when it is None."""
    src = pathlib.Path(troptherm.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if blas_spin is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = blas_spin
    return env


# records OPENBLAS_THREAD_TIMEOUT at numpy's first import, then reports
# what each start-up step loaded
_STARTUP_PROBE = """
import json, os, sys

class Spy:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

sys.meta_path.insert(0, Spy())
before = dict(os.environ)
import troptherm
bare = "numpy" in sys.modules
import troptherm.cli as cli
loaded = sorted(sys.modules)
code = cli.main(["analyze", "--input", sys.argv[1], "--output", sys.argv[2]])
print(json.dumps({
    "package_loads_numpy": bare,
    "spin_at_numpy_import": Spy.seen,
    "environ_unchanged": dict(os.environ) == before,
    "after_import": loaded,
    "after_analyze": sorted(sys.modules),
    "code": code,
}))
"""


def test_cli_start_loads_only_its_command(tmp_path):
    # the package loads no numpy; cli loads numpy with a short BLAS spin
    # unless the user chose one, and leaves os.environ as it found it; the
    # Ruelle side and the oracle load only with the commands that run them
    path = _dump(tmp_path, "doubling5.json", discretize_doubling(5, lambda t: math.cos(2 * math.pi * t)))
    lazy = {"troptherm.thermo", "troptherm.zerotemp", "troptherm.bruteforce"}
    for blas_spin, expected in ((None, "4"), ("28", "28")):
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE, path, str(tmp_path / "report.json")],
            env=_child_env(blas_spin),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout)
        assert probe["code"] == cli.EXIT_OK
        assert probe["package_loads_numpy"] is False
        assert probe["spin_at_numpy_import"] == [expected]
        assert probe["environ_unchanged"] is True
        assert "numpy" in probe["after_import"]
        assert not lazy & set(probe["after_import"])
        assert not lazy & set(probe["after_analyze"])


def test_blas_spin_leaves_output_bytes(tmp_path):
    # at n = 128 the Ruelle solves' LU factorizations run on OpenBLAS's
    # threads; how long an idle one spins must not move a digit, of the
    # report either
    path = _dump(tmp_path, "doubling7.json", discretize_doubling(7, lambda t: math.cos(2 * math.pi * t)))
    for command in ("analyze", "sweep", "ldp"):
        outputs = []
        for blas_spin in ("28", None):
            proc = subprocess.run(
                [sys.executable, "-m", "troptherm.cli", command, "--input", path],
                env=_child_env(blas_spin),
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], command


def test_lost_critical_cycle_exits_2(tmp_path, capsys):
    # gen seed 10 with every weight moved by 1e9 or scaled by 1e6: rounding
    # at that scale exceeds the default tol, and no cycle stays critical
    base = cli._gen_system(10, None, False)
    env = _child_env(None)
    for name, move in (("shifted", lambda w: w + 1e9), ("scaled", lambda w: w * 1e6)):
        path = _dump(tmp_path, f"{name}.json", TransitionSystem(base.n, [(s, t, move(w)) for s, t, w in base.arcs]))
        proc = subprocess.run(
            [sys.executable, "-m", "troptherm.cli", "analyze", "--input", path],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == cli.EXIT_INPUT, proc.stderr
        assert proc.stderr.startswith("error: no cycle is critical within tol 1e-09")
        assert "Traceback" not in proc.stderr
        for command in ("sweep", "ldp", "oracle"):
            assert cli.main([command, "--input", path]) == cli.EXIT_INPUT
            assert capsys.readouterr().err.startswith("error: no cycle is critical")


def test_karp_overflow_exits_2(tmp_path, capsys):
    # 2 * n * max |w| bounds Karp's walk sums and the closure's path sums:
    # a 1e308 two-cycle overflowed to inf (reported as lost to rounding,
    # after a RuntimeWarning), a 300-cycle of 1e306 gave Q = nan
    env = _child_env(None)
    n = 300
    for name, system in (
        ("two.json", TransitionSystem(2, [(0, 1, 1e308), (1, 0, 1e308)])),
        ("cycle.json", TransitionSystem(n, [(i, (i + 1) % n, 1e306) for i in range(n)])),
    ):
        path = _dump(tmp_path, name, system)
        proc = subprocess.run(
            [sys.executable, "-m", "troptherm.cli", "analyze", "--input", path],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == cli.EXIT_INPUT, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: path sums overflow float64") and proc.stderr.count("\n") == 1
        assert "Warning" not in proc.stderr
        for command in ("sweep", "ldp"):
            assert cli.main([command, "--input", path]) == cli.EXIT_INPUT
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: path sums overflow") and err.count("\n") == 1
        with pytest.raises(ValueError, match="overflow"):
            ergodic_report(system)


def test_ruelle_weight_overflow_exits_2(tmp_path):
    # Karp's path sums of a 1e307 two-cycle stay in range, but beta * w
    # leaves it at beta 100: sweep printed an inf pressure with nan
    # diagnostics and ldp exited 0, both after numpy RuntimeWarnings. With
    # weights 1e306 beta * max|w| is in range at beta 100, but the loop's
    # beta * (w - Q) = -2e308 is not: sweep printed d_g = inf, and ldp
    # exited 0, after the same warnings
    two = TransitionSystem(2, [(0, 1, 1e307), (1, 0, 1e307)])
    loop = TransitionSystem(2, [(0, 1, 1e306), (1, 0, 1e306), (0, 0, -1e306)])
    for name, system, grid in (("two.json", two, []), ("loop.json", loop, ["--grid", "100"])):
        path = _dump(tmp_path, name, system)
        for command in ("sweep", "ldp"):
            proc = subprocess.run(
                [sys.executable, "-m", "troptherm.cli", command, "--input", path, *grid],
                env=_child_env(None),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == cli.EXIT_INPUT, proc.stderr
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: the Ruelle solve overflows float64") and proc.stderr.count("\n") == 1
            assert "Warning" not in proc.stderr
    with pytest.raises(ValueError, match="the Ruelle solve overflows float64"):
        spectral_data(two, 100.0, ergodic_report(two))


def test_bad_system_json_exits_2(tmp_path):
    # a labels value that is not an array of strings, an integer weight
    # beyond float range, and state counts above N_MAX (rejected before
    # anything is sized: no allocation, no OverflowError traceback)
    env = _child_env(None)
    arcs = [[0, 0, 0.0], [0, 1, -1.0], [1, 0, -1.0], [1, 1, -3.0]]
    cases = {
        "labels_int": {"n": 2, "arcs": arcs, "labels": 5},
        "labels_str": {"n": 2, "arcs": arcs, "labels": "ab"},
        "huge_weight": {"n": 2, "arcs": arcs[:3] + [[1, 1, int("9" * 400)]]},
        "labels_null_int": {"n": 2, "arcs": arcs, "labels": [None, 1]},
        "labels_ints": {"n": 2, "arcs": arcs, "labels": [1, 2]},
        "n_overflow": {"n": 10**20, "arcs": arcs[:1]},
        "n_huge": {"n": 10**9, "arcs": arcs[:1]},
        "n_above_max": {"n": N_MAX + 1, "arcs": arcs[:1]},
    }
    for name, data in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        for command in ("analyze", "sweep"):
            proc = subprocess.run(
                [sys.executable, "-m", "troptherm.cli", command, "--input", str(path)],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == cli.EXIT_INPUT, (name, command, proc.stderr)
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a valid 200,000-state cycle asks Karp for a 298 GiB walk table;
    # numpy's MemoryError names the allocation, a bare one says nothing.
    # Both are raised by hand, so that nothing is allocated
    n = 200_000
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"n": n, "arcs": [[i, (i + 1) % n, 0.0] for i in range(n)]}))
    numpy_text = "Unable to allocate 298. GiB for an array with shape (200001, 200000) and data type float64"
    for detail, line in (((numpy_text,), f"error: out of memory: {numpy_text}\n"), ((), "error: out of memory\n")):

        def too_large(n, src, tgt, w):
            raise MemoryError(*detail)

        monkeypatch.setattr(maxplus_linalg, "_karp_mean", too_large)
        assert cli.main(["analyze", "--input", str(path)]) == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", line)


def test_deep_json_nesting_exits_2(tmp_path, fixa, capsys):
    # json's decoder raises RecursionError, not JSONDecodeError, on deep
    # nesting: in a system file and in an ldp observable
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    for command in ("analyze", "sweep", "ldp", "oracle"):
        assert cli.main([command, "--input", str(deep)]) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (command, err)
        assert "nested too deeply" in err
    path = _dump(tmp_path, "fixa.json", fixa)
    assert cli.main(["ldp", "--input", path, "[" * 5000 + "]" * 5000]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad observable ") and err.count("\n") == 1
    assert len(err) <= 200  # the observable's echo is clipped


def test_tol_must_be_finite_and_nonnegative(tmp_path, capsys):
    # an infinite tol made every arc critical (gen seed 1 reported the
    # cycle [0, 0] over a missing arc); a negative or nan one, none
    path = str(tmp_path / "gen1.json")
    assert cli.main(["gen", "--seed", "1", "--output", path]) == 0
    env = _child_env(None)
    for tol in ("inf", "-1", "nan"):
        proc = subprocess.run(
            [sys.executable, "-m", "troptherm.cli", "analyze", "--input", path, f"--tol={tol}"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == cli.EXIT_INPUT, (tol, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: tol must be") and proc.stderr.count("\n") == 1, proc.stderr
    assert cli.main(["analyze", "--input", path, "--tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["Q"] == ergodic_report(system_from_json(json.loads(pathlib.Path(path).read_text()))).Q
    # the check comes before any input is read
    missing = str(tmp_path / "missing.json")
    for command in ("analyze", "sweep", "ldp", "oracle"):
        assert cli.main([command, "--input", missing, "--tol", "nan"]) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err == "error: tol must be a finite number >= 0: nan\n", (command, err)


def test_gen_takes_no_tol(tmp_path, capsys):
    # gen reads no tolerance, so argparse refuses one
    for tol in ("1e-9", "nan"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--seed", "1", "--output", str(tmp_path / "g.json"), "--tol", tol])
        assert exc.value.code == cli.EXIT_INPUT
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_bad_beta_grid_exits_2(tmp_path, fixa, capsys):
    # refused before any arithmetic: nan slipped past `beta <= 0`, and
    # inf * v warned before the range check
    path = _dump(tmp_path, "fixa.json", fixa)
    for command in ("sweep", "ldp"):
        # 1 / beta, which scales every rescaled output, overflows below
        # about 5.56e-309
        for grid in ("nan", "inf", "10,nan", "-1", "0", ",", "1e-310", "10,1e-320"):
            assert cli.main([command, "--input", path, f"--grid={grid}"]) == cli.EXIT_INPUT, (command, grid)
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (command, grid, err)
    assert cli.main(["ldp", "--input", path, "--grid", "100,10"]) == 0  # any order
    assert json.loads(capsys.readouterr().out)["grid"] == [100.0, 10.0]
    assert cli.main(["sweep", "--input", path, "--grid", "1e-300"]) == 0
    assert capsys.readouterr().err == ""


def test_beta_guard_checked_before_input(tmp_path, fixa, capsys):
    # a beta above the overflow guard was refused only by the solve, after
    # the input was read, the report built and the betas before it solved;
    # with a missing input the error named the file
    fixa_path = _dump(tmp_path, "fixa.json", fixa)
    for path in (str(tmp_path / "nope.json"), fixa_path):
        for command in ("sweep", "ldp"):
            assert cli.main([command, "--input", path, "--grid", "10,3000"]) == cli.EXIT_INPUT
            assert capsys.readouterr() == ("", "error: beta 3000.0 exceeds the overflow guard 2000.0\n")
    assert cli.main(["sweep", "--input", fixa_path, "--grid", "2000"]) == cli.EXIT_OK
    capsys.readouterr()


def test_pressure_outside_bracket_exits_2(tmp_path, capsys):
    # at weights 1e17 (and 1e15) the two-cycle's rounding gave
    # pressure_over_beta = log 3 / 10 at beta 10, beyond Q + log 2 / 10; the
    # same system with 1 in place of 1e17 gives the true 0.0481220
    for scale in (1e17, 1e15):
        arcs = [(0, 1, scale), (1, 0, -scale), (0, 0, 0.0), (1, 1, -1.0)]
        path = _dump(tmp_path, "big.json", TransitionSystem(2, arcs))
        for command in ("sweep", "ldp"):
            assert cli.main([command, "--input", path]) == cli.EXIT_INPUT
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: pressure at beta 10 leaves its bracket"), err
            assert err.count("\n") == 1
    path = _dump(tmp_path, "one.json", TransitionSystem(2, [(0, 1, 1.0), (1, 0, -1.0), (0, 0, 0.0), (1, 1, -1.0)]))
    assert cli.main(["sweep", "--input", path]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].startswith("10,0.0481219")


def test_pressure_at_moderate_weight_scale_is_accepted(tmp_path, capsys):
    # rounding of beta * w moves P - beta * Q off its bracket by about
    # eps * beta * max|w|, which the check allows: the 3-cycles land
    # 7.6e-11 below and 4.7e-12 above their bracket [0, 0] at beta 1000 and
    # 100, gen seed 2 with weights x1e6 lands 9.3e-9 below [0, log 6] at
    # beta 10, and all three pressures are right to rounding
    cycle = TransitionSystem(3, [(0, 1, 1000.1), (1, 2, 999.7), (2, 0, 1000.3)])
    mixed = TransitionSystem(3, [(0, 1, 321.7), (1, 2, -876.3), (2, 0, 555.1)])
    gen = cli._gen_system(2, None, False)
    scaled = TransitionSystem(gen.n, [(a, b, w * 1e6 + 0.1) for a, b, w in gen.arcs])
    for name, sys_ in (("cycle", cycle), ("mixed", mixed), ("scaled", scaled)):
        path = _dump(tmp_path, f"{name}.json", sys_)
        for command in ("sweep", "ldp"):
            assert cli.main([command, "--input", path]) == cli.EXIT_OK, name
            out, err = capsys.readouterr()
            assert err == "" and out
    # on a single cycle P / beta is the cycle mean at every beta
    for sys_, mean in ((cycle, (1000.1 + 999.7 + 1000.3) / 3), (mixed, (321.7 - 876.3 + 555.1) / 3)):
        report = ergodic_report(sys_)
        for beta in zerotemp.DEFAULT_GRID:
            assert abs(zerotemp.sweep_record(sys_, beta, report).pressure_over_beta - mean) <= 1e-12 * 1000


def test_ldp_input_errors(tmp_path, fixa, two_loops, capsys):
    path = _dump(tmp_path, "fixa.json", fixa)
    long = "[" + "0, " * 5000 + "0"
    bad = (
        "[0, 5",
        "[0]",
        "[0, true]",
        long,  # unterminated
        long + "]",  # too many entries
        # non-finite entries: a float literal that overflows, and an
        # integer beyond float range
        "[1, 1e400]",
        "[1, " + "9" * 400 + "]",
    )
    for raw in bad:
        assert cli.main(["ldp", "--input", path, raw]) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert len(err) <= 200, err  # the observable's echo is clipped
    two = _dump(tmp_path, "two.json", two_loops)
    assert cli.main(["ldp", "--input", two]) == cli.EXIT_MULTICLASS
    capsys.readouterr()


def test_ldp_observable_overflow_exits_2(tmp_path, fixa, capsys):
    # beta * 1e308 printed Infinity residuals after a RuntimeWarning;
    # +-1e300 stays in range at every beta of the grid
    path = _dump(tmp_path, "fixa.json", fixa)
    assert cli.main(["ldp", "--input", path, "[1e308, 0]"]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: beta * f overflows float64") and err.count("\n") == 1
    assert cli.main(["ldp", "--input", path, "[1e300, -1e300]"]) == 0
    residuals = json.loads(capsys.readouterr().out)["residuals"]
    assert [row["values"] for row in residuals] == [[0.0]] * len(zerotemp.DEFAULT_GRID)


def test_ldp_seeded_probes(tmp_path, fixa, capsys):
    path = _dump(tmp_path, "fixa.json", fixa)
    assert cli.main(["ldp", "--input", path, "--seed", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["observables"]) == 10
    assert all(len(f) == 2 for f in data["observables"])


def test_oracle_fixa(tmp_path, fixa, capsys):
    path = _dump(tmp_path, "fixa.json", fixa)
    assert cli.main(["oracle", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["Q"]["deviation"] == 0.0
    assert data["phi"]["max_deviation"] == 0.0
    assert data["aubry"]["fast"] == [0]


def test_oracle_size_guard(tmp_path, capsys):
    big = str(tmp_path / "big.json")
    assert cli.main(["gen", "--seed", "2", "--output", big]) == 0
    n = system_from_json(json.loads(pathlib.Path(big).read_text())).n
    assert n == 11  # seed 2 draws past the oracle cap
    assert cli.main(["oracle", "--input", big]) == cli.EXIT_INPUT
    capsys.readouterr()


def test_oracle_mismatch_exit(tmp_path, fixa, capsys, monkeypatch):
    path = _dump(tmp_path, "fixa.json", fixa)
    monkeypatch.setattr(bruteforce, "enum_max_cycle_mean", lambda s: 1.0)
    assert cli.main(["oracle", "--input", path]) == cli.EXIT_ORACLE
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False


def test_format_guards(tmp_path, fixa):
    # each command writes one format, and there is no --format option:
    # argparse refuses it, the value a command writes included
    path = _dump(tmp_path, "fixa.json", fixa)
    for command, fmt in (("analyze", "csv"), ("analyze", "json"), ("sweep", "json"), ("sweep", "csv")):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--input", path, "--format", fmt])
        assert exc.value.code == 2, (command, fmt)
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--input", path, "--grid", "abc"])


def test_golden_analyze(tmp_path, fixa):
    path = _dump(tmp_path, "fixa.json", fixa)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--input", path, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "fixa_analyze.json").read_bytes()


def test_golden_sweep(tmp_path, fixa):
    path = _dump(tmp_path, "fixa.json", fixa)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--input", path, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "fixa_sweep.csv").read_bytes()


# Scalars the JSON writer must tell apart: signed zeros, floats equal to
# ints and bools, raw infinities and nan beside the "-inf"/"+inf"
# sentinels, strings that need escapes, and numpy floats.
_SCALARS = [
    0.0, -0.0, 1.0, -1.5, 0.1, 1e16, 1e-7, 5e-324, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan, "-inf", "+inf",
    0, 1, -7, 2**70, True, False, None,
    "", 'q"b\\s/\n\t\x00\x1f', "é ünï ☃ \U0001f600",
    np.float64(-0.0), np.float64(1.0), np.float64(3.25),
]
_FLOATS = [x for x in _SCALARS if isinstance(x, float)] + ["-inf", "+inf"]
_KEYS = ["", "a", "phi", "key with \"quotes\"", "ключ", "\u2028"]


def _random_payload(rng, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.25:
        return rng.choice(_SCALARS)
    container = rng.choice([list, list, tuple])
    if roll < 0.45:  # a list of scalars, floats mixed with everything else
        return container(rng.choice(_SCALARS) for _ in range(rng.randrange(9)))
    if roll < 0.65:  # a matrix: rows of floats and sentinels, now and then an int
        width = rng.randrange(1, 6)
        pool = _FLOATS + ([1, True, None] if rng.random() < 0.3 else [])
        return container(
            [rng.choice(pool) for _ in range(width if rng.random() < 0.8 else rng.randrange(6))]
            for _ in range(rng.randrange(1, 5))
        )
    if roll < 0.85:
        return {rng.choice(_KEYS) + str(k): _random_payload(rng, depth + 1) for k in range(rng.randrange(5))}
    return [_random_payload(rng, depth + 1) for _ in range(rng.randrange(5))]


def test_json_writer_matches_json_dumps(tmp_path, capsys):
    rng = random.Random(7)
    out = tmp_path / "out.json"
    for k in range(400):
        payload = _random_payload(rng)
        expected = json.dumps(payload, indent=2) + "\n"
        cli._write_json(str(out), payload)
        assert out.read_bytes() == expected.encode(), payload
        if k % 20 == 0:  # the stdout path writes the same pieces
            cli._write_json(None, payload)
            assert capsys.readouterr().out == expected
    with pytest.raises(TypeError):
        cli._write_json(str(out), [np.int64(1)])


def test_cli_json_files_equal_json_dumps(tmp_path, monkeypatch):
    payloads = []
    write_json = cli._write_json

    def recording(path, payload):
        payloads.append(payload)
        write_json(path, payload)

    monkeypatch.setattr(cli, "_write_json", recording)
    inputs = []
    for order in range(3, 8):
        sys_ = discretize_doubling(order, lambda t: math.cos(2 * math.pi * t))
        inputs.append(_dump(tmp_path, f"doubling{order}.json", sys_))
    out = tmp_path / "out.json"
    checked = 0
    for seed in (1, 2, 5, 17):
        for flags in ([], ["--deterministic"]):
            path = str(tmp_path / f"gen{seed}{len(flags)}.json")
            assert cli.main(["gen", "--seed", str(seed), *flags, "--output", path]) == 0
            assert pathlib.Path(path).read_bytes() == (json.dumps(payloads[-1], indent=2) + "\n").encode()
            inputs.append(path)
            checked += 1
    for path in inputs:
        n = system_from_json(json.loads(pathlib.Path(path).read_text())).n
        for command in ("analyze", "ldp", "oracle"):
            if command == "oracle" and n > cli.ORACLE_N_MAX:
                continue
            before = len(payloads)
            code = cli.main([command, "--input", path, "--output", str(out)])
            if len(payloads) == before:  # ldp refuses reducible and multi-class systems
                assert code in (cli.EXIT_INPUT, cli.EXIT_MULTICLASS)
                continue
            assert out.read_bytes() == (json.dumps(payloads[-1], indent=2) + "\n").encode()
            checked += 1
    assert checked == 37  # 8 gen, 13 analyze, 9 ldp and 7 oracle files


def test_json_writer_all_float_matrices(tmp_path):
    # matrices whose cells are all exactly float format each distinct bit
    # pattern once; one np.float64, int or str sends a matrix down the
    # plain path. The last matrix holds strings with a newline, a comma and
    # a space, so a writer that splits the encoded cells on any separator
    # such a string can contain fails it
    out = tmp_path / "out.json"
    matrices = [
        [[0.0, -0.0], [-0.0, 0.0]],
        [[math.inf, -math.inf, math.nan], [1.5, -0.0, 0.1]],
        [[1.0], [], [2.0, 3.0, 0.0, -0.0]],
        [[]],
        [[0.25, -1e300, 5e-324]] * 3,
        [[1.0, np.float64(-0.0)], [0.0, 2.0]],
        [[1.0, 2], [2.0, -0.0]],
        [[1.0, "a\nb", -0.0], ["x, y", 2.5, " "], [",", "\n", math.inf], ["a\n, b"]],
    ]
    for phi in matrices:
        payload = {"phi": phi, "row": phi[0]}
        cli._write_json(str(out), payload)
        assert out.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode(), phi
    with pytest.raises(TypeError):  # json.dumps would write the key as "1"
        cli._write_json(str(out), {1: [0.0]})


def test_analyze_doubling8_equals_json_dumps(tmp_path):
    sys_ = discretize_doubling(8, lambda t: math.cos(2 * math.pi * t))
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--input", _dump(tmp_path, "doubling8.json", sys_), "--output", str(out)]) == 0
    assert out.read_bytes() == (json.dumps(report_to_json(ergodic_report(sys_)), indent=2) + "\n").encode()
