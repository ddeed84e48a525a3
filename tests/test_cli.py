"""Command-line surface: exit codes, determinism, schemas, golden files."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import troptherm
import troptherm.cli as cli
import troptherm.zerotemp as zerotemp
from troptherm.dynamics import TransitionSystem, from_map, system_from_json, system_to_json
from troptherm.ergodic_opt import report_from_json
from troptherm.thermo import ConvergenceError

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
    report = report_from_json(data)  # round trip through the public schema
    assert report.mane.phi.to_floats() == [[0.0, -1.0], [-1.0, -2.0]]


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


def test_sweep_force_reports_stall(tmp_path, two_loops, monkeypatch):
    # a row whose solve hits the step cap goes out all-nan rather than as
    # a block mixture; the next beta starts cold and is reported
    solve = cli.sweep_record

    def stalled(sys_, beta, ref, **kwargs):
        if beta == 10.0:
            raise ConvergenceError("power iteration did not converge within 100000 steps")
        return solve(sys_, beta, ref, **kwargs)

    monkeypatch.setattr(cli, "sweep_record", stalled)
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


def test_cli_import_skips_networkx():
    src = pathlib.Path(troptherm.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = "import sys, troptherm.cli; assert 'networkx' not in sys.modules, 'networkx imported'"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_lost_critical_cycle_exits_2(tmp_path, capsys):
    # gen seed 10 with every weight moved by 1e9 or scaled by 1e6: rounding
    # at that scale exceeds the default tol, and no cycle stays critical
    base = cli._gen_system(10, None, False)
    src = pathlib.Path(troptherm.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
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


def test_bad_system_json_exits_2(tmp_path):
    # a non-array labels value, and an integer weight beyond float range
    src = pathlib.Path(troptherm.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    arcs = [[0, 0, 0.0], [0, 1, -1.0], [1, 0, -1.0], [1, 1, -3.0]]
    cases = {
        "labels_int": {"n": 2, "arcs": arcs, "labels": 5},
        "labels_str": {"n": 2, "arcs": arcs, "labels": "ab"},
        "huge_weight": {"n": 2, "arcs": arcs[:3] + [[1, 1, int("9" * 400)]]},
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


def test_ldp_input_errors(tmp_path, fixa, two_loops, capsys):
    path = _dump(tmp_path, "fixa.json", fixa)
    assert cli.main(["ldp", "--input", path, "[0, 5"]) == cli.EXIT_INPUT
    assert cli.main(["ldp", "--input", path, "[0]"]) == cli.EXIT_INPUT
    assert cli.main(["ldp", "--input", path, "[0, true]"]) == cli.EXIT_INPUT
    # non-finite entries: a float literal that overflows, and an integer
    # beyond float range
    assert cli.main(["ldp", "--input", path, "[1, 1e400]"]) == cli.EXIT_INPUT
    assert cli.main(["ldp", "--input", path, "[1, " + "9" * 400 + "]"]) == cli.EXIT_INPUT
    two = _dump(tmp_path, "two.json", two_loops)
    assert cli.main(["ldp", "--input", two]) == cli.EXIT_MULTICLASS
    capsys.readouterr()


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
    monkeypatch.setattr(cli, "enum_max_cycle_mean", lambda s: 1.0)
    assert cli.main(["oracle", "--input", path]) == cli.EXIT_ORACLE
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False


def test_format_guards(tmp_path, fixa):
    path = _dump(tmp_path, "fixa.json", fixa)
    assert cli.main(["analyze", "--input", path, "--format", "csv"]) == cli.EXIT_INPUT
    assert cli.main(["sweep", "--input", path, "--format", "json"]) == cli.EXIT_INPUT
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
