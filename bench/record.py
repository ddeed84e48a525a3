#!/usr/bin/env python3
"""Record bench/reference.json, the values the benchmark checks outputs against.

Run from the root of a checkout:

    python3 bench/record.py

Record only at a commit whose outputs are known to be right: every later
run of the benchmark compares the program with these numbers within
1e-9.  The file in the repository was recorded at the seed commit.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run


def rate_entry(rate) -> dict:
    data = rate.to_json()
    return {"rate": data["values"], "eigenfunction": data["eigenfunction"], "density": data["density"]}


def sweep_entry(path: Path, data: dict, work: Path) -> dict:
    """The CLI's sweep diagnostics, plus the equilibrium states and rate
    function its LDP residuals are computed from."""
    from troptherm.cli import main
    from troptherm.dynamics import system_from_json
    from troptherm.ergodic_opt import ergodic_report
    from troptherm.zerotemp import beta_sweep, rate_function

    out = work / "sweep.csv"
    if main(["sweep", "--input", str(path), "--output", str(out)]) != 0:
        raise SystemExit(f"sweep of {path.name} failed")
    rows = [[float(x) for x in line.split(",")[:6]] for line in out.read_text().splitlines()[1:]]
    system = system_from_json(data)
    report = ergodic_report(system)
    records = beta_sweep(system, checks.GRID, report=report)
    return {
        "sweep_rows": rows,
        "sweep_log_mu": [rec.spectral.log_mu.tolist() for rec in records],
        **rate_entry(rate_function(system, report=report)),
    }


def analyze_entry(data: dict) -> dict:
    from troptherm.dynamics import system_from_json
    from troptherm.ergodic_opt import ergodic_report, report_to_json

    report = report_to_json(ergodic_report(system_from_json(data)))
    phi = np.array([[float(x) for x in row] for row in report["mane"]["phi"]])
    finite = np.isfinite(phi)
    grid = np.where(finite, phi, 0.0)
    return {
        "phi_neg_inf": int(phi.size - finite.sum()),
        "phi_row_sums": grid.sum(axis=1).tolist(),
        "phi_col_sums": grid.sum(axis=0).tolist(),
        "eigenfunction": report["eigenfunction_basis"][0],
        "eigen_density": report["eigen_density_basis"][0],
    }


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=root / ".bench_work"))
    ref = {"doubling": {}, "gen": {}}
    try:
        for order in run.DOUBLING_ORDERS:
            path, data = run.doubling_input(order, work)
            entry = {"sha256": run.sha256(path), **analyze_entry(data)}
            if order == run.SWEEP_DOUBLING_ORDER:
                entry.update(sweep_entry(path, data, work))
            ref["doubling"][str(order)] = entry
        for k, path, data, _q in run.unique_gen_systems(run.GEN_SYSTEMS, work):
            ref["gen"][str(k)] = {"sha256": run.sha256(path), **sweep_entry(path, data, work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
