#!/usr/bin/env python3
"""troptherm benchmark: CLI workloads timed end to end, and a traced
in-process run for per-layer numbers.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

With --trace 0 the workload's CLI invocations run as subprocesses, one at
a time (a closed loop with one client), pass after pass for --seconds
seconds.  With --trace 1 the same invocations run through
troptherm.cli.main inside this process, alternating untraced passes and
passes with the spans of tracing.py installed.  Every output is checked
by checks.py.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it lists the
samples, the sha256 of every input file and any failures.  Workloads,
metrics and the reasons for them are in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("analyze-doubling", "sweep")
GEN_N = 12
GEN_SEED_LIMIT = 64
DOUBLING_ORDERS = (6, 7, 8)
SWEEP_DOUBLING_ORDER = 7
GEN_SYSTEMS = 6
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 60.0
IMPORT_CLI = "import troptherm.cli"
IMPORT_REFERENCE = "import numpy, networkx"
REFERENCE_S = 0.35
CLI = [sys.executable, "-m", "troptherm.cli"]


class SetupError(Exception):
    """The inputs could not be built or do not match the recorded ones."""


@dataclass
class Invocation:
    label: str
    argv: List[str]
    output: Path
    check: Callable[[Path], None]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, label: str, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures.append(f"{label}: {error}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def doubling_input(order: int, work: Path) -> Tuple[Path, dict]:
    """discretize_doubling(order, cos 2πt), written as system JSON."""
    from troptherm.dynamics import discretize_doubling, system_to_json

    data = system_to_json(discretize_doubling(order, lambda t: math.cos(2 * math.pi * t)))
    path = work / f"doubling{order}.json"
    path.write_text(json.dumps(data))
    return path, data


def gen_system(seed: int, path: Path) -> dict:
    """`troptherm gen --seed <seed> --n 12`, through the CLI entry point."""
    from troptherm.cli import main

    code = main(["gen", "--seed", str(seed), "--n", str(GEN_N), "--output", str(path)])
    if code != 0:
        raise SetupError(f"gen --seed {seed} exited {code}")
    return json.loads(path.read_text())


def unique_gen_systems(count: int, work: Path):
    """The first `count` uniquely calibrated gen systems, scanning gen seeds from 0.

    Yields (gen seed, path, system JSON, oracle Q).  Each scanned system's
    `analyze` report must agree with the brute-force oracle on Q, the
    Aubry set and the critical classes.
    """
    from troptherm.cli import main
    from troptherm.dynamics import system_from_json

    found = 0
    for k in range(GEN_SEED_LIMIT):
        path = work / f"gen{k}.json"
        data = gen_system(k, path)
        q, aubry, classes = checks.oracle(system_from_json(data))
        report_path = work / f"gen{k}.analyze.json"
        code = main(["analyze", "--input", str(path), "--output", str(report_path)])
        if code != 0:
            raise SetupError(f"analyze of gen seed {k} exited {code}")
        try:
            checks.check_analyze_tropical(json.loads(report_path.read_text()), q, aubry, classes)
        except checks.CheckError as exc:
            raise SetupError(f"analyze of gen seed {k} disagrees with the oracle: {exc}") from None
        if len(classes) == 1:
            yield k, path, data, q
            found += 1
            if found == count:
                return
    raise SetupError(f"fewer than {count} uniquely calibrated gen systems below seed {GEN_SEED_LIMIT}")


def recorded(ref: dict, key: str, path: Path) -> dict:
    """The reference entry for an input, which must be byte-identical to the recorded one."""
    entry = ref.get(key)
    if entry is None:
        raise SetupError(f"no reference recorded for {key}")
    if sha256(path) != entry["sha256"]:
        raise SetupError(f"{key}: input differs from the recorded one, reference values do not apply")
    return entry


def invocation(command: str, label: str, path: Path, data: dict, entry: dict, q: float,
               probe_seed: int, work: Path) -> Invocation:
    """One CLI call on one input file, with the check of its output."""
    out = work / f"{path.stem}.{command}.out"
    seed_args = [] if command == "analyze" else ["--seed", str(probe_seed)]

    def check(out_path: Path) -> None:
        text = out_path.read_text()
        if command == "analyze":
            checks.check_analyze_doubling(json.loads(text), data, entry)
        else:
            checks.check_sweep(text, q, checks.max_in_degree(data), probe_seed, entry)

    argv = [command, "--input", str(path), *seed_args, "--output", str(out)]
    return Invocation(f"{command} {label}", argv, out, check)


def build_workload(name: str, seed: int, work: Path, ref: dict) -> List[Invocation]:
    systems = []  # (label, path, system JSON, reference entry, Q)
    if name == "sweep":
        for k, path, data, q in unique_gen_systems(GEN_SYSTEMS, work):
            systems.append((f"gen seed {k}", path, data, recorded(ref["gen"], str(k), path), q))
    for order in DOUBLING_ORDERS if name == "analyze-doubling" else (SWEEP_DOUBLING_ORDER,):
        path, data = doubling_input(order, work)
        # Q = 1 in closed form: cos 2πt peaks at the fixed point t = 0
        systems.append((f"order {order}", path, data, recorded(ref["doubling"], str(order), path), 1.0))
    command = name.split("-")[0]
    probe_seed = seed % 2**32  # numpy takes only non-negative seeds
    return [invocation(command, *system, probe_seed, work) for system in systems]


def output_error(inv: Invocation) -> Optional[str]:
    """None when the invocation's output passes its check."""
    try:
        inv.check(inv.output)
    except Exception as exc:  # any malformed output is a failed invocation
        return f"{type(exc).__name__}: {exc}"
    return None


def run_child(cmd: List[str], env: dict, stderr_path: Path) -> Tuple[float, int, Optional[str]]:
    """Wall seconds, peak RSS in KiB and error (or None) of one subprocess."""
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        # a blocking wait4 returns the moment the child exits (Popen.wait with
        # a timeout polls in steps of up to 50 ms); Popen.kill is a no-op once
        # the child has been reaped
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = stderr_path.read_text()
    if elapsed >= CHILD_TIMEOUT_S:
        error = f"timeout after {CHILD_TIMEOUT_S:g} s"
    elif "Traceback" in stderr:
        error = "traceback: " + stderr.strip().splitlines()[-1]
    elif proc.returncode != 0:
        error = f"exit {proc.returncode}: {stderr.strip()}"
    else:
        error = None
    return elapsed, usage.ru_maxrss, error


def subprocess_pass(invs: List[Invocation], env: dict, work: Path, tally: Tally):
    """One pass over the invocations as subprocesses.

    Returns the summed wall time of the invocations (checks run between
    them and are not timed), the slowest invocation, the highest peak RSS
    in KiB, and each invocation's time.
    """
    times, peak = [], 0
    for inv in invs:
        inv.output.unlink(missing_ok=True)
        elapsed, rss_kib, error = run_child(CLI + inv.argv, env, work / "stderr.txt")
        tally.record(inv.label, error if error is not None else output_error(inv))
        times.append(elapsed)
        peak = max(peak, rss_kib)
    return sum(times), max(times), peak, times


def inprocess_pass(invs: List[Invocation], tally: Tally, trace: Optional[tracing.Trace] = None) -> float:
    """One pass through troptherm.cli.main in this process; summed call time."""
    import troptherm.cli as cli

    main = cli.main if trace is None else trace.span(tracing.ROOT, cli.main)
    total = 0.0
    for inv in invs:
        inv.output.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = main(inv.argv)
            error = None if code == 0 else f"exit {code}"
        except (Exception, SystemExit):
            error = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        total += time.perf_counter() - start
        tally.record(inv.label, error if error is not None else output_error(inv))
    return total


def setup_sample(env: dict, work: Path) -> float:
    """Fresh-process wall time of `import troptherm.cli`."""
    elapsed, _, error = run_child([sys.executable, "-c", IMPORT_CLI], env, work / "stderr.txt")
    if error is not None:
        raise SetupError(f"{IMPORT_CLI} failed: {error}")
    return elapsed


def import_times(env: dict) -> Tuple[float, float]:
    """Cumulative import seconds of troptherm.cli and of networkx, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT_CLI],
        env=env, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    cumulative: Dict[str, float] = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return cumulative["troptherm.cli"], cumulative.get("networkx", 0.0)


def tail_percentile(samples: List[float]) -> Optional[List[float]]:
    """[p, value] for the highest whole percentile with at least ten samples
    above it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return [p, sorted(samples)[math.ceil(p * n / 100) - 1]]


def reference_sample(env: dict, work: Path) -> float:
    """Fresh-process wall time of importing numpy and networkx: start-up
    work that no change to troptherm touches."""
    elapsed, _, error = run_child([sys.executable, "-c", IMPORT_REFERENCE], env, work / "stderr.txt")
    if error is not None:
        raise SetupError(f"{IMPORT_REFERENCE} failed: {error}")
    return elapsed


def timed_run(invs: List[Invocation], seconds: float, env: dict, work: Path, tally: Tally):
    """After one warm-up start that fills the bytecode cache, a reference
    sample, a set-up sample and a pass in turn until --seconds have
    passed, so that all three medians cover the same stretch of time."""
    setup_sample(env, work)
    reference, setup, passes = [], [], []
    start = time.perf_counter()
    while len(setup) < SETUP_SAMPLES or time.perf_counter() - start < seconds:
        reference.append(reference_sample(env, work))
        setup.append(setup_sample(env, work))
        if not passes or time.perf_counter() - start < seconds:
            passes.append(subprocess_pass(invs, env, work, tally))
    pass_s = [p[0] for p in passes]
    wall = {
        "pass_s": statistics.median(pass_s),
        "max_invocation_s": statistics.median(p[1] for p in passes),
        "setup_s": statistics.median(setup),
    }
    # The box's speed drifts by up to 2x over minutes, and the reference
    # start-up drifts with it; times are reported at the speed at which
    # it takes REFERENCE_S (bench/README.md, "Noise on the measuring machine").
    scale = REFERENCE_S / statistics.median(reference)
    metrics = {name: value * scale for name, value in wall.items()}
    metrics["peak_rss_mb"] = max(p[2] for p in passes) / 1024
    metrics["ok_frac"] = 1 - tally.failed / tally.attempted
    detail = {
        "passes": len(passes),
        "wall": wall,
        "scale": scale,
        "pass_s": pass_s,
        "pass_s_tail_percentile": tail_percentile(pass_s),
        "invocation_s": {inv.label: [p[3][i] for p in passes] for i, inv in enumerate(invs)},
        "setup_s": setup,
        "reference_s": reference,
    }
    return metrics, detail, True


def traced_run(invs: List[Invocation], seconds: float, env: dict, work: Path, tally: Tally):
    """An untraced in-process pass, two traced passes, then untraced and
    traced passes in turn until --seconds have passed."""
    imports = [import_times(env) for _ in range(IMPORT_SAMPLES)]
    traces: List[tracing.Trace] = []
    traced_s: List[float] = []
    plain_s: List[float] = []
    start = time.perf_counter()
    while len(traces) < 2 or time.perf_counter() - start < seconds:
        if not plain_s or (len(traces) >= 2 and len(plain_s) < len(traces)):
            plain_s.append(inprocess_pass(invs, tally))
            continue
        trace = tracing.Trace()
        with trace.installed():
            traced_s.append(inprocess_pass(invs, tally, trace))
        traces.append(trace)
    counts = [t.exact_counts() for t in traces]
    agree = all(c == counts[0] for c in counts)
    if not agree:
        print(f"error: traced passes disagree on exact counts: {counts}", file=sys.stderr)
    per_pass = [tracing.layer_metrics(t) for t in traces]
    # counts are ints and agree between passes; times are medians
    metrics = {
        name: value if isinstance(value, int) else statistics.median(m[name] for m in per_pass)
        for name, value in per_pass[0].items()
    }
    metrics.update(
        {
            "cli.import_s": statistics.median(i[0] for i in imports),
            "cli.import.networkx_s": statistics.median(i[1] for i in imports),
            "trace.pass_s": statistics.median(traced_s),
            "trace.overhead_frac": statistics.median(traced_s) / statistics.median(plain_s) - 1,
        }
    )
    detail = {"traced_pass_s": traced_s, "untraced_pass_s": plain_s, "exact_counts": counts[0]}
    return metrics, detail, agree


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "troptherm" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of a troptherm checkout (src/troptherm and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    ref = json.loads((BENCH_DIR / "reference.json").read_text())

    sys.path.insert(0, str(src))
    import troptherm

    if Path(troptherm.__file__).resolve().parent != (src / "troptherm").resolve():
        print(f"error: imported troptherm from {troptherm.__file__}, not from {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)

    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_work"))
    try:
        try:
            invs = build_workload(args.workload, args.seed, work, ref)
            inputs = {Path(inv.argv[2]).name: sha256(Path(inv.argv[2])) for inv in invs}
            tally = Tally()
            run = traced_run if args.trace else timed_run
            metrics, detail, consistent = run(invs, args.seconds, env, work, tally)
        except SetupError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "inputs": inputs,
            "failures": tally.failures[:10],
        }
    )
    for failure in tally.failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(detail))
    result = {
        "correct": consistent and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
