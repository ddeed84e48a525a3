"""Per-layer spans and work counts for in-process passes.

For the length of one traced pass the program's public functions are
rebound, in every ``troptherm`` module that holds a reference to them,
to wrappers that time each call; ``TropValue`` and ``TropMatrix``
construction and ``TransitionSystem.to_matrix`` are wrapped the same
way.  A span's self time is its duration minus the time its child spans
cover, so the self times of one pass add up to the pass.  Nothing in
``src/`` changes, and the originals are restored when the pass ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Optional

# (module, function) pairs that get a span named "<module>.<function>".
SPANS = (
    ("dynamics", "system_from_json"),
    ("ergodic_opt", "max_potential_energy"),
    ("ergodic_opt", "mane_potential"),
    ("ergodic_opt", "ergodic_report"),
    ("ergodic_opt", "report_to_json"),
    ("thermo", "spectral_data"),
    ("zerotemp", "beta_sweep"),
    ("zerotemp", "limit_diagnostics"),
    ("zerotemp", "rate_function"),
    ("zerotemp", "ldp_residual"),
)
ROOT = "cli"
BETA_BUCKETS = (10.0, 100.0, 1000.0)


class Trace:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.solves = set()
        self._stack = []

    def span(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span; observe(args, kwargs, result or None) runs after it."""
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                self_s[name] += dur - covered[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if observe is not None:
                    observe(args, kwargs, result)

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind the program's functions to span wrappers for one pass."""
        from troptherm.dynamics import TransitionSystem
        from troptherm.maxplus_linalg import TropMatrix
        from troptherm.tropical_core import TropValue

        # cli imports every module, so all references exist before the scan
        importlib.import_module("troptherm.cli")
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "troptherm" and m]
        patches = []

        def patch(owner, attr, new):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for mod_name, fn_name in SPANS:
            orig = getattr(importlib.import_module(f"troptherm.{mod_name}"), fn_name)
            observe = self._observe_spectral(orig) if fn_name == "spectral_data" else None
            wrapped = self.span(f"{mod_name}.{fn_name}", orig, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        patch(mod, attr, wrapped)
        patch(TransitionSystem, "to_matrix", self.span("dynamics.to_matrix", TransitionSystem.to_matrix))

        counts = self.counts
        value_init = TropValue.__init__
        matrix_init = TropMatrix.__init__

        def counted_value(obj, value):
            counts["tropical_core.trop_values"] += 1
            value_init(obj, value)

        def counted_matrix(obj, rows):
            matrix_init(obj, rows)
            counts["maxplus_linalg.trop_matrix.cells"] += obj.n * obj.n

        patch(TropValue, "__init__", counted_value)
        patch(TropMatrix, "__init__", counted_matrix)
        try:
            yield
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    def _observe_spectral(self, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        counts, solves = self.counts, self.solves

        def observe(args, kwargs, data):
            bound = signature.bind(*args, **kwargs).arguments
            system, beta = bound["sys"], float(bound["beta"])
            solves.add((system.n, system.arcs, beta))
            if data is None:
                counts["thermo.spectral_data.failed"] += 1
                return
            counts["thermo.iterations"] += data.iterations
            if beta in BETA_BUCKETS:
                counts[f"thermo.iterations.b{beta:g}"] += data.iterations

        return observe

    def exact_counts(self) -> Dict[str, int]:
        """Every count that must repeat exactly between traced passes."""
        out = dict(self.counts)
        out.update({f"{name}.calls": n for name, n in self.calls.items()})
        out["thermo.distinct_solves"] = len(self.solves)
        return out


def layer_metrics(trace: Trace) -> Dict[str, float]:
    """The per-layer metrics of one traced pass; layers that did not run read 0."""
    s, c = trace.self_s, trace.counts
    calls = trace.calls["thermo.spectral_data"]
    iterations = c["thermo.iterations"]
    out = {"cli.self_s": s[ROOT]}
    for mod_name, fn_name in SPANS:
        out[f"{mod_name}.{fn_name}_s"] = s[f"{mod_name}.{fn_name}"]
    out.update(
        {
            "dynamics.to_matrix_s": s["dynamics.to_matrix"],
            "dynamics.to_matrix.calls": trace.calls["dynamics.to_matrix"],
            "tropical_core.trop_values": c["tropical_core.trop_values"],
            "maxplus_linalg.trop_matrix.cells": c["maxplus_linalg.trop_matrix.cells"],
            "thermo.spectral_data.calls": calls,
            "thermo.spectral_data.failed": c["thermo.spectral_data.failed"],
            "thermo.iterations": iterations,
            "thermo.s_per_iteration": s["thermo.spectral_data"] / iterations if iterations else 0.0,
            "thermo.solve_reuse": len(trace.solves) / calls if calls else 0.0,
            "zerotemp.ldp_residual.calls": trace.calls["zerotemp.ldp_residual"],
        }
    )
    for beta in BETA_BUCKETS:
        out[f"thermo.iterations.b{beta:g}"] = c[f"thermo.iterations.b{beta:g}"]
    return out
