"""The library surface: every function and method of a troptherm module is
either entered by a command or on the documented list below.

A fixed set of cli.main calls, covering every command, --force, --strict,
seeded and explicit observables and the refusals, runs under
sys.setprofile; a function that none of them enters and that the list
does not name fails the test. What only tests used has left the library:
checks of the fast path's own outputs live in tests/helpers.py, and
reference computations in bruteforce. An ast scan also fails on any
unused import in a library or test module.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import troptherm
import troptherm.cli as cli

# The paper's objects as a library: entry points no command calls.
PAPER_ENTRY_POINTS = {
    "dynamics.discretize_doubling",
    "dynamics.from_sft",
    "dynamics.bousch_apply",
    "dynamics.adjoint_apply",
    "dynamics.birkhoff_sum",
    "tropical_measures.is_invariant",
    "tropical_measures.is_ergodic",
    "tropical_measures.tropical_integral",
    "tropical_measures.functional_eval",
    "tropical_measures.measure_of",
    "tropical_core.residual",
    "tropical_measures.Density.top",
}
# What only the entry points call.
ENTRY_POINT_HELPERS = {
    "tropical_measures._states",  # measure_of, tropical_integral
    "tropical_measures.Density.is_top",  # adjoint_apply
    "dynamics.TransitionSystem.deterministic",  # is_invariant, is_ergodic
    "dynamics.TransitionSystem.arc_weight",  # birkhoff_sum
}
# The oracle: the `oracle` command reaches part of it, the tests the rest.
ORACLE = {"bruteforce"}
# bench/tracing.py rebinds these by name (ROADMAP item 5), with what only
# they call.
BENCH_HELD = {
    "tropical_core.TropValue",
    "maxplus_linalg.TropMatrix",
    "maxplus_linalg._weight_array",  # TropMatrix
    "dynamics.TransitionSystem.to_matrix",
    "ergodic_opt.max_potential_energy",
    "ergodic_opt.mane_potential",
    "thermo.SpectralData.spectral",  # bench/record.py reads it off beta_sweep's solves
}
# The scalar reference that tests/test_tropical_core.py and acceptance 5
# compare the array layer against, with TropValue, NEG_INF and POS_INF;
# the benchmark does not rebind these.
SCALAR_REFERENCE = {
    "tropical_core.t_add",
    "tropical_core.t_mul",
}
# The process entry: the console script and `python -m troptherm.cli` run
# it, while the reach pass calls main in this process.
PROCESS_ENTRY = {"cli.entry"}
DOCUMENTED = PAPER_ENTRY_POINTS | ENTRY_POINT_HELPERS | ORACLE | BENCH_HELD | SCALAR_REFERENCE | PROCESS_ENTRY

UNIQUE = {"n": 2, "arcs": [[0, 0, 0.0], [0, 1, -1.0], [1, 0, -1.0], [1, 1, -3.0]]}
TWO_CLASSES = {"n": 2, "arcs": [[0, 0, 0.0], [0, 1, -2.0], [1, 0, -1.0], [1, 1, 0.0]]}
REDUCIBLE = {"n": 2, "arcs": [[0, 0, 0.0], [0, 1, 0.0], [1, 1, -1.0]]}
NOT_SURJECTIVE = {"n": 2, "arcs": [[0, 0, 0.0], [1, 0, 0.0]]}
ACYCLIC = {"n": 2, "arcs": [[0, 1, 0.0]]}


def _library_functions():
    """{"module.qualname": code} for every function, method and property
    getter defined in a troptherm module."""
    out = {}
    for info in pkgutil.iter_modules(troptherm.__path__):
        module = importlib.import_module(f"troptherm.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                fn = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                if inspect.isfunction(fn):
                    out[f"{info.name}.{fn.__qualname__}"] = fn.__code__
    return out


def _documented(name):
    parts = name.split(".")
    if parts[-1].startswith("__") and parts[-1].endswith("__"):
        return True
    return any(".".join(parts[:k]) in DOCUMENTED for k in range(1, len(parts) + 1))


def _runs(tmp_path):
    """(argv, expected exit code) for each call of the reach pass."""
    paths = {}
    for name, data in (
        ("unique", UNIQUE),
        ("two", TWO_CLASSES),
        ("reducible", REDUCIBLE),
        ("surj", NOT_SURJECTIVE),
        ("acyclic", ACYCLIC),
    ):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    gen, perm = str(tmp_path / "gen.json"), str(tmp_path / "perm.json")
    out = str(tmp_path / "out")
    return [
        (["gen", "--seed", "3", "--n", "5", "--output", gen], cli.EXIT_OK),
        (["gen", "--seed", "3", "--n", "5", "--deterministic", "--output", perm], cli.EXIT_OK),
        (["gen", "--n", "13"], cli.EXIT_INPUT),
        (["analyze", "--input", gen, "--strict", "--output", out], cli.EXIT_OK),
        (["analyze", "--input", paths["surj"], "--strict"], cli.EXIT_ASSUMPTION),
        (["analyze", "--input", paths["acyclic"]], cli.EXIT_INPUT),
        (["sweep", "--input", gen, "--seed", "1", "--output", out], cli.EXIT_OK),
        (["sweep", "--input", paths["two"]], cli.EXIT_MULTICLASS),
        (["sweep", "--input", paths["two"], "--force", "--grid", "10,100", "--output", out], cli.EXIT_OK),
        (["sweep", "--input", paths["reducible"]], cli.EXIT_INPUT),
        (["sweep", "--input", gen, "--grid", "100,10"], cli.EXIT_INPUT),
        (["ldp", "--input", paths["unique"], "--grid", "100,10", "--output", out], cli.EXIT_OK),
        (["ldp", "--input", paths["unique"], "[0, 5]", "[1, -1]", "--output", out], cli.EXIT_OK),
        (["ldp", "--input", paths["unique"], "[0, 5"], cli.EXIT_INPUT),
        (["ldp", "--input", paths["unique"], "[0, 5, 1]"], cli.EXIT_INPUT),
        (["ldp", "--input", paths["two"]], cli.EXIT_MULTICLASS),
        (["oracle", "--input", gen, "--output", out], cli.EXIT_OK),
        (["oracle", "--input", perm, "--tol", "1e-12", "--output", out], cli.EXIT_OK),
    ]


def test_every_library_function_is_reached_or_documented(tmp_path, capsys):
    runs = _runs(tmp_path)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in runs:
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [code for _, code in runs]

    functions = _library_functions()
    unreached = sorted(
        name for name, code in functions.items() if code not in entered and not _documented(name)
    )
    assert not unreached, f"neither reached by a command nor documented: {unreached}"


def test_documented_names_exist():
    # a stale entry would hide a new function of the same name
    functions = _library_functions()
    for entry in DOCUMENTED:
        assert any(name == entry or name.startswith(entry + ".") for name in functions), entry


def _unused_imports(path):
    """"file:line name" for each name an import binds that the module
    never uses; names listed in __all__ and names in string annotations
    count as used."""
    tree = ast.parse(path.read_text(), str(path))
    imported, used, annotations = {}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    tests = Path(__file__).parent
    paths = sorted(Path(troptherm.__file__).parent.glob("*.py")) + sorted(tests.glob("*.py"))
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert not unused, f"unused imports: {unused}"
