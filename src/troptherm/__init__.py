"""Max-plus (tropical) thermodynamic formalism on finite transition systems.

Layers, bottom up: the scalar semiring, whose vectors are read-only
float64 arrays and whose scalars are floats, both with IEEE ±inf
(tropical_core), densities with their measures, integrals and
functionals (tropical_measures), the max-plus primitives of the one
eager tropical pass (maxplus_linalg: Karp, the Kleene closure, Tarjan,
the critical-cycle BFS), weighted transition systems with the Bousch
operator and its adjoint (dynamics), ergodic optimization (ergodic_opt,
whose ergodic_report runs that pass and returns its one record, the
Mañé data with the input system, that every consumer shares), the classical
Ruelle side (thermo), and zero-temperature diagnostics (zerotemp). The
cli module exposes all of it as batch commands, and bruteforce holds
the independent reference computations. Reports are written, not read.
Beyond what the commands reach, the library keeps only the paper's
entry points (see the README's "Library surface"). TropMatrix,
TransitionSystem.to_matrix, max_potential_energy and mane_potential
stay only until the benchmark stops rebinding them by name. TropValue,
which it also rebinds, is with t_add, t_mul, NEG_INF and POS_INF the
scalar reference the tests compare the array layer against.

The package itself imports nothing: each name is imported from the
module that defines it (``from troptherm.dynamics import
TransitionSystem``), so that ``python -m troptherm.cli`` reaches the cli
module before numpy loads, and each command loads only the modules it
runs.
"""

__version__ = "0.1.0"
