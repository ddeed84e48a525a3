"""Max-plus (tropical) thermodynamic formalism on finite transition systems.

Layers, bottom up: the scalar semiring, whose vectors are read-only
float64 arrays and whose scalars are floats, both with IEEE ±inf
(tropical_core), densities with their measures, integrals and
functionals (tropical_measures), the one eager tropical pass
(maxplus_linalg: Karp, one Kleene closure, and the record read off it),
weighted transition systems with the Bousch operator and its adjoint
(dynamics), ergodic optimization (ergodic_opt, whose ergodic_report
holds that record, the Mañé data, with its input system in the report
every consumer shares), the classical
Ruelle side (thermo), and zero-temperature diagnostics (zerotemp). The
cli module exposes all of it as batch commands, and bruteforce holds
the independent reference computations. Reports are written, not read.
Beyond what the commands reach, the library keeps only the paper's
entry points (see the README's "Library surface"). TropMatrix,
TransitionSystem.to_matrix, max_potential_energy and mane_potential
stay only until the benchmark stops rebinding them by name. TropValue,
which it also rebinds, is with t_add, t_mul, NEG_INF and POS_INF the
scalar reference the tests compare the array layer against.
"""

from .tropical_core import (
    NEG_INF,
    POS_INF,
    TropValue,
    residual,
    t_add,
    t_mul,
)
from .tropical_measures import Density
from .maxplus_linalg import TropMatrix
from .dynamics import TransitionSystem

__all__ = [
    "NEG_INF",
    "POS_INF",
    "TropValue",
    "residual",
    "t_add",
    "t_mul",
    "Density",
    "TropMatrix",
    "TransitionSystem",
]

__version__ = "0.1.0"
