"""Max-plus (tropical) thermodynamic formalism on finite transition systems.

Layers, bottom up: the scalar semiring, whose vectors are read-only
float64 arrays with IEEE ±inf (tropical_core), densities and functionals
(tropical_measures), the max-plus tropical pass (maxplus_linalg),
weighted transition systems with the Bousch operator and its adjoint
(dynamics), ergodic optimization (ergodic_opt, the one front end to the
tropical pass), the classical Ruelle side (thermo), and zero-temperature
diagnostics (zerotemp). The cli module exposes all of it as batch
commands.
"""

from .tropical_core import (
    NEG_INF,
    POS_INF,
    TropValue,
    residual,
    t_add,
    t_mul,
)
from .tropical_measures import Density, TropicalFunctional
from .maxplus_linalg import TropMatrix
from .dynamics import PathRecord, TransitionSystem

__all__ = [
    "NEG_INF",
    "POS_INF",
    "TropValue",
    "residual",
    "t_add",
    "t_mul",
    "Density",
    "TropicalFunctional",
    "TropMatrix",
    "PathRecord",
    "TransitionSystem",
]

__version__ = "0.1.0"
