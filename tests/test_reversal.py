"""Arc reversal: the finite form of the paper's correspondence between the
tropical adjoint L_A^⊛ and the Ruelle adjoint R_A^*.

The transposed system A^T has every arc s -> t of A turned into t -> s,
with the same weight. Its forward operators are the adjoints of A: the
Bousch operator of A^T is adjoint_apply on A, and the Ruelle right vector
of A^T is the left vector of A. So reversal keeps Q, the Aubry set, the
classes, the pressure and the equilibrium state, transposes phi, and
swaps eigenfunctions with eigen-densities and log u with log m.
"""

import math

import numpy as np

from troptherm.cli import _gen_system
from troptherm.dynamics import TransitionSystem, adjoint_apply, bousch_apply, discretize_doubling
from troptherm.ergodic_opt import ergodic_report
from troptherm.thermo import spectral_data
from troptherm.tropical_measures import Density

from helpers import assert_close

TOL = 1e-12


def _systems():
    # gen seeds 0-49 at --n 12 in both flavours, then doubling orders 3-6
    for seed in range(50):
        for deterministic in (False, True):
            yield _gen_system(seed, 12, deterministic)
    for order in range(3, 7):
        yield discretize_doubling(order, lambda t: math.cos(2 * math.pi * t))


def _transpose(sys: TransitionSystem) -> TransitionSystem:
    return TransitionSystem(sys.n, [(t, s, w) for s, t, w in sys.arcs], sys.labels)


def test_reversal_keeps_the_tropical_data():
    count = 0
    for sys in _systems():
        rep, rev = ergodic_report(sys), ergodic_report(_transpose(sys))
        assert rev.Q == rep.Q  # bit for bit
        assert rev.aubry == rep.aubry
        assert rev.critical_classes == rep.critical_classes
        assert_close(rev.phi, rep.phi.T, TOL)
        # eigenfunctions of A^T are eigen-densities of A, and the reverse
        for v, b in zip(rev.eigenfunction_basis, rep.eigen_density_basis):
            assert_close(v, b.values, TOL)
        for b, v in zip(rev.eigen_density_basis, rep.eigenfunction_basis):
            assert_close(b.values, v, TOL)
        count += 1
    assert count == 104


def test_adjoint_is_the_bousch_operator_of_the_reversed_arcs():
    rng = np.random.default_rng(24)
    for sys in _systems():
        values = rng.uniform(-50, 50, sys.n)
        values[rng.random(sys.n) < 0.2] = -math.inf
        b = Density(values)
        got = adjoint_apply(sys, b).values
        assert got.tobytes() == bousch_apply(_transpose(sys), b.values).tobytes()


def test_reversal_swaps_the_ruelle_vectors():
    # irreducible systems with one critical class, where the solve starts
    # from the one limit pair of each side
    count = 0
    for sys in _systems():
        rep = ergodic_report(sys)
        if not (np.isfinite(rep.phi).all() and rep.uniquely_calibrated):
            continue
        rev_sys = _transpose(sys)
        rev = ergodic_report(rev_sys)
        for beta in (10.0, 100.0, 1000.0):
            fwd, bwd = spectral_data(sys, beta, rep), spectral_data(rev_sys, beta, rev)
            assert abs(bwd.pressure - fwd.pressure) <= TOL * abs(fwd.pressure)
            assert np.max(np.abs(bwd.log_mu - fwd.log_mu)) <= TOL * beta
            # log u and log m swap, each up to its normalization
            for x, y in ((bwd.log_u, fwd.log_m), (bwd.log_m, fwd.log_u)):
                assert np.ptp(x - y) <= TOL * beta
        count += 1
    assert count == 53
