"""Metamorphic relations of the tropical pass: transformations of a system
whose effect on Q, phi, the Aubry set and the critical classes is known
without a reference solver.

A relabelling of the states permutes everything; a coboundary
h(s) - h(t) added to every arc s -> t changes no cycle's weight, so it
keeps Q and criticality; a constant c added to every arc moves every
cycle mean, Q included, by c and keeps criticality. Checked on gen seeds
0-199 at --n 12 in both flavours and on the doubling map at orders 3-8.
"""

import math
import random

import numpy as np

from troptherm.cli import _gen_system
from troptherm.dynamics import TransitionSystem, birkhoff_sum, discretize_doubling
from troptherm.ergodic_opt import ergodic_report

from helpers import assert_close, shift

TOL = 1e-12


def _gen_systems():
    for seed in range(200):
        for deterministic in (False, True):
            yield _gen_system(seed, 12, deterministic)


def _doubling_systems():
    for order in range(3, 9):
        yield discretize_doubling(order, lambda t: math.cos(2 * math.pi * t))


def _systems():
    yield from _gen_systems()
    yield from _doubling_systems()


def _add_coboundary(sys: TransitionSystem, h) -> TransitionSystem:
    """sys with h(s) - h(t) added to every arc s -> t."""
    return TransitionSystem(sys.n, [(s, t, w + h[s] - h[t]) for s, t, w in sys.arcs])


def test_relabelling_permutes_the_pass():
    rng = random.Random(43)
    count = 0
    for sys in _systems():
        perm = list(range(sys.n))
        rng.shuffle(perm)  # state x is called perm[x]
        relabelled = TransitionSystem(sys.n, [(perm[s], perm[t], w) for s, t, w in sys.arcs])
        rep, new = ergodic_report(sys), ergodic_report(relabelled)
        assert new.Q == rep.Q  # bit for bit
        assert new.aubry == tuple(sorted(perm[x] for x in rep.aubry))
        assert new.critical_classes == sorted(tuple(sorted(perm[x] for x in c)) for c in rep.critical_classes)
        assert_close(new.phi[np.ix_(perm, perm)], rep.phi, TOL)
        # the witness, read back in the old names, is a cycle of mean Q
        back = [perm.index(x) for x in new.maximizing_cycle]
        assert back[0] == back[-1]
        assert abs(birkhoff_sum(sys, back) / (len(back) - 1) - rep.Q) <= TOL
        count += 1
    assert count == 406


def test_coboundary_keeps_q_and_criticality():
    rng = random.Random(44)
    # an integer h keeps gen's integer weights exact, so Q stays bit for bit
    for sys in _gen_systems():
        h = [rng.randint(-5, 5) for _ in range(sys.n)]
        rep, new = ergodic_report(sys), ergodic_report(_add_coboundary(sys, h))
        assert new.Q == rep.Q
        assert new.aubry == rep.aubry
        assert new.critical_classes == rep.critical_classes
    # the doubling map's float weights round in w + h(s) - h(t): Q within TOL
    for sys in _doubling_systems():
        h = [rng.uniform(-5, 5) for _ in range(sys.n)]
        rep, new = ergodic_report(sys), ergodic_report(_add_coboundary(sys, h))
        assert abs(new.Q - rep.Q) <= TOL
        assert new.aubry == rep.aubry
        assert new.critical_classes == rep.critical_classes


def test_constant_shift_moves_q_and_keeps_criticality():
    rng = random.Random(45)
    for sys in _systems():
        c = rng.randint(-5, 5)
        rep, new = ergodic_report(sys), ergodic_report(shift(sys, c))
        # not bit for bit: Karp's gaps round differently after the shift
        assert abs(new.Q - (rep.Q + c)) <= TOL
        assert new.aubry == rep.aubry
        assert new.critical_classes == rep.critical_classes
