"""Karp means, Kleene closures, critical structure, eigenproblem.

The tropical pass is reached through its one front end, ergodic_opt on a
TransitionSystem; the closure of a matrix with a negative mean is read
from _closure directly.
"""

import math
import random

import numpy as np
import pytest

from troptherm.bruteforce import enum_aubry, enum_mane, enum_max_cycle_mean
from troptherm.cli import _gen_system
from troptherm.dynamics import TransitionSystem, bousch_apply, discretize_doubling
from troptherm.ergodic_opt import ergodic_report, mane_potential, max_potential_energy
from troptherm.maxplus_linalg import (
    TropMatrix,
    _closure,
    _karp_mean,
    strongly_connected,
)
from troptherm.tropical_core import TropValue, sup_distance, t_add, t_mul, trop_vector

from helpers import normalize

NI = -math.inf


def tv(*xs):
    return trop_vector(xs)


FIXA = [[0.0, -1.0], [-1.0, -3.0]]


def _random_grid(rng, n_max=12):
    n = rng.randint(2, n_max)
    return [
        [float(rng.randint(-5, 5)) if rng.random() < 0.4 else NI for _ in range(n)]
        for _ in range(n)
    ]


def _arcs(grid):
    """n and the (sources, targets, weights) arrays of a grid, row-major."""
    a = np.array(grid, dtype=float)
    return (a.shape[0], *np.nonzero(a > NI), a[a > NI])


def _shift_to_nonpositive(grid):
    mean = _karp_mean(*_arcs(grid))
    if mean <= 0:
        return grid
    shift = float(math.ceil(mean))
    return [[w - shift if w > NI else NI for w in row] for row in grid]


def _matrix_system(grid):
    arcs = [(i, j, w) for i, row in enumerate(grid) for j, w in enumerate(row) if w > NI]
    return TransitionSystem(len(grid), arcs)


def test_matrix_rejects_pos_inf():
    with pytest.raises(ValueError):
        TropMatrix([[math.inf]])
    with pytest.raises(ValueError):
        TropMatrix([[0.0, 1.0]])  # not square


def test_mat_vec_examples():
    ident = _matrix_system([[0.0, NI], [NI, 0.0]])
    v = tv(2, -1)
    assert np.array_equal(bousch_apply(ident, v), v)
    assert bousch_apply(_matrix_system(FIXA), tv(0, -1)).tolist() == [0.0, -1.0]
    empty = TransitionSystem(2, [])
    assert bousch_apply(empty, v).tolist() == [NI, NI]


def test_mat_vec_orientation():
    # single arc 0 -> 1, weight 7: mass moves from entry 0 to entry 1
    m = _matrix_system([[NI, 7.0], [NI, NI]])
    assert bousch_apply(m, tv(1, 0)).tolist() == [NI, 8.0]


def test_max_cycle_mean_examples():
    assert max_potential_energy(_matrix_system(FIXA)) == (0.0, (0, 0))
    cyc = _matrix_system([[NI, 1.0, NI], [NI, NI, 2.0], [3.0, NI, NI]])
    assert max_potential_energy(cyc)[0] == 2.0
    chain = _matrix_system([[NI, 1.0], [NI, NI]])
    with pytest.raises(ValueError, match="acyclic"):
        max_potential_energy(chain)


def test_witness_tie_breaks():
    # zero self-loops at 0 and 2: lowest index wins
    rows = [[0.0, NI, NI], [NI, NI, 0.0], [NI, 0.0, 0.0]]
    assert max_potential_energy(_matrix_system(rows))[1] == (0, 0)
    # at the lowest critical node, the self-loop beats the 2-cycle
    rows = [[0.0, 0.0], [0.0, NI]]
    assert max_potential_energy(_matrix_system(rows))[1] == (0, 0)


def test_witness_is_simple_cycle_seeded():
    rng = random.Random(3)
    checked = 0
    for _ in range(100):
        grid = _random_grid(rng, n_max=8)
        if _karp_mean(*_arcs(grid)) == NI:
            with pytest.raises(ValueError, match="acyclic"):
                max_potential_energy(_matrix_system(grid))
            continue
        mean, cycle = max_potential_energy(_matrix_system(grid))
        w = list(cycle[:-1])
        assert cycle[-1] == w[0]
        assert len(set(w)) == len(w)
        total = 0.0
        for a, b in zip(w, w[1:] + [w[0]]):
            assert grid[a][b] > NI
            total += grid[a][b]
        assert abs(total / len(w) - mean) <= 1e-9
        checked += 1
    assert checked > 50


def test_karp_vs_enumeration_seeded():
    rng = random.Random(13)
    for _ in range(100):
        sys_ = _matrix_system(_random_grid(rng, n_max=8))
        slow = enum_max_cycle_mean(sys_)
        if slow == NI:
            with pytest.raises(ValueError, match="acyclic"):
                max_potential_energy(sys_)
        else:
            assert abs(max_potential_energy(sys_)[0] - slow) <= 1e-9


def test_enum_max_cycle_mean_closed_forms():
    # complete 8-state digraph, loops included: the successor arcs weigh 1
    # and form the one Hamiltonian cycle, every other arc weighs 0, so
    # every shorter cycle has a 0 arc and mean below 1
    n = 8
    complete = [(s, t, 1.0 if t == (s + 1) % n else 0.0) for s in range(n) for t in range(n)]
    assert enum_max_cycle_mean(TransitionSystem(n, complete)) == 1.0
    # the best cycle 1 -> 2 -> 1 (mean 2) avoids state 0 and its loop (1)
    avoid = [(0, 0, 1.0), (0, 1, 0.0), (1, 2, 4.0), (2, 1, 0.0), (2, 0, 0.0)]
    assert enum_max_cycle_mean(TransitionSystem(3, avoid)) == 2.0
    # the best cycle is the loop at the largest state
    loops = [(s, t, 5.0 if s == t == 2 else -1.0) for s in range(3) for t in range(3)]
    assert enum_max_cycle_mean(TransitionSystem(3, loops)) == 5.0
    # no cycle at all: a chain, and one state without arcs
    assert enum_max_cycle_mean(TransitionSystem(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)])) == NI
    assert enum_max_cycle_mean(TransitionSystem(1, [])) == NI
    # a cycle longer than the recursion limit; only state 0 is entered
    # from a greater state, so one search of n steps finds it
    n = 5000
    assert enum_max_cycle_mean(TransitionSystem(n, [(i, (i + 1) % n, 3.0) for i in range(n)])) == 3.0


def test_enum_mane_at_float_range_edge():
    # longer walks than any best path pass float range; the powers take
    # them to -inf quietly (the suite turns a numpy warning into an error)
    # and return the closure's cells
    cycle = TransitionSystem(3, [(0, 0, 2.5e307), (0, 1, -2.5e307), (1, 2, -2.5e307), (2, 0, -2.5e307)])
    two = TransitionSystem(2, [(0, 0, 4e307), (0, 1, -4e307), (1, 0, -4e307)])
    for sys_ in (cycle, two):
        phi = enum_mane(sys_, enum_max_cycle_mean(sys_))
        assert isinstance(phi, np.ndarray) and phi.dtype == np.float64
        assert phi.tolist() == ergodic_report(sys_).phi.tolist()
        assert enum_aubry(phi) == (0,)
    assert enum_mane(two, 4e307).tolist() == [[0.0, -8e307], [-8e307, -1.6e308]]
    # an arc shifted past float range weighs +inf, and the NaN of inf plus
    # a missing arc after it never hides the finite path beside it
    past = TransitionSystem(4, [(0, 1, 1e308), (0, 2, -1e308), (2, 3, -1e308)])
    assert enum_mane(past, -1e308)[0].tolist() == [NI, math.inf, 0.0, 0.0]
    # a state with no return path is never in the Aubry set, whatever tol
    phi = enum_mane(TransitionSystem(2, [(0, 0, 0.0), (0, 1, -1.0)]), 0.0)
    assert phi.tolist() == [[0.0, -1.0], [NI, NI]]
    assert enum_aubry(phi, tol=math.inf) == (0,)


def test_kleene_plus_examples():
    phi = mane_potential(_matrix_system(FIXA)).phi
    assert phi.tolist() == [[0.0, -1.0], [-1.0, -2.0]]
    ident = [[0.0, NI], [NI, 0.0]]
    assert mane_potential(_matrix_system(ident)).phi.tolist() == ident
    # a negative mean: the closure itself, without the front end's refusal
    assert _closure(np.array([[NI, -1.0], [-2.0, NI]])).tolist() == [[-3.0, -1.0], [-2.0, -3.0]]


def test_kleene_fixed_point_seeded():
    rng = random.Random(41)
    for _ in range(100):
        grid = _shift_to_nonpositive(_random_grid(rng))
        plus = _closure(np.array(grid))
        n = len(grid)
        for i in range(n):
            for j in range(n):
                # M+ = M  (+)  M (x) M+
                best = TropValue(grid[i][j])
                for k in range(n):
                    best = t_add(best, t_mul(TropValue(grid[i][k]), TropValue(plus[k, j])))
                assert sup_distance([float(best)], [plus[i, j]]) <= 1e-9


def test_kleene_walk_oracle_exact():
    # integer weights, nonpositive means: closure equals the best walk of
    # length 1..2n, bit for bit
    rng = random.Random(59)
    for _ in range(60):
        grid = _shift_to_nonpositive(_random_grid(rng, n_max=7))
        n = len(grid)
        best = [row[:] for row in grid]
        power = [row[:] for row in grid]
        for _ in range(2 * n - 1):
            power = [
                [
                    max(power[i][k] + grid[k][j] if power[i][k] > NI and grid[k][j] > NI else NI for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            best = [[max(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(best, power)]
        assert _closure(np.array(grid)).tolist() == best


def test_critical_nodes_examples():
    assert mane_potential(_matrix_system(FIXA)).aubry == (0,)
    cyc = _matrix_system([[NI, 1.0, NI], [NI, NI, 0.0], [-1.0, NI, NI]])
    assert mane_potential(normalize(cyc)).aubry == (0, 1, 2)
    assert ergodic_report(cyc).aubry == (0, 1, 2)


def test_critical_nodes_nonempty_after_normalization():
    rng = random.Random(67)
    checked = 0
    for _ in range(60):
        sys_ = _matrix_system(_random_grid(rng, n_max=8))
        if enum_max_cycle_mean(sys_) == NI:
            continue
        nodes = mane_potential(normalize(sys_)).aubry
        assert nodes, "normalized system must keep its witness cycle critical"
        assert ergodic_report(sys_).aubry == nodes
        checked += 1
    assert checked > 30


def test_eigenproblem_examples():
    report = ergodic_report(_matrix_system(FIXA))
    assert report.Q == 0.0
    assert [v.tolist() for v in report.eigenfunction_basis] == [[0.0, -1.0]]
    zero_cycle = _matrix_system([[NI, 0.0, NI], [NI, NI, 0.0], [0.0, NI, NI]])
    report = ergodic_report(zero_cycle)
    assert report.Q == 0.0 and len(report.eigenfunction_basis) == 1
    two_loops = _matrix_system([[0.0, -2.0], [-1.0, 0.0]])
    report = ergodic_report(two_loops)
    assert report.Q == 0.0 and len(report.eigenfunction_basis) == 2
    with pytest.raises(ValueError, match="acyclic"):
        ergodic_report(_matrix_system([[NI, 0.0], [NI, NI]]))


def test_eigen_identity_seeded():
    # one eigenfunction per critical class: L(v) = Q (x) v on the system
    # as given, not only on the normalized one
    rng = random.Random(83)
    checked = 0
    for _ in range(80):
        sys_ = _matrix_system(_random_grid(rng, n_max=9))
        slow = enum_max_cycle_mean(sys_)
        if slow == NI:
            continue
        report = ergodic_report(sys_)
        assert abs(report.Q - slow) <= 1e-9
        assert len(report.eigenfunction_basis) == len(report.critical_classes) >= 1
        for v in report.eigenfunction_basis:
            assert sup_distance(bousch_apply(sys_, v), v + report.Q) <= 1e-9
        checked += 1
    assert checked > 40


def test_critical_classes_two_loops():
    two_loops = _matrix_system([[0.0, -2.0], [-1.0, 0.0]])
    assert ergodic_report(two_loops).critical_classes == [(0,), (1,)]
    assert mane_potential(normalize(two_loops)).critical_classes == [(0,), (1,)]
    assert ergodic_report(_matrix_system(FIXA)).critical_classes == [(0,)]


def _mutual_reachability_components(n, arcs):
    """Components as classes of mutual reachability, from a closure of the
    reflexive reachability relation over plain sets."""
    reach = [{x} for x in range(n)]
    for s, t in arcs:
        reach[s].add(t)
    for k in range(n):
        for x in range(n):
            if k in reach[x]:
                reach[x] |= reach[k]
    return sorted({tuple(sorted(y for y in reach[x] if x in reach[y])) for x in range(n)})


def test_strongly_connected_matches_reachability_seeded():
    rng = random.Random(89)
    for _ in range(200):
        n = rng.randint(1, 30)
        density = rng.choice((0.02, 0.08, 0.2, 0.5))
        # self-loops included; low densities leave isolated nodes
        arcs = [(s, t) for s in range(n) for t in range(n) if rng.random() < density]
        assert strongly_connected(range(n), arcs) == _mutual_reachability_components(n, arcs)
    # a 5000-node path and cycle stay clear of the recursion limit
    path = [(i, i + 1) for i in range(4999)]
    assert strongly_connected(range(5000), path) == [(i,) for i in range(5000)]
    assert strongly_connected((), path + [(4999, 0)]) == [tuple(range(5000))]


def _karp_loops(grid):
    """Scalar reference for Karp's recurrence, the walk table built cell by cell."""
    n = len(grid)
    D = [[0.0] * n]
    for _ in range(n):
        cur = [NI] * n
        for u in range(n):
            for v in range(n):
                if D[-1][u] > NI and grid[u][v] > NI and D[-1][u] + grid[u][v] > cur[v]:
                    cur[v] = D[-1][u] + grid[u][v]
        D.append(cur)
    best = NI
    for v in range(n):
        if D[n][v] > NI:
            worst = min((D[n][v] - D[k][v]) / (n - k) for k in range(n) if D[k][v] > NI)
            if worst > best:
                best = worst
    return best


def _closure_loops(grid):
    """Scalar reference for the Floyd-Warshall closure, updated in place cell by cell."""
    a = [row[:] for row in grid]
    for k in range(len(a)):
        for i in range(len(a)):
            aik = a[i][k]
            for j in range(len(a)):
                if aik > NI and aik + a[k][j] > a[i][j]:
                    a[i][j] = aik + a[k][j]
    return a


def test_array_pass_matches_scalar_loops_bitwise():
    # shifting by a fractional cycle mean leaves rounding on the diagonal
    # (closure entries a few ulp above 0), and -0.0 weights test that ties
    # between signed zeros resolve as in the scalar loops
    rng = random.Random(97)
    grids = [
        discretize_doubling(order, lambda t: math.cos(2 * math.pi * t)).to_matrix().array.tolist()
        for order in range(1, 6)
    ]
    for _ in range(150):
        n = rng.randint(1, 9)
        grids.append(
            [[rng.choice((-0.0, float(rng.randint(-5, 5)))) if rng.random() < 0.5 else NI for _ in range(n)] for _ in range(n)]
        )
    for grid in grids:
        mean = _karp_mean(*_arcs(grid))
        assert repr(mean) == repr(_karp_loops(grid))
        if mean == NI:
            continue
        shifted = [[w - mean if w > NI else NI for w in row] for row in grid]
        want = np.array(_closure_loops(shifted))
        assert _closure(np.array(shifted)).tobytes() == want.tobytes()


def _closure_dense(a):
    """Reference for the closure: every row relaxed against row k at each k,
    whatever its a[i, k], rows before k first, then row k, then the rest.

    Also counts the steps at which some a[i, k] is -inf (rows the closure
    skips) and those at which a[k, k] > 0 (row k moves).
    """
    skips = moves = 0
    for k in range(a.shape[0]):
        skips += bool((a[:, k] == NI).any())
        moves += bool(a[k, k] > 0)
        for rows, col in ((a[:k], a[:k, k, None]), (a[k], a[k, k]), (a[k + 1 :], a[k + 1 :, k, None])):
            cand = col + a[k]
            np.copyto(rows, cand, where=cand > rows)
    return a, skips, moves


def test_closure_skipping_rows_matches_dense_bitwise():
    # the doubling models and the gen systems, shifted by their Karp mean,
    # and sparse grids with fractional weights: the shift leaves closure
    # diagonals a few ulp above 0, so row k moves at some steps
    systems = [discretize_doubling(order, lambda t: math.cos(2 * math.pi * t)) for order in range(6, 10)]
    systems += [_gen_system(seed, None, flag) for seed in range(200) for flag in (False, True)]
    grids = []
    for s in systems:
        src, tgt, w = s.arc_arrays
        grid = np.full((s.n, s.n), NI)
        grid[src, tgt] = w - _karp_mean(s.n, src, tgt, w)
        grids.append(grid)
    rng = np.random.default_rng(29)
    for _ in range(120):
        n = int(rng.integers(2, 81))
        weights = rng.uniform(-5, 5, (n, n)).round(3)
        grid = np.where(rng.random((n, n)) < rng.uniform(0.02, 0.3), weights, NI)
        mean = _karp_mean(n, *np.nonzero(grid > NI), grid[grid > NI])
        if mean > NI:
            grids.append(np.where(grid > NI, grid - mean, NI))
    skips = moves = 0
    for grid in grids:
        want, skipped, moved = _closure_dense(grid.copy())
        assert _closure(grid.copy()).tobytes() == want.tobytes()
        skips, moves = skips + skipped, moves + moved
    assert skips > 0 and moves > 0
