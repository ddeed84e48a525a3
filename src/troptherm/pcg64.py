"""numpy's default_rng(seed).uniform stream, from the standard library.

PCG64 is O'Neill's permuted congruential generator XSL-RR 128/64 ("PCG:
A Family of Simple Fast Space-Efficient Statistically Good Algorithms
for Random Number Generation", HMC-CS-2014-0905): a 128-bit LCG whose
output xors the state's halves and rotates them by its top six bits.
numpy seeds it from SeedSequence, which hashes the seed's 32-bit words
into a pool of four and expands the pool into four 64-bit words. NEP 19
fixes both streams (a bit generator and SeedSequence keep their output
for a given seed across numpy versions), so Python integers give the
same bits as numpy does without importing numpy.random. The map to
[lo, hi), lo + (hi - lo)·(x >> 11)·2^-53 with x the 64-bit output, is
Generator.uniform's, which NEP 19 does not fix; tests/test_cli.py
compares the rows with numpy's.
"""

from __future__ import annotations

from typing import List

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG's default 128-bit multiplier
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> List[int]:
    """SeedSequence(seed).generate_state(4, np.uint64) for an int seed >= 0."""
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _M32
        value = value * h & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    # mix_entropy: the seed's little-endian 32-bit words into the pool
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL:]:
        for i_dst in range(_POOL):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    # generate_state: eight 32-bit words, paired little-endian
    out, h = [], _INIT_B
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ h
        h = h * _MULT_B & _M32
        value = value * h & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 2 * _POOL, 2)]


def uniform_rows(seed: int, lo: float, hi: float, n: int, count: int) -> List[List[float]]:
    """count rows of n doubles, equal bit for bit to count successive
    np.random.default_rng(seed).uniform(lo, hi, n) draws."""
    s0, s1, i0, i1 = _seed_state(seed)
    # pcg_setseq_128_srandom_r: state 0, step, add the seed, step
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _MULT + inc) & _M128
    lo = float(lo)
    span = float(hi) - lo
    flat = []
    for _ in range(n * count):
        state = (state * _MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        flat.append(lo + span * ((x >> 11) * 2.0**-53))
    return [flat[k * n : (k + 1) * n] for k in range(count)]
