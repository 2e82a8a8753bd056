"""The numpy uint64 Shoup kernel against Python integers and the scalar path.

Random polynomials seldom reach the limb carries and the wrap-around
corrections, so the operands here are chosen at those edges.
"""

import itertools

import numpy as np
import pytest

from hybridntt.modmath import (
    add_mod,
    find_ntt_prime,
    mul_mod_shoup,
    mulhi,
    precompute_shoup,
    shoup_butterfly,
    sub_mod,
)
from hybridntt.reference import splitmix64

from conftest import largest_ntt_prime

EDGES = (0, 1, (1 << 32) - 1, 1 << 32, (1 << 62) - 1, (1 << 64) - 1)

# smallest and largest NTT-friendly primes below 2**62, for the smallest and largest engine n
MODULI = [find_ntt_prime(4, 2), largest_ntt_prime(4), find_ntt_prime(1 << 16, 2),
          largest_ntt_prime(1 << 16)]


def test_mulhi_limb_edges():
    a, b = (np.array(v, np.uint64) for v in zip(*itertools.product(EDGES, repeat=2)))
    want = [(x * y) >> 64 for x, y in zip(a.tolist(), b.tolist())]
    assert mulhi(a, b).tolist() == want


def test_mulhi_random_and_broadcast():
    stream = splitmix64(0x5EED)
    a = np.array([next(stream) for _ in range(4096)], np.uint64).reshape(64, 64)
    b = np.array([next(stream) for _ in range(64)], np.uint64).reshape(64, 1)
    want = [[(x * y[0]) >> 64 for x in row] for row, y in zip(a.tolist(), b.tolist())]
    assert mulhi(a, b).tolist() == want
    scratch = np.empty((5,) + a.shape, np.uint64)
    out = mulhi(a, b, scratch)
    assert out.tolist() == want
    assert np.shares_memory(out, scratch)


def scalar_butterfly(x, y, w, q):
    t = mul_mod_shoup(y, precompute_shoup(w, q), q)
    return add_mod(x, t, q), sub_mod(x, t, q)


@pytest.mark.parametrize("q", MODULI)
def test_butterfly_edge_residues(q):
    cases = list(itertools.product((0, 1, q - 1), repeat=3))
    x, y, w = (np.array(v, np.uint64) for v in zip(*cases))
    ws = np.array([precompute_shoup(v, q).shoup for v in w.tolist()], np.uint64)
    shoup_butterfly(x, y, w, ws, q)
    assert list(zip(x.tolist(), y.tolist())) == [scalar_butterfly(*c, q) for c in cases]


@pytest.mark.parametrize("q", MODULI)
def test_butterfly_random_strided_views(q):
    # the engine passes strided views of one array with per-block twiddles
    stream = splitmix64(q)
    data = np.array([next(stream) % q for _ in range(2 * 8 * 2 * 32)], np.uint64)
    blocks = data.reshape(2, 8, 2, 32)
    before = blocks.tolist()
    w = np.array([next(stream) % q for _ in range(16)], np.uint64).reshape(2, 8, 1)
    ws = np.array([precompute_shoup(v, q).shoup for v in w.ravel().tolist()], np.uint64)
    shoup_butterfly(blocks[:, :, 0], blocks[:, :, 1], w, ws.reshape(w.shape), q)
    after = blocks.tolist()
    for k, blk in itertools.product(range(2), range(8)):
        wv = int(w[k, blk, 0])
        for j in range(32):
            x, y = before[k][blk][0][j], before[k][blk][1][j]
            assert (after[k][blk][0][j], after[k][blk][1][j]) == scalar_butterfly(x, y, wv, q)
