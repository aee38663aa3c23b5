"""Exact GF(2) reference hash, and the tests' integer convolution oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_hash, cyclic_convolve_naive, random_bitvector, random_seed
from qpa import BitVector, ParameterError, ToeplitzSeed
from qpa import oracle
from qpa.oracle import hash_direct, hash_single_bit

# --------------------------------------------------------------------------
# worked example, small enough to check by hand
#
# n=8, r=3, x = 1 0 1 1 0 1 0 1, V = 1 0 1 1 0 1 0.  The compressing
# block row i is seed bits (r-1-i) .. (n-2-i):
#   row 0: V2..V6 = 1 1 0 1 0   dot tail 1 0 1 0 1 -> 1
#   row 1: V1..V5 = 0 1 1 0 1   dot tail 1 0 1 0 1 -> 0
#   row 2: V0..V4 = 1 0 1 1 0   dot tail 1 0 1 0 1 -> 0
# so the block contributes (1, 0, 0) and the head (1, 0, 1) XORs it
# down to (0, 0, 1).

X8 = BitVector.from_bits([1, 0, 1, 1, 0, 1, 0, 1])
SEED8 = ToeplitzSeed(BitVector.from_bits([1, 0, 1, 1, 0, 1, 0]))


def test_frozen_example():
    assert tuple(hash_direct(X8, SEED8, 3).to_bits()) == (0, 0, 1)
    assert np.array_equal(brute_force_hash(X8, SEED8, 3), [0, 0, 1])


# --------------------------------------------------------------------------
# packed implementations vs the triple loop


def test_hash_direct_matches_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(60):
        n = int(rng.integers(2, 65))
        r = int(rng.integers(1, n))
        x = random_bitvector(rng, n)
        seed = random_seed(rng, n)
        got = hash_direct(x, seed, r)
        assert got.length == r
        assert np.array_equal(got.to_bits(), brute_force_hash(x, seed, r))


def test_hash_direct_awkward_offsets():
    # every r at lengths around byte boundaries: each seed offset class
    # o mod 8, r < 8, r = n-1 and the reversed read of the parity table
    rng = np.random.default_rng(11)
    every_r = [(n, r) for n in (2, 9, 16, 17, 64) for r in range(1, n)]
    for n, r in every_r + [(33, 7), (41, 23)]:
        x = random_bitvector(rng, n)
        seed = random_seed(rng, n)
        assert np.array_equal(
            hash_direct(x, seed, r).to_bits(), brute_force_hash(x, seed, r)
        )


def test_hash_direct_small_chunks(monkeypatch):
    # chunks of a few rows force every group through several chunks,
    # the last one short
    monkeypatch.setattr(oracle, "_CHUNK_BYTES", 40)
    rng = np.random.default_rng(12)
    for n, r in ((64, 40), (200, 77), (256, 255)):
        x = random_bitvector(rng, n)
        seed = random_seed(rng, n)
        assert np.array_equal(
            hash_direct(x, seed, r).to_bits(), brute_force_hash(x, seed, r)
        )


@pytest.mark.parametrize("n", [1 << 16, 1 << 18])
def test_hash_direct_memory_bound(monkeypatch, n):
    # the documented bound: one chunk plus 6 bytes per input bit
    monkeypatch.setattr(oracle, "_CHUNK_BYTES", 1 << 16)
    rng = np.random.default_rng(13)
    x = random_bitvector(rng, n)
    seed = random_seed(rng, n)
    tracemalloc.start()
    try:
        hash_direct(x, seed, n // 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= oracle._CHUNK_BYTES + 6 * n


def _matrix_hash(x, seed, r):
    # the block materialized as an r x (n-r) matrix, T[i][j] = V[r-1-i+j]
    xb, vb = x.to_bits().astype(np.int64), seed.bits.to_bits()
    block = vb[np.add.outer(r - 1 - np.arange(r), np.arange(x.length - r))]
    return xb[:r] ^ (block @ xb[r:]) & 1


@pytest.mark.parametrize("chunk_bytes", [1, 100, None])
def test_hash_direct_every_r_around_byte_boundaries(monkeypatch, chunk_bytes):
    # every r, so every r mod 8 and both nibbles of every tail byte; at
    # 100 bytes a chunk holds 100 // (ceil(r/8) + 16) tail bytes, so
    # most chunks end inside the tail, and the last is short
    if chunk_bytes is not None:
        monkeypatch.setattr(oracle, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(23)
    x = random_bitvector(rng, 40)
    seed = random_seed(rng, 40)
    assert np.array_equal(_matrix_hash(x, seed, 17), brute_force_hash(x, seed, 17))
    for n in (127, 128, 129, 255, 256, 257):
        x = random_bitvector(rng, n)
        seed = random_seed(rng, n)
        for r in range(1, n):
            got = hash_direct(x, seed, r).to_bits()
            assert np.array_equal(got, _matrix_hash(x, seed, r)), (n, r)


@pytest.mark.parametrize("r", [1, (1 << 19) - 64, (1 << 20) - 1])
def test_hash_direct_all_ones_at_2_20(r):
    # every block row is all ones and meets n-r set tail bits
    n = 1 << 20
    x = BitVector.from_bits(np.ones(n, dtype=np.uint8))
    seed = ToeplitzSeed(BitVector.from_bits(np.ones(n - 1, dtype=np.uint8)))
    got = hash_direct(x, seed, r).to_bits()
    assert np.array_equal(got, np.full(r, 1 ^ ((n - r) & 1), dtype=np.uint8))


@pytest.mark.parametrize("r, k", [
    ((1 << 19) - 64, (1 << 19) - 65),  # k = r-1: row i meets tail bit i
    ((1 << 19) - 61, 12345),  # the first rows meet no tail bit
    ((1 << 19) + 3, (1 << 20) - 2),  # only row 0 meets a tail bit
])
def test_hash_direct_one_hot_seed_at_2_20(r, k):
    # with only seed bit k set, row i meets tail bit j = k+1+i-r alone,
    # so the block is a shifted copy of the tail
    n = 1 << 20
    x = random_bitvector(np.random.default_rng(24), n)
    seed = ToeplitzSeed(BitVector.from_bits(np.eye(1, n - 1, k, dtype=np.uint8)[0]))
    xb = x.to_bits()
    p = np.arange(r) + k + 1  # x bit r+j that row i meets
    expected = xb[:r] ^ np.where(p < n, xb[np.minimum(p, n - 1)], 0) * (p >= r)
    assert np.array_equal(hash_direct(x, seed, r).to_bits(), expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 48))
def test_hash_is_linear_in_x(state, n):
    rng = np.random.default_rng(state)
    r = int(rng.integers(1, n))
    seed = random_seed(rng, n)
    x1 = random_bitvector(rng, n)
    x2 = random_bitvector(rng, n)
    lhs = hash_direct(x1 ^ x2, seed, r)
    rhs = hash_direct(x1, seed, r) ^ hash_direct(x2, seed, r)
    assert lhs == rhs


def test_zero_seed_passes_head_through():
    rng = np.random.default_rng(12)
    x = random_bitvector(rng, 40)
    seed = ToeplitzSeed(BitVector.zeros(39))
    for r in (1, 13, 39):
        assert np.array_equal(hash_direct(x, seed, r).to_bits(), x.to_bits()[:r])


def test_all_ones_seed_adds_tail_parity():
    rng = np.random.default_rng(13)
    x = random_bitvector(rng, 40)
    seed = ToeplitzSeed(BitVector.from_bits(np.ones(39, dtype=np.uint8)))
    r = 11
    tail_parity = int(x.to_bits()[r:].sum()) & 1
    expected = x.to_bits()[:r] ^ tail_parity
    assert np.array_equal(hash_direct(x, seed, r).to_bits(), expected)


def test_hash_direct_validation():
    rng = np.random.default_rng(14)
    x = random_bitvector(rng, 16)
    seed = random_seed(rng, 16)
    for bad_r in (0, 16, -1, 10.0):
        with pytest.raises(ParameterError):
            hash_direct(x, seed, bad_r)
    with pytest.raises(ParameterError):
        hash_direct(x, random_seed(rng, 17), 4)


def test_hash_single_bit_matches_hash_direct():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(8, 200))
        r = int(rng.integers(1, n))
        x = random_bitvector(rng, n)
        seed = random_seed(rng, n)
        full = hash_direct(x, seed, r)
        for i in rng.integers(0, r, 5):
            assert hash_single_bit(x, seed, r, int(i)) == full.bit(int(i))


def test_hash_single_bit_tiny_chunks(monkeypatch):
    # chunks smaller than the row force the streaming loop to iterate
    monkeypatch.setattr(oracle, "_ROW_CHUNK_BITS", 16)
    rng = np.random.default_rng(16)
    x = random_bitvector(rng, 300)
    seed = random_seed(rng, 300)
    full = hash_direct(x, seed, 60)
    for i in (0, 31, 59):
        assert hash_single_bit(x, seed, 60, i) == full.bit(i)


@pytest.mark.parametrize("chunk_bits", [8, 16, None])
def test_hash_single_bit_every_row(monkeypatch, chunk_bits):
    # every n < 80, r and i: every r mod 8 (where the tail starts in its
    # byte), every (i+1) mod 8 (the seed's shift) and chunks of one byte
    if chunk_bits is not None:
        monkeypatch.setattr(oracle, "_ROW_CHUNK_BITS", chunk_bits)
    rng = np.random.default_rng(20)
    for n in range(2, 80):
        x = random_bitvector(rng, n)
        seed = random_seed(rng, n)
        for r in range(1, n):
            full = hash_direct(x, seed, r).to_bits()
            got = [hash_single_bit(x, seed, r, i) for i in range(r)]
            assert got == full.tolist(), (n, r)


@pytest.mark.parametrize("r", [1, 7, 8, 9, 1 << 15, (1 << 16) - 1])
def test_hash_single_bit_at_2_16(r):
    n = 1 << 16
    rng = np.random.default_rng(21)
    x = random_bitvector(rng, n)
    seed = random_seed(rng, n)
    full = hash_direct(x, seed, r)
    for i in [0, r - 1] + rng.integers(0, r, 30).tolist():
        assert hash_single_bit(x, seed, r, i) == full.bit(i)


def test_hash_single_bit_memory_is_per_chunk(monkeypatch):
    # the two word buffers of one chunk, plus 4 KiB for numpy's array
    # objects and views; the same bound at 2**16 and 2**20 shows that
    # memory does not grow with n.  The bit must not change either: one
    # chunk holds a whole 2**20 row by default, here 128 chunks do
    rng = np.random.default_rng(22)
    cases = []
    for n in (1 << 16, 1 << 20):
        x, seed = random_bitvector(rng, n), random_seed(rng, n)
        cases.append((x, seed, n // 2, hash_single_bit(x, seed, n // 2, 12345)))
    monkeypatch.setattr(oracle, "_ROW_CHUNK_BITS", 1 << 12)
    bound = 2 * (oracle._ROW_CHUNK_BITS // 8) + 24 + 4096
    for x, seed, r, expected in cases:
        tracemalloc.start()
        try:
            got = hash_single_bit(x, seed, r, 12345)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (x.length, peak)
        assert got == expected


def test_hash_single_bit_validation():
    rng = np.random.default_rng(17)
    x = random_bitvector(rng, 16)
    seed = random_seed(rng, 16)
    with pytest.raises(ParameterError):
        hash_single_bit(x, seed, 4, 4)
    with pytest.raises(ParameterError):
        hash_single_bit(x, seed, 4, -1)
    with pytest.raises(ParameterError):
        hash_single_bit(x, seed, 10.0, 0)
    with pytest.raises(ParameterError):
        hash_single_bit(x, seed, 4, 1.0)
    # a numpy integer in range is refused for its type, not its range
    with pytest.raises(ParameterError, match="row i must be an int, got int64"):
        hash_single_bit(x, seed, 10, np.int64(3))


# --------------------------------------------------------------------------
# integer cyclic convolution


def test_convolve_frozen_example():
    got = cyclic_convolve_naive([1, 2, 3, 4], [5, 6, 7, 8])
    # c[0] = 1*5 + 4*6 + 3*7 + 2*8 = 66, and so on around the cycle
    assert got.tolist() == [66, 68, 66, 60]


def test_convolve_identity_and_shift():
    a = np.array([3, 1, 4, 1, 5, 9, 2, 6])
    delta = np.zeros(8, dtype=np.int64)
    delta[0] = 1
    assert np.array_equal(cyclic_convolve_naive(a, delta), a)
    delta1 = np.roll(delta, 1)  # convolving with a shifted impulse rotates
    assert np.array_equal(cyclic_convolve_naive(a, delta1), np.roll(a, 1))


def test_convolve_commutes():
    rng = np.random.default_rng(18)
    a = rng.integers(0, 100, 17)
    b = rng.integers(0, 100, 17)
    assert np.array_equal(cyclic_convolve_naive(a, b), cyclic_convolve_naive(b, a))


def test_convolve_matches_numpy_fft():
    rng = np.random.default_rng(19)
    for m in (8, 31, 64):
        a = rng.integers(0, 2, m)
        b = rng.integers(0, 2, m)
        via_fft = np.rint(np.fft.ifft(np.fft.fft(a) * np.fft.fft(b)).real).astype(np.int64)
        assert np.array_equal(cyclic_convolve_naive(a, b), via_fft)


def test_convolve_validation():
    with pytest.raises(ParameterError):
        cyclic_convolve_naive([1, 2], [1, 2, 3])
    with pytest.raises(ParameterError):
        cyclic_convolve_naive([], [])
