"""Shared helpers for the test suite."""

import numpy as np

from qpa import BitVector, ParameterError, ToeplitzSeed


def random_bitvector(rng, length):
    """Uniform random BitVector of the given length."""
    return BitVector.from_bits(rng.integers(0, 2, length, dtype=np.uint8))


def random_seed(rng, n):
    """Uniform random ToeplitzSeed serving n-bit inputs."""
    return ToeplitzSeed(random_bitvector(rng, n - 1))


def brute_force_hash(x, seed, r):
    """Triple-loop reference: bits[i] = x[i] XOR sum_j T[i][j] x[r+j] mod 2.

    Deliberately the slowest possible spelling of the hash, with the
    matrix entry rule written out inline, so the packed implementations
    in qpa.oracle are pinned against something independent.
    """
    xb = x.to_bits()
    vb = seed.bits.to_bits()
    n = x.length
    out = np.zeros(r, dtype=np.uint8)
    for i in range(r):
        acc = int(xb[i])
        for j in range(n - r):
            acc ^= int(vb[r - 1 - i + j]) & int(xb[r + j])
        out[i] = acc
    return out


def cyclic_convolve_naive(a, b):
    """Exact cyclic convolution c[i] = sum_j a[i-j mod m] * b[j].

    Quadratic-time integer reference used to pin down the FFT path; no
    floating point anywhere.  ``a`` and ``b`` are integer vectors of
    equal length m >= 1; returns int64 of length m.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ParameterError(
            "operands must be equal-length 1-D vectors, got %r and %r"
            % (a.shape, b.shape)
        )
    if a.size == 0:
        raise ParameterError("operands must not be empty")
    if a.dtype.kind not in "iub" or b.dtype.kind not in "iub":
        raise ParameterError("operands must be integer vectors")
    m = a.size
    idx = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
    return a.astype(np.int64)[idx] @ b.astype(np.int64)
