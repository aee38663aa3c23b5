"""Exact GF(2) references for the hash.

The hash family is the block matrix [I | T]: an r x r identity beside
an r x (n-r) diagonal-constant block with ``T[i][j] = V[r-1-i+j]``, V
the n-1 seed bits.  Output bit i is

    y[i] = x[i] XOR parity( T[i][:] AND x[r:] )

`hash_direct` packs the seed once at each of its 8 bit shifts into one
table: row i reads the seed from offset o = r-1-i, and for o = 8j + s
that window starts at byte j of table row s.  So every row of a shift
class s is a byte-aligned window, and a run of them is one slice.

Everything here is plain bit arithmetic over packed bytes; the FFT
pipeline is checked against these functions bit for bit, and they in
turn are checked against a per-bit triple loop in the tests.  Inputs
are checked by `check_hash_inputs`, the same check the pipeline runs.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import BitVector, check_hash_inputs
from .errors import ParameterError

__all__ = [
    "hash_direct",
    "hash_single_bit",
]

# parity of each possible byte value
_PARITY = np.array([bin(v).count("1") & 1 for v in range(256)], dtype=np.uint8)

# cap on the rows x packed-columns product materialized at once (~32 MB)
_CHUNK_BYTES = 1 << 25

# row bits `hash_single_bit` unpacks at once
_ROW_CHUNK_BITS = 1 << 16


def hash_direct(x, seed, r):
    """Hash an n-bit input down to r bits, materializing no matrix.

    Row i reads the seed window at offset ``o = r-1-i = 8j + s``: as
    many bytes as the packed tail, from byte j of row s of the shifted
    seed table.  Each shift class s is a run of such windows, ANDed
    with the packed tail and folded to parities in chunks; the parities go to column s of a
    ``(groups, 8)`` table, whose flat index is o, so the block parity
    is that table read backwards.  Time O(n*r / 8); peak extra memory
    at most ``_CHUNK_BYTES + 6*n`` bytes.

    Parameters
    ----------
    x : BitVector of length n
    seed : ToeplitzSeed with seed.n == n
    r : int, 0 < r < n

    Returns
    -------
    BitVector of length r
    """
    n = check_hash_inputs(x, seed, r)
    xbits = x.to_bits()
    tail_packed = np.packbits(xbits[r:], bitorder="little")
    width = tail_packed.size
    groups = (r + 7) // 8
    # byte j of row s of `shifted` packs seed bits 8j+s .. 8j+s+7; the
    # zero bits past the seed only ever meet the tail's zero pad bits
    nbytes = groups - 1 + width
    padded = np.zeros(8 * nbytes + 7, dtype=np.uint8)
    padded[:n - 1] = seed.bits.to_bits()
    shifted = np.packbits(
        sliding_window_view(padded, 8 * nbytes)[:8], axis=1, bitorder="little"
    )
    del padded
    windows = sliding_window_view(shifted, width, axis=1)

    # entries at offsets >= r are never written and never read
    table = np.empty((groups, 8), dtype=np.uint8)
    rows_per_chunk = max(1, _CHUNK_BYTES // width)
    # one buffer serves every chunk, so no chunk-sized temporary is
    # allocated (and paged in) per chunk
    chunk = np.empty((min(rows_per_chunk, groups), width), dtype=np.uint8)
    for s in range(8):
        count = (r - s + 7) // 8
        for lo in range(0, count, rows_per_chunk):
            hi = min(lo + rows_per_chunk, count)
            masked = np.bitwise_and(windows[s, lo:hi], tail_packed, out=chunk[:hi - lo])
            table[lo:hi, s] = _PARITY[np.bitwise_xor.reduce(masked, axis=1)]
    return BitVector.from_bits(xbits[:r] ^ table.reshape(-1)[r - 1::-1])


def hash_single_bit(x, seed, r, i):
    """Output bit i alone, streaming the row in fixed-size chunks.

    Runs in O(n) time with O(``_ROW_CHUNK_BITS``) extra memory, so a
    handful of rows of a 2**20-bit session can be spot-checked without
    paying for the full hash.  Matches ``hash_direct(x, seed, r).bit(i)``.
    """
    n = check_hash_inputs(x, seed, r)
    if not isinstance(i, int) or not 0 <= i < r:
        raise ParameterError("row %r out of range [0, %d)" % (i, r))

    start = r - 1 - i
    parity = 0
    for lo in range(0, n - r, _ROW_CHUNK_BITS):
        span = min(_ROW_CHUNK_BITS, n - r - lo)
        row_bits = seed.bits.bit_range(start + lo, start + lo + span)
        tail_bits = x.bit_range(r + lo, r + lo + span)
        parity ^= int(np.bitwise_xor.reduce(row_bits & tail_bits))
    return parity ^ x.bit(i)

