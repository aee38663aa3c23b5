"""Exact GF(2) references for the hash.

The hash family is the block matrix [I | T]: an r x r identity beside
an r x (n-r) diagonal-constant block with ``T[i][j] = V[r-1-i+j]``, V
the n-1 seed bits.  Output bit i is

    y[i] = x[i] XOR parity( T[i][:] AND x[r:] )

`hash_direct` packs the seed once at each of its 8 bit shifts into one
table: row i reads the seed from offset o = r-1-i, and for o = 8j + s
that window starts at byte j of table row s.  So every row of a shift
class s is a byte-aligned window, and a run of them is one slice.

`hash_single_bit` computes one row without the table: it shifts the
seed bytes under the tail onto x's byte grid chunk by chunk, so a
spot check costs a few passes over ``(n-r)/8`` bytes per row.

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

# cap on the rows x packed-columns product materialized at once (1 MiB,
# so a chunk stays in a core's L2 cache)
_CHUNK_BYTES = 1 << 20

# tail bits `hash_single_bit` checks at once; a multiple of 8, and large
# enough that a 2**20-bit session's row (about 2**19 tail bits) is one
# chunk of 64 KiB
_ROW_CHUNK_BITS = 1 << 20


def hash_direct(x, seed, r):
    """Hash an n-bit input down to r bits, materializing no matrix.

    Row i reads the seed window at offset ``o = r-1-i = 8j + s``: as
    many bytes as the packed tail, from byte j of row s of the shifted
    seed table.  Each shift class s is a run of such windows, ANDed
    with the packed tail and folded to parities in chunks; the parities
    go to column s of a ``(groups, 8)`` table, whose flat index is o, so
    the block parity is that table read backwards.  Time O(n*r / 8);
    peak extra memory at most ``_CHUNK_BYTES + 6*n`` bytes.  At 1 MiB
    and r = n/2 - 64, a chunk is the whole table at 2**14 bits (1016
    rows of 1032 bytes) and 255 of its 4088 rows of 4104 bytes at
    2**16.

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
    """Output bit i alone, on packed bytes, in fixed-size chunks.

    Bit p of the tail (``r <= p < n``) meets seed bit ``p - (i+1)``.
    For each chunk of the tail's bytes the seed bytes are copied and
    aligned to x's byte grid with one shift of 64-bit words, ANDed with
    x's bytes and XOR-folded to one byte; the bits below r in the first
    byte are masked off.  That is about 6 passes over ``(n-r)/8`` bytes
    (a copy, two word shifts, an OR, an AND and a fold), with no unpack.

    Extra memory is two buffers of the chunk's size, at most
    ``2*(_ROW_CHUNK_BITS/8) + 24`` bytes, for any n; so a handful of
    rows of a 2**20-bit session, whose tail is one chunk, can be
    spot-checked without paying for the full hash.  Matches
    ``hash_direct(x, seed, r).bit(i)``.
    """
    check_hash_inputs(x, seed, r)
    if not isinstance(i, int):
        raise ParameterError("row i must be an int, got %s" % type(i).__name__)
    if not 0 <= i < r:
        raise ParameterError("row %d out of range [0, %d)" % (i, r))

    xbytes, sbytes = x.packed, seed.bits.packed
    first, step = r >> 3, _ROW_CHUNK_BITS // 8
    words = (min(step, xbytes.size - first) + 7) // 8
    # `window` holds the seed bytes under a chunk plus one more, as words
    window = np.empty(words + 1, dtype="<u8")
    aligned = np.empty(words, dtype="<u8")
    wbytes, row = window.view(np.uint8), aligned.view(np.uint8)
    fold = 0
    for lo in range(first, xbytes.size, step):
        m = min(step, xbytes.size - lo)
        used = (m + 7) // 8
        # chunk bit t is x bit 8*lo + t and meets seed bit 8*lo - (i+1) + t,
        # which is bit (e & 7) + t of the window starting at seed byte e >> 3;
        # seed bytes outside the seed read as zero
        e = 8 * lo - (i + 1)
        start, shift = e >> 3, e & 7
        a, b = max(start, 0), min(start + m + 1, sbytes.size)
        wbytes[:a - start] = 0
        wbytes[a - start:b - start] = sbytes[a:b]
        wbytes[b - start:8 * used + 8] = 0
        # a shift by 64 reads as zero, so shift 0 needs no branch
        np.left_shift(window[1:used + 1], 64 - shift, out=aligned[:used])
        np.right_shift(window[:used], shift, out=window[:used])
        np.bitwise_or(aligned[:used], window[:used], out=aligned[:used])
        np.bitwise_and(row[:m], xbytes[lo:lo + m], out=row[:m])
        if lo == first:
            row[0] &= 0xFF << (r & 7) & 0xFF
        fold ^= int(np.bitwise_xor.reduce(row[:m]))
    return int(_PARITY[fold]) ^ x.bit(i)

