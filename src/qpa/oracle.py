"""Exact GF(2) references for the hash.

The hash family is the block matrix [I | T]: an r x r identity beside
an r x (n-r) diagonal-constant block with ``T[i][j] = V[r-1-i+j]``, V
the n-1 seed bits.  Output bit i is

    y[i] = x[i] XOR parity( T[i][:] AND x[r:] )

`hash_direct` reads the block by columns: block bit r-1-i is the XOR
of the seed windows at the set tail bits, each a byte slice of the
seed packed at one of 8 shifts, XORed a nibble at a time through two
16-row tables (about ``r*(n-r)/32`` bytes read, with no AND).

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

# cap on the table rows gathered at once, with their indices (1 MiB, so
# a chunk stays in a core's L2 cache)
_CHUNK_BYTES = 1 << 20

# tail bits `hash_single_bit` checks at once; a multiple of 8, and large
# enough that a 2**20-bit session's row (about 2**19 tail bits) is one
# chunk of 64 KiB
_ROW_CHUNK_BITS = 1 << 20


def hash_direct(x, seed, r):
    """Hash an n-bit input down to r bits, materializing no matrix.

    Block bit u = r-1-i is the XOR of seed bits ``c+u`` over the set
    tail bits c; for c = 8b + s, bits u < r are bytes b .. b+groups-1
    of row s of the shifted seed table (``groups = ceil(r/8)``).  Each
    nibble h of tail byte b selects a row of a 16-row table, the XOR of
    rows 4h .. 4h+3 over its bits (built by doubling), and the block is
    the XOR of those windows, gathered and folded in chunks of at most
    ``_CHUNK_BYTES`` with their indices (Four Russians).  That reads
    about ``r*(n-r)/32`` bytes, a quarter of a row-by-row AND and fold.
    Peak extra memory is at most ``_CHUNK_BYTES + 6*n`` bytes: about 4n
    for x's bits, the shifted table and one 16-row table.

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
    tail = np.packbits(xbits[r:], bitorder="little")
    width, groups = tail.size, (r + 7) // 8
    # byte j of row s of `shifted` packs seed bits 8j+s .. 8j+s+7; zero
    # bits past the seed meet only zero tail bits or block bits past r-1
    nbytes = groups - 1 + width
    padded = np.zeros(8 * nbytes + 7, dtype=np.uint8)
    padded[:n - 1] = seed.bits.to_bits()
    shifted = np.packbits(
        sliding_window_view(padded, 8 * nbytes)[:8], axis=1, bitorder="little"
    )
    del padded
    # row v*nbytes + b of `windows` is bytes b .. b+groups-1 of table row v
    table = np.empty((16, nbytes), dtype=np.uint8)
    windows = sliding_window_view(table.reshape(-1), groups)
    block, fold = np.zeros(groups, dtype=np.uint8), np.empty(groups, dtype=np.uint8)
    # a tail byte costs `groups` gathered bytes and 16 bytes of indices
    step = max(1, _CHUNK_BYTES // (groups + 16))
    for h in (0, 4):
        table[0] = 0
        for s in range(4):
            np.bitwise_xor(table[:1 << s], shifted[h + s], out=table[1 << s:2 << s])
        for lo in range(0, width, step):
            rows = (tail[lo:lo + step] >> h & 15) * np.intp(nbytes)
            rows += np.arange(lo, lo + rows.size)
            block ^= np.bitwise_xor.reduce(windows[rows], axis=0, out=fold)
    del shifted, table, windows  # free about 3n bytes before unpacking
    return BitVector.from_bits(xbits[:r] ^ np.unpackbits(block, bitorder="little")[r - 1::-1])


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

