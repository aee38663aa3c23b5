"""Bit vectors, session parameters, and the QPA1 bit-file format.

Everything downstream (the exact GF(2) reference hash, the FFT
convolution pipeline, the command line) moves key material around as
:class:`BitVector` values and sizes runs with :class:`PaParams`.

Secrecy accounting: compressing an n-bit partially leaked key to r
final bits with t bits assumed known leaves the security margin
s = n - t - r, and the eavesdropper's expected information about the
final key is at most 2**-s / ln 2 bits (`leakage_bound`).
"""

import dataclasses
import hashlib
import math
import os
import struct

import numpy as np

from .errors import FormatError, ParameterError
from .fft import matrix_side

__all__ = [
    "ROLE_RAW",
    "ROLE_SEED",
    "ROLE_FINAL",
    "ROLE_NAMES",
    "BitVector",
    "PaParams",
    "ToeplitzSeed",
    "check_hash_inputs",
    "leakage_bound",
    "final_key_length",
    "generate_seed",
    "read_bits",
    "write_bits",
]

ROLE_RAW = 0
ROLE_SEED = 1
ROLE_FINAL = 2
ROLE_NAMES = {ROLE_RAW: "raw", ROLE_SEED: "seed", ROLE_FINAL: "final"}

_MAGIC = b"QPA1"
_VERSION = 1
_HEADER = struct.Struct("<4sHBBQ")  # magic, version, role, reserved, bit length


class BitVector:
    """Packed binary sequence with an exact bit length.

    Bit ``i`` of the sequence is bit ``i % 8`` (LSB first) of byte
    ``i // 8``, the same layout as the on-disk payload.  The pad bits of
    a partial final byte are always zero.  Instances are immutable;
    operators return new vectors.
    """

    __slots__ = ("_length", "_packed")

    def __init__(self, packed, length):
        packed = np.asarray(packed, dtype=np.uint8).reshape(-1).copy()
        if not isinstance(length, int) or length < 0:
            raise ParameterError("bit length must be a non-negative int, got %r" % (length,))
        if packed.size != (length + 7) // 8:
            raise FormatError(
                "payload holds %d bytes, %d bits need %d"
                % (packed.size, length, (length + 7) // 8)
            )
        if length % 8 and packed.size:
            pad_mask = 0xFF << (length % 8) & 0xFF
            if packed[-1] & pad_mask:
                raise FormatError("pad bits past bit %d must be zero" % length)
        packed.flags.writeable = False
        self._packed = packed
        self._length = length

    @classmethod
    def zeros(cls, length):
        return cls(np.zeros((length + 7) // 8, dtype=np.uint8), length)

    @classmethod
    def from_bits(cls, bits):
        """Build from an array of 0/1 values (anything nonzero reads as 1)."""
        bits = np.asarray(bits).reshape(-1)
        return cls(np.packbits(bits != 0, bitorder="little"), int(bits.size))

    @classmethod
    def from_bytes(cls, data, length):
        return cls(np.frombuffer(bytes(data), dtype=np.uint8), length)

    @property
    def length(self):
        return self._length

    @property
    def packed(self):
        """Read-only uint8 view of the payload bytes."""
        return self._packed

    def to_bits(self):
        """Unpack to a fresh uint8 array of 0/1 values, one per bit."""
        return np.unpackbits(self._packed, count=self._length, bitorder="little")

    def to_bytes(self):
        return self._packed.tobytes()

    def bit(self, i):
        """Bit ``i`` as a Python int."""
        if not 0 <= i < self._length:
            raise ParameterError("bit index %r out of range [0, %d)" % (i, self._length))
        return int(self._packed[i >> 3] >> (i & 7) & 1)

    def bit_range(self, start, stop):
        """Bits ``start..stop-1`` as a uint8 array, touching only the
        bytes that cover the range (O(stop - start) work)."""
        if not 0 <= start <= stop <= self._length:
            raise ParameterError(
                "bit range [%r, %r) out of bounds for length %d" % (start, stop, self._length)
            )
        if start == stop:
            return np.zeros(0, dtype=np.uint8)
        lo, hi = start >> 3, (stop + 7) >> 3
        bits = np.unpackbits(self._packed[lo:hi], bitorder="little")
        off = start - (lo << 3)
        return bits[off : off + (stop - start)]

    def __len__(self):
        return self._length

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self._length)
            if step != 1:
                raise ParameterError("only contiguous slices are supported")
            return BitVector.from_bits(self.bit_range(start, max(start, stop)))
        i = int(key)
        if i < 0:
            i += self._length
        return self.bit(i)

    def __xor__(self, other):
        if not isinstance(other, BitVector):
            return NotImplemented
        if other._length != self._length:
            raise ParameterError(
                "length mismatch: %d vs %d bits" % (self._length, other._length)
            )
        return BitVector(self._packed ^ other._packed, self._length)

    def __eq__(self, other):
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._length == other._length and np.array_equal(self._packed, other._packed)

    def __hash__(self):
        return hash((self._length, self._packed.tobytes()))

    def __repr__(self):
        head = "".join(str(b) for b in self.to_bits()[:16])
        tail = "..." if self._length > 16 else ""
        return "BitVector(length=%d, bits=%s%s)" % (self._length, head, tail)


class ToeplitzSeed:
    """The n-1 random bits V_0..V_{n-2} that define the hash family.

    For an n-bit input and r output bits, the compressing block is the
    r x (n-r) diagonal-constant matrix with entry (i, j) equal to
    ``V[r-1-i+j]``; one seed serves every r.
    """

    __slots__ = ("bits",)

    def __init__(self, bits):
        if not isinstance(bits, BitVector):
            raise ParameterError("seed bits must be a BitVector")
        if bits.length < 1:
            raise ParameterError("a seed needs at least 1 bit (n >= 2)")
        self.bits = bits

    @property
    def n(self):
        """Input length this seed serves (one more than the bit count)."""
        return self.bits.length + 1

    def __eq__(self, other):
        if not isinstance(other, ToeplitzSeed):
            return NotImplemented
        return self.bits == other.bits

    def __repr__(self):
        return "ToeplitzSeed(n=%d)" % self.n


def check_hash_inputs(x, seed, r):
    """Check an (input, seed, r) triple of the [I | T] hash; returns n.

    ``x`` is a BitVector of n bits, ``seed`` a ToeplitzSeed serving the
    same n, and ``r`` an int with 0 < r < n.  Raises `ParameterError`
    otherwise.
    """
    if not isinstance(x, BitVector):
        raise ParameterError("input must be a BitVector")
    if not isinstance(seed, ToeplitzSeed):
        raise ParameterError("seed must be a ToeplitzSeed")
    n = x.length
    if seed.n != n:
        raise ParameterError("seed serves n=%d, input has %d bits" % (seed.n, n))
    if not isinstance(r, int):
        raise ParameterError("output length r must be an int, got %s" % type(r).__name__)
    if not 0 < r < n:
        raise ParameterError("output length r=%d must satisfy 0 < r < n=%d" % (r, n))
    return n


def leakage_bound(s):
    """Eavesdropper information bound 2**-s / ln 2, in bits.

    Halves exactly per unit of security margin until it underflows to
    zero around s = 1074.
    """
    if not isinstance(s, int) or s < 0:
        raise ParameterError("security margin must be a non-negative int, got %r" % (s,))
    return 2.0 ** (-s) / math.log(2.0)


def final_key_length(n, t, s):
    """Final key bits r = n - t - s available at margin s.

    Parameters
    ----------
    n : int
        Raw key bits.
    t : int
        Bits assumed leaked during transmission and reconciliation.
    s : int
        Security margin for `leakage_bound`, at least 1 (the rule
        `PaParams` keeps).
    """
    for name, v in (("n", n), ("t", t)):
        if not isinstance(v, int) or v < 0:
            raise ParameterError("%s must be a non-negative int, got %r" % (name, v))
    if not isinstance(s, int) or s < 1:
        raise ParameterError("security margin s must be an int of at least 1, got %r" % (s,))
    if n <= t + s:
        raise ParameterError(
            "no key left: n=%d does not exceed t+s=%d" % (n, t + s)
        )
    return n - t - s


@dataclasses.dataclass(frozen=True, slots=True)
class PaParams:
    """Validated parameter set (n, r, t, s) with s = n - t - r.

    n must be a supported transform length.  Build from whichever pair
    is known: ``PaParams.from_security(n, t, s)`` derives r,
    ``PaParams.from_final_length(n, r, t)`` derives s.
    """

    n: int
    r: int
    t: int
    s: int

    def __post_init__(self):
        n, r, t, s = self.n, self.r, self.t, self.s
        for name, v in (("n", n), ("r", r), ("t", t), ("s", s)):
            if not isinstance(v, int):
                raise ParameterError("%s must be an int, got %r" % (name, v))
        matrix_side(n)
        if not 0 < r < n:
            raise ParameterError("r=%d must satisfy 0 < r < n=%d" % (r, n))
        if t < 0:
            raise ParameterError("t=%d must be non-negative" % t)
        if s < 1:
            raise ParameterError("security margin s=%d must be at least 1" % s)
        if s != n - t - r:
            raise ParameterError(
                "inconsistent parameters: s=%d but n-t-r=%d" % (s, n - t - r)
            )

    @classmethod
    def from_security(cls, n, t, s):
        return cls(n, final_key_length(n, t, s), t, s)

    @classmethod
    def from_final_length(cls, n, r, t):
        if not isinstance(r, int) or not isinstance(t, int):
            raise ParameterError("r and t must be ints")
        return cls(n, r, t, n - t - r)

    @property
    def leakage(self):
        return leakage_bound(self.s)


def generate_seed(master_secret, n):
    """Expand a 256-bit master secret into the n-1 seed bits.

    The stream is SHA-256 in counter mode: block i is
    ``SHA-256(master_secret || i)`` with i a 64-bit little-endian block
    counter.  Its first ceil((n-1)/8) bytes are the seed's payload as
    they stand (bit j is bit j % 8, LSB first, of byte j // 8), with
    the pad bits past bit n-2 cleared; no bit is unpacked.
    Deterministic: one (secret, n) pair always yields the same seed.

    Parameters
    ----------
    master_secret : bytes
        Exactly 32 bytes of uniform secret material.
    n : int
        Input length the seed will serve, at least 2.
    """
    if not isinstance(master_secret, (bytes, bytearray)):
        raise ParameterError("master secret must be bytes")
    if len(master_secret) != 32:
        raise ParameterError(
            "master secret must be 32 bytes, got %d" % len(master_secret)
        )
    if not isinstance(n, int) or n < 2:
        raise ParameterError("seed needs n >= 2, got %r" % (n,))
    nbytes = (n - 1 + 7) // 8
    # the secret is hashed once; each block finishes a copy of that context
    keyed = hashlib.sha256(master_secret)
    blocks = []
    for counter in range((nbytes + 31) // 32):
        block = keyed.copy()
        block.update(counter.to_bytes(8, "little"))
        blocks.append(block.digest())
    payload = np.frombuffer(b"".join(blocks), dtype=np.uint8, count=nbytes).copy()
    payload[-1] &= 0xFF >> (-(n - 1) & 7)
    return ToeplitzSeed(BitVector(payload, n - 1))


def _role_name(role):
    return ROLE_NAMES.get(role, "role %r" % (role,))


def write_bits(vec, dest, role):
    """Serialize a BitVector to ``dest`` (path or binary stream) as one
    QPA1 record: 16-byte header, then the LSB-first payload bytes."""
    if role not in ROLE_NAMES:
        raise ParameterError("role must be one of %s" % sorted(ROLE_NAMES))
    record = _HEADER.pack(_MAGIC, _VERSION, role, 0, vec.length) + vec.to_bytes()
    if hasattr(dest, "write"):
        dest.write(record)
    else:
        with open(os.fspath(dest), "wb") as fh:
            fh.write(record)


def _read_record(fh, from_path):
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise FormatError("truncated header: got %d of %d bytes" % (len(header), _HEADER.size))
    magic, version, role, reserved, length = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise FormatError("bad magic %r" % (magic,))
    if version != _VERSION:
        raise FormatError("unsupported version %d" % version)
    if role not in ROLE_NAMES:
        raise FormatError("unknown role byte %d" % role)
    if reserved != 0:
        raise FormatError("reserved byte must be zero, got %d" % reserved)
    nbytes = (length + 7) // 8
    payload = fh.read(nbytes)
    if len(payload) < nbytes:
        raise FormatError(
            "truncated payload: got %d of %d bytes" % (len(payload), nbytes)
        )
    if from_path and fh.read(1):
        raise FormatError("trailing data after %d payload bytes" % nbytes)
    return BitVector.from_bytes(payload, length), role


def read_bits(src, expected_length=None, expected_role=None):
    """Read one QPA1 record from ``src`` (path or binary stream).

    Raises `FormatError` on a bad or truncated header, nonzero pad
    bits, trailing bytes (path inputs only; streams may carry more
    records), or a length/role that contradicts the expectation.

    Returns
    -------
    BitVector
    """
    if hasattr(src, "read"):
        vec, role = _read_record(src, from_path=False)
    else:
        with open(os.fspath(src), "rb") as fh:
            vec, role = _read_record(fh, from_path=True)
    if expected_role is not None and role != expected_role:
        raise FormatError(
            "expected a %s file, found %s" % (_role_name(expected_role), _role_name(role))
        )
    if expected_length is not None and vec.length != expected_length:
        raise FormatError(
            "expected %d bits, file holds %d" % (expected_length, vec.length)
        )
    return vec
