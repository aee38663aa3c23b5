"""The two k x k long-transform schedules over batched row transforms.

A transform of n = k*k points (k a power of two, 8 <= k <= 1024) runs as
two passes of length-k row transforms over a k x k matrix with a
rotation-factor multiply in between (the four-step FFT).  The row
transforms of a pass are one batched call into numpy's FFT along the
last axis (`fft_small`); the schedule around them is what this module
implements.  Two schedules are provided:

permuted
    row FFTs, rotation factors, transpose, row FFTs — one physical
    transpose per pass.  Input and output stay digit-transposed: slot
    i*k + j holds entry j*k + i (`digit_transpose`, written ``D``).

natural
    the permuted schedule with its outer transposes put back
    (transpose, `fft2d_permuted`, transpose) — three physical
    transposes per pass, output in standard DFT order.  So
    ``fft2d_permuted(x) == D(fft2d_natural(D(x)))`` bit for bit.
    Pointwise products are order agnostic, so a convolution can stay in
    the permuted layout end to end and skip four of the six transposes.

Real-valued packing (`real_pack` / `real_unpack_spectra`) recovers the
spectra of two real sequences from one complex transform of their
pointwise pack x + i*v, halving the transform count of a real-input
convolution.

The forward kernel is exp(-2*pi*i/n); the inverse uses conjugated
factors and applies no 1/n scale (callers divide once at the end).
"""

import functools
import math

import numpy as np

from .errors import ParameterError
from .transpose import RunStats, _require_tile, transpose_blocked

__all__ = [
    "SMALL_SIZES",
    "supported_lengths",
    "is_supported_length",
    "matrix_side",
    "rotation_grid",
    "fft_small",
    "fft2d_natural",
    "fft2d_permuted",
    "digit_transpose",
    "real_pack",
    "real_unpack_spectra",
    "pointwise_multiply",
    "count_transposes",
]

SMALL_SIZES = tuple(1 << p for p in range(3, 13))  # 8 .. 4096
_SIDES = tuple(1 << p for p in range(3, 11))  # 8 .. 1024
_LONG_LENGTHS = tuple(k * k for k in _SIDES)


def supported_lengths():
    """Long-transform lengths n = k*k, k a power of two in [8, 1024]."""
    return _LONG_LENGTHS


def is_supported_length(n):
    return n in _LONG_LENGTHS


def matrix_side(n):
    """Side k of the k x k layout for a supported length n."""
    if not is_supported_length(n):
        raise ParameterError(
            "unsupported transform length %r (expected k*k, k a power of "
            "two in [8, 1024])" % (n,)
        )
    return math.isqrt(n)


def _direction_is_inverse(direction):
    if direction == "forward":
        return False
    if direction == "inverse":
        return True
    raise ParameterError("direction must be 'forward' or 'inverse', got %r" % (direction,))


@functools.lru_cache(maxsize=None)
def rotation_grid(n, inverse=False):
    """k x k grid of inter-pass rotation factors w_n**(i*j), cached."""
    k = matrix_side(n)
    e = np.outer(np.arange(k, dtype=np.int64), np.arange(k, dtype=np.int64)) % n
    sign = 2j if inverse else -2j
    g = np.exp((sign * np.pi / n) * e)
    g.flags.writeable = False
    return g


def fft_small(buf, direction="forward"):
    """Batched length-m transforms along the last axis (numpy's FFT).

    Parameters
    ----------
    buf : array-like, last axis of length m in `SMALL_SIZES`.
        Leading axes are treated as a batch; a k x k matrix transforms
        every row in one call.
    direction : {"forward", "inverse"}
        forward computes Y[o] = sum_m x[m] * w**(o*m) with
        w = exp(-2*pi*i/m); inverse conjugates the factors and does not
        divide by m.

    Returns
    -------
    ndarray of complex128, same shape as the input (never aliased).
    """
    inverse = _direction_is_inverse(direction)
    a = np.asarray(buf, dtype=np.complex128)
    m = a.shape[-1] if a.ndim else 0
    if m not in SMALL_SIZES:
        raise ParameterError(
            "transform length %r not supported (power of two in [8, 4096])" % (m,)
        )
    # numpy returns a fresh array; norm="forward" leaves the inverse unscaled
    if inverse:
        return np.fft.ifft(a, axis=-1, norm="forward")
    return np.fft.fft(a, axis=-1)


def _as_matrix(x):
    x = np.asarray(x)
    if x.ndim != 1:
        raise ParameterError("expected a 1-D buffer, got shape %r" % (x.shape,))
    k = matrix_side(x.shape[0])
    if x.dtype == np.complex128:
        # safe as a view: every schedule copies (transpose or row
        # transform) before its first in-place write
        return x.reshape(k, k)
    return x.astype(np.complex128).reshape(k, k)


def fft2d_natural(x, direction="forward", stats=None, tile=None):
    """Long transform with natural-order input and output.

    `fft2d_permuted` between two physical transposes, so three
    transposes per pass, counted in ``stats`` when given.  Equal to the
    plain DFT of ``x`` (inverse: conjugate factors, unscaled).
    """
    a = transpose_blocked(_as_matrix(x), tile=tile, stats=stats)
    a = fft2d_permuted(a.reshape(-1), direction, stats, tile)
    return transpose_blocked(_as_matrix(a), tile=tile, stats=stats).reshape(-1)


def fft2d_permuted(x, direction="forward", stats=None, tile=None):
    """Long transform that keeps input and output digit-transposed.

    row FFTs, rotation factors, transpose, row FFTs.  The direction and
    the tile are checked before the first row FFT.
    """
    a = _as_matrix(x)
    n = a.size
    inverse = _direction_is_inverse(direction)
    tile = _require_tile(a.shape[0], tile)
    a = fft_small(a, direction)
    a *= rotation_grid(n, inverse)
    a = transpose_blocked(a, tile=tile, stats=stats)
    a = fft_small(a, direction)
    return a.reshape(n)


def digit_transpose(v):
    """Digit-transpose a 1-D buffer of length k*k, as a copy.

    Slot i*k + j of the result holds entry j*k + i: the buffer read as a
    k x k row-major matrix, column by column.  An involution.  This is
    the load/store address translation around the permuted schedule,
    not one of its counted transposes; ``digit_transpose(np.arange(n))``
    is the index map itself.
    """
    v = np.asarray(v)
    if v.ndim != 1:
        raise ParameterError("expected a 1-D buffer, got shape %r" % (v.shape,))
    k = matrix_side(v.shape[0])
    return v.reshape(k, k).T.reshape(-1)


def real_pack(x, v):
    """Pack two equal-length real sequences as x + i*v (complex128)."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != v.shape or x.ndim != 1:
        raise ParameterError(
            "operands must be equal-length 1-D vectors, got %r and %r"
            % (x.shape, v.shape)
        )
    packed = np.empty(x.shape, dtype=np.complex128)
    packed.real = x
    packed.imag = v
    return packed


def real_unpack_spectra(z_hat, partner=None):
    """Split the transform of a packed pair into the two real spectra.

    For Z = FFT(x + i*v) with real x, v:

        X(f) = (Z(f) + conj(Z(n-f))) / 2
        V(f) = (Z(f) - conj(Z(n-f))) / (2i)

    indices mod n.  ``partner`` overrides the f -> n-f pairing for
    buffers whose entries are stored in a permuted order: pass the
    index map p with p[m] = position of the partner of the frequency
    stored at m (for digit-transposed buffers, ``D[(n - D) % n]``).
    The zero-frequency slot is self-paired, so X and V are exactly real
    there.

    Returns
    -------
    (X, V) : pair of complex128 ndarrays.
    """
    z_hat = np.asarray(z_hat, dtype=np.complex128)
    if z_hat.ndim != 1:
        raise ParameterError("expected a 1-D spectrum, got shape %r" % (z_hat.shape,))
    n = z_hat.shape[0]
    if partner is None:
        partner = (n - np.arange(n)) % n
    else:
        partner = np.asarray(partner)
        if partner.shape != (n,):
            raise ParameterError("partner map must have shape (%d,)" % n)
    mirrored = np.take(z_hat, partner)
    np.conjugate(mirrored, out=mirrored)
    x_hat = z_hat + mirrored
    x_hat *= 0.5
    v_hat = z_hat - mirrored
    v_hat *= -0.5j
    return x_hat, v_hat


def pointwise_multiply(a_hat, b_hat):
    """Entrywise spectrum product (the convolution step in any order)."""
    a_hat = np.asarray(a_hat)
    b_hat = np.asarray(b_hat)
    if a_hat.shape != b_hat.shape:
        raise ParameterError(
            "spectra must share a shape, got %r and %r" % (a_hat.shape, b_hat.shape)
        )
    return a_hat * b_hat


def count_transposes(variant, n=64):
    """Physical transposes in one forward + inverse pass of a schedule.

    variant "natural" yields 6, "permuted" yields 2, independent of n.
    """
    fns = {"natural": fft2d_natural, "permuted": fft2d_permuted}
    if variant not in fns:
        raise ParameterError("variant must be 'natural' or 'permuted', got %r" % (variant,))
    fn = fns[variant]
    stats = RunStats()
    spectrum = fn(np.zeros(n), "forward", stats=stats)
    fn(spectrum, "inverse", stats=stats)
    return stats.transposes
