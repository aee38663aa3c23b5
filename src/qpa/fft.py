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

Both schedules transpose with `transpose_blocked` at the tile it picks,
min(k, 64), measured fastest on a CPU (`qpa.transpose`), not the
memory-row model's `default_tile(k)`.  The transposes are exact
copies, so the tile never changes a result.

At n = 2^20 every pass is bound by memory bandwidth, so `fft_small`
and `real_unpack_spectra` split large work over two threads, the split
runs in cache-sized blocks, and `digit_transpose` uses the tiled copy.

Real-valued packing (`real_pack` / `real_unpack_spectra`) recovers the
spectra of two real sequences from one complex transform of their
pointwise pack x + i*v, halving the transform count of a real-input
convolution.

The forward kernel is exp(-2*pi*i/n); the inverse uses conjugated
factors and applies no 1/n scale (callers divide once at the end).
"""

import functools
import math
import os
import threading

import numpy as np

from .errors import ParameterError
from .transpose import RunStats, transpose_blocked

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
# Where several elementwise passes run back to back over a buffer, they
# run block by block, _BLOCK entries (1 MiB of complex128) at a time, so
# each block stays in cache across them.
_BLOCK = 1 << 16
# Work on at least _SPLIT_POINTS points runs in two halves on two
# threads (numpy's FFT and ufunc loops release the GIL).  On a 2-core
# x86 VM, threading every size made a mode-B distillation 2.2x slower at
# 2^14 and 1.15x slower at 2^16, while a 512 x 512 row pass (2^18 points)
# ran 1.25x faster and a 2^20 distillation 1.2x faster.
_SPLIT_POINTS = 1 << 18
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
_SPLIT = (_CPUS or 1) > 1


def supported_lengths():
    """Long-transform lengths n = k*k, k a power of two in [8, 1024]."""
    return _LONG_LENGTHS


def is_supported_length(n):
    return n in _LONG_LENGTHS


def matrix_side(n):
    """Side k of the k x k layout for a supported length n.

    Raises `ParameterError` for any other n; this is the one
    supported-length check, so callers also call it just to validate.
    """
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
    A batch of 2^18 points or more transforms its two halves of rows on
    two threads; every row gets the same arithmetic either way.
    """
    inverse = _direction_is_inverse(direction)
    a = np.asarray(buf, dtype=np.complex128)
    m = a.shape[-1] if a.ndim else 0
    if m not in SMALL_SIZES:
        raise ParameterError(
            "transform length %r not supported (power of two in [8, 4096])" % (m,)
        )
    # norm="forward" leaves the inverse unscaled
    kernel = np.fft.ifft if inverse else np.fft.fft
    norm = "forward" if inverse else "backward"
    rows = a.reshape(-1, m)
    out = np.empty_like(rows)

    def part(lo, hi):
        kernel(rows[lo:hi], axis=-1, norm=norm, out=out[lo:hi])

    _in_halves(part, rows.shape[0], a.size)
    return out.reshape(a.shape)


def _in_halves(fn, count, points):
    """Run fn(lo, hi) over [0, count).

    With two CPUs and at least ``_SPLIT_POINTS`` points of work, the
    first half runs on a helper thread while this one does the second;
    a failure in either is raised here.
    """
    if not (_SPLIT and points >= _SPLIT_POINTS and count >= 2):
        fn(0, count)
        return
    h = count // 2
    failed = []

    def first_half():
        try:
            fn(0, h)
        except BaseException as exc:  # re-raised below, in the caller
            failed.append(exc)

    helper = threading.Thread(target=first_half)
    helper.start()
    try:
        fn(h, count)
    finally:
        helper.join()
    if failed:
        raise failed[0]


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


def fft2d_natural(x, direction="forward", stats=None):
    """Long transform with natural-order input and output.

    `fft2d_permuted` between two physical transposes, so three
    transposes per pass, counted in ``stats`` when given.  Equal to the
    plain DFT of ``x`` (inverse: conjugate factors, unscaled).  The
    direction is checked before the first transpose.
    """
    a = _as_matrix(x)
    _direction_is_inverse(direction)
    a = transpose_blocked(a, stats=stats)
    a = fft2d_permuted(a.reshape(-1), direction, stats)
    return transpose_blocked(_as_matrix(a), stats=stats).reshape(-1)


def fft2d_permuted(x, direction="forward", stats=None):
    """Long transform that keeps input and output digit-transposed.

    row FFTs, rotation factors, transpose, row FFTs.  The direction is
    checked before the first row FFT.
    """
    a = _as_matrix(x)
    n = a.size
    inverse = _direction_is_inverse(direction)
    a = fft_small(a, direction)
    a *= rotation_grid(n, inverse)
    a = transpose_blocked(a, stats=stats)
    a = fft_small(a, direction)
    return a.reshape(n)


def digit_transpose(v):
    """Digit-transpose a 1-D buffer of length k*k, as a copy.

    Slot i*k + j of the result holds entry j*k + i: the buffer read as a
    k x k row-major matrix, column by column.  An involution.  This is
    the load/store address translation around the permuted schedule,
    not one of its counted transposes, though it runs the same tiled
    copy; ``digit_transpose(np.arange(n))`` is the index map itself.
    """
    v = np.asarray(v)
    if v.ndim != 1:
        raise ParameterError("expected a 1-D buffer, got shape %r" % (v.shape,))
    k = matrix_side(v.shape[0])
    # the tiled copy keeps each tile's reads and writes in cache: from
    # k = 512 it beats one strided copy on complex and int64 buffers and
    # matches it on uint8 ones; below that either takes tens of
    # microseconds
    return transpose_blocked(v.reshape(k, k)).reshape(-1)


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


def real_unpack_spectra(z_hat, permuted=False):
    """Split the transform of a packed pair into the two real spectra.

    For Z = FFT(x + i*v) with real x, v:

        X(f) = (Z(f) + conj(Z(n-f))) / 2
        V(f) = (Z(f) - conj(Z(n-f))) / (2i)

    indices mod n.  ``z_hat`` is in natural order, or digit-transposed
    (as `fft2d_permuted` leaves it) when ``permuted`` is true.  In both
    layouts the slot holding n-f follows from the slot m holding f with
    a head length h (1 in natural order, k when digit-transposed): slot
    0 pairs with itself, slot m < h with h - m, and slot m >= h with
    n + h - 1 - m.  So past the head the mirrors are the same range read
    in reverse, and no index map is built.  X and V are exactly real at
    the zero frequency.  The work runs in cache-sized blocks, on two
    threads for large buffers.

    Returns
    -------
    (X, V) : pair of complex128 ndarrays.
    """
    z_hat = np.asarray(z_hat, dtype=np.complex128)
    if z_hat.ndim != 1:
        raise ParameterError("expected a 1-D spectrum, got shape %r" % (z_hat.shape,))
    n = z_hat.shape[0]
    h = matrix_side(n) if permuted else 1
    x_hat = np.empty_like(z_hat)
    v_hat = np.empty_like(z_hat)

    def combine(b, mirrored):
        # mirrored holds conj(Z) at the mirror slot of each slot in b
        np.add(z_hat[b], mirrored, out=x_hat[b])
        x_hat[b] *= 0.5
        np.subtract(z_hat[b], mirrored, out=v_hat[b])
        v_hat[b] *= -0.5j

    combine(slice(0, h), np.conjugate(np.concatenate((z_hat[:1], z_hat[h - 1:0:-1]))))

    def split(lo, hi):
        for start in range(h + lo, h + hi, _BLOCK):
            stop = min(start + _BLOCK, h + hi)
            combine(slice(start, stop), np.conjugate(z_hat[n + h - stop:n + h - start][::-1]))

    _in_halves(split, n - h, n)
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
