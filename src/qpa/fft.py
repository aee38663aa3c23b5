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

The row passes are bound by compute, not by memory bandwidth: at
n = 2^20 one costs about six plain copies of its buffer.  From 2^18
points `fft_small` and `real_unpack_spectra` split their work over two
threads, and the split runs in cache-sized blocks.  Every pass after a
schedule's first writes in place into a buffer the schedule made.

Real-valued packing (`real_pack` / `real_unpack_spectra`) recovers the
spectra of two real sequences from one complex transform of their
pointwise pack x + i*v, halving the transform count of a real-input
convolution.  A real result needs only half its spectrum: in the
permuted layout the rows 0 .. k/2, which `real_unpack_spectra` returns
and the inverse of `fft2d_permuted` takes, returning the real signal.

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
# length of the Hermitian half (rows 0 .. k/2 of the k x k layout) -> k
_HALF_SIDES = {(k // 2 + 1) * k: k for k in _SIDES}
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
    """k x k grid of inter-pass rotation factors w_n**(i*j), cached.

    cos + i*sin of the angles i*j*(-2*pi/n); i*j < n, so no reduction
    mod n is needed.  The inverse grid is the forward one's conjugate.
    """
    if inverse:
        # called as the schedules call it, so one cache entry serves both
        g = np.conjugate(rotation_grid(n, False))
    else:
        k = matrix_side(n)
        i = np.arange(k, dtype=np.float64)
        angle = np.outer(i, i)
        angle *= -2.0 * np.pi / n
        g = np.empty((k, k), dtype=np.complex128)
        np.cos(angle, out=g.real)
        np.sin(angle, out=g.imag)
    g.flags.writeable = False
    return g


def fft_small(buf, direction="forward", out=None):
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
    out : C-contiguous complex128 ndarray of the input's shape, optional
        Where the result goes.  It may be ``buf`` itself, so a pass can
        run in place.

    Returns
    -------
    ndarray of complex128, same shape as the input: ``out`` when given,
    else a new array (never aliased).  A batch of 2^18 points or more
    transforms its two halves of rows on two threads; every row gets the
    same arithmetic either way.
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
    if out is None:
        out = np.empty(a.shape, dtype=np.complex128)
    elif out.shape != a.shape or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise ParameterError("out must be a C-contiguous complex128 array of the input's shape")
    rows, dest = a.reshape(-1, m), out.reshape(-1, m)

    def part(lo, hi):
        kernel(rows[lo:hi], axis=-1, norm=norm, out=dest[lo:hi])

    _in_halves(part, rows.shape[0], a.size)
    return out


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


def _as_matrix(x, half=False):
    """x as a C-contiguous complex128 k x k matrix, a view when it is one.

    With ``half``, a length of (k/2 + 1) * k is taken as the rows 0 ..
    k/2 of a Hermitian spectrum, a (k/2 + 1) x k matrix.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ParameterError("expected a 1-D buffer, got shape %r" % (x.shape,))
    if half and x.shape[0] in _HALF_SIDES:
        k = _HALF_SIDES[x.shape[0]]
        rows = k // 2 + 1
    else:
        k = rows = matrix_side(x.shape[0])
    return np.ascontiguousarray(x, dtype=np.complex128).reshape(rows, k)


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
    # the transposed copy is this schedule's own, so it is overwritten
    a = fft2d_permuted(a.reshape(-1), direction, stats, overwrite_x=True)
    return transpose_blocked(_as_matrix(a), stats=stats).reshape(-1)


def fft2d_permuted(x, direction="forward", stats=None, overwrite_x=False):
    """Long transform that keeps input and output digit-transposed.

    row FFTs, rotation factors, transpose, row FFTs.  The direction is
    checked before the first row FFT.  The second row pass runs in place
    on the transposed copy.

    The inverse also takes the Hermitian half of a real signal's
    spectrum: its rows 0 .. k/2, (k/2 + 1) * k entries, as
    `real_unpack_spectra` leaves them.  Like ``np.fft.irfft`` it infers
    n = k*k from that length, and it returns the real signal as float64
    in the same layout: row IFFTs on the k/2 + 1 rows, their rotation
    factors, one transpose to k x (k/2 + 1), then a length-k real
    inverse per row (``np.fft.irfft``) written into the spent row-pass
    buffer.  Half the work of the full inverse, which a full-length
    input still gets.

    With ``overwrite_x`` the input buffer may be overwritten, and its
    memory may hold the result (scipy.fft's ``overwrite_x``): the first
    row pass then runs in place too.
    """
    inverse = _direction_is_inverse(direction)
    a = _as_matrix(x, half=inverse)
    rows, k = a.shape
    a = fft_small(a, direction, out=a if overwrite_x else None)
    a *= rotation_grid(k * k, inverse)[:rows]
    t = transpose_blocked(a, stats=stats)
    if rows == k:
        return fft_small(t, direction, out=t).reshape(-1)
    # (k/2 + 1) * k complex values hold the k*k real results
    out = a.reshape(-1).view(np.float64)[:k * k].reshape(k, k)

    def part(lo, hi):
        np.fft.irfft(t[lo:hi], n=k, axis=-1, norm="forward", out=out[lo:hi])

    _in_halves(part, k, k * k)
    return out.reshape(-1)


def digit_transpose(v):
    """Digit-transpose a 1-D buffer of length k*k, as a copy.

    Slot i*k + j of the result holds entry j*k + i: the buffer read as a
    k x k row-major matrix, column by column.  An involution.  This is
    the load/store address translation around the permuted schedule,
    not one of its counted transposes; ``digit_transpose(np.arange(n))``
    is the index map itself.  One strided copy: a distillation reorders
    only uint8 bits here, where it beats the tiled copy (9.0 vs 20.5 us
    at k = 128, 1.21 vs 1.56 ms at k = 1024 on a 2-core x86 VM).
    """
    v = np.asarray(v)
    if v.ndim != 1:
        raise ParameterError("expected a 1-D buffer, got shape %r" % (v.shape,))
    k = matrix_side(v.shape[0])
    return np.ascontiguousarray(v.reshape(k, k).T).reshape(-1)


def real_pack(x, v):
    """Pack two equal-length real sequences as x + i*v (complex128).

    Each input, 0/1 bytes included, is written straight into its half,
    with no float64 copy.
    """
    x = np.asarray(x)
    v = np.asarray(v)
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

    indices mod n.  X and V are Hermitian (X(n-f) = conj(X(f))), so only
    their non-redundant halves are returned: in natural order the first
    n/2 + 1 frequencies (``np.fft.rfft``'s layout); digit-transposed (as
    `fft2d_permuted` leaves ``z_hat``, when ``permuted`` is true) the
    rows 0 .. k/2 of the k x k layout, (k/2 + 1) * k slots, which the
    inverse of `fft2d_permuted` takes.  In both layouts the slot holding
    n-f follows from the slot m holding f with a head length h (1 in
    natural order, k when digit-transposed): slot 0 pairs with itself,
    slot m < h with h - m, and slot m >= h with n + h - 1 - m.  So
    row 0 mirrors itself at column -j mod k, row m >= 1 mirrors row
    k - m read backwards, and no index map is built.  X and V are
    exactly real at the zero frequency.  The work runs in cache-sized
    blocks, on two threads for large buffers.

    Returns
    -------
    (X, V) : pair of complex128 ndarrays of the half's length.
    """
    z_hat = np.asarray(z_hat, dtype=np.complex128)
    if z_hat.ndim != 1:
        raise ParameterError("expected a 1-D spectrum, got shape %r" % (z_hat.shape,))
    n = z_hat.shape[0]
    if permuted:
        h = matrix_side(n)
        half = (h // 2 + 1) * h
    else:
        h, half = 1, n // 2 + 1
    x_hat = np.empty(half, dtype=np.complex128)
    v_hat = np.empty(half, dtype=np.complex128)

    def combine(b, mirror):
        # mirror holds Z at the mirror slot of each slot in b; its
        # conjugate is staged in X's slots, so no temporary is made
        conj = np.conjugate(mirror, out=x_hat[b])
        np.subtract(z_hat[b], conj, out=v_hat[b])
        conj += z_hat[b]
        conj *= 0.5
        v_hat[b] *= -0.5j

    combine(slice(0, h), np.concatenate((z_hat[:1], z_hat[h - 1:0:-1])))

    def split(lo, hi):
        for start in range(h + lo, h + hi, _BLOCK):
            stop = min(start + _BLOCK, h + hi)
            combine(slice(start, stop), z_hat[n + h - stop:n + h - start][::-1])

    _in_halves(split, half - h, n)
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
