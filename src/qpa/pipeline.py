"""End-to-end key distillation: embed, transform, multiply, round, XOR.

The r x (n-r) diagonal-constant block product is carried by one cyclic
convolution of two length-n 0/1 vectors:

* ``v_circ``  — seed bits reversed into slots 1..n-1, slot 0 zero.
* ``x_masked`` — the input with its first r bits zeroed.

For output rows below r the convolution reads only genuine seed bits
(the zero padding slot pairs up with masked-off positions), so the
parity of ``conv[i]`` is the block row i, and the final key is
``x[:r] XOR parity(conv[:r])``.

`convolve` is the one convolution path.  It packs the two 0/1 byte
operands into one complex transform and runs it forward.  The result
is real, so its spectrum is Hermitian: the spectra are split, multiplied
and inverted on the rows 0 .. k/2 of the digit-transposed layout only
(`real_unpack_spectra`, `pointwise_multiply`, the real-output inverse
of `fft2d_permuted`), and the result is a float64 vector.  The mode
picks the order the buffers are loaded and stored in:

mode "A"
    natural order, six physical transposes per convolution:
    `fft2d_natural`'s three (the packed buffer into the digit-transposed
    layout, the forward's one, the spectrum to natural order), one back
    for the half spectrum, the inverse's one, and the result to natural
    order.

mode "B"
    digit-transposed order (`fft2d_permuted`, two physical
    transposes).  The operand bits are loaded through the
    digit-transpose map and the result stays in that layout.
    `privacy_amplify` stores the parity bits back through the same map.
    So bits are reordered at both ends, never the n complex values.

Both modes run the same arithmetic and give identical keys.  Values are
rounded to integers at the end; the largest distance from an integer
(the residual) is checked against ``RESIDUAL_LIMIT`` on every run and
reported in `FinalKey`.
"""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np

from .core import BitVector, PaParams, ToeplitzSeed, check_hash_inputs
from .errors import ParameterError, PrecisionError
from .fft import (
    _BLOCK,
    digit_transpose,
    fft2d_permuted,
    matrix_side,
    pointwise_multiply,
    real_pack,
    real_unpack_spectra,
)
from .transpose import RunStats, transpose_blocked

__all__ = [
    "RESIDUAL_LIMIT",
    "MODES",
    "FinalKey",
    "build_operands",
    "convolve",
    "run_mode_b_schedule",
    "privacy_amplify",
    "precision_profile",
]

RESIDUAL_LIMIT = 0.25
MODES = ("A", "B")


@contextmanager
def _stage(stats, name):
    if stats is None:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stats.timings[name] = stats.timings.get(name, 0.0) + (time.perf_counter() - t0)


@dataclasses.dataclass
class FinalKey:
    """Distilled key bits plus how they were computed."""

    bits: BitVector
    mode: str
    residual: float


def build_operands(x, seed, r):
    """Embed an (input, seed, r) triple as the pair ``(x_masked, v_circ)``.

    Both are length-n uint8 0/1 vectors.  ``x_masked[j] = x[j]`` for
    j >= r, else 0; ``v_circ[0] = 0`` and ``v_circ[p] = V[n-1-p]`` for
    p >= 1.  Cyclic convolution of the pair then reproduces every block
    row below r exactly (the padding slot only ever multiplies
    masked-off entries there).
    """
    n = check_hash_inputs(x, seed, r)
    x_masked = x.to_bits()
    x_masked[:r] = 0
    v_circ = np.zeros(n, dtype=np.uint8)
    v_circ[1:] = seed.bits.to_bits()[::-1]
    return x_masked, v_circ


def _gate_residual(residual, n):
    if not residual < RESIDUAL_LIMIT:
        raise PrecisionError(
            "convolution residual %.6g at n=%d exceeds the rounding limit %.2f"
            % (residual, n, RESIDUAL_LIMIT)
        )


def _counted_transpose(buf, stats):
    """Mode A's own transposes: a k x k buffer between natural order and
    the digit-transposed layout, counted in ``stats``."""
    k = matrix_side(buf.shape[0])
    return transpose_blocked(buf.reshape(k, k), stats=stats).reshape(-1)


def convolve(x_masked, v_circ, mode="B", stats=None):
    """Cyclic convolution of two real vectors on the schedule of ``mode``.

    Pack (mode B digit-transposes the operand bytes first, mode A the
    packed buffer after), forward transform, spectrum split on the
    Hermitian half of the digit-transposed layout, multiply, real-output
    inverse with the 1/n scale.  Returns float64 in the layout's
    physical order, so ``digit_transpose(convolve(x, v, "B"))`` equals
    ``convolve(x, v, "A")``.  An unsupported length raises
    `ParameterError` before any row transform runs.
    """
    if mode not in MODES:
        raise ParameterError("mode must be 'A' or 'B', got %r" % (mode,))
    # each buffer is overwritten or dropped once spent, so the next one
    # can reuse its memory
    with _stage(stats, "pack"):
        if mode == "B":
            # load-side address translation
            x_masked, v_circ = digit_transpose(x_masked), digit_transpose(v_circ)
        z = real_pack(x_masked, v_circ)
        if mode == "A":
            z = _counted_transpose(z, stats)
    n = z.shape[0]
    with _stage(stats, "forward"):
        z = fft2d_permuted(z, "forward", stats, overwrite_x=True)
        if mode == "A":
            # the natural-order spectrum, then back to the permuted layout
            z = _counted_transpose(z, stats)
            z = _counted_transpose(z, stats)
    with _stage(stats, "unpack"):
        x_hat, v_hat = real_unpack_spectra(z, permuted=True)
    del z
    with _stage(stats, "multiply"):
        s_hat = pointwise_multiply(x_hat, v_hat)
    del x_hat, v_hat
    with _stage(stats, "inverse"):
        # not overwrite_x: reusing s_hat here left glibc trimming the
        # heap after each 2^20 run, about 1,000 more minor page faults
        conv = fft2d_permuted(s_hat, "inverse", stats)
        del s_hat
        conv *= 1.0 / n
        if mode == "A":
            conv = _counted_transpose(conv, stats)
    return conv


run_mode_b_schedule = convolve


def privacy_amplify(x, seed, r, mode="B", t=None, s_min=1, stats=None):
    """Distill an r-bit final key from an n-bit input.

    Runs `convolve` in ``mode``; in mode B the parity bits, not the
    float result, are reordered back to natural order.  Every
    argument is checked before the operands are built.

    Parameters
    ----------
    x : BitVector
        Raw key of a supported transform length n.
    seed : ToeplitzSeed
        Seed serving the same n.
    r : int
        Final key length, 0 < r < n.
    mode : {"A", "B"}
        Transform schedule; identical output either way.  B, the
        default, runs two transposes instead of six.
    t : int, optional
        Bits assumed leaked.  When given, the security margin
        n - t - r is derived by `PaParams` (which requires at least 1)
        and checked against ``s_min`` before any work happens.
    s_min : int
        Smallest acceptable security margin (used only with ``t``).
    stats : RunStats, optional
        Collects transpose counts and per-stage timings.

    Returns
    -------
    FinalKey
        ``bits`` of length r, the mode, and the rounding residual.

    Raises
    ------
    ParameterError
        Bad sizes, or a security margin below 1 or below ``s_min``.
    PrecisionError
        Rounding residual at or above ``RESIDUAL_LIMIT``.
    """
    if mode not in MODES:
        raise ParameterError("mode must be 'A' or 'B', got %r" % (mode,))
    n = check_hash_inputs(x, seed, r)
    matrix_side(n)
    if t is not None:
        margin = PaParams.from_final_length(n, r, t).s
        if margin < s_min:
            raise ParameterError(
                "security margin n-t-r = %d is below the minimum %d" % (margin, s_min)
            )

    with _stage(stats, "build"):
        x_masked, v_circ = build_operands(x, seed, r)
    conv = convolve(x_masked, v_circ, mode, stats=stats)

    with _stage(stats, "finalize"):
        # block by block: round, leave the rounding error in place, and
        # take the residual as its largest magnitude (np.max keeps a
        # NaN; + 0.0 turns the -0.0 of an exact result into +0.0).
        # Under the gate nothing sits within 0.25 of a half-integer, so
        # round-half-up and round-to-nearest give the same parity.  A
        # NaN or inf makes the gate raise, so its parity is never used
        # and its casts stay silent.
        parity = np.empty(n, dtype=np.uint8)
        peaks = []
        with np.errstate(invalid="ignore"):
            for lo in range(0, n, _BLOCK):
                block = conv[lo:lo + _BLOCK]
                rounded = np.rint(block)
                block -= rounded
                peaks += [block.max(), -block.min()]
                parity[lo:lo + _BLOCK] = rounded.astype(np.int64) & 1
        residual = float(np.max(peaks)) + 0.0
        _gate_residual(residual, n)
        if mode == "B":
            # store-side address translation back to natural order
            parity = digit_transpose(parity)
        # formed on packed bytes; the last byte's bits past r-1 took x's
        # bits there and are the key's pad, so they are cleared
        key = np.packbits(parity[:r], bitorder="little")
        key ^= x.packed[:key.size]
        key[-1] &= 0xFF >> (-r & 7)
    return FinalKey(bits=BitVector(key, r), mode=mode, residual=residual)


def precision_profile(lengths, random_instances=3, mode="B", rng=None):
    """Residual survey across transform lengths.

    For each n the all-ones input and seed (every convolution term
    contributes) run first, then ``random_instances`` random triples.

    Returns
    -------
    list of dict
        One row per n with the all-ones, worst random, and overall
        worst residual.
    """
    if rng is None:
        rng = np.random.default_rng(2024)
    rows = []
    for n in lengths:
        matrix_side(n)
        ones_x = BitVector.from_bits(np.ones(n, dtype=np.uint8))
        ones_seed = ToeplitzSeed(BitVector.from_bits(np.ones(n - 1, dtype=np.uint8)))
        worst_ones = privacy_amplify(ones_x, ones_seed, n // 2, mode=mode).residual
        worst_random = 0.0
        for _ in range(random_instances):
            x = BitVector.from_bits(rng.integers(0, 2, n, dtype=np.uint8))
            seed = ToeplitzSeed(BitVector.from_bits(rng.integers(0, 2, n - 1, dtype=np.uint8)))
            r = int(rng.integers(1, n))
            got = privacy_amplify(x, seed, r, mode=mode).residual
            worst_random = max(worst_random, got)
        rows.append(
            {
                "n": n,
                "allones_residual": worst_ones,
                "random_residual": worst_random,
                "max_residual": max(worst_ones, worst_random),
            }
        )
    return rows
