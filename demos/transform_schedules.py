"""
Long transforms as a k x k grid, and the schedule that skips transposes
=======================================================================

A length n = k*k transform factors into row transforms over a k x k
matrix: transpose, k row FFTs, a pointwise rotation grid, transpose,
k row FFTs, transpose.  That natural-order schedule moves the whole
matrix three times per transform, six times per convolution.

Reordering input and output by the digit transpose D (read the grid
column-major instead of row-major) lets the outer transposes vanish:

    fft2d_permuted(x) == D( fft2d_natural( D(x) ) )

with only one physical transpose left inside.  The pipeline's Mode B
applies D at load and store time, where it is a free address
translation, and keeps the cheap schedule in the middle.
"""

import numpy as np

from qpa import (
    count_transposes,
    digit_transpose,
    fft2d_natural,
    fft2d_permuted,
    fft_small,
    matrix_side,
)

rng = np.random.default_rng(11)

# --------------------------------------------------------------------
# 1. The 2D factorization really is the DFT.  Check the natural
#    schedule against the textbook O(n^2) sum at a small size.

n = 256
k = matrix_side(n)
x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
grid = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
plain_dft = grid @ x
err = np.abs(fft2d_natural(x) - plain_dft).max()
print("n=%d factors as a %dx%d grid; error vs the plain DFT: %.3e" % (n, k, k, err))

# --------------------------------------------------------------------
# 2. The permutation identity, exactly.  Both schedules perform the
#    same floating-point operations, only addressed differently, so
#    they agree bit for bit, not just within a tolerance.

for n in (64, 1024, 4096):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lhs = fft2d_permuted(x)
    rhs = digit_transpose(fft2d_natural(digit_transpose(x)))
    print("n=%5d permuted == D(natural(D(x))): %s" % (n, np.array_equal(lhs, rhs)))

# --------------------------------------------------------------------
# 3. What the reordering buys: physical transposes per convolution
#    (one forward plus one inverse transform).

print("transposes per convolution: natural %d, permuted %d"
      % (count_transposes("natural"), count_transposes("permuted")))

# --------------------------------------------------------------------
# 4. D is an involution: applying it twice is the identity, which is
#    why a digit-transposed spectrum can be multiplied pointwise and
#    transformed straight back.

v = np.arange(64.0)
print("D(D(x)) == x:", np.array_equal(digit_transpose(digit_transpose(v)), v))

# --------------------------------------------------------------------
# 5. The row kernel underneath is numpy's FFT along the last axis; the
#    batch axis lets one call transform all k rows of the matrix.

rows = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
batched = fft_small(rows)
print("batched row FFTs match single calls:",
      all(np.array_equal(batched[i], fft_small(rows[i])) for i in range(4)))
