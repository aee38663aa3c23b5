"""
Two real transforms for the price of one
========================================

The convolution at the heart of privacy amplification transforms two
real-valued vectors.  A complex FFT of a real input wastes half its
arithmetic, so the pipeline packs both operands into one complex buffer
(x as the real part, v as the imaginary part), transforms once, and
splits the spectra afterwards with the mirror rule

    X(f) = (Z(f) + conj(Z(n-f))) / 2
    V(f) = (Z(f) - conj(Z(n-f))) / (2i)

Both spectra are Hermitian (X(n-f) = conj(X(f))), so the split returns
only their non-redundant halves: the first n/2 + 1 frequencies, the
layout of ``np.fft.rfft``.  The pipeline does the same on the rows
0 .. k/2 of its digit-transposed layout, and its inverse takes that half
and returns the real result.

This script shows the split is numerically exact to working precision.
"""

import numpy as np

from qpa import fft2d_natural, real_pack, real_unpack_spectra

rng = np.random.default_rng(7)

for n in (64, 1024, 65536):
    x = rng.standard_normal(n)
    v = rng.standard_normal(n)

    # one combined transform ...
    z_hat = fft2d_natural(real_pack(x, v))
    x_hat, v_hat = real_unpack_spectra(z_hat)

    # ... versus two separate ones, on the n/2 + 1 independent frequencies
    half = n // 2 + 1
    err_x = np.abs(x_hat - fft2d_natural(x)[:half]).max()
    err_v = np.abs(v_hat - fft2d_natural(v)[:half]).max()
    print("n=%6d  %d of %d frequencies, max error: x %.3e  v %.3e"
          % (n, half, n, err_x, err_v))

# The zero-frequency bin pairs with itself, so the mirror rule makes it
# exactly real: the sums of x and of v drop out with no imaginary dust.
n = 1024
x = rng.standard_normal(n)
v = rng.standard_normal(n)
x_hat, v_hat = real_unpack_spectra(fft2d_natural(real_pack(x, v)))
print("DC bins: X(0) = %.6f%+.1fj (sum %.6f)" % (x_hat[0].real, x_hat[0].imag, x.sum()))
print("         V(0) = %.6f%+.1fj (sum %.6f)" % (v_hat[0].real, v_hat[0].imag, v.sum()))

# Counting the work: one length-n complex transform replaces two, and
# the split costs only a mirrored add/subtract pass over half the
# frequencies.  The pipeline's forward stage therefore runs at half the
# transform cost it would pay for x and v separately.
print("one forward transform now carries both operands")
