"""Row-transform kernel, 2D long-transform schedules, real packing."""

import numpy as np
import pytest

import qpa.fft
from conftest import cyclic_convolve_naive
from qpa import ParameterError
from qpa.fft import (
    SMALL_SIZES,
    count_transposes,
    digit_transpose,
    fft2d_natural,
    fft2d_permuted,
    fft_small,
    is_supported_length,
    matrix_side,
    pointwise_multiply,
    real_pack,
    real_unpack_spectra,
    rotation_grid,
    supported_lengths,
)
from qpa.transpose import RunStats


def naive_dft(x, inverse=False):
    """O(m^2) reference: Y[o] = sum_m x[m] w**(o m), w = exp(-+2 pi i/m)."""
    x = np.asarray(x, dtype=np.complex128)
    m = x.shape[0]
    sign = 2j if inverse else -2j
    grid = np.exp(sign * np.pi * np.outer(np.arange(m), np.arange(m)) / m)
    return grid @ x


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --------------------------------------------------------------------------
# length bookkeeping


def test_supported_lengths():
    lengths = supported_lengths()
    assert lengths[0] == 64 and lengths[-1] == 1 << 20
    assert all(matrix_side(n) ** 2 == n for n in lengths)
    assert is_supported_length(4096)
    assert not is_supported_length(128)
    assert not is_supported_length(63)
    with pytest.raises(ParameterError):
        matrix_side(128)


# --------------------------------------------------------------------------
# tables


def test_rotation_grid():
    n = 256
    k = matrix_side(n)
    w = np.exp(-2j * np.pi * np.arange(n) / n)
    grid = rotation_grid(n)
    assert grid.shape == (k, k)
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    assert np.array_equal(grid, w[(i * j) % n])
    assert np.allclose(rotation_grid(n, inverse=True), np.conj(grid), atol=1e-15)
    with pytest.raises(ValueError):
        grid[0, 0] = 0


def test_rotation_grids_match_the_exp_formula_at_every_length():
    # built from cos and sin of float angles; the inverse is the conjugate
    for n in supported_lengths():
        k = matrix_side(n)
        e = np.outer(np.arange(k), np.arange(k)) % n
        for inverse, sign in ((False, -2j), (True, 2j)):
            want = np.exp(sign * np.pi * e / n)
            assert np.abs(rotation_grid(n, inverse) - want).max() <= 1e-15, (n, inverse)
        del e, want


# --------------------------------------------------------------------------
# row-transform kernel


def test_fft_small_matches_naive_dft():
    rng = np.random.default_rng(21)
    for m in (8, 32, 512):
        x = random_complex(rng, m)
        assert np.allclose(fft_small(x), naive_dft(x), atol=1e-9)
        assert np.allclose(
            fft_small(x, "inverse"), naive_dft(x, inverse=True), atol=1e-9
        )


def test_fft_small_round_trip_and_batching():
    rng = np.random.default_rng(22)
    x = random_complex(rng, (5, 64))  # leading axis is a batch
    spec = fft_small(x)
    assert spec.shape == x.shape
    back = fft_small(spec, "inverse") / 64.0
    assert np.allclose(back, x, atol=1e-12)
    for row in range(5):
        assert np.allclose(spec[row], fft_small(x[row]), atol=0)


def test_large_batches_split_over_two_threads_exactly(monkeypatch):
    # batches of 2^18 points or more run half their rows on a helper
    # thread; every row must come out as in one numpy call
    monkeypatch.setattr(qpa.fft, "_SPLIT", True)
    rng = np.random.default_rng(23)
    for shape in ((512, 512), (3, 256, 512), (64, 4096)):
        x = random_complex(rng, shape)
        assert np.array_equal(fft_small(x), np.fft.fft(x, axis=-1))
        assert np.array_equal(
            fft_small(x, "inverse"), np.fft.ifft(x, axis=-1, norm="forward")
        )


def test_two_thread_split_covers_the_range_and_reraises(monkeypatch):
    monkeypatch.setattr(qpa.fft, "_SPLIT", True)
    seen = []
    qpa.fft._in_halves(lambda lo, hi: seen.append((lo, hi)), 5, 1 << 18)
    assert sorted(seen) == [(0, 2), (2, 5)]

    def fail_first_half(lo, hi):
        if lo == 0:  # the helper thread's half
            raise MemoryError("helper")

    with pytest.raises(MemoryError, match="helper"):
        qpa.fft._in_halves(fail_first_half, 5, 1 << 18)


def test_fft_small_never_aliases_input():
    x = np.zeros(8, dtype=np.complex128)
    y = fft_small(x)
    assert y is not x
    y[0] = 99
    assert x[0] == 0


def test_fft_small_writes_into_out_in_place(monkeypatch):
    monkeypatch.setattr(qpa.fft, "_SPLIT", True)  # the two-thread split too
    rng = np.random.default_rng(24)
    for shape in ((4, 64), (512, 512)):
        x = random_complex(rng, shape)
        for direction, want in (
            ("forward", np.fft.fft(x, axis=-1)),
            ("inverse", np.fft.ifft(x, axis=-1, norm="forward")),
        ):
            buf = x.copy()
            assert fft_small(buf, direction, out=buf) is buf
            assert np.array_equal(buf, want)
    x = random_complex(rng, (4, 64))
    for bad in (np.empty((4, 32), complex), np.empty((4, 64)), np.empty((64, 4), complex).T):
        with pytest.raises(ParameterError):
            fft_small(x, out=bad)


def test_fft_small_accepts_real_input():
    x = np.arange(8, dtype=np.float64)
    assert np.allclose(fft_small(x), np.fft.fft(x), atol=1e-12)


def test_fft_small_validation():
    for bad in (np.zeros(4), np.zeros(12), np.zeros(8192), np.zeros(0)):
        with pytest.raises(ParameterError):
            fft_small(bad)
    with pytest.raises(ParameterError):
        fft_small(np.zeros(8), "backward")
    assert max(SMALL_SIZES) == 4096


# --------------------------------------------------------------------------
# 2D long transforms


def test_fft2d_natural_is_the_plain_dft():
    rng = np.random.default_rng(23)
    for n in (64, 1024):
        x = random_complex(rng, n)
        got = fft2d_natural(x)
        assert np.allclose(got, naive_dft(x), atol=1e-8 * n)
        assert np.allclose(
            fft2d_natural(x, "inverse"), naive_dft(x, inverse=True), atol=1e-8 * n
        )


def test_fft2d_natural_matches_numpy_at_4096():
    rng = np.random.default_rng(24)
    x = random_complex(rng, 4096)
    assert np.allclose(fft2d_natural(x), np.fft.fft(x), atol=1e-8)


def test_fft2d_round_trip():
    rng = np.random.default_rng(25)
    for n in (64, 4096):
        x = random_complex(rng, n)
        assert np.allclose(fft2d_natural(fft2d_natural(x), "inverse") / n, x, atol=1e-10)
        assert np.allclose(
            fft2d_permuted(fft2d_permuted(x), "inverse") / n, x, atol=1e-10
        )


def test_fft2d_parseval_both_variants():
    rng = np.random.default_rng(26)
    for n in (64, 1024):
        x = random_complex(rng, n)
        energy = np.sum(np.abs(x) ** 2)
        for fn in (fft2d_natural, fft2d_permuted):
            spec_energy = np.sum(np.abs(fn(x)) ** 2) / n
            assert abs(spec_energy - energy) < 1e-9 * energy


def test_fft2d_linearity():
    rng = np.random.default_rng(27)
    n = 1024
    x = random_complex(rng, n)
    y = random_complex(rng, n)
    a, b = 1.7 - 0.3j, -2.2 + 0.9j
    for fn in (fft2d_natural, fft2d_permuted):
        lhs = fn(a * x + b * y)
        rhs = a * fn(x) + b * fn(y)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() < 1e-9 * scale


def test_fft2d_input_not_mutated():
    rng = np.random.default_rng(28)
    x = random_complex(rng, 256)
    kept = x.copy()
    fft2d_natural(x)
    fft2d_permuted(x)
    fft2d_permuted(x[:(16 // 2 + 1) * 16], "inverse")
    assert np.array_equal(x, kept)


def test_overwrite_x_gives_the_same_result():
    rng = np.random.default_rng(29)
    for n in (64, 4096):
        x = random_complex(rng, n)
        for direction in ("forward", "inverse"):
            want = fft2d_permuted(x, direction)
            assert np.array_equal(fft2d_permuted(x.copy(), direction, overwrite_x=True), want)
        k = matrix_side(n)
        half = x[: (k // 2 + 1) * k]
        want = fft2d_permuted(half, "inverse")
        assert np.array_equal(fft2d_permuted(half.copy(), "inverse", overwrite_x=True), want)


def _hermitian_half(rng, n):
    """Rows 0..k/2 of the permuted spectrum of a random real signal."""
    k = matrix_side(n)
    x = rng.standard_normal(n)
    return x, fft2d_permuted(digit_transpose(x))[: (k // 2 + 1) * k]


def test_half_inverse_is_the_real_part_of_the_full_inverse():
    rng = np.random.default_rng(34)
    for n in (64, 256, 1024, 4096, 1 << 16):
        x, half = _hermitian_half(rng, n)
        full = fft2d_permuted(fft2d_permuted(digit_transpose(x)), "inverse")
        got = fft2d_permuted(half, "inverse")
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.abs(got - full.real).max() < 1e-9 * n, n
        # unscaled, digit-transposed: n times the signal in the layout
        assert np.abs(got / n - digit_transpose(x)).max() < 1e-12, n


def test_half_inverse_counts_one_transpose_and_checks_its_length():
    rng = np.random.default_rng(35)
    stats = RunStats()
    _, half = _hermitian_half(rng, 1024)
    fft2d_permuted(half, "inverse", stats=stats)
    assert stats.transposes == 1
    for bad in (half[:-1], np.concatenate((half, half[:32]))):
        with pytest.raises(ParameterError):
            fft2d_permuted(bad, "inverse")
    with pytest.raises(ParameterError):  # a half is an inverse's input only
        fft2d_permuted(half, "forward")


def test_fft2d_validation():
    with pytest.raises(ParameterError):
        fft2d_natural(np.zeros(128))
    with pytest.raises(ParameterError):
        fft2d_natural(np.zeros((8, 8)))
    with pytest.raises(ParameterError):
        fft2d_permuted(np.zeros(64), "sideways")


def test_natural_checks_arguments_before_any_transpose():
    stats = RunStats()
    with pytest.raises(ParameterError):
        fft2d_natural(np.zeros(64), "sideways", stats=stats)
    assert stats.transposes == 0


# --------------------------------------------------------------------------
# digit transpose and the permutation identity


def test_digit_transpose_is_an_involution():
    for n in (64, 1024):
        d = digit_transpose(np.arange(n))
        k = matrix_side(n)
        want = np.empty(n, dtype=np.int64)
        for i in range(k):
            for j in range(k):
                want[i * k + j] = j * k + i
        assert np.array_equal(d, want)
        assert np.array_equal(d[d], np.arange(n))


def test_digit_transpose_gather():
    v = np.arange(64)
    assert np.array_equal(digit_transpose(v), v.reshape(8, 8).T.reshape(-1))
    bits = np.random.default_rng(36).integers(0, 2, 4096, dtype=np.uint8)
    d = digit_transpose(bits)  # the bytes a distillation reorders
    assert d.dtype == np.uint8 and d.flags.c_contiguous
    assert np.array_equal(d, bits.reshape(64, 64).T.reshape(-1))
    assert np.array_equal(digit_transpose(digit_transpose(v)), v)
    with pytest.raises(ParameterError):
        digit_transpose(np.zeros((8, 8)))


def test_permuted_equals_conjugated_natural_exactly():
    # same floating-point operations, reordered addressing: the two
    # schedules agree bit for bit, not merely within tolerance
    rng = np.random.default_rng(29)
    for n in (64, 256, 4096):
        x = random_complex(rng, n)
        for direction in ("forward", "inverse"):
            lhs = fft2d_permuted(x, direction)
            rhs = digit_transpose(fft2d_natural(digit_transpose(x), direction))
            assert np.array_equal(lhs, rhs)


def test_transpose_counts():
    assert count_transposes("natural") == 6
    assert count_transposes("permuted") == 2
    assert count_transposes("natural", n=256) == 6
    assert count_transposes("permuted", n=256) == 2
    with pytest.raises(ParameterError):
        count_transposes("diagonal")


def test_stats_threading():
    stats = RunStats()
    fft2d_natural(np.zeros(64), stats=stats)
    assert stats.transposes == 3
    fft2d_permuted(np.zeros(64), stats=stats)
    assert stats.transposes == 4


# --------------------------------------------------------------------------
# real packing


def test_real_pack_layout():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.array([5.0, 6.0, 7.0, 8.0])
    z = real_pack(x, v)
    assert z.dtype == np.complex128
    assert np.array_equal(z.real, x) and np.array_equal(z.imag, v)
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    z = real_pack(bits, bits[::-1])
    assert z.dtype == np.complex128
    assert np.array_equal(z, bits + 1j * bits[::-1])
    with pytest.raises(ParameterError):
        real_pack(x, v[:3])


def test_one_transform_carries_two_real_spectra():
    # natural order: the halves are np.fft.rfft's n/2 + 1 frequencies
    rng = np.random.default_rng(30)
    for n in (64, 1024):
        x = rng.standard_normal(n)
        v = rng.standard_normal(n)
        x_hat, v_hat = real_unpack_spectra(fft2d_natural(real_pack(x, v)))
        assert x_hat.shape == v_hat.shape == (n // 2 + 1,)
        assert np.abs(x_hat - np.fft.rfft(x)).max() < 1e-9
        assert np.abs(v_hat - np.fft.rfft(v)).max() < 1e-9


def test_unpacked_zero_frequency_is_exactly_real():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(64)
    v = rng.standard_normal(64)
    x_hat, v_hat = real_unpack_spectra(fft2d_natural(real_pack(x, v)))
    assert x_hat[0].imag == 0.0
    assert v_hat[0].imag == 0.0


def test_unpack_handles_permuted_layout():
    # digit-transposed: the halves are the spectra's rows 0 .. k/2
    rng = np.random.default_rng(32)
    for n in (64, 256, 4096):
        k = matrix_side(n)
        rows = digit_transpose(np.arange(n))[: (k // 2 + 1) * k]
        x = rng.standard_normal(n)
        v = rng.standard_normal(n)
        z_hat = fft2d_permuted(digit_transpose(real_pack(x, v)))
        x_hat, v_hat = real_unpack_spectra(z_hat, permuted=True)
        assert x_hat.shape == v_hat.shape == rows.shape
        assert np.abs(x_hat - np.fft.fft(x)[rows]).max() < 1e-9
        assert np.abs(v_hat - np.fft.fft(v)[rows]).max() < 1e-9


def test_unpack_mirror_matches_index_map_split():
    # the reversed-slice mirror against a gather through explicit index
    # maps, on the half each layout keeps, at every supported length
    # (2^18 and 2^20 split on two threads)
    rng = np.random.default_rng(33)
    for n in supported_lengths():
        k = matrix_side(n)
        z_hat = random_complex(rng, n)
        d = digit_transpose(np.arange(n))
        for permuted, partner, half in (
            (False, (n - np.arange(n)) % n, n // 2 + 1),
            (True, d[(n - d) % n], (k // 2 + 1) * k),
        ):
            z, mirrored = z_hat[:half], np.conjugate(z_hat[partner[:half]])
            x_hat, v_hat = real_unpack_spectra(z_hat, permuted=permuted)
            assert np.array_equal(x_hat, (z + mirrored) * 0.5), (n, permuted)
            assert np.array_equal(v_hat, (z - mirrored) * -0.5j), (n, permuted)
            del mirrored, x_hat, v_hat


def test_unpack_validation():
    with pytest.raises(ParameterError):
        real_unpack_spectra(np.zeros((8, 8), dtype=np.complex128))
    with pytest.raises(ParameterError):  # no k x k layout to be permuted in
        real_unpack_spectra(np.zeros(128, dtype=np.complex128), permuted=True)


def test_pointwise_multiply():
    a = np.array([1 + 1j, 2.0])
    b = np.array([3.0, -1j])
    assert np.array_equal(pointwise_multiply(a, b), a * b)
    with pytest.raises(ParameterError):
        pointwise_multiply(a, np.zeros(3))


# --------------------------------------------------------------------------
# the convolution theorem end to end


def test_convolution_theorem_both_variants():
    rng = np.random.default_rng(33)
    d = {}
    for n in (64, 256, 1024):
        a = rng.integers(0, 2, n)
        b = rng.integers(0, 2, n)
        want = cyclic_convolve_naive(a, b)

        conv = fft2d_natural(
            pointwise_multiply(fft2d_natural(a), fft2d_natural(b)), "inverse"
        ) / n
        assert np.array_equal(np.rint(conv.real).astype(np.int64), want)
        assert np.abs(conv.imag).max() < 1e-9

        d[n] = digit_transpose(np.arange(n))
        conv_p = fft2d_permuted(
            pointwise_multiply(
                fft2d_permuted(a.astype(np.float64)[d[n]]),
                fft2d_permuted(b.astype(np.float64)[d[n]]),
            ),
            "inverse",
        ) / n
        assert np.array_equal(np.rint(conv_p.real[d[n]]).astype(np.int64), want)
