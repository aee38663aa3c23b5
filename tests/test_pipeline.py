"""End-to-end distillation pipeline against the exact reference hash."""

import tracemalloc
import warnings

import numpy as np
import pytest

import qpa.fft
import qpa.pipeline
from conftest import random_bitvector, random_seed
from qpa import (
    BitVector,
    ParameterError,
    PrecisionError,
    RunStats,
    ToeplitzSeed,
    build_operands,
    precision_profile,
    privacy_amplify,
)
from qpa.fft import digit_transpose
from qpa.oracle import hash_direct
from qpa.pipeline import MODES, RESIDUAL_LIMIT, _gate_residual, convolve
from qpa.transpose import _require_tile, default_tile, transpose_blocked

# --------------------------------------------------------------------------
# operand embedding


def test_operand_layout():
    rng = np.random.default_rng(50)
    n, r = 64, 20
    x = random_bitvector(rng, n)
    seed = random_seed(rng, n)
    x_masked, v_circ = build_operands(x, seed, r)
    # the operands stay bits: two length-n uint8 vectors of 0/1 values
    for op in (x_masked, v_circ):
        assert op.dtype == np.uint8 and op.shape == (n,)
        assert set(np.unique(op)) <= {0, 1}
    assert v_circ[0] == 0
    vb = seed.bits.to_bits()
    for p in (1, 2, 17, n - 1):
        assert v_circ[p] == vb[n - 1 - p]
    xb = x.to_bits()
    assert not x_masked[:r].any()
    assert np.array_equal(x_masked[r:], xb[r:])


def test_operand_validation():
    rng = np.random.default_rng(51)
    x = random_bitvector(rng, 64)
    seed = random_seed(rng, 64)
    with pytest.raises(ParameterError):
        build_operands(x.to_bits(), seed, 8)
    with pytest.raises(ParameterError):
        build_operands(x, seed.bits, 8)
    with pytest.raises(ParameterError):
        build_operands(x, random_seed(rng, 65), 8)
    for bad_r in (0, 64, -3):
        with pytest.raises(ParameterError):
            build_operands(x, seed, bad_r)


def test_operand_validation_rejects_non_integer_r():
    rng = np.random.default_rng(51)
    x = random_bitvector(rng, 64)
    seed = random_seed(rng, 64)
    for bad_r in (10.0, "10"):
        with pytest.raises(ParameterError):
            build_operands(x, seed, bad_r)


# --------------------------------------------------------------------------
# the pipeline equals the exact hash


def test_pipeline_matches_oracle():
    rng = np.random.default_rng(52)
    for n in (64, 256, 1024):
        for _ in range(25):
            x = random_bitvector(rng, n)
            seed = random_seed(rng, n)
            r = int(rng.integers(1, n))
            want = hash_direct(x, seed, r)
            for mode in ("A", "B"):
                key = privacy_amplify(x, seed, r, mode=mode)
                assert key.bits == want, (n, r, mode)
                assert key.mode == mode
                assert 0.0 <= key.residual < RESIDUAL_LIMIT
                assert key.bits.length == r


def test_modes_agree_bit_for_bit():
    rng = np.random.default_rng(53)
    for n in (64, 4096):
        x = random_bitvector(rng, n)
        seed = random_seed(rng, n)
        r = n // 3
        a = privacy_amplify(x, seed, r, mode="A")
        b = privacy_amplify(x, seed, r, mode="B")
        assert a.bits == b.bits
        default = privacy_amplify(x, seed, r)
        assert default.mode == "B" and default.bits == b.bits


def test_trivial_cases():
    rng = np.random.default_rng(54)
    n, r = 256, 100
    x = random_bitvector(rng, n)
    zero_seed = ToeplitzSeed(BitVector.zeros(n - 1))
    for mode in ("A", "B"):
        # all-zero seed: the compressing block vanishes, the head passes through
        key = privacy_amplify(x, zero_seed, r, mode=mode)
        assert np.array_equal(key.bits.to_bits(), x.to_bits()[:r])
        # all-zero input: nothing to hash
        key = privacy_amplify(BitVector.zeros(n), random_seed(rng, n), r, mode=mode)
        assert key.bits == BitVector.zeros(r)


def test_pipeline_is_linear_in_the_input():
    rng = np.random.default_rng(55)
    for n in (64, 256):
        seed = random_seed(rng, n)
        r = n // 2
        x1 = random_bitvector(rng, n)
        x2 = random_bitvector(rng, n)
        lhs = privacy_amplify(x1 ^ x2, seed, r, mode="B").bits
        rhs = privacy_amplify(x1, seed, r, mode="B").bits ^ privacy_amplify(
            x2, seed, r, mode="B"
        ).bits
        assert lhs == rhs


# --------------------------------------------------------------------------
# mode B schedule details


def test_mode_b_convolution_equals_mode_a():
    rng = np.random.default_rng(56)
    for n in (64, 1024):
        ops = build_operands(random_bitvector(rng, n), random_seed(rng, n), n // 2)
        conv_a = convolve(*ops, "A")
        conv_b = digit_transpose(convolve(*ops, "B"))
        # address translation only: identical arithmetic, identical result
        assert np.array_equal(conv_b, conv_a)
        assert np.abs(conv_b - conv_a).max() < 1e-9  # the documented bound


def test_mode_b_result_is_digit_transposed():
    rng = np.random.default_rng(57)
    n = 64
    ops = build_operands(random_bitvector(rng, n), random_seed(rng, n), 20)
    conv_a = convolve(*ops, "A")
    conv_b = convolve(*ops, "B")
    assert np.array_equal(conv_b, conv_a[digit_transpose(np.arange(n))])
    assert np.array_equal(digit_transpose(conv_b), conv_a)


def test_mode_b_rejects_unsupported_length():
    x_masked, v_circ = build_operands(
        BitVector.zeros(64), ToeplitzSeed(BitVector.zeros(63)), 8
    )
    for mode in MODES:
        with pytest.raises(ParameterError):
            convolve(x_masked[:32], v_circ[:32], mode)


def test_convolve_rejects_unknown_mode():
    ops = build_operands(
        BitVector.zeros(64), ToeplitzSeed(BitVector.zeros(63)), 8
    )
    for mode in ("C", "b", None):
        with pytest.raises(ParameterError):
            convolve(*ops, mode)


def test_mode_b_reorders_bits_not_complex_values(monkeypatch):
    # load and store translate addresses on bytes: the two operands and
    # the parity, never a complex buffer
    rng = np.random.default_rng(61)
    n = 1 << 12
    x, seed = random_bitvector(rng, n), random_seed(rng, n)
    seen = []

    def recorded(v):
        seen.append(np.asarray(v).dtype)
        return digit_transpose(v)

    monkeypatch.setattr(qpa.pipeline, "digit_transpose", recorded)
    key = privacy_amplify(x, seed, n // 2, mode="B")
    assert key.bits == hash_direct(x, seed, n // 2)
    assert seen == [np.dtype(np.uint8)] * 3


def test_peak_memory_of_one_distillation():
    # the operands are bytes and no complex buffer is reordered, so one
    # distillation stays under 4 complex128 buffers (16n bytes each) in
    # mode B and 4.5 in mode A
    rng = np.random.default_rng(62)
    n = 1 << 18
    x, seed = random_bitvector(rng, n), random_seed(rng, n)
    for mode, limit in (("B", 64 * n), ("A", 72 * n)):
        privacy_amplify(x, seed, n // 2, mode=mode)  # caches the rotation grids
        tracemalloc.start()
        try:
            privacy_amplify(x, seed, n // 2, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (mode, peak / n)


# --------------------------------------------------------------------------
# the rounding gate


def test_residual_gate():
    _gate_residual(0.2499, 64)
    for bad in (0.25, 0.3, float("nan")):
        with pytest.raises(PrecisionError):
            _gate_residual(bad, 64)
    assert RESIDUAL_LIMIT == 0.25


def test_non_finite_convolution_fails_the_gate_silently(monkeypatch):
    # the finalize step takes the parity before the gate runs; a NaN or
    # inf must still end in PrecisionError, with no warning on the way
    rng = np.random.default_rng(66)
    n = 1 << 18  # several finalize blocks
    x = random_bitvector(rng, n)
    seed = random_seed(rng, n)
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        conv = np.zeros(n, dtype=np.complex128)
        conv[n - 5] = bad

        monkeypatch.setattr(qpa.pipeline, "convolve", lambda *a, conv=conv, **k: conv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionError):
                privacy_amplify(x, seed, n // 2, mode="B")


def test_residuals_stay_tiny_at_moderate_sizes():
    rows = precision_profile([64, 256, 4096], random_instances=2)
    assert [row["n"] for row in rows] == [64, 256, 4096]
    for row in rows:
        assert 0.0 <= row["allones_residual"] < 1e-6
        assert 0.0 <= row["random_residual"] < 1e-6
        assert row["max_residual"] == max(
            row["allones_residual"], row["random_residual"]
        )


def test_residual_at_the_largest_length():
    # the all-ones block (every term contributes) and the default random
    # instances stay far inside the gate at n = 2^20, in both modes
    for mode in MODES:
        (row,) = precision_profile([1 << 20], mode=mode)
        assert row["max_residual"] < 1e-10


def test_precision_profile_validation():
    with pytest.raises(ParameterError):
        precision_profile([100])


# --------------------------------------------------------------------------
# parameter plumbing


def test_security_margin_check():
    rng = np.random.default_rng(58)
    n = 64
    x = random_bitvector(rng, n)
    seed = random_seed(rng, n)
    # n - t - r = 64 - 10 - 50 = 4
    privacy_amplify(x, seed, 50, t=10, s_min=4)
    with pytest.raises(ParameterError):
        privacy_amplify(x, seed, 50, t=10, s_min=5)
    with pytest.raises(ParameterError):
        privacy_amplify(x, seed, 50, t=-1)
    # without t no margin is enforced
    privacy_amplify(x, seed, 63)


def test_margin_below_one_is_rejected_whatever_s_min():
    rng = np.random.default_rng(60)
    n = 256
    x = random_bitvector(rng, n)
    seed = random_seed(rng, n)
    # n - t - r = 256 - 10 - 250 = -4, and 256 - 10 - 246 = 0
    for r, s_min in ((250, -10), (246, 0)):
        with pytest.raises(ParameterError, match="at least 1"):
            privacy_amplify(x, seed, r, t=10, s_min=s_min)
    assert privacy_amplify(x, seed, 245, t=10, s_min=0).bits.length == 245


def test_pipeline_validation():
    rng = np.random.default_rng(59)
    x = random_bitvector(rng, 64)
    seed = random_seed(rng, 64)
    with pytest.raises(ParameterError):
        privacy_amplify(x.to_bits(), seed, 8)
    with pytest.raises(ParameterError):
        privacy_amplify(random_bitvector(rng, 128), random_seed(rng, 128), 8)
    with pytest.raises(ParameterError):
        privacy_amplify(x, seed, 8, mode="C")
    for bad_r in (0, 64):
        with pytest.raises(ParameterError):
            privacy_amplify(x, seed, bad_r)


def test_unsupported_length_fails_before_the_build():
    rng = np.random.default_rng(63)
    n = 3000  # not k*k for a power of two k
    stats = RunStats()
    with pytest.raises(ParameterError):
        privacy_amplify(random_bitvector(rng, n), random_seed(rng, n), 100, stats=stats)
    assert "build" not in stats.timings


def test_run_stats():
    rng = np.random.default_rng(60)
    n = 256
    x = random_bitvector(rng, n)
    seed = random_seed(rng, n)
    stats = RunStats()
    privacy_amplify(x, seed, 100, mode="A", stats=stats)
    assert stats.transposes == 6
    stage_names = set(stats.timings)
    assert {"build", "pack", "forward", "unpack", "multiply", "inverse", "finalize"} <= stage_names
    assert stats.total_seconds() == pytest.approx(sum(stats.timings.values()))

    stats = RunStats()
    privacy_amplify(x, seed, 100, mode="B", stats=stats)
    assert stats.transposes == 2


def test_schedules_transpose_at_the_executed_tile(monkeypatch):
    # the executed tile is min(k, 64), not the row-span model's
    # default_tile(k).  Only the counted transposes are recorded:
    # digit_transpose runs the same copy without stats.
    rng = np.random.default_rng(64)
    tiles = []

    def recorded(m, tile=None, stats=None):
        if stats is not None:
            tiles.append(_require_tile(m.shape[0], tile))
        return transpose_blocked(m, tile=tile, stats=stats)

    monkeypatch.setattr(qpa.fft, "transpose_blocked", recorded)
    for k in (8, 128, 1024):
        n = k * k
        x = random_bitvector(rng, n)
        seed = random_seed(rng, n)
        for mode, count in (("A", 6), ("B", 2)):
            tiles.clear()
            privacy_amplify(x, seed, n // 2, mode=mode, stats=RunStats())
            assert tiles == [min(k, 64)] * count


def _force_tile(monkeypatch, tile_of):
    """Make every transpose in qpa.fft run at tile_of(k); return the tiles run."""
    ran = []

    def forced(m, tile=None, stats=None):
        ran.append(tile_of(m.shape[0]))
        return transpose_blocked(m, tile=ran[-1], stats=stats)

    monkeypatch.setattr(qpa.fft, "transpose_blocked", forced)
    return ran


def test_keys_do_not_depend_on_the_tile(monkeypatch):
    rng = np.random.default_rng(65)
    for p in range(3, 10):
        k = 1 << p
        n = k * k
        x = random_bitvector(rng, n)
        seed = random_seed(rng, n)
        r = int(rng.integers(1, n))
        for mode in MODES:
            key = privacy_amplify(x, seed, r, mode=mode).bits
            for tile_of in (default_tile, lambda side: side):
                with monkeypatch.context() as m:
                    ran = _force_tile(m, tile_of)
                    assert privacy_amplify(x, seed, r, mode=mode).bits == key
                assert ran and set(ran) == {tile_of(k)}
    n = 1 << 20
    x = random_bitvector(rng, n)
    seed = random_seed(rng, n)
    key = privacy_amplify(x, seed, n // 2, mode="B").bits
    ran = _force_tile(monkeypatch, default_tile)
    assert privacy_amplify(x, seed, n // 2, mode="B").bits == key
    assert ran and set(ran) == {default_tile(1024)}
