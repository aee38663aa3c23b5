"""Transpose strategies and the memory row-span cost model."""

import numpy as np
import pytest

import qpa.transpose
from qpa import ParameterError
from qpa.transpose import (
    AccessCostReport,
    RunStats,
    bench_transpose,
    default_tile,
    render_bench_report,
    simulate_row_spans,
    transpose_blocked,
    transpose_naive,
)

# --------------------------------------------------------------------------
# the two strategies compute the same thing


def test_strategies_agree_with_numpy():
    rng = np.random.default_rng(40)
    for k in (8, 32, 128):
        for dtype in (np.float64, np.complex128, np.uint8):
            m = (rng.standard_normal((k, k)) * 100).astype(dtype)
            assert np.array_equal(transpose_naive(m), m.T)
            assert np.array_equal(transpose_blocked(m), m.T)


def test_blocked_tile_sweep():
    rng = np.random.default_rng(41)
    m = rng.standard_normal((64, 64))
    for tile in (1, 2, 4, 16, 64):
        assert np.array_equal(transpose_blocked(m, tile=tile), m.T)


def test_blocked_transposes_the_first_half_plus_one_rows():
    # the Hermitian half of a k x k spectrum, (k/2 + 1) x k, which the
    # real-output inverse transposes; the last row band cuts its tiles
    rng = np.random.default_rng(44)
    for k in (8, 128, 1024):
        m = rng.standard_normal((k // 2 + 1, k)) + 1j
        for tile in (None, 1 if k == 8 else 4, k):
            stats = RunStats()
            got = transpose_blocked(m, tile=tile, stats=stats)
            assert np.array_equal(got, m.T) and got.flags.c_contiguous, (k, tile)
            assert stats.transposes == 1
    for bad in (np.zeros((6, 8)), np.zeros((8, 5)), np.zeros((5, 12)), np.zeros((7, 12))):
        with pytest.raises(ParameterError):
            transpose_blocked(bad)
    # the naive strategy is the tiled one at a single k x k tile, and
    # takes square matrices only
    for k in (8, 128):
        m = rng.standard_normal((k, k)) + 1j
        stats = RunStats()
        assert np.array_equal(transpose_naive(m, stats=stats), transpose_blocked(m, tile=k))
        assert stats.transposes == 1
    with pytest.raises(ParameterError):
        transpose_naive(np.zeros((5, 8)))


def test_double_transpose_is_identity():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((32, 32))
    assert np.array_equal(transpose_blocked(transpose_blocked(m)), m)


def test_transpose_returns_fresh_memory():
    m = np.eye(8)
    out = transpose_blocked(m)
    out[0, 0] = 99
    assert m[0, 0] == 1.0


def test_shape_validation():
    for bad in (np.zeros(8), np.zeros((4, 8)), np.zeros((12, 12)), np.zeros((4, 4, 4))):
        with pytest.raises(ParameterError):
            transpose_naive(bad)
        with pytest.raises(ParameterError):
            transpose_blocked(bad)


def test_tile_validation():
    m = np.zeros((8, 8))
    for bad in (0, 3, 16, -2, 2.0):
        with pytest.raises(ParameterError):
            transpose_blocked(m, tile=bad)


def test_default_tile():
    assert default_tile(1024) == 32
    assert default_tile(8) == 4
    assert default_tile(64) == 4
    assert default_tile(256) == 8


def test_stats_count_physical_transposes():
    m = np.zeros((8, 8))
    stats = RunStats()
    transpose_naive(m, stats=stats)
    transpose_blocked(m, stats=stats)
    transpose_blocked(m, tile=2, stats=stats)
    assert stats.transposes == 3


# --------------------------------------------------------------------------
# row-span cost model


def test_naive_row_spans_closed_form():
    # writing row-major costs k (one event per row), reading
    # column-major costs k*k (every access changes rows)
    for k in (8, 64, 256, 1024):
        report = simulate_row_spans("naive", k)
        assert report.write_events == k
        assert report.read_events == k * k
        assert report.total == k + k * k


def test_blocked_row_spans_closed_form():
    # with the t x t scatter layout both sweeps cost t events per line
    for k, tile in ((8, 2), (8, 4), (64, 8), (256, 16), (1024, 32), (1024, 8)):
        report = simulate_row_spans("blocked", k, tile)
        assert report.write_events == tile * k
        assert report.read_events == tile * k
        assert report.total == 2 * tile * k


def test_k1024_row_spans_exact():
    assert simulate_row_spans("naive", 1024).total == 1049600
    assert simulate_row_spans("blocked", 1024, 32).total == 65536


def test_simulate_validation():
    with pytest.raises(ParameterError):
        simulate_row_spans("naive", 1024, tile=32)  # naive takes no tile
    with pytest.raises(ParameterError):
        simulate_row_spans("blocked", 1024, tile=1)  # degenerate layout
    with pytest.raises(ParameterError):
        simulate_row_spans("blocked", 1024, tile=3)
    with pytest.raises(ParameterError):
        simulate_row_spans("zigzag", 1024)
    with pytest.raises(ParameterError):
        simulate_row_spans("naive", 100)


def test_report_total_property():
    report = AccessCostReport("naive", 8, None, write_events=3, read_events=4)
    assert report.total == 7


# --------------------------------------------------------------------------
# benchmark harness


def test_bench_transpose_smoke():
    report = bench_transpose(64, repetitions=1)
    assert report["k"] == 64
    assert report["tile"] == default_tile(64)
    assert report["dtype"] == "complex128"
    # 64*64 complex128 entries = 0.5 Mb of data
    assert report["data_mbits"] == pytest.approx(0.5)
    assert report["naive_seconds"] > 0 and report["blocked_seconds"] > 0
    assert report["naive_gbps"] > 0 and report["blocked_gbps"] > 0
    assert report["naive_row_spans"] == 64 + 64 * 64
    assert report["blocked_row_spans"] == 2 * 4 * 64


def test_render_report():
    report = bench_transpose(32, repetitions=1)
    text = render_bench_report(report)
    assert "naive" in text and "blocked" in text
    assert "row spans" in text
    assert format(report["naive_row_spans"], ",") in text


def test_bench_rejects_bad_tile_before_any_copy(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return transpose_naive(*args, **kwargs)

    monkeypatch.setattr(qpa.transpose, "transpose_naive", counted)
    for tile in (1, 3):  # below the model's minimum; not a divisor of 64
        with pytest.raises(ParameterError):
            bench_transpose(64, tile=tile)
    assert calls == []
