"""Square matrix transposition and its memory-access cost model.

The long-transform schedules in :mod:`qpa.fft` move data between
row-major passes by physically transposing a k x k matrix, or its
first k/2 + 1 rows in the real-output inverse.  A plain
transpose copy reads one operand column-major, which touches a different
memory row on every access when each matrix row occupies one memory row.
Splitting the matrix into t x t square tiles and moving whole tiles
keeps both the reads and the writes inside small groups of memory rows.

`simulate_row_spans` replays the access order of either strategy against
that one-matrix-row-per-memory-row model and counts row-change events,
so the modeled costs are derived from the trace rather than quoted.
Its tile, `default_tile(k)`, is not the tile the transposes execute
with: on a CPU every tile is one Python-level slice copy, so
`transpose_blocked` picks the measured min(k, 64) unless given a tile.
It is the one place that picks or checks an executed tile; the
long-transform schedules pass none.
"""

import dataclasses
import time

import numpy as np

from .errors import ParameterError

__all__ = [
    "RunStats",
    "AccessCostReport",
    "default_tile",
    "transpose_naive",
    "transpose_blocked",
    "simulate_row_spans",
    "bench_transpose",
    "render_bench_report",
]


@dataclasses.dataclass
class RunStats:
    """Per-run instrumentation: physical transposes and stage seconds."""

    transposes: int = 0
    timings: dict = dataclasses.field(default_factory=dict)

    def total_seconds(self):
        return sum(self.timings.values())


def _is_pow2(x):
    return isinstance(x, int) and x > 0 and x & (x - 1) == 0


def _require_side(m):
    """Side k of a k x k matrix or of its rows 0 .. k/2 (k/2 + 1 of them).

    The second shape is the Hermitian half of a spectrum, which the
    real-output inverse transposes.
    """
    if m.ndim != 2 or m.shape[0] not in (m.shape[1], m.shape[1] // 2 + 1):
        raise ParameterError(
            "expected a k x k matrix or its first k/2 + 1 rows, got shape %r" % (m.shape,)
        )
    k = m.shape[1]
    if not _is_pow2(k):
        raise ParameterError("matrix side must be a power of two, got %d" % k)
    return k


# Largest tile the transposes execute with when the caller picks none.
# One k x k complex128 transpose on a 2-core x86 VM (numpy 2.4.6): tile
# 64 is within microseconds of one strided copy up to k = 256 and beats
# it from k = 512, where the copy's column reads miss the cache; the
# model's `default_tile` runs a Python loop of up to 1024 tile copies
# and is slower at every k (README, "Tiled transposes").
_EXECUTED_TILE = 64


def _require_tile(k, tile):
    """The tile to execute with: ``tile`` checked, or min(k, 64) if None."""
    if tile is None:
        return min(k, _EXECUTED_TILE)
    if not isinstance(tile, int) or tile < 1 or tile > k or k % tile:
        raise ParameterError("tile %r must divide the matrix side %d" % (tile, k))
    return tile


def default_tile(k):
    """Tile side of the memory-row model (32 at k=1024).

    `simulate_row_spans` and `bench_transpose` use it when no tile is
    given.  The schedules' transposes execute at min(k, 64)
    (`transpose_blocked`).
    """
    return max(4, k // 32)


def transpose_naive(m, stats=None):
    """Transpose a k x k matrix by a single strided copy.

    `transpose_blocked` at one tile of side k: writes the source
    row-major and reads it column-major, the access pattern whose
    modeled cost is k + k**2 row-span events.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError("expected a square matrix, got shape %r" % (m.shape,))
    return transpose_blocked(m, tile=m.shape[0], stats=stats)


def transpose_blocked(m, tile=None, stats=None):
    """Transpose by swapping square tiles.

    Parameters
    ----------
    m : ndarray, k x k with k a power of two, or its first k/2 + 1 rows
        (the tiles of the last row band are cut short).
    tile : int, optional
        Tile side; must divide k.  Defaults to min(k, 64), the tile
        measured fastest on a CPU, not the model's `default_tile(k)`.
        The long-transform schedules always take the default; an
        explicit tile is for experiments such as `bench_transpose`.
    stats : RunStats, optional
        Incremented once per call.

    Returns
    -------
    ndarray
        New array equal to ``m.T``.
    """
    m = np.asarray(m)
    k = _require_side(m)
    tile = _require_tile(k, tile)
    if stats is not None:
        stats.transposes += 1
    out = np.empty(m.shape[::-1], dtype=m.dtype)
    for i0 in range(0, m.shape[0], tile):
        ii = slice(i0, i0 + tile)
        for j0 in range(0, k, tile):
            jj = slice(j0, j0 + tile)
            out[jj, ii] = m[ii, jj].T
    return out


@dataclasses.dataclass
class AccessCostReport:
    """Modeled row-span events for one transpose strategy."""

    strategy: str
    k: int
    tile: object
    write_events: int
    read_events: int

    @property
    def total(self):
        return self.write_events + self.read_events


def _blocked_memory_rows(k, tile):
    # Scatter layout: element (i, j) of the source lives in memory row
    # t*(i div (k/t)) + (j div (k/t)), so row-major and column-major
    # sweeps both stay within t memory rows per line.
    group = k // tile
    i = np.arange(k, dtype=np.int64)
    return tile * (i[:, None] // group) + i[None, :] // group


def simulate_row_spans(strategy, k, tile=None):
    """Replay a transpose strategy's access order and count row spans.

    Memory rows hold k elements each, one matrix row per memory row.  An
    access costs one event when it lands in a different memory row than
    its predecessor; the first access of a phase always counts as one.

    Parameters
    ----------
    strategy : {"naive", "blocked"}
    k : int
        Matrix side, a power of two.
    tile : int, optional
        Blocked strategy only; 2 <= tile <= k and tile must divide k
        (tile=1 would collapse the scatter layout onto one memory row).

    Returns
    -------
    AccessCostReport
        Write-phase and read-phase event counts derived from the trace.
    """
    if not _is_pow2(k):
        raise ParameterError("matrix side must be a power of two, got %r" % (k,))
    if strategy == "naive":
        if tile is not None:
            raise ParameterError("naive strategy takes no tile")
        write_trace = np.repeat(np.arange(k, dtype=np.int64), k)
        read_trace = np.tile(np.arange(k, dtype=np.int64), k)
    elif strategy == "blocked":
        tile = _require_tile(k, default_tile(k) if tile is None else tile)
        if tile < 2:
            raise ParameterError("simulator tile must be at least 2, got %d" % tile)
        rows = _blocked_memory_rows(k, tile)
        write_trace = rows.reshape(-1)
        read_trace = rows.T.reshape(-1)
    else:
        raise ParameterError("unknown strategy %r" % (strategy,))
    write_events, read_events = (
        1 + int(np.count_nonzero(trace[1:] != trace[:-1])) for trace in (write_trace, read_trace)
    )
    return AccessCostReport(strategy, k, tile, write_events, read_events)


def _best_seconds(fn, repetitions):
    best = None
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def bench_transpose(k, tile=None, repetitions=3):
    """Wall-clock both strategies on identical complex128 data.

    Checks the two outputs for equality before timing, then reports
    best-of-`repetitions` throughput alongside the modeled row spans,
    as totals and as write and read counts.  Gbps uses decimal 1e9; the
    data size is reported in Mb (2**20 bits).  The data is drawn from a
    fixed seed (17).  With no ``tile`` the blocked strategy runs at the
    model's `default_tile(k)`.
    The modeled totals come first, so a tile the model rejects fails
    before any data is made or timed.
    """
    sim_naive = simulate_row_spans("naive", k)
    sim_blocked = simulate_row_spans("blocked", k, tile)
    tile = sim_blocked.tile
    rng = np.random.default_rng(17)
    data = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))

    if not np.array_equal(transpose_naive(data), transpose_blocked(data, tile)):
        raise AssertionError("strategy outputs diverged; refusing to time")

    naive_s = _best_seconds(lambda: transpose_naive(data), repetitions)
    blocked_s = _best_seconds(lambda: transpose_blocked(data, tile), repetitions)
    bits = k * k * data.itemsize * 8
    return {
        "k": k,
        "tile": tile,
        "dtype": data.dtype.name,
        "repetitions": repetitions,
        "data_mbits": bits / 2.0**20,
        "naive_seconds": naive_s,
        "blocked_seconds": blocked_s,
        "naive_gbps": bits / naive_s / 1e9,
        "blocked_gbps": bits / blocked_s / 1e9,
        "naive_row_spans": sim_naive.total,
        "blocked_row_spans": sim_blocked.total,
        "naive_row_span_writes": sim_naive.write_events,
        "naive_row_span_reads": sim_naive.read_events,
        "blocked_row_span_writes": sim_blocked.write_events,
        "blocked_row_span_reads": sim_blocked.read_events,
    }


def render_bench_report(report):
    """Format a `bench_transpose` report as a line-oriented text table,
    followed by each strategy's modeled row spans."""
    lines = [
        "transpose bench: k=%(k)d tile=%(tile)d dtype=%(dtype)s "
        "data=%(data_mbits).1f Mb (best of %(repetitions)d)" % report,
        "  %-8s %12s %10s" % ("strategy", "seconds", "Gbps"),
    ]
    for strategy in ("naive", "blocked"):
        lines.append(
            "  %-8s %12.6f %10.2f"
            % (strategy, report[strategy + "_seconds"], report[strategy + "_gbps"])
        )
    for strategy in ("naive", "blocked"):
        lines.append(
            "modeled row spans %-8s k=%d: write %s + read %s = %s"
            % (strategy, report["k"],
               format(report[strategy + "_row_span_writes"], ","),
               format(report[strategy + "_row_span_reads"], ","),
               format(report[strategy + "_row_spans"], ","))
        )
    return "\n".join(lines)
