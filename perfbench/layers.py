"""Traced run: per-layer metrics from spans recorded around calls into qpa.

Spans are recorded from outside the package.  `instrumented` swaps each
traced function for a wrapper in every ``qpa`` module namespace that
binds it and puts the originals back afterwards; no tracing code lives
in ``src/qpa``.  A span holds its name, start, end, parent span and
operation id.  Spans stay in memory and are written out once, when the
run ends.

Some traced names are internal and may be merged or deleted by later
changes (``run_mode_b_schedule``, ``fft_small``, ``RunStats``,
``digit_transpose``, ``real_unpack_spectra``).  Each is looked up by
name; when it is gone, the metrics built on it are reported as missing
instead of crashing the run.

Which end-to-end metric each layer metric should move, and where:

* fft.row_pass_s / forward_s / inverse_s / row_pass_gflops: distill_s_*
  and distill_mbit_s on large_block, barely on small_blocks.
* fft.rotation_s / pack_s / unpack_s / multiply_s: distill_* and
  peak_mem_mb on large_block.
* fft.digit_transpose_s, transpose.*: distill_* on small_blocks; on
  large_block only by the transposes' share of about 5%.
* pipeline.peak_buffers: peak_mem_mb on large_block.
* oracle.*: verify_s_* on audit, nothing on the other two workloads.
* core.*: distill_s_p50 on small_blocks and audit.
* cli.overhead_s: distill_s_p50 on audit.
* pipeline.mode_a_over_b, transpose.naive_over_blocked and the floor.*
  ratios are references that move no gate.
"""

import contextlib
import functools
import math
import statistics
import sys
import time
import traceback
import tracemalloc

import qpa
import workloads

# (span name, module, attribute); "Class.method" names a classmethod.
TRACED = (
    ("core.generate_seed", "qpa.core", "generate_seed"),
    ("core.from_bits", "qpa.core", "BitVector.from_bits"),
    ("core.read_bits", "qpa.core", "read_bits"),
    ("core.write_bits", "qpa.core", "write_bits"),
    ("oracle.hash_direct", "qpa.oracle", "hash_direct"),
    ("pipeline.privacy_amplify", "qpa.pipeline", "privacy_amplify"),
    ("pipeline.build_operands", "qpa.pipeline", "build_operands"),
    ("pipeline.convolve", "qpa.pipeline", "run_mode_b_schedule"),
    ("fft.pack", "qpa.fft", "real_pack"),
    ("fft.unpack", "qpa.fft", "real_unpack_spectra"),
    ("fft.multiply", "qpa.fft", "pointwise_multiply"),
    ("fft.transform", "qpa.fft", "fft2d_permuted"),
    ("fft.row_pass", "qpa.fft", "fft_small"),
    ("transpose.blocked", "qpa.transpose", "transpose_blocked"),
)

# name -> (unit, better), in the order the run prints them
METRICS = {
    "fft.row_pass_s": ("s", "lower"),
    "fft.row_pass_gflops": ("Gflop/s", "higher"),
    "fft.forward_s": ("s", "lower"),
    "fft.inverse_s": ("s", "lower"),
    "fft.rotation_s": ("s", "lower"),
    "fft.pack_s": ("s", "lower"),
    "fft.unpack_s": ("s", "lower"),
    "fft.multiply_s": ("s", "lower"),
    "fft.digit_transpose_s": ("s", "lower"),
    "transpose.blocked_s": ("s", "lower"),
    "transpose.naive_s": ("s", "lower"),
    "transpose.blocked_gbps": ("GB/s", "higher"),
    "transpose.naive_over_blocked": ("ratio", "higher"),
    "transpose.tile_copies": ("count", "lower"),
    "transpose.row_spans_blocked": ("count", "lower"),
    "transpose.row_spans_naive": ("count", "lower"),
    "pipeline.privacy_amplify_s": ("s", "lower"),
    "pipeline.build_operands_s": ("s", "lower"),
    "pipeline.convolve_s": ("s", "lower"),
    "pipeline.finalize_s": ("s", "lower"),
    "pipeline.transposes_b": ("count", "lower"),
    "pipeline.transposes_a": ("count", "lower"),
    "pipeline.peak_buffers": ("count", "lower"),
    "pipeline.mode_a_over_b": ("ratio", "higher"),
    "oracle.hash_direct_s": ("s", "lower"),
    "oracle.and_ops": ("count", "lower"),
    "core.generate_seed_s": ("s", "lower"),
    "core.from_bits_s": ("s", "lower"),
    "core.read_bits_s": ("s", "lower"),
    "core.write_bits_s": ("s", "lower"),
    "cli.run_s": ("s", "lower"),
    "cli.verify_s": ("s", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "floor.rfft_conv_s": ("s", "lower"),
    "floor.over_floor": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unaccounted_share": ("ratio", "lower"),
}

PROBE_BUDGET_S = 1.0  # wall time per untraced probe, at least MIN_REPS calls
MIN_REPS = 3
MAX_REPS = 25


class Tracer:
    """In-memory span recorder.  Spans nest through a stack; wrapped
    calls record only while ``active`` is set, so input preparation and
    the benchmark's own checks stay out of the trace."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.op = -1
        self.active = False
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name
            if name == "fft.transform":
                direction = args[1] if len(args) > 1 else kwargs.get("direction", "forward")
                label = "fft." + direction
            with self.span(label):
                return fn(*args, **kwargs)

        return traced


@contextlib.contextmanager
def instrumented(tracer):
    """Trace every name in TRACED that exists; yields the missing ones."""
    modules = [m for key, m in list(sys.modules.items()) if key == "qpa" or key.startswith("qpa.")]
    undo, missing = [], []
    try:
        for name, modname, attr in TRACED:
            owner = sys.modules.get(modname)
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name, None)
                raw = vars(cls).get(attr) if cls is not None else None
                if not isinstance(raw, classmethod):
                    missing.append(name)
                    continue
                setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
                undo.append((cls, attr, raw))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        yield missing
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


def lookup(name):
    """A package name that later changes may remove; None when gone."""
    for module in ("qpa", "qpa.pipeline", "qpa.fft", "qpa.transpose", "qpa.core", "qpa.oracle"):
        found = getattr(sys.modules.get(module), name, None)
        if found is not None:
            return found
    return None


def interleaved_medians(fns):
    """Median seconds of each callable, called in turn for up to
    PROBE_BUDGET_S of wall time (MIN_REPS to MAX_REPS rounds)."""
    times = [[] for _ in fns]
    deadline = time.perf_counter() + PROBE_BUDGET_S
    while len(times[0]) < MIN_REPS or (len(times[0]) < MAX_REPS and time.perf_counter() < deadline):
        for fn, acc in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            acc.append(time.perf_counter() - t0)
    return [statistics.median(acc) for acc in times]


def peak_mb(wl, blk):
    """tracemalloc peak of one distillation, in MiB."""
    tracemalloc.start()
    try:
        wl.distill(blk)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _durations(spans, name):
    return [s[2] - s[1] for s in spans if s[0] == name]


def span_metrics(spans):
    """Per-layer medians and self times from the recorded spans."""
    child_sum = [0.0] * len(spans)
    by_parent_name = {}
    for rec in spans:
        if rec[3] >= 0:
            child_sum[rec[3]] += rec[2] - rec[1]
            key = (rec[3], rec[0])
            by_parent_name[key] = by_parent_name.get(key, 0.0) + rec[2] - rec[1]
    med = {}

    def put(metric, values):
        if values:
            med[metric] = statistics.median(values)

    for metric, span in (
        ("fft.row_pass_s", "fft.row_pass"),
        ("fft.forward_s", "fft.forward"),
        ("fft.inverse_s", "fft.inverse"),
        ("fft.pack_s", "fft.pack"),
        ("fft.unpack_s", "fft.unpack"),
        ("fft.multiply_s", "fft.multiply"),
        ("pipeline.privacy_amplify_s", "pipeline.privacy_amplify"),
        ("pipeline.build_operands_s", "pipeline.build_operands"),
        ("pipeline.convolve_s", "pipeline.convolve"),
        ("oracle.hash_direct_s", "oracle.hash_direct"),
        ("core.generate_seed_s", "core.generate_seed"),
        ("core.from_bits_s", "core.from_bits"),
        ("core.read_bits_s", "core.read_bits"),
        ("core.write_bits_s", "core.write_bits"),
        ("cli.run_s", "cli.run"),
        ("cli.verify_s", "cli.verify"),
    ):
        put(metric, _durations(spans, span))
    indexed = list(enumerate(spans))
    # the long transform's own work beyond its row passes and transpose
    # is the inter-pass rotation multiply
    put("fft.rotation_s", [
        s[2] - s[1] - child_sum[i] for i, s in indexed if s[0] in ("fft.forward", "fft.inverse")
    ])
    amplify = [(i, s[2] - s[1]) for i, s in indexed if s[0] == "pipeline.privacy_amplify"]
    if "pipeline.build_operands_s" in med and "pipeline.convolve_s" in med:
        put("pipeline.finalize_s", [
            d - by_parent_name.get((i, "pipeline.build_operands"), 0.0)
            - by_parent_name.get((i, "pipeline.convolve"), 0.0)
            for i, d in amplify
        ])
    put("trace.unaccounted_share", [(d - child_sum[i]) / d for i, d in amplify])
    put("cli.overhead_s", [s[2] - s[1] - child_sum[i] for i, s in indexed if s[0] == "cli.run"])
    return med


def cli_probe(wl, run, tracer, index, workdir):
    """CLI round trips, traced, on block ``index`` of a direct-API
    workload for about one second (at least once).  Each counts as an
    operation; it passes when ``qpa verify`` compares every bit and the
    file matches the key the direct API gives."""
    session = workloads.CliSession(wl.n, wl.seed, workdir)
    blk = session.block(index)
    expected = wl.distill(blk)[1].bits
    deadline = time.perf_counter() + PROBE_BUDGET_S
    first = True
    while first or time.perf_counter() < deadline:
        first = False
        tracer.op, tracer.active = index, True
        try:
            with tracer.span("cli.run"):
                out = session.distill(blk)
            with tracer.span("cli.verify"):
                ok = session.verify(blk, out)
        except Exception:  # a failed round trip is counted, not fatal
            print("perfbench: CLI probe failed", file=sys.stderr)
            traceback.print_exc()
            ok = False
        finally:
            tracer.active = False
        run.record(ok and qpa.read_bits(session.final_path) == expected)


def probe_metrics(wl, blk):
    """Untraced probes on one block of the workload's own inputs."""
    n = wl.n
    k = math.isqrt(n)
    r = wl.params.r
    seed = qpa.generate_seed(blk.secret, n)
    xbits, vbits = blk.x.to_bits(), seed.bits.to_bits()
    v_circ, x_masked = workloads.rfft_operands(xbits, vbits, r)
    packed = (x_masked + 1j * v_circ).reshape(k, k)
    got = {}

    naive, blocked = lookup("transpose_naive"), lookup("transpose_blocked")
    if naive is not None and blocked is not None:
        got["transpose.naive_s"], got["transpose.blocked_s"] = interleaved_medians(
            [lambda: naive(packed), lambda: blocked(packed)]
        )
        # bytes as computed: one read and one write of n complex128 values
        got["transpose.blocked_gbps"] = 2 * 16 * n / got["transpose.blocked_s"] / 1e9
        got["transpose.naive_over_blocked"] = got["transpose.naive_s"] / got["transpose.blocked_s"]
    default_tile = lookup("default_tile")
    if default_tile is not None:
        got["transpose.tile_copies"] = (k // default_tile(k)) ** 2
    simulate = lookup("simulate_row_spans")
    if simulate is not None and default_tile is not None:
        got["transpose.row_spans_blocked"] = simulate("blocked", k, default_tile(k)).total
        got["transpose.row_spans_naive"] = simulate("naive", k).total

    digit_transpose = lookup("digit_transpose")
    if digit_transpose is not None:
        flat = packed.reshape(-1)
        (got["fft.digit_transpose_s"],) = interleaved_medians([lambda: digit_transpose(flat)])

    p = wl.params

    def amplify(mode, **kwargs):
        return qpa.privacy_amplify(blk.x, seed, r, mode=mode, t=p.t, s_min=p.s, **kwargs)

    time_a, time_b = interleaved_medians([lambda: amplify("A"), lambda: amplify("B")])
    got["pipeline.mode_a_over_b"] = time_a / time_b
    run_stats = lookup("RunStats")
    if run_stats is not None:
        for mode in ("A", "B"):
            stats = run_stats()
            amplify(mode, stats=stats)
            got["pipeline.transposes_" + mode.lower()] = stats.transposes

    (got["floor.rfft_conv_s"],) = interleaved_medians(
        [lambda: workloads.rfft_reference(xbits, vbits, r)]
    )
    # one complex128 buffer of length n is 16 n bytes
    got["pipeline.peak_buffers"] = peak_mb(wl, blk) / (16 * n / 2**20)
    got["oracle.and_ops"] = r * (n - r)
    return got


def layer_metrics(wl, spans, probes, untraced_p50, traced_p50):
    """Merge span and probe figures into {metric: value}; absent ones are
    left out and listed by the caller as missing."""
    got = span_metrics(spans)
    got.update(probes)
    k = math.isqrt(wl.n)
    if "fft.row_pass_s" in got:
        got["fft.row_pass_gflops"] = 5 * wl.n * math.log2(k) / got["fft.row_pass_s"] / 1e9
    if "pipeline.privacy_amplify_s" in got:
        got["floor.over_floor"] = got["pipeline.privacy_amplify_s"] / got["floor.rfft_conv_s"]
    got["trace.overhead_s"] = traced_p50 - untraced_p50
    return {name: got[name] for name in METRICS if name in got}
