"""Benchmark of the qpa privacy-amplification package.

Run from the repository root:

    python3 perfbench/run.py --workload large_block --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each was chosen):

    large_block   n = 2^20 blocks through the direct API
    small_blocks  n = 2^14 blocks through the direct API
    audit         n = 2^16 sessions through the CLI, run then full verify

Each workload is a closed loop with one client and one operation in
flight, run for ``--seconds`` of wall time in this process.  Every key is
checked outside the timed region; any failure makes the run exit 1.

``--trace 0`` prints the end-to-end metrics:

    setup_s            median cold start (import qpa + first distillation)
                       of SETUP_RUNS fresh processes
    distill_mbit_s     raw-key Mbit per second of distillation
    distill_s_p50/p90  seconds per distillation
    verify_s_p50/p90   seconds for the package to check one key: the CLI
                       full verify (audit), hash_direct (small_blocks),
                       hash_single_bit on workloads.SPOT_ROWS rows
                       (large_block)
    peak_mem_mb        tracemalloc peak of one untimed distillation
    residual_headroom  log10(0.25 / largest rounding residual of the run)

``--trace 1`` prints the per-layer metrics of layers.py instead, from a
run whose operations alternate untraced and traced, and writes the spans
to ``.bench_out/trace-<workload>-<seed>.json``.

The next-to-last line of stdout is a JSON record of the run: sample
counts, fail ratio and the environment.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Neither ever holds key
material; the run asserts that before printing.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().parent / "setup_child.py"
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 120
# block indices outside any loop's range
WARMUP_INDEX = 1 << 40
SETUP_INDEX = WARMUP_INDEX + 1
PROBE_INDEX = WARMUP_INDEX + 1000

# 32 or more hex or base64 characters: 16 bytes or more of key material
# in the encodings text output could carry; no metric or record field
# needs such a run
_ENCODED_RUN = re.compile(r"[A-Za-z0-9+/=]{32,}")


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def load_package():
    """Import qpa from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import qpa
    except ImportError as err:
        raise SystemExit("perfbench: cannot import qpa from %s: %s" % (SRC, err))
    if Path(qpa.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit("perfbench: imported qpa from %s, not from %s" % (qpa.__file__, SRC))


def percentile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Checked operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok):
        self.attempted += 1
        self.failed += not ok


def assert_no_key_material(text):
    """Raw keys, seeds, secrets and final keys never reach an output."""
    if _ENCODED_RUN.search(text):
        raise SystemExit("perfbench: key material in the output; nothing written")


@dataclass
class Sample:
    """One operation; the timings exclude the benchmark's own checks."""

    distill_s: float
    verify_s: float
    residual: float


def warm_up(wl, run):
    """One checked operation outside any timing, so that lazy caches are
    full before the loop starts; their cost is setup_s."""
    blk = wl.block(WARMUP_INDEX)
    out = wl.distill(blk)
    run.record(wl.verify(blk, out) and wl.check(blk, out))
    return blk


def closed_loop(wl, run, seconds, first_index=0, tracer=None):
    """One client, one operation in flight, for ``seconds`` of wall time
    (at least one operation, exactly one for ``seconds=0``).  Checks run outside the timed regions.
    With a tracer, the timed calls are recorded as spans."""

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    names = ("cli.run", "cli.verify") if wl.cli else ("op.distill", "op.verify")
    samples = []
    index = first_index
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        blk = wl.block(index)
        index += 1
        try:
            if tracer is not None:
                tracer.op, tracer.active = blk.index, True
            try:
                t0 = time.perf_counter()
                with span(names[0]):
                    out = wl.distill(blk)
                t1 = time.perf_counter()
                with span(names[1]):
                    verified = wl.verify(blk, out)
                t2 = time.perf_counter()
            finally:
                if tracer is not None:
                    tracer.active = False
            ok = verified and wl.check(blk, out)
            sample = Sample(t1 - t0, t2 - t1, wl.residual(out))
        except Exception:  # a failed operation is counted, not fatal
            print("perfbench: block %d failed" % blk.index, file=sys.stderr)
            traceback.print_exc()
            run.record(False)
            if time.perf_counter() >= deadline:
                break
            continue
        if not ok:
            print("perfbench: block %d key mismatch" % blk.index, file=sys.stderr)
        run.record(ok)
        samples.append(sample)
    return samples


def setup_times(wl, run):
    """setup_s samples: SETUP_RUNS cold starts, each in a fresh process
    and each key checked like a loop operation."""
    import qpa

    times = []
    for i in range(SETUP_RUNS):
        blk = wl.block(SETUP_INDEX + i)
        if wl.cli:
            argv = ["cli", str(SRC)] + wl.run_argv(blk)
            stdin = b""
        else:
            p = wl.params
            argv = ["api", str(SRC)] + [str(v) for v in (wl.n, p.r, p.t, p.s)]
            stdin = blk.secret + blk.x.to_bytes()
        proc = subprocess.run(
            [sys.executable, str(CHILD)] + argv, input=stdin, capture_output=True,
            timeout=CHILD_TIMEOUT_S, cwd=str(ROOT), check=False,
        )
        if proc.returncode != 0:
            print("perfbench: set-up process exited %d" % proc.returncode, file=sys.stderr)
            run.record(False)
            continue
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        times.append(result["setup_s"])
        if wl.cli:
            out, ok = None, result["exit"] == 0
        else:
            key = qpa.BitVector.from_bytes(bytes.fromhex(result["key"]), wl.params.r)
            out, ok = (qpa.generate_seed(blk.secret, wl.n), types.SimpleNamespace(bits=key)), True
        ok = ok and wl.verify(blk, out) and wl.check(blk, out)
        run.record(ok)
    return times


def end_to_end(wl, run, seconds):
    """--trace 0: {metric: (value, unit)} and the record's extra fields."""
    import layers
    import workloads

    setup = setup_times(wl, run)
    peak = layers.peak_mb(wl, warm_up(wl, run))
    samples = closed_loop(wl, run, seconds)
    distill = [s.distill_s for s in samples]
    verify = [s.verify_s for s in samples]
    p90 = percentile(distill, 90)
    # an exactly integral convolution reads as float resolution
    worst = max(max(s.residual for s in samples), sys.float_info.epsilon)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "distill_mbit_s": (wl.n * len(distill) / sum(distill) / 1e6, "Mbit/s"),
        "distill_s_p50": (statistics.median(distill), "s"),
        "distill_s_p90": (p90, "s"),
        "verify_s_p50": (statistics.median(verify), "s"),
        "verify_s_p90": (percentile(verify, 90), "s"),
        "peak_mem_mb": (peak, "MB"),
        "residual_headroom": (math.log10(workloads.RESIDUAL_LIMIT / worst), "log10"),
    }
    extra = {"samples": len(samples), "samples_beyond_p90": sum(d > p90 for d in distill),
             "setup_runs": len(setup)}
    return metrics, extra


def per_layer(wl, run, seconds, workdir, name, seed):
    """--trace 1: operations alternate untraced and traced, so that drift
    on the machine falls on both halves alike; then the probes."""
    import layers

    warm_up(wl, run)
    tracer = layers.Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        untraced += closed_loop(wl, run, 0, first_index=index)
        with layers.instrumented(tracer) as missing_spans:
            traced += closed_loop(wl, run, 0, first_index=index + 1, tracer=tracer)
        index += 2
    if not wl.cli:
        with layers.instrumented(tracer):
            layers.cli_probe(wl, run, tracer, PROBE_INDEX, workdir)
    untraced_p50 = statistics.median(s.distill_s for s in untraced)
    traced_p50 = statistics.median(s.distill_s for s in traced)
    probes = layers.probe_metrics(wl, wl.block(PROBE_INDEX))
    got = layers.layer_metrics(wl, tracer.spans, probes, untraced_p50, traced_p50)
    metrics = {k: (v, layers.METRICS[k][0]) for k, v in got.items()}
    missing = [k for k in layers.METRICS if k not in got]
    trace_text = json.dumps({"workload": name, "seed": seed, "missing_spans": missing_spans,
                             "spans": tracer.spans})
    assert_no_key_material(trace_text)
    with open(OUT_DIR / ("trace-%s-%d.json" % (name, seed)), "w", encoding="ascii") as fh:
        fh.write(trace_text)
    extra = {"samples_untraced": len(untraced), "samples_traced": len(traced),
             "spans": len(tracer.spans), "missing": missing, "missing_spans": missing_spans}
    return metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = environment()
    load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    run = Run()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        wl = workloads.make_workload(args.workload, args.seed, workdir)
        if args.trace:
            metrics, extra = per_layer(wl, run, args.seconds, workdir, args.workload, args.seed)
        else:
            metrics, extra = end_to_end(wl, run, args.seconds)
    p = wl.params
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 client, 1 operation in flight",
        "n": wl.n, "r": p.r, "t": p.t, "s": p.s, "mode": workloads.MODE,
        "fail_ratio": run.failed / max(run.attempted, 1), **extra, "environment": env,
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    text = json.dumps({"record": record}) + "\n" + json.dumps(result)
    assert_no_key_material(text)
    print(text)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
