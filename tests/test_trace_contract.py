"""The benchmark's traced run still sees every layer and name it reads.

`perfbench/layers.py` records spans by swapping module attributes of
``qpa`` at run time, so a call that bypasses a traced module-level name
drops that layer's metrics from the traced run, and its probes look
package names up, so deleting one drops the probe's metrics.  This
runs one mode B distillation under its instrumentation and its probes
once, both read as they are.
"""

import pathlib

import numpy as np

import qpa
from conftest import random_bitvector, random_seed

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# every metric `layers.probe_metrics` computes when the names it looks up exist
PROBE_METRICS = {
    "transpose.naive_s",
    "transpose.blocked_s",
    "transpose.blocked_gbps",
    "transpose.naive_over_blocked",
    "transpose.tile_copies",
    "transpose.row_spans_blocked",
    "transpose.row_spans_naive",
    "fft.digit_transpose_s",
    "pipeline.mode_a_over_b",
    "pipeline.transposes_a",
    "pipeline.transposes_b",
    "floor.rfft_conv_s",
    "pipeline.peak_buffers",
    "oracle.and_ops",
}


def test_traced_run_records_every_pipeline_and_fft_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    rng = np.random.default_rng(90)
    n = 1 << 12
    x, seed = random_bitvector(rng, n), random_seed(rng, n)
    tracer = layers.Tracer()
    with layers.instrumented(tracer) as missing:
        tracer.active = True
        try:
            # looked up on the module: the instrumentation swaps the attribute
            key = qpa.privacy_amplify(x, seed, n // 2, mode="B")
        finally:
            tracer.active = False
    assert missing == []
    assert key.bits == qpa.hash_direct(x, seed, n // 2)

    expected = set()
    for name, _, _ in layers.TRACED:
        if name == "fft.transform":
            expected |= {"fft.forward", "fft.inverse"}
        elif name.startswith(("pipeline.", "fft.")):
            expected.add(name)
    recorded = {span[0] for span in tracer.spans}
    assert expected <= recorded, sorted(expected - recorded)


def test_probes_find_every_name_they_look_up(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads

    wl = workloads.BlockStream(1 << 12, 5, full_verify=False, all_ones_first=False)
    got = layers.probe_metrics(wl, wl.block(1))
    assert set(got) == PROBE_METRICS
    assert (got["pipeline.transposes_a"], got["pipeline.transposes_b"]) == (6, 2)


def test_every_exported_name_resolves():
    missing = [name for name in qpa.__all__ if not hasattr(qpa, name)]
    assert missing == []
