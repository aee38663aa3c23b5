"""The benchmark's traced run still sees every pipeline and transform layer.

`perfbench/layers.py` records spans by swapping module attributes of
``qpa`` at run time, so a call that bypasses a traced module-level name
drops that layer's metrics from the traced run.  This runs one mode B
distillation under its instrumentation, read as it is.
"""

import pathlib

import numpy as np

import qpa
from conftest import random_bitvector, random_seed

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


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
