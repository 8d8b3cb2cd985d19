"""Self-test of the benchmark's per-layer attribution.

A known busy-wait is added to every ``DropTailQueue.enqueue`` call of a
short saturated run.  The trace must charge that time to ``queues``
and to no other layer, and the untraced wall time must grow by it too.

Run with: python3 -m pytest perfbench/tests -q
"""

import functools
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.experiments.scenarios import FIG2C_LONG_RUNNING  # noqa: E402
from repro.simnet.queues import DropTailQueue  # noqa: E402
from spans import LAYERS, LayerTracer  # noqa: E402
from workloads import CubicScenario  # noqa: E402

DELAY_S = 200e-6
WORKLOAD = CubicScenario("bulk-short", FIG2C_LONG_RUNNING, 5.0, set_up_s=1.0)


class SlowEnqueue:
    """Busy-wait ``DELAY_S`` inside every enqueue while installed."""

    def __enter__(self):
        self.original = DropTailQueue.__dict__["enqueue"]
        original = self.original

        @functools.wraps(original)
        def enqueue(queue, packet):
            until = time.perf_counter() + DELAY_S
            while time.perf_counter() < until:
                pass
            return original(queue, packet)

        DropTailQueue.enqueue = enqueue
        return self

    def __exit__(self, *exc_info):
        DropTailQueue.enqueue = self.original


def traced_run():
    tracer = LayerTracer()
    with tracer:
        rep = WORKLOAD.run(0, traced=True)
    return rep, tracer


def test_tracer_restores_entry_points():
    before = dict(vars(DropTailQueue))
    with LayerTracer():
        assert DropTailQueue.__dict__["enqueue"] is not before["enqueue"]
    assert dict(vars(DropTailQueue)) == before


def test_injected_delay_is_charged_to_its_layer_only():
    plain = WORKLOAD.run(0)
    base, base_trace = traced_run()
    with SlowEnqueue():
        slow_plain = WORKLOAD.run(0)
        slow, slow_trace = traced_run()

    # Tracing and the delay observe the run without changing it.
    assert base.digest == plain.digest == slow.digest == slow_plain.digest

    calls = slow_trace.calls["DropTailQueue.enqueue"]
    assert calls == base_trace.calls["DropTailQueue.enqueue"] > 1000
    injected = calls * DELAY_S
    rise = {
        layer: slow_trace.self_s[layer] - base_trace.self_s[layer] for layer in LAYERS
    }
    assert 0.8 * injected < rise["queues"] < 1.5 * injected, (rise, injected)
    for layer in LAYERS:
        if layer != "queues":
            assert rise[layer] < 0.25 * injected, (layer, rise, injected)
    assert slow_plain.wall_s - plain.wall_s > 0.5 * injected

    # The accounting closes: little traced time is left unattributed.
    for rep, tracer in ((base, base_trace), (slow, slow_trace)):
        unattributed = rep.wall_s - sum(tracer.self_s[layer] for layer in LAYERS)
        assert abs(unattributed) < 0.1 * rep.wall_s
