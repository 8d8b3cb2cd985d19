"""Run one benchmark workload and print its metrics as one JSON line.

Usage::

    python3 perfbench/run.py --workload table3-onoff --seed 0 --seconds 22 --trace 0

``--trace 0`` repeats the workload, untraced and cycling through the
scenario seeds of ``--seed``, for ``--seconds`` and reports the
end-to-end metrics (``wall_s``, ``packets_per_s``, ``setup_s``,
``peak_rss_mb``) in host seconds scaled to a reference speed (see
``pace.py``).  ``--trace 1`` alternates an untraced and a traced
repetition of the first scenario seed for ``--seconds`` and reports the
per-layer metrics (see ``spans.py``).  Every repetition's simulated
outputs are hashed and checked: all repetitions of one scenario seed
must agree with each other, with the traced repetitions, and with the
digests pinned in ``workloads.py``.  The last line of output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Metric name -> (value, unit).
Metrics = Dict[str, Tuple[float, str]]

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SET_UPS = 5

#: Environment switches of the program that change what a run does.
PROGRAM_SWITCHES = ("REPRO_SIMCHECK", "REPRO_SWEEP_FAULT")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def time_set_up(workload: str, seed: int) -> float:
    """Scaled seconds of one set-up, timed inside a fresh interpreter."""
    from pace import REF_NOMINAL_S

    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    set_up, chunk = map(float, done.stdout.split()[-2:])
    return set_up * REF_NOMINAL_S / chunk


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


class Checker:
    """Failure accounting: every repetition of a seed must agree on its outputs."""

    def __init__(self, pinned: Dict[int, str]) -> None:
        #: Scenario seed -> expected digest; the first repetition of an
        #: unpinned seed sets it.
        self.expected = dict(pinned)
        self.counts: Dict[int, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0

    def attempt(self, seed: int, run) -> Optional[object]:
        """Call ``run()`` for scenario ``seed``; return its :class:`Rep`,
        or None if it failed.

        Garbage from the previous repetition is collected first, so every
        repetition starts from the same heap and ``peak_rss_mb`` does not
        grow with the number of repetitions that fit in the run.
        """
        self.attempted += 1
        gc.collect()
        try:
            rep = run()
        except Exception:  # a failing repetition is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        expected = self.expected.setdefault(seed, rep.digest)
        counts = self.counts.setdefault(seed, rep.counts)
        problems = list(rep.problems)
        if rep.digest != expected:
            problems.append(f"seed {seed}: digest {rep.digest} != expected {expected}")
        if rep.counts != counts:
            problems.append(f"seed {seed}: work counters {rep.counts} != {counts}")
        if problems:
            print("\n".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        return rep


def repeat(seconds: float, step, minimum: int = 1) -> None:
    """Call ``step(i)`` for i = 0, 1, ... at least ``minimum`` times, and
    again while the next call is expected to end within ``seconds`` of
    the first one's start."""
    started = time.perf_counter()
    durations: List[float] = []
    while True:
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if len(durations) >= minimum and elapsed + statistics.median(durations) > seconds:
            return


def end_to_end(workload, seeds: List[int], seconds: float, checker: Checker) -> Metrics:
    """``wall_s`` and ``packets_per_s`` in host seconds scaled by the pacer.

    Repetitions cycle through ``seeds``; ``wall_s`` is the mean over the
    seeds of each seed's mean repetition, so every run weighs the same
    inputs alike however many repetitions fit in it.
    """
    from pace import Pacer

    pacer = Pacer()
    program: Dict[int, List[float]] = {seed: [] for seed in seeds}
    packets = 0

    def step(i: int) -> None:
        nonlocal packets
        seed = seeds[i % len(seeds)]
        chunks_before = pacer.chunk_seconds()
        rep = checker.attempt(seed, lambda: workload.run(seed))
        if rep is not None:
            # The chunks ran inside the repetition, in parallel when
            # they ran in the sweep's workers.
            chunks = pacer.chunk_seconds() - chunks_before
            program[seed].append(rep.wall_s - chunks / workload.processes)
            packets += rep.packets

    pacer.install()
    try:
        repeat(seconds, step, minimum=len(seeds))
    finally:
        pacer.uninstall()
    succeeded = [walls for walls in program.values() if walls]
    if not succeeded:
        raise RuntimeError("no repetition succeeded")
    slowdown = pacer.slowdown()
    wall = statistics.mean(statistics.mean(walls) for walls in succeeded)
    reps = sum(len(walls) for walls in succeeded)
    print(f"perfbench: {reps} repetitions, {wall:.4f} s unscaled each, "
          f"host at 1/{slowdown:.3f} of reference speed", file=sys.stderr)
    # Sums over the whole timed section: the chunks sample the host's
    # speed all through it, and the ratio of the two sums cancels it.
    busy = sum(sum(walls) for walls in succeeded)
    return {
        "wall_s": (wall / slowdown, "s"),
        "packets_per_s": (packets / busy * slowdown, "1/s"),
    }


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(plain, traced, tracer, traced_wall: float) -> Metrics:
    """Per-layer metrics of one (untraced, traced) pair of repetitions."""
    from spans import LAYERS

    s, calls, targets = tracer.self_s, tracer.calls, tracer.targets
    # Calls into each layer, seen by the trace.  Public counters of the
    # untraced repetition replace them where the parent process can read
    # those (the sweep's links and queues live in its workers).
    enqueue_refused = calls["DropTailQueue.enqueue:refused"]
    counts = {
        "link.packets": targets["Link._deliver"],
        "queues.enqueues": calls["DropTailQueue.enqueue"] - enqueue_refused,
        "queues.dequeues": calls["DropTailQueue.dequeue"] - calls["DropTailQueue.dequeue:refused"],
        "queues.drops": enqueue_refused,
        "node.receives": calls["Host.receive"] + calls["Router.receive"],
        "phi.rpcs": 0, "phi.failovers": 0, "phi.anti_entropy_merges": 0, "phi.fresh_ratio": 0.0,
        "runner.points": 0, "runner.cache_hits": 0,
    }
    counts["queues.drop_ratio"] = _ratio(counts["queues.drops"],
                                         counts["queues.enqueues"] + counts["queues.drops"])
    counts.update(plain.counts)
    link_sends = calls["Link.send"]
    queue_ops = calls["DropTailQueue.enqueue"] + calls["DropTailQueue.dequeue"]
    node_ops = calls["Host.receive"] + calls["Router.receive"]
    acks = calls["TcpSender.handle_packet"]
    segments = calls["TcpSink.handle_packet"]
    link_schedules = sum(n for name, n in targets.items() if name.startswith("Link."))
    runner = plain.runner
    return {
        "engine.events": (counts["engine.events"], "count"),
        "engine.schedules": (calls["Simulator.schedule_at"], "count"),
        "engine.self_s": (s["engine"], "s"),
        "engine.loop_s": (tracer.loop_s, "s"),
        "engine.ns_per_event": (_ratio(s["engine"], counts["engine.events"], 1e9), "ns"),
        "link.packets": (counts["link.packets"], "count"),
        "link.schedules_per_packet": (_ratio(link_schedules, link_sends), "count/packet"),
        "link.self_s": (s["link"], "s"),
        "link.ns_per_packet": (_ratio(s["link"], link_sends, 1e9), "ns"),
        "queues.enqueues": (counts["queues.enqueues"], "count"),
        "queues.dequeues": (counts["queues.dequeues"], "count"),
        "queues.drops": (counts["queues.drops"], "count"),
        "queues.drop_ratio": (counts["queues.drop_ratio"], "ratio"),
        "queues.self_s": (s["queues"], "s"),
        "queues.ns_per_op": (_ratio(s["queues"], queue_ops, 1e9), "ns"),
        "node.receives": (counts["node.receives"], "count"),
        "node.self_s": (s["node"], "s"),
        "node.ns_per_packet": (_ratio(s["node"], node_ops, 1e9), "ns"),
        "transport.acks": (acks, "count"),
        "transport.retransmits": (counts["transport.retransmits"], "count"),
        "transport.timeouts": (counts["transport.timeouts"], "count"),
        "transport.goodput_ratio": (counts["transport.goodput_ratio"], "ratio"),
        "transport.self_s": (s["transport"], "s"),
        "transport.ns_per_ack": (_ratio(s["transport"], acks, 1e9), "ns"),
        "sink.segments": (segments, "count"),
        "sink.self_s": (s["sink"], "s"),
        "sink.ns_per_segment": (_ratio(s["sink"], segments, 1e9), "ns"),
        "workload.flows": (counts["workload.flows"], "count"),
        "workload.self_s": (s["workload"], "s"),
        "phi.rpcs": (counts["phi.rpcs"], "count"),
        "phi.failovers": (counts["phi.failovers"], "count"),
        "phi.anti_entropy_merges": (counts["phi.anti_entropy_merges"], "count"),
        "phi.fresh_ratio": (counts["phi.fresh_ratio"], "ratio"),
        "phi.self_s": (s["phi"], "s"),
        "phi.us_per_rpc": (_ratio(s["phi"], counts["phi.rpcs"], 1e6), "us"),
        "runner.points": (counts["runner.points"], "count"),
        "runner.pool_start_s": (runner.get("runner.pool_start_s", 0.0), "s"),
        "runner.overhead_s": (runner.get("runner.overhead_s", 0.0), "s"),
        "runner.parallel_efficiency": (runner.get("runner.parallel_efficiency", 0.0), "ratio"),
        "runner.cache_hits": (counts["runner.cache_hits"], "count"),
        "other.self_s": (s["other"], "s"),
        "trace.overhead_ratio": (_ratio(traced.wall_s, plain.wall_s), "ratio"),
        "trace.unattributed_s": (traced_wall - sum(s[layer] for layer in LAYERS), "s"),
    }


def per_layer(workload, seed: int, seconds: float, checker: Checker) -> Metrics:
    from spans import LayerTracer, merge_exported

    samples: List[Metrics] = []

    def step(_: int) -> None:
        plain = checker.attempt(seed, lambda: workload.run(seed))
        tracer = LayerTracer()
        with tracer:
            traced = checker.attempt(seed, lambda: workload.run(seed, traced=True))
        if plain is None or traced is None:
            return
        traced_wall = traced.wall_s
        if traced.profiles:
            # A sweep's simulations run in its workers: take their trace,
            # and account against the time the points themselves took.
            tracer = merge_exported(traced.profiles)
            traced_wall = traced.runner["point_wall_s"]
        samples.append(layer_metrics(plain, traced, tracer, traced_wall))

    repeat(seconds, step)
    if not samples:
        raise RuntimeError("no traced repetition succeeded")
    return {
        name: (statistics.median(sample[name][0] for sample in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    for switch in PROGRAM_SWITCHES:
        os.environ.pop(switch, None)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import PINNED_DIGESTS, WORKLOADS, scenario_seeds

    workload = WORKLOADS[args.workload]
    seeds = scenario_seeds(args.seed)
    checker = Checker(PINNED_DIGESTS[workload.name])
    if args.trace:
        metrics = per_layer(workload, seeds[0], args.seconds, checker)
    else:
        metrics = end_to_end(workload, seeds, args.seconds, checker)
        set_ups = [time_set_up(workload.name, seeds[0]) for _ in range(SET_UPS)]
        metrics["setup_s"] = (statistics.median(set_ups), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
