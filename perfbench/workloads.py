"""The benchmark's workloads: what each runs, its counters, its digest.

Every workload runs one scenario (or one sweep) per repetition through
the repo's public entry points and returns a :class:`Rep`: host wall
time, deterministic work counters read from public stats, a SHA-256
digest of the simulated outputs, and any invariant the outputs break.
A repetition is a pure function of the seed, so every repetition of one
seed must give the same digest and counters.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.experiments.dumbbell import ExperimentEnv, ScenarioResult
from repro.experiments.partitioned import run_partitioned_phi_cubic
from repro.experiments.scenarios import (
    FIG2C_LONG_RUNNING,
    TABLE3_REMY,
    ScenarioPreset,
    run_cubic_fixed,
)
from repro.phi import REFERENCE_POLICY, ReadPolicy
from repro.runner import NullCache, SweepRunner
from repro.simnet.topology import DumbbellConfig
from repro.transport.cubic import CubicParams, cubic_sweep_grid
from repro.workload.onoff import OnOffConfig

#: Scenario seeds per benchmark run: ``--seed n`` runs scenario seeds
#: ``SEEDS_PER_RUN * n`` to ``SEEDS_PER_RUN * n + SEEDS_PER_RUN - 1``, so
#: that one run's figures average over inputs rather than follow one draw.
SEEDS_PER_RUN = 4


def scenario_seeds(seed: int) -> List[int]:
    """The scenario seeds of benchmark seed ``seed``."""
    return [SEEDS_PER_RUN * seed + i for i in range(SEEDS_PER_RUN)]


#: Output digests of the scenario seeds of ``--seed 0``.  A change that
#: only makes the program faster must leave these bit-identical.
PINNED_DIGESTS: Dict[str, Dict[int, str]] = {
    "table3-onoff": {
        0: "d6e37d90c6501c62fc08da96663ac897e8dbf035988ada7d246040b942126dc6",
        1: "3caed31acf4ba647a2a6dab03a440854b1b0a9920fb4ec0baec8312c52f59e0d",
        2: "952009dd59ba364d4ae664b58247f226db1c2cb2aef3c17a1c3ff362bab0d1b9",
        3: "cdad78f3aa644daccf03fa434376728f37bfab71b206381ac27529eaccf294fc",
    },
    "bulk-saturated": {
        0: "7b4c9dbb21db7640cbab09442fe53e3a64e5cb02f72e1254f51cd4be114c0bd8",
        1: "eab8bf713bc24c904fd63fca927f2c438a382face82713a71bc471ce6da2bf68",
        2: "d79d1328e54b7a9bcb0d5aec8c8f24d4eab8530231c9504eb1742d4ee089e3b7",
        3: "32baf3b9a7f029071377c52aa63815158d811fa73a47e53c41dfc8c71dc934cd",
    },
    "phi-partition-churn": {
        0: "a69ca7a3bdc461480ca73a01913d8d978e8094686543ffed0d7b4faed4bc1b87",
        1: "dd2b855f86a08e4d50064a94f0d276c18eec2c6cdcd6e8ea26ee4bce275eb573",
        2: "18eb3680e2cf606c754642b003a178bada120ca09bf08b5e3b8b7e80af8a0125",
        3: "7a060f14d1e55bdfef0f80f5c05bbff8f07932fa42ad39a1f41898d83c8b1fff",
    },
    "sweep-table2": {
        0: "43340799124b92b92eaf982893f44fb66a515967db071b0099d419516df3b736",
        1: "60bc8fac92e64cf7339545b57825dde566c579b2281bab95ca6e18faabb570aa",
        2: "ec1c279699bd013f22001904ee7badf61d7556d820260d11b06b2cd3d6c74e54",
        3: "31ae3d981aab89c284998d9db0a5bc0653f1bc37082d3f76c57e944244d4db71",
    },
}

#: The Phi churn workload: many short flows, each doing one lookup and
#: one report through the replicated context service.
PHI_CHURN = ScenarioPreset(
    name="perfbench-phi-churn",
    config=DumbbellConfig(n_senders=32),
    workload=OnOffConfig(mean_on_bytes=15_000, mean_off_s=0.5),
    duration_s=30.0,
    description="32 on/off senders, 15 KB mean flows, 0.5 s mean off time",
)

SWEEP_GRID = tuple(
    cubic_sweep_grid(
        ssthresh_range=[4.0, 64.0],
        window_init_range=[2.0, 16.0],
        beta_range=[0.3, 0.7],
    )
)
SWEEP_RUNS = 3
SWEEP_WORKERS = 2
SWEEP_DURATION_S = 5.0


@dataclass
class Rep:
    """One repetition of a workload."""

    wall_s: float
    digest: str
    #: Deterministic work counters (names follow the per-layer metrics).
    counts: Dict[str, float]
    #: TCP data packets sent: the numerator of ``packets_per_s``.
    packets: int
    problems: List[str] = field(default_factory=list)
    #: Host-time figures of the runner (sweep only).
    runner: Dict[str, float] = field(default_factory=dict)
    #: ``SimProfile.as_dict()`` of each sweep point (traced sweeps only).
    profiles: List[Optional[dict]] = field(default_factory=list)


def digest_of(payload) -> str:
    """SHA-256 of a canonical JSON rendering (floats as shortest repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _metrics_fields(metrics) -> List[float]:
    return [
        metrics.throughput_mbps, metrics.queueing_delay_ms, metrics.loss_rate,
        metrics.connections, metrics.total_bytes, metrics.mean_rtt_ms,
        metrics.mean_utilization, metrics.power_l,
    ]


def _flow_fields(stats) -> list:
    return [
        stats.flow_id, stats.start_time, stats.end_time, stats.bytes_goodput,
        stats.bytes_sent, stats.packets_sent, stats.retransmits, stats.timeouts,
        stats.fast_retransmits, list(stats.rtt_samples), stats.min_rtt,
        stats.completed,
    ]


def _nonfinite(label: str, values) -> List[str]:
    return [f"{label}: non-finite value {v!r}" for v in values if not math.isfinite(v)]


def _scenario_rep(wall_s: float, result: ScenarioResult, env: ExperimentEnv,
                  extra: Optional[dict] = None) -> Rep:
    """Counters, digest and invariants of one finished scenario run."""
    topology = env.topology
    links = topology.links
    nodes = [*topology.senders, *topology.receivers,
             topology.left_router, topology.right_router]
    flows = [stats for sender in result.per_sender_stats for stats in sender]
    problems = _nonfinite("metrics", _metrics_fields(result.metrics))
    link_rows, queue_rows = {}, {}
    for name in sorted(links):
        link = links[name]
        queue, stats = link.queue, link.queue.stats
        link_rows[name] = [
            link.packets_offered, link.bytes_offered, link.packets_transmitted,
            link.bytes_transmitted, link.packets_delivered, link.bytes_delivered,
        ]
        queue_rows[name] = [
            stats.enqueued_packets, stats.enqueued_bytes, stats.dequeued_packets,
            stats.dequeued_bytes, stats.dropped_packets, stats.dropped_bytes,
            stats.flushed_packets, stats.flushed_bytes, stats.occupancy_byte_seconds,
            stats.occupancy_packet_seconds, stats.peak_packets, stats.peak_bytes,
        ]
        # Every accepted packet left by dequeue or flush, or is queued.
        if stats.enqueued_packets != (stats.dequeued_packets + stats.flushed_packets
                                      + queue.packets_queued):
            problems.append(f"queue {name}: packet conservation broken")
        if stats.enqueued_bytes != (stats.dequeued_bytes + stats.flushed_bytes
                                    + queue.bytes_queued):
            problems.append(f"queue {name}: byte conservation broken")
        if not link.packets_delivered <= link.packets_transmitted <= link.packets_offered:
            problems.append(f"link {name}: delivered > transmitted or > offered")
    queues = [link.queue.stats for link in links.values()]
    enqueues = sum(s.enqueued_packets for s in queues)
    drops = sum(s.dropped_packets for s in queues)
    bytes_sent = sum(s.bytes_sent for s in flows)
    counts = {
        "engine.events": env.sim.events_processed,
        "link.packets": sum(link.packets_delivered for link in links.values()),
        "queues.enqueues": enqueues,
        "queues.dequeues": sum(s.dequeued_packets for s in queues),
        "queues.drops": drops,
        "queues.drop_ratio": drops / (enqueues + drops) if enqueues + drops else 0.0,
        "node.receives": sum(node.packets_received for node in nodes),
        "transport.retransmits": sum(s.retransmits for s in flows),
        "transport.timeouts": sum(s.timeouts for s in flows),
        "transport.goodput_ratio": (
            sum(s.bytes_goodput for s in flows) / bytes_sent if bytes_sent else 0.0
        ),
        "workload.flows": len(flows),
    }
    payload = {
        "events": env.sim.events_processed,
        "flows": [_flow_fields(s) for s in flows],
        "links": link_rows,
        "queues": queue_rows,
        "metrics": _metrics_fields(result.metrics),
        "drop_rate": result.bottleneck_drop_rate,
        "utilization": result.mean_utilization,
    }
    if extra is not None:
        payload["extra"] = extra
    return Rep(
        wall_s=wall_s,
        digest=digest_of(payload),
        counts=counts,
        packets=sum(s.packets_sent for s in flows),
        problems=problems,
    )


class Workload:
    """A named workload; :meth:`run` performs one timed repetition."""

    name = ""
    #: Processes that run the simulations of one repetition.
    processes = 1

    def run(self, seed: int, *, traced: bool = False) -> Rep:
        raise NotImplementedError

    def set_up(self, seed: int) -> None:
        """Everything a repetition does, at (near) zero simulated time."""
        raise NotImplementedError


class CubicScenario(Workload):
    """Fixed-parameter Cubic senders on one dumbbell preset."""

    def __init__(self, name: str, preset: ScenarioPreset, duration_s: float,
                 set_up_s: float) -> None:
        self.name = name
        self.preset = preset
        self.duration_s = duration_s
        self.set_up_s = set_up_s

    def _call(self, seed: int, duration_s: float) -> ScenarioResult:
        return run_cubic_fixed(
            CubicParams.default(), self.preset, seed=seed, duration_s=duration_s
        )

    def run(self, seed: int, *, traced: bool = False) -> Rep:
        wall, result, env = _timed_scenario(lambda: self._call(seed, self.duration_s), traced)
        return _scenario_rep(wall, result, env)

    def set_up(self, seed: int) -> None:
        self._call(seed, self.set_up_s)


class PhiPartition(Workload):
    """Phi on a 5-replica control plane, 2 replicas cut from 10 s to 20 s."""

    name = "phi-partition-churn"

    def _call(self, seed: int, duration_s: float):
        return run_partitioned_phi_cubic(
            REFERENCE_POLICY,
            PHI_CHURN,
            n_replicas=5,
            severity=0.4,
            heal_s=10.0,
            partition_start_s=10.0,
            seed=seed,
            read_policy=ReadPolicy.QUORUM,
            duration_s=duration_s,
        )

    def run(self, seed: int, *, traced: bool = False) -> Rep:
        wall, outcome, env = _timed_scenario(
            lambda: self._call(seed, PHI_CHURN.duration_s), traced
        )
        decisions = outcome.decision_counts
        phi = {
            "decisions": decisions,
            "failovers": outcome.failovers,
            "fast_failures": outcome.fast_failures,
            "replica_calls": {str(k): v for k, v in sorted(outcome.replica_calls.items())},
            "anti_entropy_merges": outcome.anti_entropy_merges,
            "reports_replicated": outcome.reports_replicated,
            "quorum_rejections": outcome.quorum_rejections,
            "final_divergence": outcome.final_divergence,
            "max_divergence": outcome.max_divergence,
            "pending_reports": outcome.pending_reports,
        }
        rep = _scenario_rep(wall, outcome.result, env, extra=phi)
        rep.problems += _nonfinite(
            "phi", [outcome.final_divergence, outcome.max_divergence]
        )
        lookups = sum(decisions.values())
        rep.counts.update({
            "phi.rpcs": sum(c["attempts"] for c in outcome.replica_calls.values()),
            "phi.failovers": outcome.failovers,
            "phi.anti_entropy_merges": outcome.anti_entropy_merges,
            "phi.fresh_ratio": decisions.get("fresh", 0) / lookups if lookups else 0.0,
        })
        return rep

    def set_up(self, seed: int) -> None:
        self._call(seed, 1e-3)


class TableTwoSweep(Workload):
    """A reduced Table-2 grid through :class:`SweepRunner` on 2 workers."""

    name = "sweep-table2"
    processes = SWEEP_WORKERS

    def _runner(self, duration_s: float, progress=None, profile: bool = False):
        return SweepRunner(
            TABLE3_REMY,
            duration_s=duration_s,
            n_workers=SWEEP_WORKERS,
            cache=NullCache(),
            progress=progress,
            profile=profile,
        )

    def run(self, seed: int, *, traced: bool = False) -> Rep:
        first_done: List[float] = []

        def progress(state) -> None:
            if state.completed and not first_done:
                first_done.append(time.perf_counter())

        runner = self._runner(SWEEP_DURATION_S, progress, profile=traced)
        started = time.perf_counter()
        # The points of base seed b use seeds b to b + SWEEP_RUNS - 1;
        # spacing base seeds SWEEP_RUNS apart keeps the point seeds of
        # different scenario seeds apart.
        outcome = runner.run(SWEEP_GRID, n_runs=SWEEP_RUNS, base_seed=seed * SWEEP_RUNS)
        wall = time.perf_counter() - started
        points = outcome.points
        problems = []
        expected = len(SWEEP_GRID) * SWEEP_RUNS
        if len(points) != expected or outcome.quarantined:
            problems.append(f"sweep: {len(points)} of {expected} points survived")
        if outcome.retries or outcome.pool_rebuilds or outcome.serial_fallback:
            problems.append("sweep: a worker failed and was retried")
        rows = []
        for point in points:
            problems += _nonfinite(f"point {point.run_index}", _metrics_fields(point.metrics))
            rows.append({
                "params": point.params.as_dict(),
                "seed": point.seed,
                "run_index": point.run_index,
                "metrics": _metrics_fields(point.metrics),
                "flows": [flow.to_dict() for flow in point.flows],
                "drop_rate": point.bottleneck_drop_rate,
                "utilization": point.mean_utilization,
                "duration_s": point.duration_s,
                "events": point.events_processed,
            })
        flows = [flow for point in points for flow in point.flows]
        point_wall = sum(point.wall_seconds for point in points)
        capacity = wall * outcome.workers
        # Points 0 and 1 start together on the two fresh workers and the
        # shorter finishes first, so pool start-up is the time to the
        # first delivery minus that point's own wall time.
        first_wall = min(point.wall_seconds for point in points[:SWEEP_WORKERS])
        bytes_sent = sum(flow.bytes_sent for flow in flows)
        counts = {
            "engine.events": outcome.total_events,
            "transport.retransmits": sum(flow.retransmits for flow in flows),
            "transport.timeouts": sum(flow.timeouts for flow in flows),
            "transport.goodput_ratio": (
                sum(flow.bytes_goodput for flow in flows) / bytes_sent if bytes_sent else 0.0
            ),
            "workload.flows": len(flows),
            "runner.points": len(points),
            "runner.cache_hits": outcome.cache_hits,
        }
        return Rep(
            wall_s=wall,
            digest=digest_of(rows),
            counts=counts,
            packets=sum(flow.packets_sent for flow in flows),
            problems=problems,
            runner={
                "runner.pool_start_s": first_done[0] - started - first_wall,
                "runner.overhead_s": capacity - point_wall,
                "runner.parallel_efficiency": point_wall / capacity,
                "point_wall_s": point_wall,
            },
            profiles=[point.profile for point in points],
        )

    def set_up(self, seed: int) -> None:
        # Pool spawn plus one short point per worker.
        self._runner(1e-3).run(SWEEP_GRID[:SWEEP_WORKERS], n_runs=1, base_seed=seed)


def _timed_scenario(call: Callable, traced: bool):
    """``(wall seconds, result, environment)`` of one scenario call.

    Scenario runners build their environment internally; wrapping the
    factory for the call reads the topology's public counters afterwards
    without touching the per-event path.  A traced call also turns on the
    engine's per-callback timing, the span tracer's engine -> layer
    dispatch boundary.
    """
    envs: List[ExperimentEnv] = []
    original = ExperimentEnv.__dict__["create"]

    def create(cls, *args, **kwargs):
        env = original.__func__(cls, *args, **kwargs)
        if traced:
            env.sim.enable_profiling(callbacks=True)
        envs.append(env)
        return env

    ExperimentEnv.create = classmethod(create)
    try:
        started = time.perf_counter()
        result = call()
        wall = time.perf_counter() - started
    finally:
        ExperimentEnv.create = original
    return wall, result, envs[0]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        CubicScenario("table3-onoff", TABLE3_REMY, 60.0, set_up_s=1e-3),
        # Bulk flows start within the first simulated second, and a run
        # must outlast every start.
        CubicScenario("bulk-saturated", FIG2C_LONG_RUNNING, 20.0, set_up_s=1.0),
        PhiPartition(),
        TableTwoSweep(),
    )
}
