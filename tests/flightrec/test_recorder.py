"""Flight-recorder core: ring bounds, accounting, dumps, scoping."""

import json
import math
import os

import pytest

from repro import flightrec, telemetry
from repro.flightrec.recorder import (
    LAYERS,
    NULL_RECORDER,
    FlightRecorder,
    NullFlightRecorder,
    iter_layer,
    load_dump,
)
from repro.simnet import (
    DropTailQueue,
    DumbbellConfig,
    DumbbellTopology,
    FlowSpec,
    Host,
    Link,
    Simulator,
    make_data_packet,
)
from repro.transport import CubicSender, TcpSink


class TestRings:
    def test_each_layer_has_its_own_bounded_ring(self):
        rec = FlightRecorder(
            simnet_capacity=2, transport_capacity=3, phi_capacity=1,
            fault_capacity=2,
        )
        for i in range(5):
            rec.simnet("enqueue", float(i), "link", flow_id=1, packet_id=i)
            rec.transport("cwnd", float(i), 1, cwnd=float(i))
            rec.phi("rpc", float(i), "lookup")
            rec.fault("fault_absorb", float(i), "link")
        assert rec.simnet_emitted == 5 and rec.simnet_evicted == 3
        assert rec.transport_emitted == 5 and rec.transport_evicted == 2
        assert rec.phi_emitted == 5 and rec.phi_evicted == 4
        assert rec.fault_emitted == 5 and rec.fault_evicted == 3
        assert len(rec) == 2 + 3 + 1 + 2

    @pytest.mark.parametrize(
        "capacity, emitted",
        [(3, 3), (4, 23)],
        ids=["exact_fill_evicts_nothing", "eviction_counts_across_many_wraps"],
    )
    @pytest.mark.parametrize("layer", LAYERS)
    def test_ring_keeps_newest_window(self, layer, capacity, emitted):
        rec = FlightRecorder(**{f"{layer}_capacity": capacity})
        emit = getattr(rec, layer)
        key = 1 if layer == "transport" else "subject"  # flow id / component
        for i in range(emitted):
            emit("tick", float(i), key)
        assert getattr(rec, f"{layer}_emitted") == emitted
        assert getattr(rec, f"{layer}_evicted") == max(0, emitted - capacity)
        assert len(rec) == min(emitted, capacity)
        # The ring keeps the newest window, oldest first.
        assert [r["t"] for r in rec.records()] == [
            float(i) for i in range(max(0, emitted - capacity), emitted)
        ]

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(simnet_capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(fault_capacity=0)

    def test_records_time_sorted_across_layers(self):
        rec = FlightRecorder()
        rec.phi("rpc", 3.0, "lookup")
        rec.simnet("drop", 1.0, "queue", flow_id=7, packet_id=42)
        rec.transport("rto", 2.0, 7)
        records = rec.records()
        assert [r["t"] for r in records] == [1.0, 2.0, 3.0]
        assert [r["layer"] for r in records] == ["simnet", "transport", "phi"]

    def test_detail_omitted_when_none(self):
        rec = FlightRecorder()
        rec.simnet("enqueue", 0.0, "link")
        rec.simnet("drop", 0.0, "queue", detail={"queued_bytes": 9})
        plain, detailed = rec.records()
        assert "detail" not in plain
        assert detailed["detail"] == {"queued_bytes": 9}

    def test_clear_resets_rings_and_counters(self):
        rec = FlightRecorder()
        rec.simnet("enqueue", 0.0, "link")
        rec.fault("fault_begin", 0.0, "link")
        rec.clear()
        assert len(rec) == 0
        assert rec.simnet_emitted == 0
        assert rec.fault_emitted == 0


class TestDump:
    def test_dump_load_round_trip(self, tmp_path):
        rec = FlightRecorder()
        rec.simnet("transmit", 0.5, "bottleneck", flow_id=1, packet_id=10)
        rec.transport("flow_start", 0.25, 1, cwnd=2.0,
                      detail={"flavour": "cubic"})
        rec.phi("mode", 0.75, "context", detail={"from": "fresh", "to": "stale"})
        rec.fault("fault_begin", 0.6, "bottleneck",
                  detail={"fault": "LinkOutage", "start_s": 0.6, "end_s": 1.0})
        path = tmp_path / "dump.jsonl"
        retained = rec.dump(str(path), reason="unit", sim_time=1.0)
        assert retained == 4
        header, records = load_dump(str(path))
        assert header["reason"] == "unit"
        assert header["sim_time"] == 1.0
        assert set(header["layers"]) == set(LAYERS)
        assert [r["layer"] for r in records] == [
            "transport", "simnet", "fault", "phi",
        ]
        assert list(iter_layer(records, "fault"))[0]["detail"]["end_s"] == 1.0

    def test_header_carries_eviction_accounting(self, tmp_path):
        rec = FlightRecorder(simnet_capacity=1)
        rec.simnet("enqueue", 0.0, "link")
        rec.simnet("enqueue", 1.0, "link")
        path = tmp_path / "dump.jsonl"
        rec.dump(str(path), reason="unit")
        header, _ = load_dump(str(path))
        assert header["layers"]["simnet"] == {
            "emitted": 2, "evicted": 1, "capacity": 1,
        }

    def test_dump_rejects_nan(self, tmp_path):
        rec = FlightRecorder()
        rec.transport("cwnd", 0.0, 1, cwnd=math.nan)
        with pytest.raises(ValueError):
            rec.dump(str(tmp_path / "dump.jsonl"), reason="unit")

    def test_nan_dump_leaves_no_artifact(self, tmp_path):
        rec = FlightRecorder()
        rec.transport("cwnd", 0.0, 1, cwnd=math.inf)
        path = tmp_path / "dump.jsonl"
        with pytest.raises(ValueError):
            rec.dump(str(path), reason="unit")
        assert not path.exists()
        assert not os.path.exists(str(path) + ".tmp")

    def test_dump_is_strict_jsonl(self, tmp_path):
        rec = FlightRecorder()
        rec.simnet("drop", 1.5, "queue", flow_id=3, packet_id=77)
        path = tmp_path / "dump.jsonl"
        rec.dump(str(path), reason="unit")
        lines = path.read_text().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_maybe_autodump_without_path_is_noop(self):
        rec = FlightRecorder()
        assert rec.maybe_autodump("anything") is None
        assert rec.autodumps == 0

    def test_maybe_autodump_writes_and_counts(self, tmp_path):
        path = tmp_path / "auto.jsonl"
        rec = FlightRecorder(autodump_path=str(path))
        rec.simnet("drop", 0.0, "queue")
        assert rec.maybe_autodump("watchdog:max_events", sim_time=4.0) == str(path)
        assert rec.autodumps == 1
        assert rec.last_dump_reason == "watchdog:max_events"
        header, _ = load_dump(str(path))
        assert header["reason"] == "watchdog:max_events"
        assert header["sim_time"] == 4.0

    def test_redump_replaces_with_superset(self, tmp_path):
        path = tmp_path / "auto.jsonl"
        rec = FlightRecorder(autodump_path=str(path))
        rec.simnet("enqueue", 0.0, "link")
        rec.maybe_autodump("first")
        rec.simnet("enqueue", 1.0, "link")
        rec.maybe_autodump("second")
        header, records = load_dump(str(path))
        assert header["reason"] == "second"
        assert len(records) == 2


class TestNullRecorder:
    def test_shared_singleton_is_disabled(self):
        assert NULL_RECORDER.enabled is False
        assert isinstance(NULL_RECORDER, NullFlightRecorder)

    def test_emitters_record_nothing(self):
        NULL_RECORDER.simnet("enqueue", 0.0, "link")
        NULL_RECORDER.transport("cwnd", 0.0, 1)
        NULL_RECORDER.phi("rpc", 0.0, "lookup")
        NULL_RECORDER.fault("fault_begin", 0.0, "link")
        assert len(NULL_RECORDER) == 0

    def test_dump_and_autodump_are_noops(self, tmp_path):
        path = tmp_path / "never.jsonl"
        assert NULL_RECORDER.dump(str(path), reason="x") == 0
        assert NULL_RECORDER.maybe_autodump("x") is None
        assert not path.exists()


class TestScoping:
    def test_disabled_by_default(self):
        assert flightrec.session() is NULL_RECORDER
        assert flightrec.session().enabled is False

    def test_use_activates_and_restores(self):
        with flightrec.use() as rec:
            assert flightrec.session() is rec
            assert rec.enabled
        assert flightrec.session() is NULL_RECORDER

    def test_use_composes_with_telemetry_in_either_order(self):
        with flightrec.use() as rec:
            with telemetry.use() as tele:
                assert tele.flightrec is rec
                assert flightrec.session() is rec
        with telemetry.use():
            with flightrec.use() as rec:
                assert flightrec.session() is rec
                assert telemetry.session().registry.enabled

    def test_capture_dumps_on_exception(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError):
            with flightrec.capture(str(path)) as rec:
                rec.simnet("enqueue", 0.0, "link")
                raise RuntimeError("worker died")
        header, records = load_dump(str(path))
        assert header["reason"] == "RuntimeError: worker died"
        assert len(records) == 1

    def test_capture_keeps_more_specific_anomaly_reason(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError):
            with flightrec.capture(str(path)) as rec:
                rec.maybe_autodump("invariant:wire_conservation")
                raise RuntimeError("unwinding after the violation")
        header, _ = load_dump(str(path))
        assert header["reason"] == "invariant:wire_conservation"

    def test_capture_no_dump_on_success(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        with flightrec.capture(str(path)) as rec:
            rec.simnet("enqueue", 0.0, "link")
        assert not path.exists()


class TestInstrumentation:
    def test_enqueue_dequeue_drop_recorded(self):
        sim = Simulator()
        link = Link(sim, "bottleneck", 8_000.0, 0.0,
                    DropTailQueue(1500, lambda: sim.now))
        sink = Host("dst")
        sink.set_default_handler(lambda packet: None)
        link.attach(sink)
        with flightrec.use() as rec:
            for seq in range(3):  # on the wire, queued, dropped
                link.send(make_data_packet(1, "a", "dst", seq, 1000))
            sim.run()
        kinds = [r["kind"] for r in iter_layer(rec.records(), "simnet")]
        assert sorted(kinds) == ["dequeue", "drop", "enqueue",
                                 "transmit", "transmit"]
        assert kinds.index("enqueue") < kinds.index("dequeue")

    def test_cwnd_trajectory_recorded(self):
        sim = Simulator()
        # A one-BDP buffer makes the flow lossy, so its window must fall.
        top = DumbbellTopology(sim, DumbbellConfig(
            n_senders=1, bottleneck_bandwidth_bps=10_000_000.0, rtt_s=0.06,
            buffer_bdp_multiple=1.0,
        ))
        spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
        TcpSink(sim, top.receivers[0], spec)
        with flightrec.use() as rec:
            sender = CubicSender(sim, top.senders[0], spec, 10**9)
            sender.start()
            sim.run(until=10.0)
        trajectory = [
            (r["t"], r["cwnd"])
            for r in iter_layer(rec.records(), "transport")
            if r["kind"] == "cwnd" and r["flow_id"] == spec.flow_id
        ]
        assert len(trajectory) > 10
        times = [t for t, _w in trajectory]
        assert times == sorted(times)
        values = [w for _t, w in trajectory]
        peak = values.index(max(values))
        # Slow start grows the window beyond its initial value ...
        assert values[peak] > values[0]
        # ... and a loss later brings it back down.
        assert min(values[peak:]) < values[peak]
        assert sender.stats.fast_retransmits + sender.stats.timeouts > 0
