"""The flight-recorder core: bounded per-layer rings of lifecycle events.

The recorder is the causal complement to the metrics registry: where a
counter says *how many* RTOs fired, the recorder says *which flow*, *at
what sim time*, and *what else was happening* — the enqueue that never
dequeued, the fault window that swallowed the retransmit, the breaker
that opened two RPCs earlier.  One bounded ring per layer:

- ``simnet``: enqueue/dequeue/transmit/drop and fault absorptions,
  carrying packet ids and the owning flow id;
- ``transport``: flow start/end, cwnd/ssthresh changes, RTO fires,
  recovery enter/exit, keyed by flow id;
- ``phi``: RPC outcomes, failovers, breaker transitions, and
  FRESH→STALE→FALLBACK/DISTRUSTED mode edges.

Cost contract (mirrors :mod:`repro.telemetry`): a disabled recorder is
the shared :data:`NULL_RECORDER` singleton, and every instrumentation
site pays one session lookup plus one ``enabled`` bool.  Enabled, each
event is a handful of scalar stores into a preallocated flat slot
buffer — no container allocation per event.  The flat rings are what
keep the armed recorder inside its 1.10x hot-path budget: appending a
tuple per event looks cheap but grows the garbage collector's tracked
set by tens of thousands of objects, and the resulting extra collection
passes over the whole simulation heap cost more than the appends
themselves (measured ~1.4x on the table-3 hot path; scalar stores into
preallocated slots allocate nothing the collector tracks).  No I/O, no
effect on the simulation trajectory — the budget is asserted in
``benchmarks/test_bench_flightrec.py``.

Serialization is strict JSON (``allow_nan=False``), one record per
line, with a header line carrying the per-layer eviction accounting and
the anomaly that triggered the dump.

Fault-injection events get a fourth, dedicated ring: they are rare but
attribution-critical (the post-mortem analyzer matches stalls against
fault windows), and a busy data plane would otherwise evict a fault
edge from the simnet ring long before the dump fires.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Default ring budgets, per layer.  The simnet ring is the largest
#: (several events per packet); phi the smallest (a handful of events
#: per connection).  At these sizes a fully warm recorder holds a few
#: MB and a dump is a few thousand lines.
DEFAULT_SIMNET_CAPACITY = 32768
DEFAULT_TRANSPORT_CAPACITY = 16384
DEFAULT_PHI_CAPACITY = 8192
DEFAULT_FAULT_CAPACITY = 4096

LAYERS = ("simnet", "transport", "phi", "fault")

#: Scalars per slot: simnet/transport/fault rings store six fields, phi
#: stores four (see the emitters for the positional schema).
_WIDE = 6
_PHI_WIDTH = 4

HEADER_NAME = "flightrec.header"


class FlightRecorder:
    """Bounded, layered ring buffers of causally linked lifecycle events."""

    enabled = True

    __slots__ = (
        "_simnet",
        "_transport",
        "_phi",
        "_fault",
        "_simnet_cap",
        "_transport_cap",
        "_phi_cap",
        "_fault_cap",
        "simnet_emitted",
        "transport_emitted",
        "phi_emitted",
        "fault_emitted",
        "autodump_path",
        "autodumps",
        "last_dump_reason",
    )

    def __init__(
        self,
        *,
        simnet_capacity: int = DEFAULT_SIMNET_CAPACITY,
        transport_capacity: int = DEFAULT_TRANSPORT_CAPACITY,
        phi_capacity: int = DEFAULT_PHI_CAPACITY,
        fault_capacity: int = DEFAULT_FAULT_CAPACITY,
        autodump_path: Optional[str] = None,
    ) -> None:
        if min(simnet_capacity, transport_capacity, phi_capacity,
               fault_capacity) < 1:
            raise ValueError("ring capacities must be >= 1")
        self._simnet_cap = simnet_capacity
        self._transport_cap = transport_capacity
        self._phi_cap = phi_capacity
        self._fault_cap = fault_capacity
        # Flat preallocated slot buffers (see module docstring for why
        # these are not deques of tuples).
        self._simnet: List[Any] = [None] * (simnet_capacity * _WIDE)
        self._transport: List[Any] = [None] * (transport_capacity * _WIDE)
        self._phi: List[Any] = [None] * (phi_capacity * _PHI_WIDTH)
        self._fault: List[Any] = [None] * (fault_capacity * _WIDE)
        self.simnet_emitted = 0
        self.transport_emitted = 0
        self.phi_emitted = 0
        self.fault_emitted = 0
        #: When set, :meth:`maybe_autodump` snapshots the rings here —
        #: the dump-on-anomaly hooks (watchdog trips, invariant
        #: violations, quarantined sweep points, envelope failures) all
        #: funnel through it.
        self.autodump_path = autodump_path
        self.autodumps = 0
        self.last_dump_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Hot-path emitters: scalar stores into a preallocated slot, fixed
    # positional schema, zero per-event container allocation.
    # ------------------------------------------------------------------
    def simnet(
        self,
        kind: str,
        t: float,
        component: str,
        flow_id: int = -1,
        packet_id: int = -1,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A simnet-layer event (link/queue/fault), keyed by packet id."""
        i = self.simnet_emitted
        self.simnet_emitted = i + 1
        base = (i % self._simnet_cap) * _WIDE
        buf = self._simnet
        buf[base] = t
        buf[base + 1] = kind
        buf[base + 2] = component
        buf[base + 3] = flow_id
        buf[base + 4] = packet_id
        buf[base + 5] = detail

    def transport(
        self,
        kind: str,
        t: float,
        flow_id: int,
        cwnd: float = -1.0,
        ssthresh: float = -1.0,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A transport-layer event (cwnd/RTO/recovery), keyed by flow id."""
        i = self.transport_emitted
        self.transport_emitted = i + 1
        base = (i % self._transport_cap) * _WIDE
        buf = self._transport
        buf[base] = t
        buf[base + 1] = kind
        buf[base + 2] = flow_id
        buf[base + 3] = cwnd
        buf[base + 4] = ssthresh
        buf[base + 5] = detail

    def phi(
        self,
        kind: str,
        t: float,
        subject: str = "",
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A control-plane event (RPC/failover/breaker/mode edge)."""
        i = self.phi_emitted
        self.phi_emitted = i + 1
        base = (i % self._phi_cap) * _PHI_WIDTH
        buf = self._phi
        buf[base] = t
        buf[base + 1] = kind
        buf[base + 2] = subject
        buf[base + 3] = detail

    def fault(
        self,
        kind: str,
        t: float,
        component: str,
        flow_id: int = -1,
        packet_id: int = -1,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A fault-injection event (window edge, absorb, delay).

        Same shape as :meth:`simnet` but in its own small ring: fault
        edges must survive any volume of data-plane traffic because the
        post-mortem analyzer attributes stalls against their windows.
        """
        i = self.fault_emitted
        self.fault_emitted = i + 1
        base = (i % self._fault_cap) * _WIDE
        buf = self._fault
        buf[base] = t
        buf[base + 1] = kind
        buf[base + 2] = component
        buf[base + 3] = flow_id
        buf[base + 4] = packet_id
        buf[base + 5] = detail

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def simnet_evicted(self) -> int:
        return max(0, self.simnet_emitted - self._simnet_cap)

    @property
    def transport_evicted(self) -> int:
        return max(0, self.transport_emitted - self._transport_cap)

    @property
    def phi_evicted(self) -> int:
        return max(0, self.phi_emitted - self._phi_cap)

    @property
    def fault_evicted(self) -> int:
        return max(0, self.fault_emitted - self._fault_cap)

    def __len__(self) -> int:
        return (
            min(self.simnet_emitted, self._simnet_cap)
            + min(self.transport_emitted, self._transport_cap)
            + min(self.phi_emitted, self._phi_cap)
            + min(self.fault_emitted, self._fault_cap)
        )

    # ------------------------------------------------------------------
    # Snapshots and serialization
    # ------------------------------------------------------------------
    def _iter_slots(
        self, buf: List[Any], emitted: int, capacity: int, width: int
    ) -> Iterator[List[Any]]:
        """Retained slots of one ring, oldest emission first."""
        count = min(emitted, capacity)
        start = emitted - count  # emission number of the oldest survivor
        for k in range(count):
            base = ((start + k) % capacity) * width
            yield buf[base:base + width]

    def records(self) -> List[Dict[str, Any]]:
        """All retained records as dicts, time-sorted across layers.

        The sort is stable, so within a layer the emission order is
        preserved and the interleaving of layers at equal sim times is
        deterministic (simnet, then transport, then phi, then fault).
        """
        merged: List[Dict[str, Any]] = []
        for t, kind, component, flow_id, packet_id, detail in self._iter_slots(
            self._simnet, self.simnet_emitted, self._simnet_cap, _WIDE
        ):
            record = {
                "layer": "simnet",
                "kind": kind,
                "t": t,
                "component": component,
                "flow_id": flow_id,
                "packet_id": packet_id,
            }
            if detail is not None:
                record["detail"] = detail
            merged.append(record)
        for t, kind, flow_id, cwnd, ssthresh, detail in self._iter_slots(
            self._transport, self.transport_emitted, self._transport_cap, _WIDE
        ):
            record = {
                "layer": "transport",
                "kind": kind,
                "t": t,
                "flow_id": flow_id,
                "cwnd": cwnd,
                "ssthresh": ssthresh,
            }
            if detail is not None:
                record["detail"] = detail
            merged.append(record)
        for t, kind, subject, detail in self._iter_slots(
            self._phi, self.phi_emitted, self._phi_cap, _PHI_WIDTH
        ):
            record = {"layer": "phi", "kind": kind, "t": t, "subject": subject}
            if detail is not None:
                record["detail"] = detail
            merged.append(record)
        for t, kind, component, flow_id, packet_id, detail in self._iter_slots(
            self._fault, self.fault_emitted, self._fault_cap, _WIDE
        ):
            record = {
                "layer": "fault",
                "kind": kind,
                "t": t,
                "component": component,
                "flow_id": flow_id,
                "packet_id": packet_id,
            }
            if detail is not None:
                record["detail"] = detail
            merged.append(record)
        merged.sort(key=lambda record: record["t"])
        return merged

    def header(
        self, *, reason: Optional[str] = None, sim_time: Optional[float] = None
    ) -> Dict[str, Any]:
        """The dump header: anomaly context plus eviction accounting."""
        return {
            "name": HEADER_NAME,
            "kind": "header",
            "reason": reason,
            "sim_time": sim_time,
            "layers": {
                "simnet": {
                    "emitted": self.simnet_emitted,
                    "evicted": self.simnet_evicted,
                    "capacity": self._simnet_cap,
                },
                "transport": {
                    "emitted": self.transport_emitted,
                    "evicted": self.transport_evicted,
                    "capacity": self._transport_cap,
                },
                "phi": {
                    "emitted": self.phi_emitted,
                    "evicted": self.phi_evicted,
                    "capacity": self._phi_cap,
                },
                "fault": {
                    "emitted": self.fault_emitted,
                    "evicted": self.fault_evicted,
                    "capacity": self._fault_cap,
                },
            },
        }

    def dump(
        self,
        path: str,
        *,
        reason: Optional[str] = None,
        sim_time: Optional[float] = None,
    ) -> int:
        """Snapshot the rings to ``path`` as strict JSONL; retained count.

        The write is atomic (temp file + ``os.replace``) so a dump
        interrupted by a dying worker never leaves a torn artifact; a
        repeated dump to the same path (a later anomaly in the same run)
        replaces the earlier snapshot with a superset of its events.
        """
        records = self.records()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp_path = path + ".tmp"
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                # allow_nan=False: strict JSON, like every other artifact
                # in the repo (journals, manifests, check reports).
                handle.write(
                    json.dumps(self.header(reason=reason, sim_time=sim_time),
                               allow_nan=False) + "\n"
                )
                for record in records:
                    handle.write(json.dumps(record, allow_nan=False) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            # A record that is not strict JSON (or a failed write) must
            # not leave a half-written temp file beside the artifact.
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
            raise
        self.last_dump_reason = reason
        return len(records)

    def maybe_autodump(
        self, reason: str, *, sim_time: Optional[float] = None
    ) -> Optional[str]:
        """Dump to the configured anomaly path, if one is set.

        This is the dump-on-anomaly funnel: cheap to call from anywhere
        (a no-op without ``autodump_path``), idempotent in effect
        (re-dumps replace), and counted so tests can assert it fired.
        """
        if self.autodump_path is None:
            return None
        self.dump(self.autodump_path, reason=reason, sim_time=sim_time)
        self.autodumps += 1
        return self.autodump_path

    def clear(self) -> None:
        self._simnet = [None] * (self._simnet_cap * _WIDE)
        self._transport = [None] * (self._transport_cap * _WIDE)
        self._phi = [None] * (self._phi_cap * _PHI_WIDTH)
        self._fault = [None] * (self._fault_cap * _WIDE)
        self.simnet_emitted = 0
        self.transport_emitted = 0
        self.phi_emitted = 0
        self.fault_emitted = 0
        self.autodumps = 0
        self.last_dump_reason = None


class NullFlightRecorder(FlightRecorder):
    """The shared disabled recorder: every emitter is an empty method.

    Instrumentation sites check ``enabled`` before building any event
    payload, so the per-site cost when disabled is one attribute load
    and one bool test.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(simnet_capacity=1, transport_capacity=1,
                         phi_capacity=1, fault_capacity=1)

    def simnet(self, *args, **kwargs) -> None:  # noqa: D102 - no-op
        pass

    def transport(self, *args, **kwargs) -> None:  # noqa: D102 - no-op
        pass

    def phi(self, *args, **kwargs) -> None:  # noqa: D102 - no-op
        pass

    def fault(self, *args, **kwargs) -> None:  # noqa: D102 - no-op
        pass

    def dump(self, path: str, **kwargs) -> int:
        return 0

    def maybe_autodump(self, reason: str, **kwargs) -> Optional[str]:
        return None


#: The process-wide disabled recorder (see :class:`NullFlightRecorder`).
NULL_RECORDER = NullFlightRecorder()


def load_dump(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a dump back: ``(header, records)``.

    Tolerates a missing header (returns an empty one) but not malformed
    JSON — a dump is written atomically, so damage means a real bug.
    """
    header: Dict[str, Any] = {}
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if payload.get("name") == HEADER_NAME:
                header = payload
            else:
                records.append(payload)
    return header, records


def iter_layer(
    records: List[Dict[str, Any]], layer: str
) -> Iterator[Dict[str, Any]]:
    """The records of one layer, in dump (time) order."""
    return (record for record in records if record.get("layer") == layer)


__all__ = [
    "DEFAULT_FAULT_CAPACITY",
    "DEFAULT_PHI_CAPACITY",
    "DEFAULT_SIMNET_CAPACITY",
    "DEFAULT_TRANSPORT_CAPACITY",
    "FlightRecorder",
    "HEADER_NAME",
    "LAYERS",
    "NULL_RECORDER",
    "NullFlightRecorder",
    "iter_layer",
    "load_dump",
]
