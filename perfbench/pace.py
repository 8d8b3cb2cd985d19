"""Host-speed pacing: time the program against a fixed reference kernel.

On a shared host (a VM beside other tenants) speed can swing by 2x
within seconds and drift over minutes, so raw seconds of the same work
spread far more than any change worth detecting.  A pure-Python reference
kernel, run in short chunks between slices of the simulation, slows down
and speeds up with the host in step with the simulator.  The benchmark
reports program time scaled to the host speed at which one chunk takes
:data:`REF_NOMINAL_S`::

    scaled seconds = program seconds * REF_NOMINAL_S / mean chunk seconds

The kernel is part of the benchmark, not of the program, so a change to
the program moves the scaled time exactly as it moves the raw time.

:class:`Pacer` slices ``Simulator.run`` into calls of at most
:data:`SLICE_EVENTS` events through its public ``max_events`` argument
(which leaves the trajectory bit-identical; the output digests check
it) and runs one chunk after each slice.  The chunk totals live in
anonymous shared memory, so sweep workers forked after
:meth:`Pacer.install` add theirs too.
"""

from __future__ import annotations

import gc
import heapq
import mmap
import os
import random
import time
from typing import Optional

#: Events per ``Simulator.run`` slice: 30 to 70 ms of simulation.
SLICE_EVENTS = 4000

#: Iterations of the reference kernel per chunk: about 8 ms.
REF_ITERATIONS = 1500

#: Seconds of one chunk at the host speed the scaled times refer to
#: (about the fastest chunks on a 2 GHz Xeon vCPU running CPython 3.11).
REF_NOMINAL_S = 0.006

#: The kernel's ports and pending events.  Like the simulator's, its
#: working set is far larger than the core's caches, so memory contention
#: from the host's other tenants slows both alike; a kernel that fits in
#: cache is slowed more than the simulator by the same contention.
PORTS = 2048
PENDING = 20000

#: Per-process ``[chunk seconds, chunks]`` slots of the pacer's totals.
SLOTS = 1024


class _Packet:
    __slots__ = ("seq", "size", "sent")

    def __init__(self, seq: int, size: int, sent: float) -> None:
        self.seq = seq
        self.size = size
        self.sent = sent


class _Port:
    """A queue with counters: the shape of the simulator's per-packet work."""

    __slots__ = ("queue", "queued_bytes", "counts")

    def __init__(self) -> None:
        self.queue = []
        self.queued_bytes = 0
        self.counts = {}

    def receive(self, now: float, packet: _Packet) -> float:
        self.queue.append(packet.size)
        self.queued_bytes += packet.size
        if len(self.queue) > 20:
            self.queued_bytes -= self.queue.pop(0)
        key = packet.seq & 4095
        self.counts[key] = self.counts.get(key, 0) + 1
        return now + 0.001 * (1 + packet.seq % 7)


class _Kernel:
    """The reference kernel's state, kept from chunk to chunk.

    Pending events are ``(time, seq, size)`` tuples of plain numbers,
    which the collector stops tracking, so the kernel adds almost nothing
    to the collections the program's own heap pays for.
    """

    def __init__(self) -> None:
        rng = random.Random(7)
        self.ports = [_Port() for _ in range(PORTS)]
        self.pending = [(rng.random(), seq, 1500) for seq in range(PENDING)]
        heapq.heapify(self.pending)
        self.seq = PENDING

    def chunk(self) -> None:
        pending, ports = self.pending, self.ports
        pop, push = heapq.heappop, heapq.heappush
        seq = self.seq
        for _ in range(REF_ITERATIONS):
            now, event, size = pop(pending)
            port = ports[(event * 2654435761) & (PORTS - 1)]
            due = port.receive(now, _Packet(event, size, now))
            seq += 1
            push(pending, (due, seq, 1500 - (seq & 255)))
        self.seq = seq


_kernel: Optional[_Kernel] = None


def ref_chunk() -> float:
    """Seconds of one fixed chunk of event-queue work on this host.

    The collector is off for the chunk, so it never pays for collecting
    the simulation's heap; everything the chunk allocates and does not
    keep is freed by reference counting.
    """
    global _kernel
    if _kernel is None:
        _kernel = _Kernel()
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel.chunk()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Interleaves reference chunks with ``Simulator.run`` slices.

    Each process adds its chunks to the slot of its pid, so no lock is
    needed: the only processes that run at once are a sweep's workers,
    forked together with neighbouring pids.
    """

    def __init__(self) -> None:
        self._slots = memoryview(mmap.mmap(-1, SLOTS * 2 * 8)).cast("d")
        self._original: Optional[object] = None

    def install(self) -> None:
        from repro.simnet.engine import Simulator

        ref_chunk()  # builds the kernel's state outside any repetition
        original = Simulator.__dict__["run"]
        slots = self._slots

        def run(sim, until=None):
            while True:
                before = sim.events_processed
                original(sim, until, SLICE_EVENTS)
                spent = ref_chunk()
                slot = 2 * (os.getpid() % SLOTS)
                slots[slot] += spent
                slots[slot + 1] += 1
                if sim.events_processed - before < SLICE_EVENTS:
                    return None

        self._original = original
        Simulator.run = run

    def uninstall(self) -> None:
        from repro.simnet.engine import Simulator

        if self._original is not None:
            Simulator.run = self._original
            self._original = None

    def chunk_seconds(self) -> float:
        """Seconds spent in reference chunks so far, by every process."""
        return sum(self._slots[0::2])

    def slowdown(self) -> float:
        """Mean chunk time over :data:`REF_NOMINAL_S` (1.0 at nominal speed)."""
        chunks = sum(self._slots[1::2])
        if not chunks:
            raise RuntimeError("no reference chunk ran")
        return self.chunk_seconds() / chunks / REF_NOMINAL_S
