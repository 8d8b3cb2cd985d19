"""Per-layer span tracing, installed from outside the simulator.

:class:`LayerTracer` wraps the public entry points of each layer (see
:data:`ENTRY_POINTS`) with spans and charges every span its *self* time:
its duration minus the time of the spans it contains.  The engine's
per-callback timing (``Simulator.enable_profiling(callbacks=True)``)
marks the engine -> layer dispatch boundary: each event callback's time,
minus the spans it contains, is charged to the layer whose module
defines the callback.  The run loop's own time (heap pops, dispatch and
the timing itself) is charged to ``engine`` and also reported on its own
as :attr:`LayerTracer.loop_s`.

Nothing in ``src/`` changes: the tracer patches class attributes while
installed and restores them on exit.  Objects built while it is
installed keep the wrappers (``Link`` binds ``sim.schedule`` at
construction), so build a fresh scenario per traced run.

Forked worker processes inherit the installed wrappers.  So that their
numbers reach the parent, every ``Simulator.run`` call writes the
self time and call counts it accumulated into its profile's
``phase_seconds`` under ``perfbench.*`` keys; a sweep run with
``profile=True`` ships those back on each ``PointResult.profile``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.phi.channel import ControlChannel
from repro.phi.failover import FailoverChannel
from repro.phi.fallback import ResilientContextClient
from repro.phi.server import ContextServer
from repro.simnet.engine import SimProfile, Simulator
from repro.simnet.link import Link
from repro.simnet.node import Host, Router
from repro.simnet.queues import DropTailQueue
from repro.transport.base import TcpSender
from repro.transport.sink import TcpSink

#: Layers in report order; ``other`` collects callbacks of modules that
#: belong to none of them (monitors, faults, scenario glue).
LAYERS = (
    "engine", "link", "queues", "node", "transport", "sink",
    "workload", "phi", "other",
)

#: ``(layer, class, method names)`` wrapped with spans.  ``Simulator.run``
#: is wrapped too, by :meth:`LayerTracer._wrap_run`.
ENTRY_POINTS: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("engine", Simulator, ("schedule", "schedule_at")),
    ("link", Link, ("send",)),
    ("queues", DropTailQueue, ("enqueue", "dequeue")),
    ("node", Host, ("receive", "send")),
    ("node", Router, ("receive",)),
    ("transport", TcpSender, ("handle_packet", "start")),
    ("sink", TcpSink, ("handle_packet",)),
    ("phi", ControlChannel, ("call_lookup", "call_report")),
    ("phi", FailoverChannel, ("call_lookup", "call_report")),
    ("phi", ContextServer, ("lookup", "report")),
    ("phi", ResilientContextClient, ("resolve",)),
)

#: Module-name prefixes of each layer, for charging event callbacks.
MODULE_LAYERS = (
    ("repro.simnet.engine", "engine"),
    ("repro.simnet.link", "link"),
    ("repro.simnet.queues", "queues"),
    ("repro.simnet.red", "queues"),
    ("repro.simnet.node", "node"),
    ("repro.transport.sink", "sink"),
    ("repro.transport", "transport"),
    ("repro.workload", "workload"),
    ("repro.phi", "phi"),
)

#: Prefix of the keys a traced ``Simulator.run`` writes into its profile.
PHASE_PREFIX = "perfbench."


def _owner_layers() -> Dict[str, str]:
    """Top-level class/function name -> layer, for the loaded repro modules."""
    owners: Dict[str, str] = {}
    for module_name in sorted(sys.modules):
        module = sys.modules[module_name]
        if module is None or not module_name.startswith("repro."):
            continue
        layer = next(
            (lay for prefix, lay in MODULE_LAYERS if module_name.startswith(prefix)),
            None,
        )
        if layer is None:
            continue
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) == module_name:
                owners.setdefault(name, layer)
    return owners


class LayerTracer:
    """Span tracer over :data:`ENTRY_POINTS`; use as a context manager.

    After a traced run, :attr:`self_s` maps layer -> self seconds,
    :attr:`calls` maps ``Class.method`` -> calls, and :attr:`targets`
    maps the qualified name of each scheduled callback -> schedules.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.loop_s = 0.0
        self.calls: Dict[str, int] = defaultdict(int)
        self.targets: Dict[str, int] = defaultdict(int)
        # One child-time accumulator per open span; the bottom entry
        # collects top-level spans.
        self._stack: List[float] = [0.0]
        self._callbacks_s = 0.0
        self._owners: Dict[str, str] = {}
        self._saved: List[Tuple[type, str, object]] = []

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self._owners = _owner_layers()
        special = {
            "schedule_at": self._wrap_schedule_at,
            "enqueue": self._wrap_refusals,
            "dequeue": self._wrap_refusals,
        }
        for layer, cls, names in ENTRY_POINTS:
            for name in names:
                wrap = special.get(name, self._wrap)
                self._patch(cls, name, wrap(layer, cls.__dict__[name]))
        self._patch(Simulator, "run", self._wrap_run(Simulator.__dict__["run"]))
        self._patch(SimProfile, "record_callback", self._record_callback())
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    def _patch(self, cls: type, name: str, replacement: Callable) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    # -- spans ----------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack, self_s, calls = self._stack, self.self_s, self.calls
        name = fn.__qualname__
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            started = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - started
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1

        return span

    def _wrap_schedule_at(self, layer: str, fn: Callable) -> Callable:
        span = self._wrap(layer, fn)
        targets = self.targets

        @functools.wraps(fn)
        def schedule_at(sim, when, callback, *args):
            targets[getattr(callback, "__qualname__", "?")] += 1
            return span(sim, when, callback, *args)

        return schedule_at

    def _wrap_refusals(self, layer: str, fn: Callable) -> Callable:
        """A span that also counts calls returning ``False`` or ``None``
        under ``<name>:refused`` (a full queue's drop, an empty dequeue)."""
        span = self._wrap(layer, fn)
        calls = self.calls
        refused = fn.__qualname__ + ":refused"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = span(*args, **kwargs)
            if result is None or result is False:
                calls[refused] += 1
            return result

        return counted

    def _record_callback(self) -> Callable:
        """A ``SimProfile.record_callback`` that charges the callback's layer."""
        stack, self_s, layer_of, owners = self._stack, self.self_s, {}, self._owners

        def record_callback(profile: SimProfile, name: str, elapsed: float) -> None:
            layer = layer_of.get(name)
            if layer is None:
                layer = layer_of[name] = owners.get(name.split(".", 1)[0], "other")
            self_s[layer] += elapsed - stack[-1]
            stack[-1] = 0.0
            self._callbacks_s += elapsed

        return record_callback

    def _wrap_run(self, fn: Callable) -> Callable:
        stack, self_s, calls, targets = self._stack, self.self_s, self.calls, self.targets
        perf = time.perf_counter

        @functools.wraps(fn)
        def run(sim, *args, **kwargs):
            before = (dict(self_s), dict(calls), dict(targets))
            outer_callbacks = self._callbacks_s
            self._callbacks_s = 0.0
            stack.append(0.0)
            started = perf()
            try:
                return fn(sim, *args, **kwargs)
            finally:
                elapsed = perf() - started
                loop = elapsed - self._callbacks_s - stack.pop()
                self._callbacks_s = outer_callbacks
                self_s["engine"] += loop
                self.loop_s += loop
                stack[-1] += elapsed
                calls["Simulator.run"] += 1
                _export(sim.profile, before, (self_s, calls, targets), loop)

        return run


def _export(profile: Optional[SimProfile], before, after, loop_s: float) -> None:
    """Write one run call's deltas into ``profile.phase_seconds``."""
    if profile is None:
        return
    phases = profile.phase_seconds
    for kind, old, new in zip(("self", "calls", "targets"), before, after):
        for key, value in new.items():
            delta = value - old.get(key, 0)
            if delta:
                full = f"{PHASE_PREFIX}{kind}.{key}"
                phases[full] = phases.get(full, 0) + delta
    phases[f"{PHASE_PREFIX}loop"] = phases.get(f"{PHASE_PREFIX}loop", 0.0) + loop_s


def merge_exported(profiles: Iterable[Optional[dict]]) -> LayerTracer:
    """Sum ``perfbench.*`` phases of ``SimProfile.as_dict()`` results.

    Returns an uninstalled :class:`LayerTracer` holding the totals, the
    shape the report code reads for in-process runs.
    """
    merged = LayerTracer()
    sinks = {"self": merged.self_s, "calls": merged.calls, "targets": merged.targets}
    for profile in profiles:
        if not profile:
            continue
        for key, value in profile.get("phase_seconds", {}).items():
            if not key.startswith(PHASE_PREFIX):
                continue
            rest = key[len(PHASE_PREFIX):]
            if rest == "loop":
                merged.loop_s += value
                continue
            kind, name = rest.split(".", 1)
            sinks[kind][name] += value
    return merged
