"""One supervised driver for the control-plane perturbation sweeps.

X4 takes the context server down (:mod:`.degraded`), X6 makes it lie
(:mod:`.poisoned`) and X7 partitions a replicated plane
(:mod:`.partitioned`).  Each module declares only what differs — a
:class:`Perturbation` naming its run function, grid axes, per-point
accounting, baselines and envelope floors — and this driver does the
rest.  Baselines are ordinary points: grid and baseline runs alike go
through one :class:`~repro.runner.resilience.SweepSupervisor` (pooled
when ``n_workers > 1``) and merge by index, so serial and pooled sweeps
are bit-identical and a quarantined point — grid cell or baseline —
stays visible in the report and the manifest instead of vanishing.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import telemetry as _telemetry
from ..metrics.summary import RunMetrics, summarize_runs
from ..phi.policy import PolicyTable
from ..runner.core import _pool_context
from ..runner.resilience import ExecutionReport, ResilienceConfig, SweepSupervisor
from ..telemetry.registry import merge_snapshots
from ..transport.cubic import CubicParams
from .scenarios import ScenarioPreset, run_cubic_fixed

#: How an accounting field folds across a cell's seeds (rows) and across
#: all grid points (manifest totals).  ``SUM`` adds dicts per key.
SUM, MEAN, MAX = "sum", "mean", "max"

NAN = float("nan")


@dataclass(frozen=True)
class Baseline:
    """A reference arm anchoring every row.

    ``pins`` fixes run-function arguments for the arm (``None`` runs
    uncoordinated stock Cubic instead).  The arm runs once per seed and
    per value of each grid axis in ``per``; a row is compared with the
    arm's runs that share its values on those axes.
    """

    name: str
    pins: Optional[Mapping[str, Any]] = None
    per: Tuple[str, ...] = ()


#: Uncoordinated default Cubic: the floor every perturbation is held to.
STOCK = Baseline("stock")


@dataclass(frozen=True)
class Floor:
    """Rows must stay within tolerance of ``baseline`` on each of
    ``axes`` (``"power"``, ``"throughput"``) — every row, or only those
    ``applies`` accepts."""

    baseline: str
    axes: Tuple[str, ...] = ("power", "throughput")
    applies: Optional[Callable[["PerturbationRow"], bool]] = None


@dataclass(frozen=True)
class Perturbation:
    """What one sweep varies, reports, and is held to.

    ``run(policy, preset, seed=, duration_s=, **kwargs)`` returns a
    result with ``.result`` (the scenario) and one attribute per
    ``accounting`` field; ``axes`` are run-function arguments in grid
    order.  The record crosses the process boundary with every point,
    so its callables must be module-level.
    """

    name: str
    run: Callable[..., Any]
    axes: Tuple[str, ...]
    accounting: Mapping[str, str]
    baselines: Tuple[Baseline, ...] = (STOCK,)
    floors: Tuple[Floor, ...] = ()


@dataclass(frozen=True)
class PerturbationPoint:
    """A grid cell (or, with ``baseline`` set, a baseline arm's values
    on its ``per`` axes) under one seed."""

    params: Mapping[str, Any]
    seed: int
    baseline: Optional[str] = None


@dataclass(frozen=True)
class PerturbationSpec:
    """What every worker needs; ``options`` are the run-function
    arguments fixed for the sweep.  Must stay picklable."""

    perturbation: Perturbation
    preset: ScenarioPreset
    policy: PolicyTable
    options: Mapping[str, Any] = field(default_factory=dict)
    duration_s: Optional[float] = None
    collect_telemetry: bool = False


@dataclass
class PerturbationResult:
    """One point's outcome; equality is bit-identity of the simulation
    (wall time and the telemetry sidecar are excluded)."""

    point: PerturbationPoint
    metrics: RunMetrics
    accounting: Dict[str, Any]
    events_processed: int
    wall_seconds: float = field(compare=False)
    telemetry: Optional[Dict[str, Any]] = field(default=None, compare=False)


def evaluate_perturbation_point(
    spec: PerturbationSpec, point: PerturbationPoint
) -> PerturbationResult:
    """Worker entry point; a pure function of ``(spec, point)``."""
    started = time.perf_counter()
    snapshot: Optional[Dict[str, Any]] = None
    if spec.collect_telemetry:
        with _telemetry.use() as tele:
            scenario, accounting = _run_point(spec, point)
            snapshot = tele.registry.snapshot()
    else:
        scenario, accounting = _run_point(spec, point)
    return PerturbationResult(
        point=point,
        metrics=scenario.metrics,
        accounting=accounting,
        events_processed=scenario.events_processed,
        wall_seconds=time.perf_counter() - started,
        telemetry=snapshot,
    )


def _run_point(spec: PerturbationSpec, point: PerturbationPoint):
    perturbation = spec.perturbation
    pins: Optional[Mapping[str, Any]] = {}
    if point.baseline is not None:
        pins = {b.name: b.pins for b in perturbation.baselines}[point.baseline]
    if pins is None:
        stock = run_cubic_fixed(
            CubicParams.default(), spec.preset,
            seed=point.seed, duration_s=spec.duration_s,
        )
        return stock, {}
    run = perturbation.run(
        spec.policy,
        spec.preset,
        seed=point.seed,
        duration_s=spec.duration_s,
        **{**spec.options, **point.params, **pins},
    )
    return run.result, {name: getattr(run, name) for name in perturbation.accounting}


def _ratio(value: float, baseline: float) -> float:
    if baseline <= 0:
        return float("inf") if value > 0 else 1.0
    return value / baseline


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _aggregate(how: str, values: Sequence[Any]) -> Any:
    if how == MAX:
        return max(values)
    if how == MEAN:
        return _mean(values)
    if isinstance(values[0], dict):
        total: Dict[Any, Any] = {}
        for value in values:
            for key, count in value.items():
                total[key] = total.get(key, 0) + count
        return total
    return sum(values)


def _aggregate_accounting(
    perturbation: Perturbation, results: Sequence[PerturbationResult]
) -> Dict[str, Any]:
    return {
        name: _aggregate(how, [r.accounting[name] for r in results])
        for name, how in perturbation.accounting.items()
    }


@dataclass
class PerturbationRow:
    """One grid cell across seeds.  The ``baseline_*`` dicts map a
    baseline name to its mean over the runs anchoring this cell; a fully
    quarantined baseline is absent and ratios against it are NaN."""

    params: Dict[str, Any]
    mean_power_l: float
    mean_throughput_mbps: float
    mean_delay_ms: float
    baseline_power_l: Dict[str, float]
    baseline_throughput_mbps: Dict[str, float]
    accounting: Dict[str, Any]

    def power_vs(self, baseline: str) -> float:
        """Mean power relative to ``baseline`` (1.0 = parity)."""
        return _ratio(self.mean_power_l, self.baseline_power_l.get(baseline, NAN))

    def throughput_vs(self, baseline: str) -> float:
        """Mean throughput relative to ``baseline``."""
        return _ratio(
            self.mean_throughput_mbps,
            self.baseline_throughput_mbps.get(baseline, NAN),
        )


@dataclass
class PerturbationOutcome:
    """Everything one sweep produced.  ``points`` is every planned point
    (grid, then baselines); ``completed`` maps a point's index to its
    result, so an index missing from it was quarantined (see ``report``)."""

    spec: PerturbationSpec
    points: List[PerturbationPoint]
    completed: Dict[int, PerturbationResult]
    rows: List[PerturbationRow]
    report: ExecutionReport
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def results(self) -> List[PerturbationResult]:
        """Completed results, grid and baselines, in point order."""
        return list(self.completed.values())

    @property
    def grid_results(self) -> List[PerturbationResult]:
        """Completed grid (non-baseline) results in point order."""
        return [r for r in self.completed.values() if r.point.baseline is None]

    def accounting_totals(self) -> Dict[str, Any]:
        """Every grid result's accounting, folded by its aggregator."""
        return _aggregate_accounting(self.spec.perturbation, self.grid_results)


def run_perturbation_sweep(
    perturbation: Perturbation,
    policy: PolicyTable,
    preset: ScenarioPreset,
    grid: Mapping[str, Sequence[Any]],
    *,
    seeds: Sequence[int] = (0, 1),
    duration_s: Optional[float] = None,
    n_workers: int = 1,
    resilience: Optional[ResilienceConfig] = None,
    collect_telemetry: Optional[bool] = None,
    **options: Any,
) -> PerturbationOutcome:
    """Sweep ``perturbation`` over ``grid`` x ``seeds``, baselines included.

    ``grid`` maps each of ``perturbation.axes`` to its values; ``options``
    are run-function arguments fixed for the sweep.  Per-point telemetry
    is collected when a session is live (unless ``collect_telemetry``
    says otherwise) and merged in point order.
    """
    if set(grid) != set(perturbation.axes):
        raise ValueError(
            f"{perturbation.name} grid needs exactly the axes "
            f"{perturbation.axes}, got {tuple(grid)}"
        )
    spec = PerturbationSpec(
        perturbation=perturbation,
        preset=preset,
        policy=policy,
        options=dict(options),
        duration_s=duration_s,
        collect_telemetry=(
            _telemetry.session().enabled
            if collect_telemetry is None
            else collect_telemetry
        ),
    )
    cells = _cells(grid, perturbation.axes)
    points = [PerturbationPoint(cell, seed) for cell in cells for seed in seeds]
    for baseline in perturbation.baselines:
        points.extend(
            PerturbationPoint(cell, seed, baseline.name)
            for cell in _cells(grid, baseline.per)
            for seed in seeds
        )

    slots: List[Optional[PerturbationResult]] = [None] * len(points)
    supervisor = SweepSupervisor(
        spec,
        evaluate_perturbation_point,
        config=resilience or ResilienceConfig(),
        n_workers=max(1, n_workers),
        mp_context=_pool_context(),
    )
    execute = supervisor.execute_pool if n_workers > 1 else supervisor.execute_serial
    report = execute(list(enumerate(points)), slots.__setitem__)
    completed = {i: r for i, r in enumerate(slots) if r is not None}
    results = list(completed.values())
    rows = (_row(perturbation, cell, results) for cell in cells)
    return PerturbationOutcome(
        spec=spec,
        points=points,
        completed=completed,
        rows=[row for row in rows if row is not None],
        report=report,
        telemetry=(
            merge_snapshots(r.telemetry for r in results if r.telemetry is not None)
            if spec.collect_telemetry
            else None
        ),
    )


def _cells(
    grid: Mapping[str, Sequence[Any]], axes: Sequence[str]
) -> List[Dict[str, Any]]:
    values = itertools.product(*(grid[axis] for axis in axes))
    return [dict(zip(axes, cell)) for cell in values]


def _row(
    perturbation: Perturbation,
    cell: Dict[str, Any],
    results: Sequence[PerturbationResult],
) -> Optional[PerturbationRow]:
    runs = [r for r in results if r.point.baseline is None and r.point.params == cell]
    if not runs:
        return None
    aggregate = summarize_runs([r.metrics for r in runs])
    power: Dict[str, float] = {}
    throughput: Dict[str, float] = {}
    for baseline in perturbation.baselines:
        anchors = [
            r.metrics for r in results
            if r.point.baseline == baseline.name
            and all(r.point.params[axis] == cell[axis] for axis in baseline.per)
        ]
        if anchors:
            power[baseline.name] = _mean([m.power_l for m in anchors])
            throughput[baseline.name] = _mean([m.throughput_mbps for m in anchors])
    return PerturbationRow(
        params=dict(cell),
        mean_power_l=aggregate.mean_power_l,
        mean_throughput_mbps=aggregate.mean_throughput_mbps,
        mean_delay_ms=aggregate.mean_queueing_delay_ms,
        baseline_power_l=power,
        baseline_throughput_mbps=throughput,
        accounting=_aggregate_accounting(perturbation, runs),
    )


#: Per envelope axis: row mean, row baseline means, number format, unit.
_AXES = {
    "power": ("mean_power_l", "baseline_power_l", ".4f", ""),
    "throughput": ("mean_throughput_mbps", "baseline_throughput_mbps", ".3f", " Mbps"),
}


def check_envelope(
    outcome: PerturbationOutcome, *, rel_tol: float = 0.05
) -> List[str]:
    """Violations of the perturbation's declared floors (empty = holds).

    A row violates a floor on an axis when its mean falls below
    ``(1 - rel_tol)`` x the baseline's mean; a row whose baseline is
    missing cannot be certified and is reported too.  An unguarded X6
    sweep is *expected* to violate it — that is how it shows harm.
    """
    violations: List[str] = []
    for row in outcome.rows:
        cell = " ".join(f"{axis}={value:g}" for axis, value in row.params.items())
        for floor in outcome.spec.perturbation.floors:
            name = floor.baseline
            if floor.applies is not None and not floor.applies(row):
                continue
            if name not in row.baseline_power_l:
                violations.append(f"{cell}: no {name} baseline to check against")
                continue
            for axis in floor.axes:
                mean, anchors, fmt, unit = _AXES[axis]
                value, anchor = getattr(row, mean), getattr(row, anchors)[name]
                bound = (1.0 - rel_tol) * anchor
                if value < bound:
                    violations.append(
                        f"{cell}: {axis} {value:{fmt}}{unit} < {name} floor "
                        f"{bound:{fmt}} ({name} {anchor:{fmt}})"
                    )
    return violations
