"""Shared presets and synthetic rows for the perturbation-sweep tests."""

from types import SimpleNamespace

from repro.experiments.perturbation import PerturbationRow
from repro.experiments.scenarios import ScenarioPreset
from repro.simnet import DumbbellConfig
from repro.workload import OnOffConfig

#: Small on/off dumbbell for the X4 degraded-control-plane runs.
DEGRADED_MINI = ScenarioPreset(
    name="degraded-mini",
    config=DumbbellConfig(n_senders=4),
    workload=OnOffConfig(mean_on_bytes=200_000, mean_off_s=0.5),
    duration_s=10.0,
    description="small degraded-control-plane smoke scenario",
)

#: Small on/off dumbbell for the X7 partition-tolerance runs.
PARTITION_MINI = ScenarioPreset(
    name="partition-mini",
    config=DumbbellConfig(n_senders=4),
    workload=OnOffConfig(mean_on_bytes=200_000, mean_off_s=0.5),
    duration_s=25.0,
    description="small partition-tolerance smoke scenario",
)


def envelope_row(params, power=1.0, tput=1.0, *, baselines=None, **accounting):
    """A synthetic row: ``baselines`` maps a name to (power, throughput)."""
    baselines = {"stock": (1.0, 1.0)} if baselines is None else baselines
    return PerturbationRow(
        params=dict(params),
        mean_power_l=power,
        mean_throughput_mbps=tput,
        mean_delay_ms=1.0,
        baseline_power_l={name: p for name, (p, _) in baselines.items()},
        baseline_throughput_mbps={name: t for name, (_, t) in baselines.items()},
        accounting=accounting,
    )


def envelope_outcome(perturbation, rows):
    """Just enough of an outcome for :func:`check_envelope`."""
    return SimpleNamespace(
        spec=SimpleNamespace(perturbation=perturbation), rows=list(rows)
    )
