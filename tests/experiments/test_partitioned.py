"""Tests for the X7 partition-tolerance experiment harness."""

import pytest

from repro import telemetry
from repro.experiments.partitioned import (
    PARTITION,
    is_minority_cut,
    partition_indices,
    run_partitioned_phi_cubic,
)
from repro.experiments.perturbation import check_envelope, run_perturbation_sweep
from repro.phi.deployment import DeploymentMode
from repro.phi.policy import REFERENCE_POLICY
from repro.telemetry.manifest import perturbation_manifest, validate_manifest

from .conftest import PARTITION_MINI as FAST
from .conftest import envelope_outcome, envelope_row

DURATION = 25.0
START = 10.0  # past the staleness TTL — see the calibration caveat


def partitioned(**overrides):
    kwargs = dict(
        n_replicas=3, severity=0.34, heal_s=8.0, partition_start_s=START,
        seed=0, duration_s=DURATION,
    )
    kwargs.update(overrides)
    return run_partitioned_phi_cubic(REFERENCE_POLICY, FAST, **kwargs)


class TestPartitionIndices:
    def test_rounding_and_order(self):
        assert partition_indices(3, 0.0) == ([], [0, 1, 2])
        assert partition_indices(3, 0.34) == ([0], [1, 2])
        assert partition_indices(3, 0.5) == ([0, 1], [2])
        assert partition_indices(3, 1.0) == ([0, 1, 2], [])
        assert partition_indices(1, 1.0) == ([0], [])

    def test_lowest_indices_cut_first(self):
        """Replica 0 is every client's initial sticky choice — cutting it
        first is what makes a nonzero severity actually dislodge the
        serving replica."""
        cut, kept = partition_indices(5, 0.4)
        assert cut == [0, 1]
        assert kept == [2, 3, 4]


class TestRunValidation:
    def test_severity_range_enforced(self):
        with pytest.raises(ValueError, match="severity"):
            partitioned(severity=1.5)
        with pytest.raises(ValueError, match="severity"):
            partitioned(severity=-0.1)

    def test_replica_count_enforced(self):
        with pytest.raises(ValueError, match="n_replicas"):
            partitioned(n_replicas=0)

    def test_negative_heal_rejected(self):
        with pytest.raises(ValueError, match="heal"):
            partitioned(heal_s=-1.0)


class TestMinorityPartitionRun:
    def test_failover_masks_minority_cut(self):
        """Cutting replica 0 of 3 must trigger failover and keep every
        decision FRESH — the client never falls back to defaults."""
        run = partitioned()
        assert run.mode is DeploymentMode.REPLICATED
        assert run.n_cut == 1
        assert run.failovers >= 1
        assert run.anti_entropy_merges > 0
        assert run.decision_counts.get("fallback", 0) == 0
        assert run.decision_counts["fresh"] > 0

    def test_divergence_opens_then_closes(self):
        run = partitioned()
        assert run.max_divergence > 0
        assert run.final_divergence == pytest.approx(0.0, abs=1e-9)

    def test_full_cut_forces_fallback(self):
        run = partitioned(severity=1.0, heal_s=DURATION)
        assert run.n_cut == 3
        assert run.decision_counts.get("fallback", 0) > 0


def minority_sweep(**kwargs):
    return run_perturbation_sweep(
        PARTITION, REFERENCE_POLICY, FAST,
        {"n_replicas": (3,), "severity": (0.34,), "heal_s": (8.0,)},
        seeds=(0,), partition_start_s=START, duration_s=DURATION, **kwargs,
    )


@pytest.mark.partition
class TestSweepDeterminism:
    def test_sweep_telemetry_and_manifest(self):
        with telemetry.use():
            outcome = minority_sweep(collect_telemetry=True)
        counters = outcome.telemetry["counters"]
        assert any("phi.replica_rpc_calls" in key for key in counters)
        manifest = perturbation_manifest(outcome)
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "partition"
        point = manifest["points"][0]
        assert point["accounting"]["failovers"] >= 1
        baselines = {(b["baseline"], b["params"].get("heal_s")) for b in manifest["baselines"]}
        assert baselines == {("stock", None), ("degraded", 8.0)}

    def test_minority_row_meets_both_floors(self):
        outcome = minority_sweep()
        assert check_envelope(outcome, rel_tol=0.05) == []
        (row,) = outcome.rows
        assert is_minority_cut(row)
        assert row.power_vs("degraded") >= 0.95
        assert row.throughput_vs("degraded") >= 0.95


def row(
    power=1.0, tput=1.0, *, stock_power=1.0, stock_tput=1.0,
    degraded_power=0.8, degraded_tput=0.9, n_replicas=3, minority=True,
):
    return envelope_row(
        {"n_replicas": n_replicas, "severity": 0.34, "heal_s": 8.0},
        power, tput,
        baselines={
            "stock": (stock_power, stock_tput),
            "degraded": (degraded_power, degraded_tput),
        },
        n_cut=1 if minority else n_replicas,
    )


def violations(*rows):
    return check_envelope(envelope_outcome(PARTITION, rows), rel_tol=0.05)


class TestEnvelopeChecker:
    """X7 holds every row to the stock floor and minority cuts of a
    multi-replica plane to the degraded floor too."""

    def test_holds_within_tolerance(self):
        assert violations(row(0.97, 0.96)) == []

    def test_stock_power_floor(self):
        found = violations(row(0.90, 1.0, minority=False))
        assert len(found) == 1
        assert "stock floor" in found[0] and "power" in found[0]

    def test_stock_throughput_floor(self):
        found = violations(row(1.0, 0.90, minority=False))
        assert len(found) == 1
        assert "throughput" in found[0]

    def test_degraded_floor_only_for_minority_multireplica(self):
        # Above stock but below degraded: flagged only when the cut is a
        # minority of a multi-replica plane.
        weak = dict(power=0.97, tput=0.97, degraded_power=1.1, degraded_tput=1.1)
        flagged = violations(row(**weak, minority=True))
        assert len(flagged) == 2
        assert all("degraded floor" in v for v in flagged)
        assert violations(row(**weak, minority=False)) == []
        # One replica, cut: a total outage, never a minority.
        assert violations(row(**weak, n_replicas=1, minority=True)) == []

    def test_ratio_properties(self):
        r = row(2.0, 1.2, stock_power=1.0, degraded_power=0.8)
        assert r.power_vs("stock") == pytest.approx(2.0)
        assert r.power_vs("degraded") == pytest.approx(2.5)
        degenerate = row(1.0, 1.0, stock_power=0.0)
        assert degenerate.power_vs("stock") == float("inf")
