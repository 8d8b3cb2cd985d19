"""Tests for the shared perturbation-sweep driver behind X4, X6 and X7."""

import hashlib
import json
from dataclasses import asdict, replace

import pytest

from repro.experiments import perturbation as driver
from repro.experiments.degraded import DEGRADED
from repro.experiments.partitioned import PARTITION, is_minority_cut
from repro.experiments.perturbation import (
    STOCK,
    Baseline,
    Floor,
    check_envelope,
    run_perturbation_sweep,
)
from repro.experiments.poisoned import POISON, run_poisoned_phi_cubic
from repro.experiments.scenarios import TABLE3_REMY
from repro.phi.policy import REFERENCE_POLICY
from repro.phi.replication import ReadPolicy
from repro.runner import ResilienceConfig, RetryPolicy
from repro.telemetry.manifest import perturbation_manifest, validate_manifest

from .conftest import DEGRADED_MINI, PARTITION_MINI, envelope_outcome, envelope_row

#: Reduced sweeps, one per perturbation: (record, preset, grid, options).
CASES = {
    "X4": (
        DEGRADED, DEGRADED_MINI, {"unavailability": (0.0, 0.5)},
        dict(duration_s=8.0, outage_period_s=2.0, staleness_ttl_s=2.0),
    ),
    "X6": (
        POISON, TABLE3_REMY, {"severity": (0.0, 1.0), "byzantine_fraction": (0.0,)},
        dict(duration_s=8.0, modes=("garbage",)),
    ),
    "X7": (
        PARTITION, PARTITION_MINI,
        {"n_replicas": (1, 3), "severity": (0.34,), "heal_s": (8.0,)},
        dict(duration_s=25.0, partition_start_s=10.0),
    ),
}


def sweep(name, **kwargs):
    perturbation, preset, grid, options = CASES[name]
    return run_perturbation_sweep(
        perturbation, REFERENCE_POLICY, preset, grid,
        seeds=(0,), collect_telemetry=False, **options, **kwargs,
    )


@pytest.fixture(scope="module")
def serial_outcomes():
    """One serial run per case, shared by the digest and pool tests."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = sweep(name)
        return cache[name]

    return get


class TestDeclarations:
    """Which baselines and floors each experiment declares."""

    def test_degraded_holds_power_to_stock(self):
        assert DEGRADED.axes == ("unavailability",)
        assert DEGRADED.baselines == (STOCK,)
        assert DEGRADED.floors == (Floor("stock", axes=("power",)),)

    def test_poison_holds_both_axes_to_stock(self):
        assert POISON.axes == ("severity", "byzantine_fraction")
        assert POISON.baselines == (STOCK,)
        assert POISON.floors == (Floor("stock"),)

    def test_partition_adds_degraded_floor_for_minority_cuts(self):
        assert PARTITION.axes == ("n_replicas", "severity", "heal_s")
        assert PARTITION.baselines == (
            STOCK,
            Baseline(
                "degraded",
                pins={"n_replicas": 1, "severity": 1.0,
                      "read_policy": ReadPolicy.ANY},
                per=("heal_s",),
            ),
        )
        assert PARTITION.floors == (
            Floor("stock"), Floor("degraded", applies=is_minority_cut),
        )


class TestEnvelopeChecker:
    """The one floor checker, on synthetic rows."""

    def test_floor_is_inclusive(self):
        rows = [envelope_row({"severity": 0.5, "byzantine_fraction": 0.0}, 0.95, 0.95)]
        assert check_envelope(envelope_outcome(POISON, rows), rel_tol=0.05) == []

    def test_floor_axes_limit_what_is_checked(self):
        # X4 declares a power-only floor: throughput below stock passes.
        rows = [envelope_row({"unavailability": 0.5}, 1.0, 0.5)]
        assert check_envelope(envelope_outcome(DEGRADED, rows)) == []
        rows = [envelope_row({"unavailability": 0.5}, 0.5, 1.0)]
        (violation,) = check_envelope(envelope_outcome(DEGRADED, rows))
        assert violation.startswith("unavailability=0.5: power 0.5000 < stock floor")

    def test_missing_baseline_cannot_be_certified(self):
        row = envelope_row(
            {"severity": 0.5, "byzantine_fraction": 0.0}, baselines={}
        )
        (violation,) = check_envelope(envelope_outcome(POISON, [row]))
        assert "no stock baseline" in violation
        assert row.power_vs("stock") != row.power_vs("stock")  # NaN


class TestDriver:
    def test_grid_must_name_every_axis(self):
        with pytest.raises(ValueError, match="axes"):
            run_perturbation_sweep(
                POISON, REFERENCE_POLICY, TABLE3_REMY, {"severity": (0.0,)}
            )

    def test_baselines_are_supervised_points(self, serial_outcomes):
        outcome = serial_outcomes("X7")
        baselines = [p for p in outcome.points if p.baseline is not None]
        assert [(p.baseline, dict(p.params)) for p in baselines] == [
            ("stock", {}), ("degraded", {"heal_s": 8.0}),
        ]
        assert len(outcome.completed) == len(outcome.points) == 4


def _digest(payload):
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Row accounting that the pre-driver X4/X6/X7 rows carried.
ROW_ACCOUNTING = {
    "X4": ("decision_counts",),
    "X6": ("decision_counts", "guard_rejections", "reports_rejected",
           "trust_score", "distrust_entries"),
    "X7": ("n_cut", "decision_counts", "failovers", "anti_entropy_merges",
           "quorum_rejections", "max_divergence"),
}

#: SHA-256 of each reduced outcome section, computed before the sweeps
#: were folded into one driver.  A change here means the refactor (or a
#: later change) altered what the X4/X6/X7 sweeps compute.
GOLDEN = {
    "X4": {
        "baselines": "000291d8320256d360f8f81d13b30e8c9d3e2728b8c2313b4ca96a57fd4b0977",
        "points": "722de5008257d7f763d6ad82e5d2df67647f1514b924fba5727ef965edec05b7",
        "rows": "8cb2a81944c7ce73714273586ef64dd84c19421f4aced2548ea17787700b6023",
    },
    "X6": {
        "baselines": "a913cb794ecb89d09b5982e1a09dddf88c58c0eb8990c2f5d439369ba4a1fc79",
        "points": "dfc641fb0b4461e9fc2cd98a4d134dbae9a6d741f00b10c00f21f04385c8ac10",
        "rows": "d90aa79c1cbfd70277d22a75be1966f66d30600a6a91792827af89e14f120554",
    },
    "X7": {
        "baselines": "800df69a1327dae913dd21b96c414dea1c8253a1bc2b2f5223780c40f725f2e3",
        "points": "b252fd85ca5f064504327f4ce36ba0b66e40c0063687e52718651188ccbfe49f",
        "rows": "d7106a290a3f04416413f393bcfd536df3c8669a7714e0e41fff0ce50a2f3747",
    },
}


def reduced(name, outcome):
    """The digested sections: per-point metrics/accounting/events,
    baseline metrics, and rows (with the fields the old rows had)."""
    points = [
        {"params": dict(r.point.params), "seed": r.point.seed,
         "metrics": asdict(r.metrics), "accounting": r.accounting,
         "events_processed": r.events_processed}
        for r in outcome.grid_results
    ]
    baselines = [
        {"name": r.point.baseline, "params": dict(r.point.params),
         "seed": r.point.seed, "metrics": asdict(r.metrics)}
        for r in outcome.results if r.point.baseline is not None
    ]
    rows = []
    for row in outcome.rows:
        entry = {
            "params": row.params,
            "mean_power_l": row.mean_power_l,
            "mean_throughput_mbps": row.mean_throughput_mbps,
            "mean_delay_ms": row.mean_delay_ms,
            "accounting": {k: row.accounting[k] for k in ROW_ACCOUNTING[name]},
        }
        if name != "X4":  # the old X4 rows carried no baseline
            entry["baselines"] = {
                b: [row.baseline_power_l[b], row.baseline_throughput_mbps[b]]
                for b in row.baseline_power_l
            }
        if name == "X7":
            entry["minority"] = is_minority_cut(row)
        rows.append(entry)
    return {"points": points, "baselines": baselines, "rows": rows}


class TestSweepDeterminism:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_golden_digests(self, serial_outcomes, name):
        sections = reduced(name, serial_outcomes(name))
        digests = {key: _digest(value) for key, value in sections.items()}
        assert digests == GOLDEN[name]

    @pytest.mark.parametrize(
        "name",
        [
            "X4",
            pytest.param("X6", marks=pytest.mark.byzantine),
            pytest.param("X7", marks=pytest.mark.partition),
        ],
    )
    def test_serial_and_parallel_bit_identical(self, serial_outcomes, name):
        serial = serial_outcomes(name)
        pooled = sweep(name, n_workers=2)
        assert len(pooled.results) == len(serial.points)
        assert pooled.results == serial.results
        assert pooled.rows == serial.rows


def _poisoned_except_half(policy, preset, **kwargs):
    if kwargs["severity"] == 0.5:
        raise RuntimeError("injected failure at severity 0.5")
    return run_poisoned_phi_cubic(policy, preset, **kwargs)


class TestQuarantineProvenance:
    """A point that keeps failing must stay visible, never silently drop."""

    def test_quarantined_cell_reaches_report_and_manifest(self):
        outcome = run_perturbation_sweep(
            replace(POISON, run=_poisoned_except_half),
            REFERENCE_POLICY, TABLE3_REMY,
            {"severity": (0.0, 0.5), "byzantine_fraction": (0.0,)},
            seeds=(0,), modes=("garbage",), duration_s=4.0,
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=1)),
        )
        (quarantined,) = outcome.report.quarantined
        assert quarantined.point.params["severity"] == 0.5
        assert "quarantined after 1 attempt(s)" in quarantined.describe()
        assert "'severity': 0.5" in quarantined.describe()
        assert [row.params["severity"] for row in outcome.rows] == [0.0]

        manifest = perturbation_manifest(outcome)
        assert validate_manifest(manifest) == []
        (entry,) = manifest["quarantined"]
        assert entry["params"] == {"severity": 0.5, "byzantine_fraction": 0.0}
        assert entry["failures"][0]["message"] == "injected failure at severity 0.5"
        assert manifest["config"]["n_points"] == 2
        assert len(manifest["points"]) == manifest["totals"]["points"] == 1

    def test_quarantined_baseline_fails_the_envelope(self, monkeypatch):
        def no_stock(*args, **kwargs):
            raise RuntimeError("stock baseline unavailable")

        monkeypatch.setattr(driver, "run_cubic_fixed", no_stock)
        outcome = run_perturbation_sweep(
            POISON, REFERENCE_POLICY, TABLE3_REMY,
            {"severity": (1.0,), "byzantine_fraction": (0.0,)},
            seeds=(0,), modes=("garbage",), duration_s=4.0,
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=1)),
        )
        (quarantined,) = outcome.report.quarantined
        assert quarantined.point.baseline == "stock"
        (violation,) = check_envelope(outcome)
        assert "no stock baseline" in violation
