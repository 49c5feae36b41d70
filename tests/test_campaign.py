"""Tests for fused multi-variant campaign execution.

The load-bearing property is *fused-vs-independent equivalence*: every
variant folded out of one fused campaign run must match an independent
fleet run of that variant over the same population bit-for-bit — for
every grid shape, shard count, dtype lane, and fresh-vs-resumed
execution.  The grid/pareto helpers get targeted unit tests alongside.
"""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignVariant,
    CAMPAIGN_SCHEMA,
    ParetoPoint,
    fused_layout,
    pareto_front_3d,
    variant_grid,
    virtual_profiles,
)
from repro.exec.sharding import ShardedFleetSimulator
from repro.fleet import DevicePopulation, FleetSimulator
from repro.fleet.engine import traces_equal
from repro.fleet.telemetry import FleetTelemetry
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def population():
    return DevicePopulation.generate(8, duration_s=25.0, master_seed=77)


@pytest.fixture(scope="module")
def grid():
    return variant_grid(
        stability_thresholds=(10, 30), confidence_thresholds=(0.75, 0.9)
    )


def independent_telemetries(pipeline, variants, population, **settings):
    """Per-variant telemetry from plain, independent fleet runs."""
    telemetries = []
    for variant in variants:
        result = FleetSimulator(pipeline, **settings).run(
            variant.profiles_for(population.profiles), trace="summary"
        )
        telemetries.append(FleetTelemetry.from_result(result))
    return telemetries


# ----------------------------------------------------------------------
# Grid construction and the deduplicated fused layout
# ----------------------------------------------------------------------
class TestGrid:
    def test_cartesian_product_and_names(self):
        variants = variant_grid(
            stability_thresholds=(10, 20), confidence_thresholds=(0.8,)
        )
        assert len(variants) == 2
        assert variants[0].name == "t=10|c=0.8"
        assert variants[0].overrides == {
            "stability_threshold": 10, "confidence_threshold": 0.8,
        }

    def test_no_axes_is_single_baseline(self):
        variants = variant_grid()
        assert len(variants) == 1
        assert variants[0].name == "baseline"
        assert variants[0].overrides == {}

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown ControllerSpec"):
            CampaignVariant("bad", {"no_such_field": 1})

    def test_config_table_dropped_for_non_spot_kinds(self, population):
        variant = CampaignVariant(
            "tables", {"config_table": ("F100_A128", "F50_A16")}
        )
        for profile in population:
            spec = variant.apply(profile.controller)
            if spec.kind in ("spot", "spot_confidence"):
                assert spec.config_table == ("F100_A128", "F50_A16")
            else:
                assert spec == profile.controller

    def test_virtual_profiles_variant_major_ids(self, population, grid):
        fused = virtual_profiles(population.profiles, grid)
        num_devices = len(population)
        assert len(fused) == len(grid) * num_devices
        for v in range(len(grid)):
            for d in range(num_devices):
                virtual = fused[v * num_devices + d]
                assert virtual.device_id == v * num_devices + d
                assert virtual.seed == population[d].seed
                assert virtual.schedule == population[d].schedule

    def test_fused_layout_dedupes_behaviour_duplicates(self, population, grid):
        reps, assignment = fused_layout(population.profiles, grid)
        num_devices = len(population)
        # Every physical device is represented, ids strictly increase
        # (the sharded coordinator's merge sorts on them).
        assert len({r.device_id for r in reps}) == len(reps)
        assert [r.device_id for r in reps] == sorted(r.device_id for r in reps)
        assert len(assignment) == len(grid)
        assert all(len(row) == num_devices for row in assignment)
        # Non-SPOT devices ignore both grid axes: all four variants of
        # such a device must share one representative.
        kinds = {d: population[d].controller.kind for d in range(num_devices)}
        for d, kind in kinds.items():
            positions = {assignment[v][d] for v in range(len(grid))}
            if kind in ("static", "intensity"):
                assert len(positions) == 1
            elif kind == "spot":
                # Confidence axis collapses: 2 thresholds x 2 cutoffs -> 2.
                assert len(positions) == 2
            else:
                assert len(positions) == len(grid)
        assert len(reps) < len(grid) * num_devices

    def test_duplicate_variants_share_every_representative(self, population):
        twins = (
            CampaignVariant("a", {"stability_threshold": 15}),
            CampaignVariant("b", {"stability_threshold": 15}),
        )
        reps, assignment = fused_layout(population.profiles, twins)
        assert len(reps) == len(population)
        assert assignment[0] == assignment[1]


# ----------------------------------------------------------------------
# Fused-vs-independent equivalence
# ----------------------------------------------------------------------
class TestFusedEquivalence:
    @pytest.mark.parametrize("num_variants", [1, 2, 4])
    def test_fused_matches_independent_runs(
        self, trained_pipeline, population, num_variants
    ):
        variants = variant_grid(
            stability_thresholds=(10, 20, 30, 40)[:num_variants]
        )
        runner = CampaignRunner(trained_pipeline, variants)
        fused = runner.run(population, trace="summary")
        expected = independent_telemetries(
            trained_pipeline, variants, population,
            features="incremental",
            controllers="bank", noise="batched",
        )
        for got, want in zip(fused.telemetries, expected):
            assert got.to_dict() == want.to_dict()

    def test_full_traces_match_independent_runs(
        self, trained_pipeline, population, grid
    ):
        fused = CampaignRunner(trained_pipeline, grid).run(
            population, trace="full"
        )
        for variant, result in zip(grid, fused.results):
            reference = FleetSimulator(
                trained_pipeline, features="incremental",
                controllers="bank", noise="batched",
            ).run(variant.profiles_for(population.profiles), trace="full")
            for got, want in zip(result.traces, reference.traces):
                assert traces_equal(got, want)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_shard_count_and_dtype_invariance(
        self, trained_pipeline, population, grid, num_shards, dtype
    ):
        fused = CampaignRunner(
            trained_pipeline, grid, dtype=dtype, num_shards=num_shards
        ).run(population, trace="summary")
        expected = independent_telemetries(
            trained_pipeline, grid, population,
            features="incremental",
            controllers="bank", noise="batched", dtype=dtype,
        )
        for got, want in zip(fused.telemetries, expected):
            assert got.to_dict() == want.to_dict()

    def test_duplicate_variants_produce_identical_telemetry(
        self, trained_pipeline, population
    ):
        twins = (
            CampaignVariant("a", {"stability_threshold": 15}),
            CampaignVariant("b", {"stability_threshold": 15}),
        )
        fused = CampaignRunner(trained_pipeline, twins).run(
            population, trace="summary"
        )
        assert (
            fused.telemetries[0].to_dict() == fused.telemetries[1].to_dict()
        )
        assert fused.simulated_devices == len(population)

    def test_killed_campaign_resumes_bit_identically(
        self, trained_pipeline, population, grid, tmp_path
    ):
        """Checkpoint -> kill -> resume reproduces the fault-free fused
        campaign exactly."""
        baseline = CampaignRunner(trained_pipeline, grid).run(
            population, trace="summary"
        )
        directory = tmp_path / "campaign"
        faulty = CampaignRunner(
            trained_pipeline, grid, num_shards=2,
            checkpoint_dir=directory, round_s=6.0, max_retries=2,
            fault_plan="kill:shard=1,round=1",
        ).run(population, trace="summary")
        resumed = CampaignRunner(
            trained_pipeline, grid, num_shards=2,
            checkpoint_dir=directory, round_s=6.0, resume=True,
        ).run(population, trace="summary")
        for run in (faulty, resumed):
            for got, want in zip(run.telemetries, baseline.telemetries):
                assert got.to_dict() == want.to_dict()


# ----------------------------------------------------------------------
# Campaign result, metrics and Pareto fronts
# ----------------------------------------------------------------------
class TestCampaignResult:
    def test_report_schema_and_metrics(self, trained_pipeline, population, grid):
        registry = MetricsRegistry()
        runner = CampaignRunner(trained_pipeline, grid, metrics=registry)
        result = runner.run(population, trace="summary")
        report = result.to_dict()
        assert report["schema"] == CAMPAIGN_SCHEMA
        meta = report["meta"]
        assert meta["num_variants"] == len(grid)
        assert meta["num_devices"] == len(population)
        assert meta["virtual_devices"] == len(grid) * len(population)
        assert 0 < meta["simulated_devices"] <= meta["virtual_devices"]
        assert len(report["variants"]) == len(grid)
        assert "fleet" in report["pareto_fronts"]
        snapshot = registry.snapshot()
        assert snapshot.gauges["campaign.variants"] == len(grid)
        assert snapshot.gauges["campaign.devices"] == len(population)
        assert (
            snapshot.gauges["campaign.unique_devices"]
            == meta["simulated_devices"]
        )
        assert snapshot.counters.get("campaign.shared_group_hits", 0.0) > 0.0

    def test_naive_mode_matches_fused_mode(
        self, trained_pipeline, population, grid
    ):
        runner = CampaignRunner(trained_pipeline, grid)
        fused = runner.run(population, trace="summary")
        naive = runner.run_naive(population, trace="summary")
        assert naive.mode == "naive"
        assert naive.simulated_devices == naive.virtual_devices
        for got, want in zip(fused.telemetries, naive.telemetries):
            assert got.to_dict() == want.to_dict()
        assert fused.to_dict()["pareto_fronts"] == (
            naive.to_dict()["pareto_fronts"]
        )

    def test_variant_names_must_be_unique(self, trained_pipeline):
        twins = (CampaignVariant("same"), CampaignVariant("same"))
        with pytest.raises(ValueError, match="unique"):
            CampaignRunner(trained_pipeline, twins)


class TestPareto:
    def test_front_keeps_only_non_dominated(self):
        def point(name, acc, energy, battery):
            return ParetoPoint(
                variant=name, scenario="fleet", num_devices=1,
                accuracy=acc, energy_uc=energy, battery_life_days=battery,
            )

        best = point("best", 0.9, 100.0, 10.0)
        dominated = point("dominated", 0.8, 150.0, 5.0)
        tradeoff = point("tradeoff", 0.95, 200.0, 4.0)
        front = pareto_front_3d([dominated, best, tradeoff])
        assert [p.variant for p in front] == ["tradeoff", "best"]

    def test_identical_points_all_survive(self):
        twins = [
            ParetoPoint(
                variant=name, scenario="fleet", num_devices=1,
                accuracy=0.9, energy_uc=100.0, battery_life_days=10.0,
            )
            for name in ("a", "b")
        ]
        assert len(pareto_front_3d(twins)) == 2


# ----------------------------------------------------------------------
# Sharded-coordinator integration details
# ----------------------------------------------------------------------
class TestShardedIntegration:
    def test_fused_profiles_drive_sharded_runs_directly(
        self, trained_pipeline, population, grid
    ):
        """The deduped fused layout round-trips through the sharded
        coordinator: merged traces come back in representative order."""
        reps, _ = fused_layout(population.profiles, grid)
        run = ShardedFleetSimulator(trained_pipeline, num_shards=2).run(
            reps, trace="summary"
        )
        assert len(run.result.traces) == len(reps)
        assert [p.device_id for p in run.result.profiles] == [
            r.device_id for r in reps
        ]
