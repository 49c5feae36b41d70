"""Metering must never perturb the simulation.

The observability layer's hardest promise is that a metered run is
bit-identical to an unmetered run — in every engine mode and for every
shard count.  These tests pin that, plus the sanity of the counters the
engine reports and the shard-count invariance of the merged snapshot's
device-attributable metrics.
"""

from __future__ import annotations

import pytest

from repro.fleet import (
    DevicePopulation,
    FleetSimulator,
    FleetTelemetry,
    ShardedFleetSimulator,
    traces_equal,
)
from repro.obs import MetricsRegistry, NULL_RECORDER

NUM_DEVICES = 4
DURATION_S = 30.0
NUM_STEPS = int(DURATION_S)

#: One engine-mode override per axis, on top of the default recipe.
MODE_AXES = (
    {},
    {"features": "exact"},
    {"sensing": "per_device"},
    {"controllers": "per_object"},
    {"noise": "batched"},
)


@pytest.fixture(scope="module")
def population():
    return DevicePopulation.generate(
        NUM_DEVICES, duration_s=DURATION_S, master_seed=99
    )


class TestBitIdentity:
    @pytest.mark.parametrize(
        "overrides", MODE_AXES, ids=lambda o: "-".join(o.values()) or "default"
    )
    def test_metered_traces_match_unmetered(
        self, trained_pipeline, population, overrides
    ):
        registry = MetricsRegistry(trace_events=True)
        metered = FleetSimulator(
            trained_pipeline, metrics=registry, **overrides
        ).run(population)
        plain = FleetSimulator(trained_pipeline, **overrides).run(population)
        for left, right in zip(metered.traces, plain.traces):
            assert traces_equal(left, right)
        assert registry.counter_value("engine.ticks") == NUM_STEPS

    @pytest.mark.parametrize(
        "overrides", MODE_AXES, ids=lambda o: "-".join(o.values()) or "default"
    )
    def test_metered_summary_telemetry_matches_unmetered(
        self, trained_pipeline, population, overrides
    ):
        metered = FleetSimulator(
            trained_pipeline, metrics=MetricsRegistry(), **overrides
        ).run(population, trace="summary")
        plain = FleetSimulator(trained_pipeline, **overrides).run(
            population, trace="summary"
        )
        assert (
            FleetTelemetry.from_result(metered).to_dict()
            == FleetTelemetry.from_result(plain).to_dict()
        )

    def test_metered_sequential_reference_matches_unmetered(
        self, trained_pipeline, population
    ):
        """run_sequential forwards the registry into every per-device
        ClosedLoopSimulator; metering must not perturb that path
        either."""
        registry = MetricsRegistry()
        metered = FleetSimulator(
            trained_pipeline, metrics=registry
        ).run_sequential(population)
        plain = FleetSimulator(trained_pipeline).run_sequential(population)
        for left, right in zip(metered.traces, plain.traces):
            assert traces_equal(left, right)
        assert registry.counter_value("engine.runs") == NUM_DEVICES

    @pytest.mark.parametrize("num_shards", (1, 2, 4))
    def test_metered_sharded_matches_unmetered_batched(
        self, trained_pipeline, population, num_shards
    ):
        plain = FleetSimulator(trained_pipeline).run(population)
        run = ShardedFleetSimulator(
            trained_pipeline, metrics=MetricsRegistry(trace_events=True)
        ).run(population, num_shards=num_shards)
        for left, right in zip(run.result.traces, plain.traces):
            assert traces_equal(left, right)


class TestCounters:
    def test_engine_counters_are_sane(self, trained_pipeline, population):
        registry = MetricsRegistry(trace_events=True)
        FleetSimulator(trained_pipeline, noise="batched", metrics=registry).run(
            population
        )
        snapshot = registry.snapshot()
        assert snapshot.counters["engine.runs"] == 1.0
        assert snapshot.counters["engine.ticks"] == NUM_STEPS
        assert (
            snapshot.counters["engine.windows_classified"]
            == NUM_DEVICES * NUM_STEPS
        )
        # Every classified window was extracted either incrementally or
        # exactly — the two feature counters partition the total.
        assert (
            snapshot.counters["features.incremental_windows"]
            + snapshot.counters["features.exact_windows"]
            == NUM_DEVICES * NUM_STEPS
        )
        assert snapshot.counters["noise.refills"] > 0.0
        assert snapshot.gauges["engine.devices"] == NUM_DEVICES
        for phase in (
            "tick.sense",
            "tick.extract",
            "tick.classify",
            "tick.adapt",
            "tick.fold",
            "engine.run",
        ):
            assert snapshot.histograms[phase].count >= 1, phase
        # Cohort sizes: one observation per (tick, config group), each
        # between 1 and the fleet size.
        cohorts = snapshot.histograms["engine.cohort_devices"]
        assert cohorts.count == snapshot.counters["engine.config_groups"]
        assert 1.0 <= cohorts.low and cohorts.high <= NUM_DEVICES

    def test_per_device_noise_runs_use_the_signal_cache(
        self, trained_pipeline, population
    ):
        # Both noise modes share one cached acquisition layer: the
        # default per-device-noise run serves its clean signals from
        # the signal tables too, and only the noise pool stays idle.
        registry = MetricsRegistry()
        FleetSimulator(trained_pipeline, metrics=registry).run(population)
        rebuilds = registry.counter_value("signal_cache.rebuilds")
        revalidations = registry.counter_value("signal_cache.revalidations")
        assert rebuilds >= NUM_DEVICES
        assert revalidations > 0.0
        assert rebuilds + revalidations <= NUM_DEVICES * NUM_STEPS
        assert registry.counter_value("noise.refills") == 0.0

    def test_exact_mode_counts_only_exact_windows(
        self, trained_pipeline, population
    ):
        registry = MetricsRegistry()
        FleetSimulator(
            trained_pipeline, features="exact", metrics=registry
        ).run(population)
        assert (
            registry.counter_value("features.exact_windows")
            == NUM_DEVICES * NUM_STEPS
        )
        assert registry.counter_value("features.incremental_windows") == 0.0

    def test_spans_retained_only_with_trace_events(
        self, trained_pipeline, population
    ):
        plain = MetricsRegistry()
        FleetSimulator(trained_pipeline, metrics=plain).run(population)
        assert plain.snapshot().spans == ()

        tracing = MetricsRegistry(trace_events=True)
        FleetSimulator(trained_pipeline, metrics=tracing).run(population)
        spans = tracing.snapshot().spans
        assert len(spans) > NUM_STEPS
        assert {span.name for span in spans} >= {
            "tick.sense",
            "tick.extract",
            "tick.classify",
            "tick.adapt",
            "tick.fold",
            "engine.run",
        }

    def test_default_simulator_uses_the_null_recorder(self, trained_pipeline):
        simulator = FleetSimulator(trained_pipeline)
        assert simulator.metrics is NULL_RECORDER
        assert simulator.metrics.enabled is False


class TestShardedMetrics:
    @pytest.mark.parametrize("num_shards", (1, 2, 4))
    def test_run_carries_per_shard_heartbeats(
        self, trained_pipeline, population, num_shards
    ):
        run = ShardedFleetSimulator(
            trained_pipeline, metrics=MetricsRegistry()
        ).run(population, num_shards=num_shards)
        assert len(run.shard_elapsed_s) == run.num_shards
        assert all(elapsed > 0.0 for elapsed in run.shard_elapsed_s)
        assert len(run.shard_metrics) == run.num_shards
        stats = run.straggler_stats()
        assert stats["min_s"] <= stats["mean_s"] <= stats["max_s"]
        assert stats["skew"] >= 1.0
        assert 0 <= int(stats["straggler"]) < run.num_shards
        merged = run.metrics
        assert merged.histograms["shard.elapsed_s"].count == run.num_shards
        assert merged.gauges["shard.count"] == run.num_shards

    def test_device_attributable_counters_are_shard_invariant(
        self, trained_pipeline, population
    ):
        merged = {}
        for num_shards in (1, 2, 4):
            run = ShardedFleetSimulator(
                trained_pipeline, noise="batched", metrics=MetricsRegistry()
            ).run(population, num_shards=num_shards)
            merged[num_shards] = run.metrics.counters
        for name in (
            "engine.windows_classified",
            "features.incremental_windows",
            "features.exact_windows",
            "noise.refills",
            "engine.config_switches",
        ):
            assert (
                merged[1][name] == merged[2][name] == merged[4][name]
            ), name

    def test_worker_spans_sit_in_shard_lanes(self, trained_pipeline, population):
        run = ShardedFleetSimulator(
            trained_pipeline, metrics=MetricsRegistry(trace_events=True)
        ).run(population, num_shards=2)
        assert {span.tid for span in run.metrics.spans} == {0, 1}

    def test_unmetered_sharded_run_has_no_metrics(
        self, trained_pipeline, population
    ):
        run = ShardedFleetSimulator(trained_pipeline).run(
            population, num_shards=2
        )
        assert run.metrics is None
        assert run.shard_metrics == ()
        # Per-shard wall-clock is recorded even without a registry.
        assert len(run.shard_elapsed_s) == 2
