"""Engine-level equivalence of the banked execution paths.

The controller bank and the streaming-telemetry fold are pure
performance features: for any population, feature mode and sharding
layout they must reproduce the per-object, full-trace reference bit for
bit.  These sweeps pin that down on heterogeneous populations covering
all four controller families.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.activities import Activity
from repro.core.adasense import AdaSense
from repro.core.config import SensorConfig
from repro.core.controller import SpotController
from repro.datasets.synthetic import ScheduledSignal
from repro.energy.accelerometer import AccelerometerPowerModel
from repro.exec.engine import StepEngine
from repro.sensors.imu import NoiseModel
from repro.fleet import (
    DevicePopulation,
    FleetSimulator,
    FleetTelemetry,
    ShardedFleetSimulator,
    traces_equal,
)
from repro.sim.reference import simulate_device
from repro.sim.runtime import ClosedLoopSimulator
from repro.sim.trace import TraceSummary

NUM_DEVICES = 50
DURATION_S = 25.0


@pytest.fixture(scope="module")
def system():
    return AdaSense.train(windows_per_activity_per_config=8, seed=3)


@pytest.fixture(scope="module")
def population():
    population = DevicePopulation.generate(
        NUM_DEVICES, duration_s=DURATION_S, master_seed=11
    )
    # The sweep only means something over a genuinely mixed fleet.
    assert set(population.controller_counts()) == {
        "spot", "spot_confidence", "static", "intensity"
    }
    return population


@pytest.fixture(scope="module")
def reference_traces(system, population):
    result = FleetSimulator(
        system.pipeline, controllers="per_object"
    ).run_sequential(population)
    return result.traces


class TestBankTraceEquivalence:
    @pytest.mark.parametrize("features", ["incremental", "exact"])
    def test_bank_matches_sequential_reference(
        self, system, population, features
    ):
        reference = FleetSimulator(
            system.pipeline, features=features, controllers="per_object"
        ).run_sequential(population)
        banked = FleetSimulator(system.pipeline, features=features).run(population)
        for left, right in zip(banked.traces, reference.traces):
            assert traces_equal(left, right)

    def test_bank_matches_per_object_batched(self, system, population):
        per_object = FleetSimulator(
            system.pipeline, controllers="per_object"
        ).run(population)
        banked = FleetSimulator(system.pipeline).run(population)
        for left, right in zip(banked.traces, per_object.traces):
            assert traces_equal(left, right)

    def test_sharded_bank_matches(self, system, population, reference_traces):
        run = ShardedFleetSimulator(system.pipeline).run(population, num_shards=3)
        for left, right in zip(run.result.traces, reference_traces):
            assert traces_equal(left, right)

    def test_single_device_closed_loop_matches(self, system):
        """The single-device facade (banked) matches the reference loop
        driving the controller object directly."""
        schedule = [("walk", 12.0), ("sit", 10.0), ("walk", 8.0)]
        simulator = ClosedLoopSimulator(
            pipeline=system.pipeline,
            controller=SpotController(stability_threshold=4),
        )
        banked = simulator.run(schedule, seed=5)
        rng = np.random.default_rng(5)
        reference = simulate_device(
            system.pipeline,
            ScheduledSignal(schedule, seed=rng),
            SpotController(stability_threshold=4),
            simulator.power_model,
            NoiseModel(),
            rng,
            len(banked),
        )
        assert traces_equal(banked, reference)


class TestSummaryTelemetryEquivalence:
    def test_summary_reports_match_full_reports(self, system, population):
        simulator = FleetSimulator(system.pipeline)
        full = simulator.run(population)
        summary = simulator.run(population, trace="summary")
        assert summary.trace_mode == "summary"
        assert all(isinstance(t, TraceSummary) for t in summary.traces)
        assert (
            FleetTelemetry.from_result(summary).to_dict()
            == FleetTelemetry.from_result(full).to_dict()
        )

    def test_summary_with_per_object_controllers(self, system, population):
        banked = FleetSimulator(system.pipeline).run(population, trace="summary")
        per_object = FleetSimulator(
            system.pipeline, controllers="per_object"
        ).run(population, trace="summary")
        assert (
            FleetTelemetry.from_result(per_object).to_dict()
            == FleetTelemetry.from_result(banked).to_dict()
        )

    def test_sharded_summary_matches_and_is_shard_invariant(self, system, population):
        full = FleetTelemetry.from_result(
            FleetSimulator(system.pipeline).run(population)
        ).to_dict()
        sharded = ShardedFleetSimulator(system.pipeline)
        for shards in (1, 2, 4):
            run = sharded.run(population, num_shards=shards, trace="summary")
            assert run.result.trace_mode == "summary"
            assert run.telemetry.to_dict() == full

    def test_summary_device_seconds_match(self, system, population):
        simulator = FleetSimulator(system.pipeline)
        full = simulator.run(population)
        summary = simulator.run(population, trace="summary")
        assert summary.device_seconds == full.device_seconds

    def test_summary_distinguishes_configs_sharing_a_name(self, system):
        """Dwell and switch counts are keyed by configuration *name*
        (matching the per-record fold), even when two distinct
        configurations collide on one name."""
        config_a = SensorConfig(sampling_hz=25.0, averaging_window=32)
        config_b = SensorConfig(sampling_hz=25.0000001, averaging_window=32)
        assert config_a != config_b and config_a.name == config_b.name

        engine = StepEngine(system.pipeline)

        def make_runtime():
            return engine.make_runtime(
                signal=ScheduledSignal([(Activity.WALK, 20.0)], seed=3),
                controller=SpotController(
                    states=[config_a, config_b], stability_threshold=2
                ),
                power_model=AccelerometerPowerModel.bmi160(),
                noise=NoiseModel(),
                rng=7,
            )

        (full_trace,) = engine.run([make_runtime()], 20)
        (summary,) = engine.run([make_runtime()], 20, trace="summary")
        # The controller visits both same-named states during the run
        # (distinct currents prove it), yet every record carries the
        # single shared name.
        assert len({record.current_ua for record in full_trace.records}) == 2
        assert {record.config_name for record in full_trace.records} == {
            config_a.name
        }
        assert summary == TraceSummary.from_trace(full_trace)
        assert summary.config_switches == 0

    def test_invalid_trace_mode_rejected(self, system, population):
        with pytest.raises(ValueError, match="trace"):
            FleetSimulator(system.pipeline).run(population, trace="bogus")

    def test_invalid_controller_mode_rejected(self, system):
        with pytest.raises(ValueError, match="controllers"):
            FleetSimulator(system.pipeline, controllers="bogus")
