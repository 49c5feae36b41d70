"""Tests for the shared execution core (:mod:`repro.exec.engine`).

The engine's central contract is that it produces traces bit-identical
to the independent one-device-at-a-time reference loop
(:mod:`repro.sim.reference`) in every feature mode.  The facades
(:class:`ClosedLoopSimulator`, :class:`FleetSimulator`) are checked
through the same lens, plus the stacked acquisition and signal helpers
the engine is built from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import HIGH_POWER_CONFIG, LOW_POWER_CONFIG, TABLE1_BY_NAME
from repro.core.controller import SpotController
from repro.datasets.scenarios import make_fig5_schedule
from repro.datasets.synthetic import (
    ScheduledSignal,
    StackedEvaluationCache,
    SyntheticSignalGenerator,
)
from repro.exec.engine import StepEngine
from repro.fleet.engine import FleetSimulator, traces_equal
from repro.fleet.population import DevicePopulation, PopulationSpec
from repro.sensors.imu import (
    SensorStatics,
    SimulatedAccelerometer,
    read_windows_stacked_raw,
)
from repro.sensors.noise_bank import NoiseBank
from repro.sim.runtime import ClosedLoopSimulator


@pytest.fixture(scope="module")
def population():
    # A switching-heavy mix so configuration changes (buffer flushes,
    # incremental-cache invalidation) are exercised.
    spec = PopulationSpec(
        controller_weights={
            "spot": 1.0,
            "spot_confidence": 1.0,
            "static": 0.5,
            "intensity": 0.5,
        }
    )
    return DevicePopulation.generate(8, duration_s=25.0, master_seed=42, spec=spec)


class TestEngineValidation:
    def test_rejects_unknown_feature_mode(self, trained_pipeline):
        with pytest.raises(ValueError):
            StepEngine(trained_pipeline, features="magic")

    def test_sensing_knob_is_gone(self, trained_pipeline):
        """One execution path: the value-neutral acquisition knob no
        longer exists on the engine or its facades."""
        with pytest.raises(TypeError):
            StepEngine(trained_pipeline, sensing="stacked")
        with pytest.raises(TypeError):
            FleetSimulator(trained_pipeline, sensing="stacked")

    def test_rejects_window_shorter_than_step(self, trained_pipeline):
        with pytest.raises(ValueError):
            StepEngine(trained_pipeline, step_s=2.0, window_duration_s=1.0)

    def test_rejects_empty_runtime_set(self, trained_pipeline):
        with pytest.raises(ValueError):
            StepEngine(trained_pipeline).run([], 5)


class TestExecutionStrategyEquivalence:
    """The engine must agree bit for bit with the reference loop."""

    def test_incremental_batched_matches_sequential(
        self, trained_pipeline, population
    ):
        simulator = FleetSimulator(trained_pipeline)  # incremental default
        batched = simulator.run(population)
        sequential = simulator.run_sequential(population)
        for left, right in zip(batched.traces, sequential.traces):
            assert traces_equal(left, right)

    def test_exact_batched_matches_sequential(self, trained_pipeline, population):
        simulator = FleetSimulator(trained_pipeline, features="exact")
        batched = simulator.run(population)
        sequential = simulator.run_sequential(population)
        for left, right in zip(batched.traces, sequential.traces):
            assert traces_equal(left, right)

    def test_fleet_matches_closed_loop_facade(self, trained_pipeline, population):
        """The two facades share one engine, so a fleet device and an
        independently constructed single-device simulator agree."""
        fleet = FleetSimulator(trained_pipeline).run(population)
        for profile, fleet_trace in zip(fleet.profiles, fleet.traces):
            simulator = ClosedLoopSimulator(
                pipeline=trained_pipeline,
                controller=profile.make_controller(),
                power_model=profile.power_model,
                noise=profile.noise,
            )
            reference = simulator.run(list(profile.schedule), seed=profile.seed)
            assert traces_equal(fleet_trace, reference)

    @pytest.mark.parametrize("window_duration_s", [2.5, 3.0])
    def test_nonstandard_windows_stay_equivalent(
        self, trained_pipeline, population, window_duration_s
    ):
        """Window/step ratios beyond the paper's 2:1 — including a
        non-integer ratio that defeats chunk alignment — keep batched
        and sequential execution identical."""
        simulator = FleetSimulator(
            trained_pipeline, window_duration_s=window_duration_s
        )
        batched = simulator.run(population, duration_s=15.0)
        sequential = simulator.run_sequential(population, duration_s=15.0)
        for left, right in zip(batched.traces, sequential.traces):
            assert traces_equal(left, right)

    def test_incremental_tracks_exact_closely(self, trained_pipeline, population):
        """Incremental features differ from exact only in floating-point
        summation order, so traces agree on essentially every decision."""
        incremental = FleetSimulator(trained_pipeline).run(population)
        exact = FleetSimulator(trained_pipeline, features="exact").run(population)
        records = [
            (a, b)
            for left, right in zip(incremental.traces, exact.traces)
            for a, b in zip(left.records, right.records)
        ]
        agreement = np.mean(
            [a.predicted_activity == b.predicted_activity for a, b in records]
        )
        assert agreement > 0.95
        confidences = np.array(
            [(a.confidence, b.confidence) for a, b in records]
        )
        np.testing.assert_allclose(
            confidences[:, 0], confidences[:, 1], rtol=1e-6, atol=1e-8
        )


#: Per-device schedules of the stacked-sensing tests: static (one
#: component per axis) and gait (three) bouts side by side in one
#: group, with bout boundaries both on and between tick edges.
MIXED_SCHEDULES = (
    make_fig5_schedule(3.0, 3.0),
    [("walk", 2.5), ("lie", 3.5)],
    [("upstairs", 4.2), ("stand", 1.8)],
)


class TestStackedSensing:
    @pytest.mark.parametrize(
        "config_name", ["F100_A128", "F50_A16", "F12.5_A8", "F6.25_A32"]
    )
    def test_read_windows_stacked_matches_read_window(self, config_name):
        """Stacked acquisition is bit-identical to per-device reads for
        every Table I sampling-rate family, with either noise source.
        Each group mixes static and gait rows (one trig pass per count
        signature), and some ticks straddle a bout boundary."""
        config = TABLE1_BY_NAME[config_name]
        sensors = [
            SimulatedAccelerometer(
                signal=ScheduledSignal(
                    MIXED_SCHEDULES[seed % len(MIXED_SCHEDULES)], seed=seed
                ),
                seed=seed,
            )
            for seed in range(6)
        ]
        rows = np.arange(len(sensors))
        statics = SensorStatics(sensors)

        def streams():
            return [np.random.default_rng(seed + 100) for seed in rows]

        for noise in ("per_device", "batched"):
            tables = StackedEvaluationCache(len(sensors))
            rngs, reference_rngs = streams(), streams()
            bank = NoiseBank.from_rngs(rngs)
            reference_bank = NoiseBank.from_rngs(reference_rngs)
            source = {"noise_bank": bank} if noise == "batched" else {"rngs": rngs}
            for step in range(1, 7):
                end = float(step)
                stack, times = read_windows_stacked_raw(
                    [sensor.signal for sensor in sensors], end, 1.0, config,
                    rows=rows, statics=statics, tables=tables, **source,
                )
                if noise == "batched":
                    block = reference_bank.normal(
                        rows,
                        config.samples_in(1.0),
                        statics.noise_stds(config.averaging_window),
                    )
                    references = [
                        sensor.read_window(end, 1.0, config, noise=block[index])
                        for index, sensor in enumerate(sensors)
                    ]
                else:
                    references = [
                        sensor.read_window(end, 1.0, config, rng=rng)
                        for sensor, rng in zip(sensors, reference_rngs)
                    ]
                for index, reference in enumerate(references):
                    np.testing.assert_array_equal(stack[index], reference.samples)
                    np.testing.assert_array_equal(times, reference.times_s)
            # The groups really held both count signatures, (1, 1, 1)
            # and (2, 2, 3), and windows straddling a bout boundary —
            # all served by the fused pass, none by a fallback.
            assert set(tables._signatures[tables._fusable].tolist()) == {
                1 + 8 + 64, 2 + 16 + 192
            }
            assert tables.straddles > 0
            assert tables.fallbacks == 0

    def test_mixed_internal_rates_rejected(self):
        signal = ScheduledSignal(make_fig5_schedule(2.0, 2.0), seed=0)
        sensors = [
            SimulatedAccelerometer(signal=signal, internal_rate_hz=rate, seed=0)
            for rate in (1600.0, 800.0)
        ]
        rngs = [np.random.default_rng(seed) for seed in range(2)]
        with pytest.raises(ValueError, match="internal conversion rate"):
            read_windows_stacked_raw(
                [signal, signal], 1.0, 1.0, HIGH_POWER_CONFIG,
                rows=np.arange(2), statics=SensorStatics(sensors),
                tables=StackedEvaluationCache(2), rngs=rngs,
            )

    def test_mismatched_rngs_rejected(self):
        signal = ScheduledSignal(make_fig5_schedule(2.0, 2.0), seed=0)
        sensor = SimulatedAccelerometer(signal=signal, seed=0)
        with pytest.raises(ValueError):
            read_windows_stacked_raw(
                [signal], 1.0, 1.0, HIGH_POWER_CONFIG,
                rows=np.arange(1), statics=SensorStatics([sensor]),
                tables=StackedEvaluationCache(1), rngs=[],
            )

    def test_signal_tables_match_per_realization_loop(self):
        generator = SyntheticSignalGenerator(seed=5)
        signals = [
            ScheduledSignal([(activity, 10.0)], generator=generator, seed=index)
            for index, activity in enumerate(
                ("walk", "sit", "downstairs", "lie", "upstairs", "stand")
            )
        ]
        realizations = [signal.segments[0].realization for signal in signals]
        tables = StackedEvaluationCache(len(signals))
        times = np.linspace(0.2, 2.0, 37)
        for window_s in (0.0, 0.02, 0.08):
            stacked = tables.evaluate_signals(
                signals, np.arange(len(signals)), times, window_s
            )
            expected = np.stack(
                [r.evaluate_windowed(times, window_s) for r in realizations]
            )
            np.testing.assert_array_equal(stacked, expected)


class TestScheduledSignalHelpers:
    def test_activities_at_matches_scalar_lookup(self):
        signal = ScheduledSignal(make_fig5_schedule(5.0, 7.0), seed=3)
        times = np.array([0.5, 4.99, 5.0, 6.5, 11.9, 12.0, 50.0])
        vectorised = signal.activities_at(times)
        assert vectorised == [signal.activity_at(float(t)) for t in times]

    def test_segment_indices_single_bout(self):
        signal = ScheduledSignal(make_fig5_schedule(5.0, 5.0), seed=4)
        inside = np.linspace(1.0, 2.0, 10)
        np.testing.assert_array_equal(signal.segment_indices(inside), 0)

    def test_segment_indices_split_at_boundary_and_clamp(self):
        signal = ScheduledSignal(make_fig5_schedule(5.0, 5.0), seed=4)
        last = len(signal.segments) - 1
        times = np.array([4.5, 4.999, 5.0, 5.5, signal.duration_s, 1e6])
        np.testing.assert_array_equal(
            signal.segment_indices(times), [0, 0, 1, 1, last, last]
        )


class TestClosedLoopFacade:
    def test_exact_mode_supported(self, trained_pipeline):
        simulator = ClosedLoopSimulator(
            pipeline=trained_pipeline,
            controller=SpotController(stability_threshold=3),
            features="exact",
        )
        trace = simulator.run(make_fig5_schedule(10.0, 10.0), seed=1)
        assert len(trace) == 20
        assert {LOW_POWER_CONFIG.name, HIGH_POWER_CONFIG.name} & set(
            trace.config_names
        )

    def test_engine_exposed(self, trained_pipeline):
        simulator = ClosedLoopSimulator(
            pipeline=trained_pipeline, controller=SpotController()
        )
        assert simulator.engine.features == "incremental"
        assert simulator.engine.controllers == "bank"
