"""Tests for the batched acquisition layer (``noise="batched"``).

The layer's contract has three parts, each pinned here:

* **Reference intact** — ``noise="per_device"`` (the default) keeps
  drawing measurement noise from each device's master stream, so
  default traces stay bit-identical to the pre-layer implementation
  (the engine equivalence suites cover that; here we only check the
  mode plumbing).
* **Bit-identity within the mode** — a batched-noise run produces
  exactly the same traces for every engine spelling (batched fleet,
  per-device sequential, sharded with any shard count) and for every
  ``features``/``sensing``/``controllers`` combination, because each
  device's noise is a pure function of its own seed.
* **Statistical equivalence across modes** — batched noise comes from
  a different generator family than per-device noise, so traces
  differ bit-wise, but the noise distribution and the downstream
  classification behaviour must match within tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import (
    ScheduledSignal,
    StackedEvaluationCache,
    default_activity_profiles,
)
from repro.exec.engine import NOISE_MODES, StepEngine
from repro.fleet import (
    DevicePopulation,
    FleetSimulator,
    ShardedFleetSimulator,
    traces_equal,
)
from repro.sim.runtime import ClosedLoopSimulator


@pytest.fixture(scope="module")
def population():
    return DevicePopulation.generate(24, duration_s=14.0, master_seed=321)


class TestModePlumbing:
    def test_modes_exported(self):
        assert NOISE_MODES == ("per_device", "batched")

    def test_invalid_mode_rejected(self, trained_pipeline):
        with pytest.raises(ValueError):
            StepEngine(trained_pipeline, noise="magic")
        with pytest.raises(ValueError):
            FleetSimulator(trained_pipeline, noise="magic")
        with pytest.raises(ValueError):
            ShardedFleetSimulator(trained_pipeline, noise="magic")
        with pytest.raises(ValueError):
            ClosedLoopSimulator(
                trained_pipeline,
                controller=None,
                acquisition="magic",
            )

    def test_default_is_per_device(self, trained_pipeline):
        assert StepEngine(trained_pipeline).noise == "per_device"

    def test_modes_produce_different_noise(self, trained_pipeline, population):
        reference = FleetSimulator(trained_pipeline).run(population)
        batched = FleetSimulator(trained_pipeline, noise="batched").run(
            population
        )
        assert not all(
            traces_equal(left, right)
            for left, right in zip(batched.traces, reference.traces)
        )


class TestBitIdentityWithinMode:
    def test_batched_fleet_matches_sequential_reference(
        self, trained_pipeline, population
    ):
        simulator = FleetSimulator(trained_pipeline, noise="batched")
        batched = simulator.run(population)
        sequential = simulator.run_sequential(population)
        for left, right in zip(batched.traces, sequential.traces):
            assert traces_equal(left, right)

    def test_all_engine_recipes_identical(self, trained_pipeline, population):
        reference = FleetSimulator(trained_pipeline, noise="batched").run(
            population
        )
        recipes = (
            dict(features="exact"),
            dict(sensing="per_device"),
            dict(controllers="per_object"),
            dict(
                features="exact",
                sensing="per_device",
                controllers="per_object",
            ),
        )
        for recipe in recipes:
            if recipe.get("features") == "exact":
                base = FleetSimulator(
                    trained_pipeline, features="exact", noise="batched"
                ).run(population)
            else:
                base = reference
            result = FleetSimulator(
                trained_pipeline, noise="batched", **recipe
            ).run(population)
            for left, right in zip(result.traces, base.traces):
                assert traces_equal(left, right)

    def test_shard_count_invariance(self, trained_pipeline, population):
        """Satellite: batched-noise fleet results are invariant to the
        shard count — 1, 2 and 4 shards bit-identical, matching the
        PR 2 sharding guarantee."""
        reference = FleetSimulator(trained_pipeline, noise="batched").run(
            population
        )
        sharded = ShardedFleetSimulator(trained_pipeline, noise="batched")
        for num_shards in (1, 2, 4):
            run = sharded.run(population, num_shards=num_shards)
            assert run.num_shards == num_shards
            for left, right in zip(run.result.traces, reference.traces):
                assert traces_equal(left, right)

    def test_summary_trace_identical_to_full(self, trained_pipeline, population):
        from repro.fleet import FleetTelemetry

        simulator = FleetSimulator(trained_pipeline, noise="batched")
        full = FleetTelemetry.from_result(simulator.run(population))
        summary = FleetTelemetry.from_result(
            simulator.run(population, trace="summary")
        )
        assert full.to_dict() == summary.to_dict()

    def test_single_device_loop_matches_fleet(self, trained_pipeline, population):
        profile = population[3]
        fleet_trace = FleetSimulator(trained_pipeline, noise="batched").run(
            [profile]
        ).traces[0]
        loop_trace = ClosedLoopSimulator(
            trained_pipeline,
            controller=profile.make_controller(),
            power_model=profile.power_model,
            noise=profile.noise,
            acquisition="batched",
        ).run(list(profile.schedule), seed=profile.seed)
        assert traces_equal(fleet_trace, loop_trace)


class TestStatisticalEquivalence:
    def test_noise_moments_match(self):
        """Both modes must deliver N(0, std^2) measurement noise."""
        from repro.sensors.noise_bank import NoiseBank
        from repro.utils.rng import as_rng, derive_seed_sequences

        std = 0.35
        batched = NoiseBank(derive_seed_sequences(0, 32)).normal(
            np.arange(32), 300, np.full(32, std)
        )
        per_device = np.stack(
            [as_rng(seed).normal(0.0, std, size=(300, 3)) for seed in range(32)]
        )
        for block in (batched, per_device):
            flat = block.ravel()
            assert abs(flat.mean()) < 0.01
            assert abs(flat.std() - std) < 0.01

    def test_classification_accuracy_within_tolerance(
        self, trained_pipeline, population
    ):
        """The adaptive system must behave the same under either noise
        family: fleet-average accuracy and duty-cycling within a few
        percent."""
        from repro.fleet import FleetTelemetry

        reference = FleetTelemetry.from_result(
            FleetSimulator(trained_pipeline).run(population)
        ).to_dict()
        batched = FleetTelemetry.from_result(
            FleetSimulator(trained_pipeline, noise="batched").run(population)
        ).to_dict()
        ref_accuracy = reference["fleet"]["accuracy"]["mean"]
        new_accuracy = batched["fleet"]["accuracy"]["mean"]
        assert abs(ref_accuracy - new_accuracy) < 0.05
        ref_current = reference["fleet"]["average_current_ua"]["mean"]
        new_current = batched["fleet"]["average_current_ua"]["mean"]
        assert abs(ref_current - new_current) / ref_current < 0.15


def _single_bout_signals(rng, count):
    """Signals of one long bout each, over randomly drawn activities."""
    activities = list(default_activity_profiles())
    return [
        ScheduledSignal(
            [(activities[rng.integers(len(activities))], 10.0)],
            seed=int(rng.integers(10_000)),
        )
        for _ in range(count)
    ]


def _bout_reference(signals, times, window):
    """Independent oracle: every bout realisation evaluated on its own."""
    return np.stack(
        [
            signal.segments[0].realization.evaluate_windowed(times, window)
            for signal in signals
        ]
    )


class TestSignalTableCache:
    def test_cache_matches_per_realization_evaluation(self, rng):
        signals = _single_bout_signals(rng, 25)
        times = np.sort(rng.uniform(0.0, 4.0, size=33))
        cache = StackedEvaluationCache(40)
        rows = np.arange(25) + 3
        for window in (0.0, 0.0125, 0.08):
            expected = _bout_reference(signals, times, window)
            np.testing.assert_array_equal(
                cache.evaluate_signals(signals, rows, times, window), expected
            )
            # Second call hits the cached rows — still bit-identical.
            np.testing.assert_array_equal(
                cache.evaluate_signals(signals, rows, times, window), expected
            )
        assert cache.rebuilds == 25
        assert cache.revalidations == 25 * 5

    def test_cache_survives_membership_churn(self, rng):
        signals = _single_bout_signals(rng, 20)
        times = np.linspace(0.1, 1.0, 17)
        cache = StackedEvaluationCache(20)
        cache.evaluate_signals(signals, np.arange(20), times, 0.01)
        subset = np.array([15, 1, 9, 4])
        members = [signals[i] for i in subset]
        np.testing.assert_array_equal(
            cache.evaluate_signals(members, subset, times, 0.01),
            _bout_reference(members, times, 0.01),
        )
        # A device first seen after the cache was built grows it.
        grown = [signals[0], signals[2], signals[1]]
        np.testing.assert_array_equal(
            cache.evaluate_signals(grown, np.array([30, 2, 31]), times, 0.01),
            _bout_reference(grown, times, 0.01),
        )

    def test_scratch_is_not_pickled(self, rng):
        import pickle

        signals = _single_bout_signals(rng, 12)
        cache = StackedEvaluationCache(12)
        times = np.linspace(0.1, 1.0, 50)
        expected = cache.evaluate_signals(signals, np.arange(12), times, 0.01)
        scratch_bytes = cache._scratch.nbytes
        assert scratch_bytes > 0
        payload = pickle.dumps(cache)
        assert len(payload) < len(pickle.dumps(vars(cache))) - scratch_bytes // 2
        restored = pickle.loads(payload)
        assert restored._scratch.size == 0
        np.testing.assert_array_equal(
            restored.evaluate_signals(signals, np.arange(12), times, 0.01),
            expected,
        )

    def test_signal_spelling_matches_realization_spelling(self, rng):
        signals = [
            ScheduledSignal(
                [("walk", 3.0), ("sit", 3.0), ("downstairs", 3.0)],
                seed=int(seed),
            )
            for seed in rng.integers(0, 10_000, size=10)
        ]
        cache = StackedEvaluationCache(10)
        rows = np.arange(10)
        for end in np.arange(0.5, 9.0, 0.5):
            times = np.linspace(end - 0.4, end, 9)
            via_signals = cache.evaluate_signals(signals, rows, times, 0.02)
            expected = np.stack(
                [signal.evaluate_windowed(times, 0.02) for signal in signals]
            )
            np.testing.assert_array_equal(via_signals, expected)
