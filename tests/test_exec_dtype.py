"""Tests for the single-precision compute lane (``dtype="float32"``).

The lane's contract has four parts, each pinned here:

* **Reference intact** — ``dtype="float64"`` (the default) keeps every
  mode bit-identical to the pre-lane implementation (the engine
  equivalence suites cover that; here we only check the mode plumbing).
* **Determinism within the lane** — a float32 run is bit-identical
  across engine spellings and shard counts, and a reusable
  :class:`~repro.fleet.engine.FleetRuntime` replays it exactly.
* **Tolerance across lanes** — float32 features track the float64
  reference to single-precision accuracy, and the closed loop reaches
  the same classifications away from decision boundaries.
* **Plan cache** — spectral plans are cached process-wide by
  ``(geometry, dtype, extractor layout)``, reusable runtimes rebuild
  nothing on a second run, and forked shard workers drop the inherited
  parent cache instead of trusting it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import (
    FeatureExtractor,
    WindowGeometry,
    clear_plan_cache,
    plan_cache_stats,
    spectral_plan,
)
from repro.exec import DTYPE_MODES
from repro.exec.engine import StepEngine
from repro.fleet import (
    DevicePopulation,
    FleetSimulator,
    ShardedFleetSimulator,
    traces_equal,
)
from repro.obs import MetricsRegistry
from repro.sim.runtime import ClosedLoopSimulator

#: The float32 execution recipe (the bench ``float32`` recipe minus the
#: trace mode — these tests want full traces to compare).
F32_KWARGS = dict(
    features="incremental",
    controllers="bank",
    noise="batched",
    dtype="float32",
)


@pytest.fixture(scope="module")
def population():
    return DevicePopulation.generate(24, duration_s=14.0, master_seed=321)


@pytest.fixture(scope="module")
def float32_reference(trained_pipeline, population):
    """One full-trace float32 fleet run shared by the identity tests."""
    return FleetSimulator(trained_pipeline, **F32_KWARGS).run(population)


class TestModePlumbing:
    def test_modes_exported(self):
        assert DTYPE_MODES == ("float64", "float32")

    def test_invalid_dtype_rejected(self, trained_pipeline):
        with pytest.raises(ValueError):
            StepEngine(trained_pipeline, dtype="float16")
        with pytest.raises(ValueError):
            FleetSimulator(trained_pipeline, dtype="float16")
        with pytest.raises(ValueError):
            ShardedFleetSimulator(trained_pipeline, dtype="float16")
        with pytest.raises(ValueError):
            ClosedLoopSimulator(
                trained_pipeline, controller=None, dtype="float16"
            )

    def test_default_is_float64(self, trained_pipeline):
        assert StepEngine(trained_pipeline).dtype == "float64"

    def test_lanes_produce_different_traces(
        self, trained_pipeline, population, float32_reference
    ):
        reference = FleetSimulator(
            trained_pipeline, **{**F32_KWARGS, "dtype": "float64"}
        ).run(population)
        assert not all(
            traces_equal(left, right)
            for left, right in zip(
                float32_reference.traces, reference.traces
            )
        )


class TestToleranceAcrossLanes:
    def test_features_match_to_single_precision(self, rng):
        """Float32 features track the float64 reference to ~1e-4
        relative — single-precision rounding, not algorithmic drift."""
        extractor = FeatureExtractor()
        for sampling_hz in (5.0, 12.5, 20.0, 50.0):
            samples = rng.standard_normal((int(2 * sampling_hz), 3))
            reference = extractor.extract(samples, sampling_hz)
            single = extractor.extract(
                samples.astype(np.float32), sampling_hz, dtype=np.float32
            )
            # The lane dtype flows out of the extractor; the engine
            # upcasts to float64 only at the classifier boundary.
            assert single.dtype == np.float32
            scale = np.maximum(np.abs(reference), 1.0)
            error = np.abs(single.astype(np.float64) - reference) / scale
            assert np.max(error) < 1e-4

    def test_classifications_match_off_boundary(
        self, trained_pipeline, population, float32_reference
    ):
        """Away from decision boundaries the lanes agree: identical
        labels wherever the confidences are not within a whisker of a
        tie, and near-identical confidences wherever the labels agree."""
        reference = FleetSimulator(
            trained_pipeline, **{**F32_KWARGS, "dtype": "float64"}
        ).run(population)
        total = agreements = 0
        for single, double in zip(float32_reference.traces, reference.traces):
            for left, right in zip(single.records, double.records):
                total += 1
                if left.predicted_activity == right.predicted_activity:
                    agreements += 1
                    assert abs(left.confidence - right.confidence) < 1e-3
                else:
                    # A flipped label is only acceptable on a borderline
                    # window, where the winning confidences are a
                    # whisker apart across lanes.
                    assert abs(left.confidence - right.confidence) < 5e-3
        assert total > 0
        assert agreements / total >= 0.995


class TestBitIdentityWithinLane:
    def test_shard_count_invariance(
        self, trained_pipeline, population, float32_reference
    ):
        """Float32 fleet results are invariant to the shard count —
        1, 2 and 4 shards bit-identical to the single-process run."""
        sharded = ShardedFleetSimulator(trained_pipeline, **F32_KWARGS)
        for num_shards in (1, 2, 4):
            run = sharded.run(population, num_shards=num_shards)
            assert run.num_shards == num_shards
            for left, right in zip(
                run.result.traces, float32_reference.traces
            ):
                assert traces_equal(left, right)

    def test_sequential_reference_within_tolerance(
        self, trained_pipeline, population, float32_reference
    ):
        """The per-device reference loop synthesises clean signals in
        float64 (scalar acquisition has no float32 spelling), so within
        the float32 lane it is a tolerance reference, not a bit-exact
        one — bit-identity is guaranteed across the engine's controller
        modes and shard counts above."""
        sequential = FleetSimulator(
            trained_pipeline, **F32_KWARGS
        ).run_sequential(population)
        for left, right in zip(float32_reference.traces, sequential.traces):
            for single, double in zip(left.records, right.records):
                assert single.config_name == double.config_name
                assert abs(single.confidence - double.confidence) < 5e-3


class TestPlanCache:
    def test_keyed_by_geometry_and_dtype(self):
        extractor = FeatureExtractor()
        fast = WindowGeometry.for_window(20.0, 1.0, 2.0)
        slow = WindowGeometry.for_window(12.5, 1.0, 2.0)
        clear_plan_cache()

        double = spectral_plan(fast, extractor)
        assert plan_cache_stats() == (0, 1)
        assert spectral_plan(fast, extractor) is double
        assert plan_cache_stats() == (1, 1)

        single = spectral_plan(fast, extractor, dtype=np.float32)
        assert single is not double
        assert plan_cache_stats() == (1, 2)
        assert spectral_plan(fast, extractor, dtype=np.float32) is single
        assert plan_cache_stats() == (2, 2)

        assert spectral_plan(slow, extractor) is not double
        assert plan_cache_stats() == (2, 3)

    def test_lanes_share_the_stacked_real_basis(self):
        extractor = FeatureExtractor()
        # 12.5 Hz leaves a trimmed tail chunk, so both bases exist.
        geometry = WindowGeometry.for_window(12.5, 1.0, 2.0)
        clear_plan_cache()
        double = spectral_plan(geometry, extractor)
        single = spectral_plan(geometry, extractor, dtype=np.float32)
        # One real [Re; Im] projection per lane: the float32 basis is the
        # float64 one rounded once, so both lanes run the same kernel.
        for name, samples in (
            ("chunk_basis", geometry.chunk_samples),
            ("tail_basis", geometry.tail_samples),
        ):
            wide, narrow = getattr(double, name), getattr(single, name)
            assert wide.dtype == np.float64
            assert narrow.dtype == np.float32
            assert wide.shape == narrow.shape == (2 * double.bins, samples)
            np.testing.assert_array_equal(narrow, wide.astype(np.float32))
            assert not wide.flags.writeable
            assert not narrow.flags.writeable
        assert double.chunk_phases.dtype == np.complex128
        assert single.chunk_phases.dtype == np.complex64

    def test_clear_resets_counters(self):
        extractor = FeatureExtractor()
        geometry = WindowGeometry.for_window(20.0, 1.0, 2.0)
        spectral_plan(geometry, extractor)
        clear_plan_cache()
        assert plan_cache_stats() == (0, 0)
        spectral_plan(geometry, extractor)
        assert plan_cache_stats() == (0, 1)


class TestReusableRuntime:
    def test_repeated_runs_bit_identical(
        self, trained_pipeline, population, float32_reference
    ):
        simulator = FleetSimulator(trained_pipeline, **F32_KWARGS)
        runtime = simulator.build_runtime(population)
        first = simulator.run(runtime=runtime)
        second = simulator.run(runtime=runtime)
        for result in (first, second):
            for left, right in zip(result.traces, float32_reference.traces):
                assert traces_equal(left, right)

    def test_second_run_skips_plan_rebuilds(self, trained_pipeline, population):
        registry = MetricsRegistry()
        simulator = FleetSimulator(
            trained_pipeline, metrics=registry, **F32_KWARGS
        )
        runtime = simulator.build_runtime(population)
        clear_plan_cache()
        simulator.run(runtime=runtime)
        hits = registry.counter_value("plan_cache.hits")
        misses = registry.counter_value("plan_cache.misses")
        assert misses > 0  # first run built this lane's plans
        simulator.run(runtime=runtime)
        assert registry.counter_value("plan_cache.misses") == misses
        assert registry.counter_value("plan_cache.hits") > hits

    def test_runtime_validation(self, trained_pipeline, population):
        simulator = FleetSimulator(trained_pipeline, **F32_KWARGS)
        other = FleetSimulator(trained_pipeline, **F32_KWARGS)
        runtime = simulator.build_runtime(population)
        with pytest.raises(ValueError, match="different simulator"):
            other.run(runtime=runtime)
        with pytest.raises(ValueError, match="does not match"):
            simulator.run(list(population)[:4], runtime=runtime)
        with pytest.raises(ValueError, match="population or a runtime"):
            simulator.run()

    def test_engine_state_validation(self, trained_pipeline, population):
        engine = StepEngine(trained_pipeline, noise="batched", dtype="float32")
        runtimes = [
            engine.runtime_from_profile(profile)
            for profile in list(population)[:6]
        ]
        state = engine.make_state(runtimes)
        other = StepEngine(trained_pipeline, noise="batched", dtype="float32")
        with pytest.raises(ValueError, match="different engine"):
            other.run(runtimes, 3, state=state)
        with pytest.raises(ValueError, match="6 devices"):
            engine.run(runtimes[:4], 3, state=state)
        with pytest.raises(ValueError, match="at least one device"):
            engine.make_state([])


class TestForkedWorkers:
    def test_workers_rebuild_plans_after_fork(
        self, trained_pipeline, population, float32_reference
    ):
        """Regression: forked shard workers inherit the parent's
        process-wide plan cache and must drop it rather than trust it.
        A pre-warmed parent cache must neither leak stale plans into
        the workers nor have its own counters disturbed by them."""
        clear_plan_cache()
        # Warm the parent cache with this lane's plans (and the other
        # lane's, so the workers inherit a mixed cache).
        FleetSimulator(trained_pipeline, **F32_KWARGS).run(population)
        FleetSimulator(
            trained_pipeline, **{**F32_KWARGS, "dtype": "float64"}
        ).run(population)
        warmed = plan_cache_stats()
        assert warmed[1] > 0

        run = ShardedFleetSimulator(trained_pipeline, **F32_KWARGS).run(
            population, num_shards=2
        )
        for left, right in zip(run.result.traces, float32_reference.traces):
            assert traces_equal(left, right)
        if run.used_processes:
            # Worker-side clears stay in the workers: the parent's
            # cache and counters are untouched.
            assert plan_cache_stats() == warmed
