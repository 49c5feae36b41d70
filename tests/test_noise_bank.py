"""Tests for the pooled counter-based noise streams (:mod:`repro.sensors.noise_bank`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sensors.noise_bank import POOL_VALUES, NoiseBank
from repro.utils.rng import as_rng, derive_seed_sequences


def make_bank(num_devices: int, seed: int = 0, **kwargs) -> NoiseBank:
    return NoiseBank(
        derive_seed_sequences(seed, num_devices), **kwargs
    )


def reference_stream(seed: int, num_devices: int, device: int) -> np.random.Generator:
    """The Philox generator a bank built from ``seed`` gives ``device``."""
    child = derive_seed_sequences(seed, num_devices)[device]
    return np.random.Generator(np.random.Philox(child))


class TestConstruction:
    def test_from_rngs_counts_devices(self):
        bank = NoiseBank.from_rngs([as_rng(i) for i in range(7)])
        assert bank.num_devices == 7
        assert bank.pool_values == POOL_VALUES

    def test_from_rngs_does_not_consume_master_draws(self):
        reference = as_rng(3).integers(0, 1_000_000, size=8)
        master = as_rng(3)
        NoiseBank.from_rngs([master])
        np.testing.assert_array_equal(
            master.integers(0, 1_000_000, size=8), reference
        )

    def test_invalid_pool_rejected(self):
        with pytest.raises(ValueError):
            make_bank(2, pool_values=0)


class TestStreams:
    def test_values_follow_device_philox_stream(self):
        """A device's draws are its own Philox stream's standard
        normals, consumed in order and scaled by the given std."""
        bank = make_bank(3, seed=42)
        rows = np.array([1])
        stds = np.array([0.5])
        first = bank.normal(rows, 10, stds)
        second = bank.normal(rows, 4, stds)
        stream = reference_stream(42, 3, 1).standard_normal(
            POOL_VALUES, dtype=np.float32
        )
        np.testing.assert_array_equal(first, 0.5 * stream[:30].reshape(1, 10, 3))
        np.testing.assert_array_equal(
            second, 0.5 * stream[30:42].reshape(1, 4, 3)
        )

    def test_streams_are_private_per_device(self):
        bank = make_bank(2, seed=1)
        rows = np.arange(2)
        block = bank.normal(rows, 16, np.ones(2))
        assert not np.array_equal(block[0], block[1])

    def test_independent_of_group_composition(self):
        """Device 2's draws must not depend on which devices share its
        acquisition call — the shard-invariance property."""
        together = make_bank(4, seed=9).normal(
            np.arange(4), 8, np.ones(4)
        )[2]
        alone = make_bank(4, seed=9).normal(
            np.array([2]), 8, np.ones(1)
        )[0]
        np.testing.assert_array_equal(together, alone)

    def test_mixed_consumption_rates(self):
        """Devices consuming at different per-tick rates (different
        configurations) keep bit-identical streams to consuming alone."""
        bank = make_bank(2, seed=5)
        lone = make_bank(2, seed=5)
        for count in (10, 25, 10, 50):
            mixed = bank.normal(np.array([0, 1]), count, np.ones(2))
            solo = lone.normal(np.array([1]), count, np.ones(1))
            np.testing.assert_array_equal(mixed[1], solo[0])

    def test_cohort_split_groups_match_lone_draws(self):
        """Regression: a group whose devices sit at *different* pool
        cursors (multi-cohort gather) must produce exactly the values
        each device would see alone — including the float32 rounding of
        the std scaling, which the multi-cohort buffer once skipped."""
        bank = make_bank(6, seed=31)
        # Desynchronise the cursors: three cohorts.
        bank.normal(np.array([0, 1]), 7, np.ones(2))
        bank.normal(np.array([2, 3]), 19, np.ones(2))
        stds = np.full(6, 0.371)
        grouped = bank.normal(np.arange(6), 11, stds)
        for device in range(6):
            lone = make_bank(6, seed=31)
            if device in (0, 1):
                lone.normal(np.array([device]), 7, np.ones(1))
            elif device in (2, 3):
                lone.normal(np.array([device]), 19, np.ones(1))
            solo = lone.normal(np.array([device]), 11, stds[[device]])
            np.testing.assert_array_equal(grouped[device], solo[0])


class TestPoolDiscipline:
    def test_refill_discards_partial_tail(self):
        """When the pool tail is shorter than one acquisition the tail
        is discarded — deterministically, as part of the stream
        contract."""
        bank = make_bank(1, seed=7, pool_values=32)
        rows = np.array([0])
        stds = np.ones(1)
        first = bank.normal(rows, 9, stds)   # 27 values, 5 left
        second = bank.normal(rows, 4, stds)  # needs 12 -> refill, tail dropped
        stream = reference_stream(7, 1, 0)
        pool_one = stream.standard_normal(32, dtype=np.float32)
        pool_two = stream.standard_normal(32, dtype=np.float32)
        np.testing.assert_array_equal(first[0], pool_one[:27].reshape(9, 3))
        np.testing.assert_array_equal(second[0], pool_two[:12].reshape(4, 3))

    def test_reset_rewinds_every_stream_in_place(self):
        """After a reset, pooled and bypassing draws alike replay each
        device's stream from its origin, on the same generators."""
        bank = make_bank(3, seed=17, pool_values=16)
        rows = np.arange(3)
        generators = list(bank._generators)
        first = bank.normal(rows, 4, np.ones(3)).copy()
        bank.normal(rows, 9, np.ones(3))  # bypasses the pool
        bank.reset()
        assert bank._generators == generators
        assert bank.refills == bank.pool_bypasses == 0
        for device in rows:
            assert repr(generators[device].bit_generator.state) == repr(
                reference_stream(17, 3, device).bit_generator.state
            )
        np.testing.assert_array_equal(bank.normal(rows, 4, np.ones(3)), first)

    def test_oversized_acquisition_bypasses_pool(self):
        bank = make_bank(1, seed=11, pool_values=16)
        block = bank.normal(np.array([0]), 40, np.ones(1))
        assert block.shape == (1, 40, 3)
        stream = reference_stream(11, 1, 0)
        np.testing.assert_array_equal(
            block[0],
            stream.standard_normal(120, dtype=np.float32).reshape(40, 3),
        )

    def test_stds_scale_and_validate(self):
        bank = make_bank(2, seed=13)
        rows = np.arange(2)
        scaled = bank.normal(rows, 6, np.array([2.0, 0.25]))
        plain = make_bank(2, seed=13).normal(rows, 6, np.ones(2))
        np.testing.assert_array_equal(scaled[0], 2.0 * plain[0])
        np.testing.assert_array_equal(scaled[1], 0.25 * plain[1])
        with pytest.raises(ValueError):
            bank.normal(rows, 6, np.ones(3))

    def test_out_parameter(self):
        bank = make_bank(1, seed=17)
        out = np.empty((1, 5, 3))
        result = bank.normal(np.array([0]), 5, np.ones(1), out=out)
        assert result is out
        np.testing.assert_array_equal(
            out, make_bank(1, seed=17).normal(np.array([0]), 5, np.ones(1))
        )


class TestStatistics:
    def test_moments_match_standard_normal(self):
        """Distributional sanity: the pooled streams are ordinary
        standard normals (mean 0, unit variance, symmetric)."""
        bank = make_bank(64, seed=23)
        block = bank.normal(np.arange(64), 256, np.ones(64))
        flat = block.ravel()
        assert abs(flat.mean()) < 0.02
        assert abs(flat.std() - 1.0) < 0.02
        assert abs(np.mean(flat**3)) < 0.05
        assert abs(np.mean(flat**4) - 3.0) < 0.1
