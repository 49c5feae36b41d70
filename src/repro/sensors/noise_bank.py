"""Fleet-wide measurement-noise generation for the batched sense path.

Per-device noise streams are what kept one Python call per device per
tick on the fleet hot path: every simulated accelerometer draws its
measurement noise from a private generator, so the stacked acquisition
pass (:func:`repro.sensors.imu.read_windows_stacked_raw`) still looped
``rngs[index].normal(...)`` over the whole configuration group.

:class:`NoiseBank` removes that loop while keeping the streams private.
Every device owns one **counter-based** bit generator
(:class:`numpy.random.Philox`), keyed by a
:class:`numpy.random.SeedSequence` child derived from the device's own
master stream (see :func:`repro.utils.rng.derive_seed_sequences`).  A
device's noise is therefore a pure function of its own seed — never of
fleet composition, configuration grouping, engine choice or shard
layout — which is what makes ``noise="batched"`` runs bit-identical
across :class:`~repro.exec.engine.StepEngine` paths and shard counts.

The per-call Python is amortised through a pooled layout: each device's
Philox stream is materialised ``POOL_VALUES`` standard normals at a
time into one shared ``(devices, POOL_VALUES)`` array, and a tick's
``(devices, samples, 3)`` noise block for a configuration group is then
a single vectorised gather-and-scale over the pool.  Refills touch a
device only once every ``POOL_VALUES / values_per_tick`` ticks (for the
paper's configurations, one refill per ~3-30 simulated seconds).

The pooled consumption discipline is part of the mode's determinism
contract: a device consumes its stream strictly in order, and when the
pool tail is too short for a full acquisition the tail is discarded and
the pool refilled.  Both depend only on the device's own configuration
history, so every engine replays the identical sequence.  So is the
pool precision: streams are materialised as float32 standard normals
(the generator's native single-precision ziggurat — roughly twice the
fill rate and half the memory) and the standard-deviation scaling is
rounded back to float32, so every consumer sees the identical
single-precision value regardless of gather path (the float64 upcast
happens only when the noise is added to the clean signal).  Single
precision is ~five decimal digits finer than the accelerometer's ADC
step, so the digitised samples are statistically indistinguishable
from double-precision noise.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.utils.rng import derive_seed_sequences
from repro.utils.validation import check_positive_int

#: Standard normals materialised per device per refill.  The value is a
#: *contract*, not a tuning knob: the pool boundary decides which draws
#: are discarded at a refill, so two runs only replay the same noise if
#: they share the pool length.  2048 float32 values (8 KiB per device,
#: ~80 MB for a 10k-device fleet) cover at least six classification
#: windows of the fastest Table I configuration per refill.
POOL_VALUES: int = 2048


class NoiseBank:
    """One counter-based noise stream per device, filled in batches.

    Parameters
    ----------
    seed_sequences:
        One :class:`numpy.random.SeedSequence` per device keying that
        device's :class:`numpy.random.Philox` stream.  Use
        :meth:`from_rngs` to derive them from per-device master
        generators.
    pool_values:
        Pool length override for tests; production callers must keep
        the default (see :data:`POOL_VALUES`).
    """

    def __init__(
        self,
        seed_sequences: Sequence[np.random.SeedSequence],
        pool_values: int = POOL_VALUES,
    ) -> None:
        check_positive_int(pool_values, "pool_values")
        self._generators: List[np.random.Generator] = [
            np.random.Generator(np.random.Philox(seed_seq))
            for seed_seq in seed_sequences
        ]
        # Origin states, so :meth:`reset` rewinds every stream in place
        # instead of constructing new generators.  An unadvanced Philox
        # state differs between devices only in its key (zero counter,
        # empty buffer), so one captured state plus the per-device keys
        # holds every origin.
        origins = [generator.bit_generator.state for generator in self._generators]
        self._origin = origins[0] if origins else None
        self._keys = np.array(
            [origin["state"]["key"] for origin in origins], dtype=np.uint64
        )
        self._pool_values = int(pool_values)
        self._pool = np.empty(
            (len(self._generators), self._pool_values), dtype=np.float32
        )
        # An exhausted cursor forces a refill on first use, so pool
        # memory is only ever filled for devices that actually sense.
        self._cursors = np.full(len(self._generators), self._pool_values)
        #: Device-stream pool refills performed so far (observability
        #: counter; one refill materialises ``pool_values`` normals).
        self.refills = 0
        #: Acquisitions that bypassed the pool because a single tick
        #: needed more values than one pool holds.
        self.pool_bypasses = 0

    @classmethod
    def from_rngs(cls, rngs: Sequence[np.random.Generator]) -> "NoiseBank":
        """Derive one Philox stream per device from its master generator.

        Spawning a seed-sequence child does not consume draws from the
        master stream, so building a bank leaves signal realisation and
        sensor-bias draws untouched — ``noise="batched"`` changes only
        the measurement noise.
        """
        return cls([derive_seed_sequences(rng, 1)[0] for rng in rngs])

    @property
    def num_devices(self) -> int:
        """Number of device streams in the bank."""
        return len(self._generators)

    @property
    def pool_values(self) -> int:
        """Standard normals materialised per device per refill."""
        return self._pool_values

    def reset(self) -> None:
        """Rewind every device stream to its origin.

        Reusable fleet runtimes call this between runs: every Philox
        generator is restored to its construction state (a
        counter-based stream restarts exactly), the cursors are marked
        exhausted so the first acquisition refills from the rewound
        streams, and the observability counters start over.  The
        generators and the pool array are reused — the pool's stale
        contents are never consumed before a refill overwrites them.
        """
        origin = self._origin
        for generator, key in zip(self._generators, self._keys):
            generator.bit_generator.state = {
                **origin,
                "state": {"counter": origin["state"]["counter"], "key": key},
            }
        self._cursors.fill(self._pool_values)
        self.refills = 0
        self.pool_bypasses = 0

    def normal(
        self,
        rows: np.ndarray,
        num_samples: int,
        stds: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Noise block for one configuration group's acquisition.

        Parameters
        ----------
        rows:
            Device indices of the group (any order, no duplicates).
        num_samples:
            Output samples acquired this tick under the group's
            configuration; each device consumes ``num_samples * 3``
            values from its stream.
        stds:
            Per-device output-sample noise standard deviation, parallel
            to ``rows``.
        out:
            Optional preallocated ``(len(rows), num_samples, 3)``
            destination.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(len(rows), num_samples, 3)``: each
            device's next ``num_samples * 3`` stream values scaled by
            its standard deviation.
        """
        rows = np.asarray(rows)
        count = int(num_samples) * 3
        # float32 stds (the single-precision lane) are kept as given so
        # the scaling below runs a float32 loop; everything else takes
        # the historical float64 spelling.
        stds = np.asarray(stds)
        if stds.dtype != np.float32:
            stds = stds.astype(np.float64, copy=False)
        if stds.shape != (rows.shape[0],):
            raise ValueError(
                f"stds must be parallel to rows, got {stds.shape} for "
                f"{rows.shape[0]} devices"
            )
        if count > self._pool_values:
            # Oversized acquisitions (sampling rates beyond the pool
            # budget) bypass the pool entirely; the stream stays the
            # device's own, just unpooled.
            values = np.empty((rows.shape[0], count), dtype=np.float32)
            for index, device in enumerate(rows):
                self._generators[device].standard_normal(
                    dtype=np.float32, out=values[index]
                )
            self.pool_bypasses += rows.shape[0]
        else:
            cursors = self._cursors[rows]
            exhausted = rows[cursors + count > self._pool_values]
            # Refills draw straight into the pool row: no temporary.
            for device in exhausted:
                self._generators[device].standard_normal(
                    dtype=np.float32, out=self._pool[device]
                )
            if exhausted.size:
                self.refills += int(exhausted.size)
                self._cursors[exhausted] = 0
                cursors = self._cursors[rows]
            # Devices that entered the active configuration together
            # consume in lock step, so a group's cursors take only a
            # handful of distinct values — one contiguous column slice
            # per cursor cohort beats a two-dimensional gather.
            cohorts = np.unique(cursors)
            if cohorts.size == 1:
                start = int(cohorts[0])
                values = self._pool[rows, start : start + count]
            elif cohorts.size <= 32:
                values = np.empty((rows.shape[0], count), dtype=np.float32)
                for start in cohorts:
                    members = np.flatnonzero(cursors == start)
                    values[members] = self._pool[
                        rows[members], int(start) : int(start) + count
                    ]
            else:
                values = self._pool[rows[:, None], cursors[:, None] + np.arange(count)]
            self._cursors[rows] += count
        block = values.reshape(rows.shape[0], num_samples, 3)
        # The gather above always copies, so scaling in place is safe
        # and saves one (devices, samples, 3) temporary.  Every path
        # scales INTO the float32 block — precision is part of the
        # stream contract, so no caller may see a double-rounded value.
        np.multiply(block, stds[:, None, None], out=block)
        if out is None:
            return block
        np.copyto(out, block)
        return out
