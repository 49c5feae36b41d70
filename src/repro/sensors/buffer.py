"""The classification sample buffer of the HAR framework (Fig. 1).

The AdaSense pipeline classifies a *batch* of sensor data rather than
individual samples: the buffer stores the accelerometer output over the
last two seconds, and every second the buffered batch is pushed through
feature extraction and classification, giving a one-second overlap
between consecutive batches.

Because the adaptive controller can change the sensor configuration
between batches, the buffer may momentarily hold samples acquired at two
different sampling rates.  Mixing rates inside one batch would make the
frequency-domain features meaningless, so the buffer adopts a simple,
documented policy: **pushing samples acquired under a different
configuration flushes the buffer first.**  The first classification
after a configuration switch therefore sees one second of data instead
of two, exactly as a real implementation that restarts its FIFO would.

Storage is a preallocated ring: the classification window of a
configuration holds a fixed number of samples, so both spellings keep a
``(capacity, 3)`` array and a write cursor instead of a growing chunk
list — a push is one or two slice assignments, ``num_samples`` is a
counter, and a windowed read concatenates at most two slices across the
wrap seam.  :class:`SampleBuffer` is the per-device spelling (the
reference loop of :mod:`repro.sim.reference`, the streaming API and
the intensity baseline use it); :class:`RingBufferBank` holds one ring
*per fleet device* in shared arrays so the execution engine can push a
whole configuration group with a single vectorised scatter and test
window readiness with one array comparison — no per-device Python at
all.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import SensorConfig
from repro.sensors.imu import SensorWindow
from repro.utils.validation import check_positive, check_positive_int


def _ring_capacity(window_duration_s: float, config: SensorConfig) -> int:
    """Samples a full classification window holds under ``config``."""
    return max(1, int(round(window_duration_s * config.sampling_hz)))


class SampleBuffer:
    """Sliding buffer of accelerometer samples feeding the classifier.

    Parameters
    ----------
    window_duration_s:
        Length of the classification window the buffer maintains; the
        paper uses two seconds.
    """

    def __init__(self, window_duration_s: float = 2.0) -> None:
        check_positive(window_duration_s, "window_duration_s")
        self._window_duration_s = float(window_duration_s)
        self._config: Optional[SensorConfig] = None
        #: Preallocated ring storage, sized for the active
        #: configuration's classification window on first push.
        self._data: Optional[np.ndarray] = None
        self._times: Optional[np.ndarray] = None
        self._capacity = 0
        #: Next write index in the ring.
        self._pos = 0
        self._num_samples = 0
        #: Sizes of the buffered acquisition chunks, oldest first (the
        #: oldest entry shrinks as the ring overwrites it).
        self._chunks: Deque[int] = deque()

    @property
    def window_duration_s(self) -> float:
        """Target length of the classification window in seconds."""
        return self._window_duration_s

    @property
    def config(self) -> Optional[SensorConfig]:
        """Configuration of the currently buffered samples (``None`` if empty)."""
        return self._config

    @property
    def num_samples(self) -> int:
        """Number of samples currently buffered (a counter, never a recount)."""
        return self._num_samples

    @property
    def capacity(self) -> int:
        """Ring slots allocated for the active configuration (0 if unset)."""
        return self._capacity

    @property
    def buffered_duration_s(self) -> float:
        """Seconds of signal currently represented in the buffer."""
        if self._config is None or self.num_samples == 0:
            return 0.0
        return self.num_samples / self._config.sampling_hz

    @property
    def is_empty(self) -> bool:
        """Whether the buffer holds no samples."""
        return self.num_samples == 0

    def chunk_sizes(self) -> Tuple[int, ...]:
        """Sample counts of the buffered acquisition chunks, oldest first.

        The oldest entry may be a partially overwritten chunk.  This is
        the layout :class:`repro.core.features.WindowGeometry` describes
        — the steady-state ``[tail, chunk, ..., chunk]`` pattern the
        incremental feature path's cached partials rely on, pinned down
        by the geometry tests.
        """
        return tuple(self._chunks)

    @property
    def is_full(self) -> bool:
        """Whether a full classification window is available."""
        return self.buffered_duration_s >= self._window_duration_s - 1e-9

    def clear(self) -> None:
        """Drop all buffered samples (ring storage is kept allocated)."""
        self._config = None
        self._pos = 0
        self._num_samples = 0
        self._chunks.clear()

    def push(self, window: SensorWindow) -> None:
        """Append freshly acquired samples, flushing on configuration change.

        Parameters
        ----------
        window:
            Samples returned by the simulated accelerometer.  If their
            configuration differs from the buffered one, the buffer is
            flushed before the new samples are stored.
        """
        self.push_raw(
            np.asarray(window.samples, dtype=float),
            np.asarray(window.times_s, dtype=float),
            window.config,
        )

    def push_raw(
        self, samples: np.ndarray, times_s: np.ndarray, config: SensorConfig
    ) -> None:
        """Append already-validated float64 samples without a window object.

        Semantics are exactly those of :meth:`push`; this spelling
        takes a row of a stacked acquisition without building a
        :class:`SensorWindow` around it.
        """
        if self._config is not None and config != self._config:
            self.clear()
        if self._config is None:
            capacity = _ring_capacity(self._window_duration_s, config)
            if capacity != self._capacity:
                self._capacity = capacity
                self._data = np.empty((capacity, 3))
                self._times = np.empty(capacity)
            self._config = config
        num_new = samples.shape[0]
        capacity = self._capacity
        if num_new >= capacity:
            # One chunk spans the whole window: keep its newest samples
            # as a single partially-trimmed chunk starting at slot 0.
            self._data[:] = samples[num_new - capacity :]
            self._times[:] = times_s[num_new - capacity :]
            self._pos = 0
            self._num_samples = capacity
            self._chunks.clear()
            self._chunks.append(capacity)
            return
        first = min(num_new, capacity - self._pos)
        self._data[self._pos : self._pos + first] = samples[:first]
        self._times[self._pos : self._pos + first] = times_s[:first]
        if num_new > first:
            self._data[: num_new - first] = samples[first:]
            self._times[: num_new - first] = times_s[first:]
        self._pos = (self._pos + num_new) % capacity
        self._chunks.append(num_new)
        overwritten = self._num_samples + num_new - capacity
        self._num_samples = min(self._num_samples + num_new, capacity)
        while overwritten > 0 and self._chunks:
            if self._chunks[0] <= overwritten:
                overwritten -= self._chunks.popleft()
            else:
                self._chunks[0] -= overwritten
                overwritten = 0

    def window(self) -> SensorWindow:
        """Return the buffered samples as a single :class:`SensorWindow`.

        Raises
        ------
        RuntimeError
            If the buffer is empty.
        """
        if self._config is None or self.is_empty:
            raise RuntimeError("cannot read a window from an empty buffer")
        count = self._num_samples
        start = (self._pos - count) % self._capacity
        if start + count <= self._capacity:
            samples = self._data[start : start + count].copy()
            times = self._times[start : start + count].copy()
        else:
            split = self._capacity - start
            samples = np.concatenate((self._data[start:], self._data[: count - split]))
            times = np.concatenate((self._times[start:], self._times[: count - split]))
        return SensorWindow(samples=samples, times_s=times, config=self._config)


class RingBufferBank:
    """One preallocated sample ring per fleet device, in shared arrays.

    The execution engine pushes a whole configuration group's stacked
    acquisition with one call: configuration switches
    are detected by comparing interned configuration ids, the ring
    write is a single fancy-indexed scatter, and sample counts live in
    one array so window-readiness checks vectorise.  Per-device sample
    *values* are exactly those a :class:`SampleBuffer` fed the same
    pushes would hold — the bank is a storage layout, not a semantics
    change.

    A device uses only one configuration's window at a time (a switch
    flushes), so the bank backs every device with rows of a single
    ``(devices, max_capacity, 3)`` array sized to the largest
    configuration seen so far, and ring arithmetic runs modulo the
    *active* configuration's capacity.

    Parameters
    ----------
    num_devices:
        Fleet size; device indices are ``0 .. num_devices - 1``.
    window_duration_s:
        Classification-window length shared by all devices.
    dtype:
        Sample storage dtype (float64 default; float32 stores the
        single-precision lane's quantised samples without upcasting).
    """

    def __init__(
        self,
        num_devices: int,
        window_duration_s: float = 2.0,
        dtype=np.float64,
    ) -> None:
        check_positive_int(num_devices, "num_devices")
        check_positive(window_duration_s, "window_duration_s")
        self._num_devices = num_devices
        self._window_duration_s = float(window_duration_s)
        self._dtype = np.dtype(dtype)
        self._configs: Dict[SensorConfig, int] = {}
        self._config_list: List[SensorConfig] = []
        self._capacities = np.empty(0, dtype=np.int64)
        self._data: Optional[np.ndarray] = None
        self._times: Optional[np.ndarray] = None
        self._counts = np.zeros(num_devices, dtype=np.int64)
        self._positions = np.zeros(num_devices, dtype=np.int64)
        self._config_ids = np.full(num_devices, -1, dtype=np.int64)

    @property
    def num_devices(self) -> int:
        """Number of device rings in the bank."""
        return self._num_devices

    def reset(self) -> None:
        """Empty every ring while keeping the allocations and interning.

        Reusable fleet runtimes call this between runs: the per-device
        ring state (counts, write positions, active configuration ids)
        is rewound, but the interned configuration table and the backing
        sample/time arrays — the expensive part of construction — are
        kept, since stale samples are unreachable once the counts are
        zero.
        """
        self._counts.fill(0)
        self._positions.fill(0)
        self._config_ids.fill(-1)

    @property
    def counts(self) -> np.ndarray:
        """Buffered sample count per device (live array — do not mutate)."""
        return self._counts

    def _intern(self, config: SensorConfig) -> int:
        config_id = self._configs.get(config)
        if config_id is None:
            config_id = len(self._config_list)
            self._configs[config] = config_id
            self._config_list.append(config)
            capacity = _ring_capacity(self._window_duration_s, config)
            self._capacities = np.append(self._capacities, capacity)
            width = 0 if self._data is None else self._data.shape[1]
            if capacity > width:
                data = np.empty((self._num_devices, capacity, 3), dtype=self._dtype)
                times = np.empty((self._num_devices, capacity))
                if self._data is not None:
                    data[:, :width] = self._data
                    times[:, :width] = self._times
                self._data = data
                self._times = times
        return config_id

    def push_group(
        self,
        rows: np.ndarray,
        samples: np.ndarray,
        times_s: np.ndarray,
        config: SensorConfig,
    ) -> np.ndarray:
        """Push one stacked acquisition into every ring of a group.

        Parameters
        ----------
        rows:
            Device indices of the configuration group.
        samples:
            Stacked acquisition of shape ``(len(rows), samples, 3)``.
        times_s:
            Shared sample time grid of the acquisition.
        config:
            The configuration the samples were acquired under.

        Returns
        -------
        numpy.ndarray
            The subset of ``rows`` whose ring was flushed because the
            device switched configuration (callers reset their chunk
            bookkeeping for exactly these devices).
        """
        rows = np.asarray(rows)
        config_id = self._intern(config)
        capacity = int(self._capacities[config_id])
        changed = rows[self._config_ids[rows] != config_id]
        if changed.size:
            self._counts[changed] = 0
            self._positions[changed] = 0
            self._config_ids[changed] = config_id
        num_new = samples.shape[1]
        if num_new >= capacity:
            self._data[rows, :capacity] = samples[:, num_new - capacity :]
            self._times[rows, :capacity] = times_s[None, num_new - capacity :]
            self._positions[rows] = 0
            self._counts[rows] = capacity
            return changed
        positions = self._positions[rows]
        # Devices that entered the configuration together write at the
        # same ring offset, so a group's positions take only a handful
        # of distinct values — contiguous slice assignments (split at
        # the wrap seam) per cohort beat a fancy-indexed scatter.
        cohorts = np.unique(positions)
        if cohorts.size <= 32:
            for start in cohorts:
                start = int(start)
                members = (
                    rows
                    if cohorts.size == 1
                    else rows[positions == start]
                )
                block = (
                    samples
                    if cohorts.size == 1
                    else samples[positions == start]
                )
                head = min(num_new, capacity - start)
                self._data[members, start : start + head] = block[:, :head]
                self._times[members, start : start + head] = times_s[None, :head]
                if num_new > head:
                    self._data[members, : num_new - head] = block[:, head:]
                    self._times[members, : num_new - head] = times_s[None, head:]
        else:
            slots = (positions[:, None] + np.arange(num_new)) % capacity
            self._data[rows[:, None], slots] = samples
            self._times[rows[:, None], slots] = times_s[None, :]
        self._positions[rows] = (positions + num_new) % capacity
        self._counts[rows] = np.minimum(self._counts[rows] + num_new, capacity)
        return changed

    def window(self, device: int) -> Tuple[np.ndarray, np.ndarray]:
        """Buffered ``(samples, times)`` of one device, oldest first.

        Used by the exact feature-extraction fallback for warm-up
        windows; steady-state windows never leave the stacked arrays.

        Raises
        ------
        RuntimeError
            If the device's ring is empty.
        """
        count = int(self._counts[device])
        if count == 0:
            raise RuntimeError(
                f"cannot read a window from device {device}'s empty ring"
            )
        capacity = int(self._capacities[self._config_ids[device]])
        start = (int(self._positions[device]) - count) % capacity
        if start + count <= capacity:
            samples = self._data[device, start : start + count].copy()
            times = self._times[device, start : start + count].copy()
        else:
            split = capacity - start
            samples = np.concatenate(
                (self._data[device, start:capacity], self._data[device, : count - split])
            )
            times = np.concatenate(
                (self._times[device, start:capacity], self._times[device, : count - split])
            )
        return samples, times
