"""Synthetic 3-axis accelerometer signal models for the six activities.

The AdaSense authors evaluated their framework on accelerometer streams
recorded with a wrist-worn BMI160 IMU.  That dataset is not public, so
this module provides the substitute substrate: a parametric,
closed-form signal model per activity that captures the properties the
AdaSense pipeline actually exploits:

* the **orientation of gravity** in the sensor frame separates the
  postural activities (sit / stand / lie down),
* **periodic gait harmonics** with activity-specific fundamental
  frequency and per-axis amplitudes separate the locomotion activities
  (walk / upstairs / downstairs),
* slow **postural sway** gives the static activities non-zero variance.

Each activity realisation is a finite sum of a constant offset and
sinusoidal components, which has two important consequences:

1. The *windowed average* the accelerometer produces in low-power mode
   (mean over the averaging window preceding each output sample) has a
   closed form — a ``sinc`` attenuation of each sinusoid — so simulating
   large averaging windows costs the same as simulating small ones.
2. Signals are exactly reproducible from a seed, which keeps the design
   space exploration and the benchmark harness deterministic.

Sensor imperfections (noise that grows when the averaging window
shrinks, quantisation) are *not* part of the signal model; they are
applied by :class:`repro.sensors.imu.SimulatedAccelerometer`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.activities import Activity
from repro.utils.constants import GRAVITY_MS2
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_non_negative, check_positive

#: Number of accelerometer axes (x, y, z).
NUM_AXES: int = 3


@dataclass(frozen=True)
class HarmonicSpec:
    """Specification of one sinusoidal component of an activity signal.

    Parameters
    ----------
    axis:
        Index of the accelerometer axis the component acts on (0 = x,
        1 = y, 2 = z).
    amplitude:
        Peak amplitude in m/s^2 before per-realisation jitter.
    frequency_scale:
        Frequency of the component expressed as a multiple of the
        activity's fundamental frequency (e.g. 2.0 for the second gait
        harmonic).
    """

    axis: int
    amplitude: float
    frequency_scale: float

    def __post_init__(self) -> None:
        if self.axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {self.axis}")
        check_non_negative(self.amplitude, "amplitude")
        check_positive(self.frequency_scale, "frequency_scale")


@dataclass(frozen=True)
class ActivityProfile:
    """Parametric description of the accelerometer signature of one activity.

    A profile is a *distribution* over concrete signals; calling
    :meth:`realize` draws fundamental frequency, amplitudes and phases to
    produce an :class:`ActivityRealization` that can be evaluated at any
    point in time.

    Parameters
    ----------
    activity:
        The activity this profile describes.
    gravity_direction:
        Unit-norm direction of gravity in the sensor frame while the
        activity is performed.  This is the dominant cue separating the
        postural activities.
    base_frequency_hz:
        Fundamental frequency of the periodic component (step frequency
        for locomotion, sway frequency for postural activities).
    frequency_jitter:
        Relative half-width of the uniform jitter applied to the
        fundamental frequency per realisation (0.1 = +/-10 %).
    harmonics:
        Sinusoidal components expressed relative to the fundamental.
    amplitude_jitter:
        Relative half-width of the uniform per-realisation scaling of
        all harmonic amplitudes.
    orientation_jitter_deg:
        Standard deviation, in degrees, of the random tilt applied to
        the gravity direction per realisation (models loose strap /
        subject variability).
    """

    activity: Activity
    gravity_direction: Tuple[float, float, float]
    base_frequency_hz: float
    frequency_jitter: float
    harmonics: Tuple[HarmonicSpec, ...]
    amplitude_jitter: float = 0.15
    orientation_jitter_deg: float = 5.0
    #: Lazily cached stacked component table (axes, base amplitudes,
    #: frequency scales and the axis-grouped fused layout) shared by
    #: every realisation drawn from this profile; derived state,
    #: excluded from equality and repr.
    _components: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_positive(self.base_frequency_hz, "base_frequency_hz")
        check_non_negative(self.frequency_jitter, "frequency_jitter")
        check_non_negative(self.amplitude_jitter, "amplitude_jitter")
        check_non_negative(self.orientation_jitter_deg, "orientation_jitter_deg")
        direction = np.asarray(self.gravity_direction, dtype=float)
        if direction.shape != (NUM_AXES,):
            raise ValueError("gravity_direction must have exactly three components")
        if not np.isfinite(direction).all() or np.linalg.norm(direction) == 0:
            raise ValueError("gravity_direction must be a finite, non-zero vector")

    def component_table(self) -> tuple:
        """Stacked per-component arrays shared by all realisations.

        Returns ``(axes, base_amplitudes, frequency_scales, order,
        counts, fusable)``: the per-component arrays in declaration
        order, plus the stable axis-grouping permutation, per-axis
        group sizes and fused-evaluator eligibility — all of which
        depend only on the profile's harmonics, never on a
        realisation's jitter draws.  Computed once per profile; the
        returned arrays are shared, so callers must treat them as
        read-only.
        """
        table = self._components
        if table is None:
            axes = np.array([h.axis for h in self.harmonics], dtype=int)
            base_amplitudes = np.array(
                [h.amplitude for h in self.harmonics], dtype=float
            )
            frequency_scales = np.array(
                [h.frequency_scale for h in self.harmonics], dtype=float
            )
            counts = np.bincount(axes, minlength=NUM_AXES)
            fusable = bool(
                axes.size
                and not (counts == 0).any()
                and not (counts > _MAX_FUSED_AXIS_COMPONENTS).any()
            )
            order = np.argsort(axes, kind="stable")
            table = (
                axes,
                base_amplitudes,
                frequency_scales,
                order,
                tuple(int(count) for count in counts),
                fusable,
            )
            object.__setattr__(self, "_components", table)
        return table

    def realize(self, rng: SeedLike = None) -> "ActivityRealization":
        """Draw one concrete signal realisation from this profile.

        Parameters
        ----------
        rng:
            Seed or generator controlling the per-realisation draws.

        Returns
        -------
        ActivityRealization
            A closed-form, deterministic signal.
        """
        generator = as_rng(rng)
        frequency = self.base_frequency_hz * (
            1.0 + generator.uniform(-self.frequency_jitter, self.frequency_jitter)
        )
        amplitude_scale = 1.0 + generator.uniform(
            -self.amplitude_jitter, self.amplitude_jitter
        )
        gravity = _jitter_direction(
            np.asarray(self.gravity_direction, dtype=float),
            self.orientation_jitter_deg,
            generator,
        )
        offset = gravity * GRAVITY_MS2

        axes, base_amplitudes, frequency_scales, order, counts, fusable = (
            self.component_table()
        )
        amplitudes = base_amplitudes * amplitude_scale
        frequencies = frequency_scales * frequency
        phases = generator.uniform(0.0, 2.0 * np.pi, size=len(self.harmonics))
        realization = ActivityRealization(
            activity=self.activity,
            offset=offset,
            axes=axes,
            amplitudes=amplitudes,
            frequencies_hz=frequencies,
            phases=phases,
            fundamental_hz=frequency,
        )
        # The fused layout's permutation and group sizes are profile
        # state; prefill the realisation's cache so the stacked
        # evaluator never re-derives them per bout.
        layout = (
            (True, amplitudes[order], frequencies[order], phases[order], counts)
            if fusable
            else (False, None, None, None, None)
        )
        object.__setattr__(realization, "_fused_layout", layout)
        return realization


def _jitter_direction(
    direction: np.ndarray, jitter_deg: float, rng: np.random.Generator
) -> np.ndarray:
    """Apply a small random rotation to a direction vector.

    The rotation is implemented as an additive perturbation followed by
    re-normalisation, which is accurate for the few-degree jitters used
    by the default profiles.
    """
    unit = direction / np.linalg.norm(direction)
    if jitter_deg <= 0:
        return unit
    sigma = np.deg2rad(jitter_deg)
    perturbed = unit + rng.normal(0.0, sigma, size=NUM_AXES)
    norm = np.linalg.norm(perturbed)
    if norm == 0:  # pragma: no cover - essentially impossible
        return unit
    return perturbed / norm


@dataclass(frozen=True)
class ActivityRealization:
    """A concrete, closed-form accelerometer signal for one activity bout.

    The signal on axis ``a`` is::

        s_a(t) = offset[a] + sum_i [axes[i] == a] amplitudes[i]
                 * sin(2*pi*frequencies_hz[i]*t + phases[i])

    Attributes
    ----------
    activity:
        Ground-truth activity of the bout.
    offset:
        Constant acceleration offset (gravity) per axis, m/s^2.
    axes, amplitudes, frequencies_hz, phases:
        Parallel arrays describing the sinusoidal components.
    fundamental_hz:
        The realised fundamental frequency (useful for tests and
        diagnostics).
    """

    activity: Activity
    offset: np.ndarray
    axes: np.ndarray
    amplitudes: np.ndarray
    frequencies_hz: np.ndarray
    phases: np.ndarray
    fundamental_hz: float
    #: Lazily cached axis-grouped component layout for the stacked
    #: evaluator (see :class:`StackedEvaluationCache`); excluded
    #: from equality/repr because it is derived from the other fields.
    _fused_layout: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def fused_layout(self) -> tuple:
        """Axis-grouped component arrays for the stacked evaluator.

        Returns ``(fusable, amplitudes, frequencies, phases, counts)``
        where the component arrays are reordered so each axis's
        components are contiguous (original order preserved within an
        axis) and ``counts`` gives the per-axis group sizes.  Computed
        once per realisation — the layout is immutable.
        """
        layout = self._fused_layout
        if layout is None:
            counts = np.bincount(self.axes, minlength=NUM_AXES)
            if (
                self.amplitudes.size == 0
                or (counts == 0).any()
                or (counts > _MAX_FUSED_AXIS_COMPONENTS).any()
            ):
                layout = (False, None, None, None, None)
            else:
                order = np.argsort(self.axes, kind="stable")
                layout = (
                    True,
                    self.amplitudes[order],
                    self.frequencies_hz[order],
                    self.phases[order],
                    tuple(int(count) for count in counts),
                )
            object.__setattr__(self, "_fused_layout", layout)
        return layout

    def evaluate(self, times_s: np.ndarray) -> np.ndarray:
        """Instantaneous acceleration at the given times.

        Parameters
        ----------
        times_s:
            1-D array of time stamps in seconds.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(len(times_s), 3)`` in m/s^2.
        """
        return self._evaluate_impl(np.asarray(times_s, dtype=float), window_s=None)

    def evaluate_windowed(self, times_s: np.ndarray, window_s: float) -> np.ndarray:
        """Average acceleration over the window preceding each time stamp.

        This models the IMU's internal averaging filter: the value
        reported at time ``t`` is the mean of the signal over
        ``[t - window_s, t]``.  For the sinusoidal components the mean
        has the closed form ``amplitude * sinc(f * window) *
        sin(2*pi*f*(t - window/2) + phase)``.

        Parameters
        ----------
        times_s:
            1-D array of output-sample time stamps in seconds.
        window_s:
            Length of the averaging window in seconds.  A value of 0 is
            interpreted as instantaneous sampling.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(len(times_s), 3)`` in m/s^2.
        """
        check_non_negative(window_s, "window_s")
        times = np.asarray(times_s, dtype=float)
        if window_s == 0.0:
            return self._evaluate_impl(times, window_s=None)
        return self._evaluate_impl(times, window_s=float(window_s))

    def _evaluate_impl(
        self, times_s: np.ndarray, window_s: Optional[float]
    ) -> np.ndarray:
        if times_s.ndim != 1:
            raise ValueError(
                f"times_s must be a 1-D array, got shape {times_s.shape}"
            )
        output = np.tile(self.offset, (times_s.shape[0], 1))
        if self.amplitudes.size == 0:
            return output

        if window_s is None:
            effective_amplitudes = self.amplitudes
            effective_times = times_s[:, None]
        else:
            # Mean over [t - L, t] of A*sin(2*pi*f*t + phi) equals
            # A*sinc(f*L)*sin(2*pi*f*(t - L/2) + phi)   (numpy sinc convention).
            effective_amplitudes = self.amplitudes * np.sinc(
                self.frequencies_hz * window_s
            )
            effective_times = times_s[:, None] - window_s / 2.0

        angles = (
            2.0 * np.pi * self.frequencies_hz[None, :] * effective_times
            + self.phases[None, :]
        )
        contributions = effective_amplitudes[None, :] * np.sin(angles)
        for axis in range(NUM_AXES):
            mask = self.axes == axis
            if mask.any():
                output[:, axis] += contributions[:, mask].sum(axis=1)
        return output

    @property
    def peak_amplitude(self) -> float:
        """Upper bound of the dynamic part of the signal in m/s^2."""
        return float(np.abs(self.amplitudes).sum()) if self.amplitudes.size else 0.0


#: Largest per-axis component count the fused stacked evaluator handles.
#: NumPy sums fewer than eight elements along an axis with a plain
#: left-to-right loop, which the fused evaluator's slot-by-slot adds
#: reproduce bit for bit; at eight elements NumPy switches to unrolled
#: pairwise summation and the fused path falls back to per-realisation
#: evaluation.
_MAX_FUSED_AXIS_COMPONENTS: int = 7


def _resolve_dtype(dtype) -> np.dtype:
    """Normalise and validate an evaluator compute-lane dtype."""
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(f"dtype must be float64 or float32, got {dtype!r}")
    return resolved


class StackedEvaluationCache:
    """Persistent per-device component tables for the fleet sense path.

    The fleet engine evaluates the *same* realisations over a fresh
    time grid every tick, but the composition of a configuration group
    churns constantly as controllers adapt — so any cache keyed on the
    whole group rebuilds every tick.  This cache instead keeps one
    *row per device*: each device's sinusoidal components live at a
    fixed row of ``(devices, 3 * k)`` arrays, padded with
    zero-amplitude components to ``k`` slots per axis, and a row is
    rewritten only when that device crosses a bout boundary.  A tick's
    evaluation is then one gather of the group's rows, one
    trigonometric pass over ``(group, 3 * w, times)`` and one
    fixed-width axis reduction per distinct row width ``w`` — each row
    records the widest axis of its own realisation, so a static
    activity (one component per axis) never evaluates the padding
    slots a gait realisation needs.

    Results are bit-for-bit ``np.stack([r.evaluate_windowed(times, w)
    for r in realizations])`` (pinned by the equivalence tests): each
    axis's real components keep their stable order, NumPy reduces the
    ``w < 8`` slots strictly left to right, and the zero-amplitude
    slots a row of width ``w`` still carries contribute exact ``+0.0``
    terms.  Realisations the padded layout cannot host (empty, or more
    components per axis than the fused limit) fall back to
    per-realisation evaluation.
    """

    def __init__(self, num_devices: int = 0, dtype=np.float64) -> None:
        self._num_devices = num_devices
        #: Compute-lane dtype of the component tables, the trig pass and
        #: the returned sample blocks (float64 default; float32 for the
        #: single-precision lane).
        self._dtype = _resolve_dtype(dtype)
        #: Padded slots per axis; grows to the widest realisation seen.
        self._slots = 0
        self._refs: List[Optional[ActivityRealization]] = [None] * num_devices
        self._fusable = np.zeros(num_devices, dtype=bool)
        #: Per-row slot width: the row realisation's largest per-axis
        #: component count, the only slots its evaluation touches.
        self._widths = np.zeros(num_devices, dtype=np.intp)
        #: Validity interval of each cached row: the time bounds of the
        #: bout the row was built from.  A window inside the interval
        #: needs no per-device lookup at all.
        self._starts = np.full(num_devices, np.inf)
        self._ends = np.full(num_devices, -np.inf)
        self._angular: Optional[np.ndarray] = None
        self._amplitudes: Optional[np.ndarray] = None
        self._frequencies: Optional[np.ndarray] = None
        self._phases_padded: Optional[np.ndarray] = None
        self._offsets_padded: Optional[np.ndarray] = None
        #: Per-span effective amplitudes (``amp * sinc(f * span)``).
        self._effective: Dict[float, np.ndarray] = {}
        #: Reusable trig scratch, grown to the largest (group, width,
        #: times) evaluation seen; slicing it per tick keeps the hot
        #: path allocation-free.
        self._scratch = np.empty(0, dtype=self._dtype)
        #: Observability counters: rows served straight from their
        #: cached validity interval, rows re-resolved and rewritten,
        #: and rows that fell back to per-realisation evaluation.
        self.revalidations = 0
        self.rebuilds = 0
        self.fallbacks = 0
        #: Group members whose clean-signal evaluation was served from
        #: another member sharing the same row this call (fused
        #: multi-variant campaigns map every variant of one physical
        #: device to a single table row, so a configuration group that
        #: holds several variants of a device computes that device's
        #: clean signal once and gathers it).
        self.shared_hits = 0

    def __getstate__(self) -> dict:
        # The trig scratch is regrowable working memory, not state:
        # checkpoints leave it out and a restored cache regrows it on
        # its first evaluation.
        state = self.__dict__.copy()
        del state["_scratch"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._scratch = np.empty(0, dtype=self._dtype)

    def _grow(self, num_devices: int, slots: int) -> None:
        """Widen the row arrays, remapping existing rows in place.

        Growth preserves every cached row — each axis block is copied
        to its offset under the new per-axis width and the padding
        stays zero — so callers never need to re-resolve devices that
        were already cached.
        """
        old_devices, old_slots = self._num_devices, self._slots
        self._num_devices = max(num_devices, self._num_devices)
        self._slots = max(slots, self._slots)
        width = NUM_AXES * self._slots
        shape = (self._num_devices, width)
        added = self._num_devices - old_devices

        def remap(old: Optional[np.ndarray]) -> np.ndarray:
            grown = np.zeros(shape, dtype=self._dtype)
            if old is not None and old_devices and old_slots:
                for axis in range(NUM_AXES):
                    grown[
                        :old_devices,
                        axis * self._slots : axis * self._slots + old_slots,
                    ] = old[:old_devices, axis * old_slots : (axis + 1) * old_slots]
            return grown

        self._refs = self._refs + [None] * added
        self._fusable = np.concatenate([self._fusable, np.zeros(added, dtype=bool)])
        self._widths = np.concatenate(
            [self._widths, np.zeros(added, dtype=np.intp)]
        )
        self._starts = np.concatenate([self._starts, np.full(added, np.inf)])
        self._ends = np.concatenate([self._ends, np.full(added, -np.inf)])
        self._angular = remap(self._angular)
        self._amplitudes = remap(self._amplitudes)
        self._frequencies = remap(self._frequencies)
        self._phases_padded = remap(self._phases_padded)
        offsets = np.zeros((self._num_devices, NUM_AXES), dtype=self._dtype)
        if self._offsets_padded is not None and old_devices:
            offsets[:old_devices] = self._offsets_padded[:old_devices]
        self._offsets_padded = offsets
        self._effective = {
            span: remap(effective) for span, effective in self._effective.items()
        }

    def _update_row(self, row: int, realization: ActivityRealization) -> None:
        """Write one device's padded component row."""
        fusable, amplitudes, frequencies, phases, counts = (
            realization.fused_layout()
        )
        self._refs[row] = realization
        self._fusable[row] = fusable
        if not fusable:
            return
        if max(counts) > self._slots:
            self._grow(self._num_devices, max(counts))
            self._refs[row] = realization
            self._fusable[row] = True
        self._widths[row] = max(counts)
        slots = self._slots
        self._amplitudes[row] = 0.0
        self._angular[row] = 0.0
        self._frequencies[row] = 0.0
        self._phases_padded[row] = 0.0
        cursor = 0
        for axis, count in enumerate(counts):
            start = axis * slots
            self._amplitudes[row, start : start + count] = amplitudes[
                cursor : cursor + count
            ]
            self._frequencies[row, start : start + count] = frequencies[
                cursor : cursor + count
            ]
            self._phases_padded[row, start : start + count] = phases[
                cursor : cursor + count
            ]
            cursor += count
        self._angular[row] = 2.0 * np.pi * self._frequencies[row]
        self._offsets_padded[row] = realization.offset
        for span, effective in self._effective.items():
            if span == 0.0:
                effective[row] = self._amplitudes[row]
            else:
                effective[row] = self._amplitudes[row] * np.sinc(
                    self._frequencies[row] * span
                )

    def _dedupe_rows(self, rows: np.ndarray):
        """Detect duplicate rows in one group's evaluation request.

        Rows are the cache's unit of sharing: two group members with
        the same row index describe the *same* clean signal (the fleet
        engine derives rows from signal-object identity), so evaluating
        the unique rows once and gathering is bit-identical to
        evaluating every member — the per-row trig pass is elementwise
        and group-shape invariant.  Returns ``None`` for the common
        duplicate-free case (one extra ``np.unique`` over a small index
        vector), otherwise ``(unique_rows, first_positions, inverse)``.
        """
        if rows.shape[0] < 2:
            return None
        unique_rows, first_positions, inverse = np.unique(
            rows, return_index=True, return_inverse=True
        )
        if unique_rows.shape[0] == rows.shape[0]:
            return None
        self.shared_hits += int(rows.shape[0] - unique_rows.shape[0])
        return unique_rows, first_positions, inverse

    def _effective_for(self, span: float) -> np.ndarray:
        effective = self._effective.get(span)
        if effective is None:
            if span == 0.0:
                effective = self._amplitudes.copy()
            else:
                effective = self._amplitudes * np.sinc(self._frequencies * span)
            self._effective[span] = effective
        return effective

    def evaluate_signals(
        self,
        signals: Sequence,
        rows: np.ndarray,
        times_s: np.ndarray,
        window_s: float,
    ) -> np.ndarray:
        """Evaluate one device group directly from its signals.

        Instead of resolving every device's active realisation each
        tick (a Python lookup per device), the cache stores each row's
        *validity interval* — the time bounds of the bout it was built
        from — and revalidates the whole group with two array
        comparisons.  Only devices whose window left their cached bout
        touch Python: they re-resolve through
        :meth:`repro.datasets.synthetic.ScheduledSignal.spanning_segment`
        and rewrite their row.  Windows straddling a bout boundary, and
        signals without segment support, are evaluated individually for
        that tick.

        Parameters
        ----------
        signals:
            The continuous signal of every device in the group.
        rows:
            Stable per-device row indices parallel to ``signals``.
        times_s:
            1-D array of output-sample time stamps shared by the group.
        window_s:
            Averaging-window span in seconds (0 samples instantaneously).

        Returns
        -------
        numpy.ndarray
            Array of shape ``(len(signals), len(times_s), 3)``, equal
            bit for bit to each signal's ``evaluate_windowed(times_s,
            window_s)``.
        """
        check_non_negative(window_s, "window_s")
        window = float(window_s)
        times = np.asarray(times_s, dtype=float)
        if times.ndim != 1:
            raise ValueError(
                f"times_s must be a 1-D array, got shape {times.shape}"
            )
        rows = np.asarray(rows)
        if rows.shape[0] != len(signals):
            raise ValueError(
                f"rows must be parallel to signals, got {rows.shape[0]} rows "
                f"for {len(signals)} signals"
            )
        shared = self._dedupe_rows(rows)
        if shared is not None:
            unique_rows, first_positions, inverse = shared
            evaluated = self.evaluate_signals(
                [signals[position] for position in first_positions],
                unique_rows,
                times,
                window,
            )
            return evaluated[inverse]
        output = np.empty(
            (rows.shape[0], times.shape[0], NUM_AXES), dtype=self._dtype
        )
        if not rows.size:
            return output
        if not times.size:
            # An empty grid yields an empty result per device, touching
            # no cached state.
            for position, signal in enumerate(signals):
                output[position] = signal.evaluate_windowed(times, window)
            return output
        if int(rows.max()) >= self._num_devices:
            self._grow(int(rows.max()) + 1, max(self._slots, 1))
        first_time = float(times[0])
        last_time = float(times[-1])
        valid = (self._starts[rows] <= first_time) & (
            last_time < self._ends[rows]
        )
        invalid_positions = np.flatnonzero(~valid)
        self.revalidations += int(rows.shape[0] - invalid_positions.shape[0])
        for position in invalid_positions:
            signal = signals[position]
            spanning = getattr(signal, "spanning_segment", None)
            segment = spanning(times) if spanning is not None else None
            if segment is None:
                output[position] = signal.evaluate_windowed(times, window)
                self.fallbacks += 1
                continue
            row = int(rows[position])
            if self._refs[row] is not segment.realization:
                self._update_row(row, segment.realization)
                self.rebuilds += 1
            self._starts[row] = segment.start_s
            duration = getattr(signal, "duration_s", None)
            # The schedule's last bout is clamped (it covers any later
            # time), so its row never expires.
            self._ends[row] = (
                np.inf
                if duration is not None and segment.end_s >= duration
                else segment.end_s
            )
            valid[position] = True
        for position in np.flatnonzero(valid & ~self._fusable[rows]):
            output[position] = self._refs[int(rows[position])].evaluate_windowed(
                times, window
            )
        fused_positions = np.flatnonzero(valid & self._fusable[rows])
        if fused_positions.size:
            self._evaluate_fused(
                output, fused_positions, rows[fused_positions], times, window
            )
        return output

    def _evaluate_fused(
        self,
        output: np.ndarray,
        positions: np.ndarray,
        fused_rows: np.ndarray,
        times: np.ndarray,
        window: float,
    ) -> None:
        """Fill ``output[positions]`` from the padded component rows.

        Rows are evaluated in one pass per distinct row width, each
        over only its first ``width`` slots per axis: a row's slots
        beyond its own width hold zero-amplitude padding whose exact
        ``+0.0`` terms leave the sums unchanged.
        """
        shifted = times if window == 0.0 else times - window / 2.0
        shifted = shifted.astype(self._dtype, copy=False)
        effective = self._effective_for(window)
        widths = self._widths[fused_rows]
        per_axis = (-1, NUM_AXES, self._slots)
        for width in np.unique(widths).tolist():
            select = widths == width
            group_rows = fused_rows[select]
            angular = self._angular.reshape(per_axis)[group_rows, :, :width]
            phases = self._phases_padded.reshape(per_axis)[group_rows, :, :width]
            amplitudes = effective.reshape(per_axis)[group_rows, :, :width]
            # One persistent scratch block holds the (group, 3, width,
            # times) trig intermediate; every ufunc writes in place, so
            # the evaluation allocates nothing proportional to the group.
            shape = (group_rows.shape[0], NUM_AXES, width, times.shape[0])
            needed = int(np.prod(shape))
            if self._scratch.size < needed:
                self._scratch = np.empty(needed, dtype=self._dtype)
            work = self._scratch[:needed].reshape(shape)
            np.multiply(angular[..., None], shifted, out=work)
            np.add(work, phases[..., None], out=work)
            np.sin(work, out=work)
            np.multiply(amplitudes[..., None], work, out=work)
            # width < 8 slots per axis reduce strictly left to right,
            # the order of the per-realisation sum.
            sums = work.sum(axis=2)
            np.add(self._offsets_padded[group_rows][:, :, None], sums, out=sums)
            output[positions[select]] = sums.transpose(0, 2, 1)


def _profile(
    activity: Activity,
    gravity: Tuple[float, float, float],
    base_hz: float,
    harmonics: Sequence[Tuple[int, float, float]],
    frequency_jitter: float = 0.08,
    amplitude_jitter: float = 0.15,
    orientation_jitter_deg: float = 5.0,
) -> ActivityProfile:
    """Shorthand constructor used to build the default profile set."""
    specs = tuple(
        HarmonicSpec(axis=axis, amplitude=amp, frequency_scale=scale)
        for axis, amp, scale in harmonics
    )
    return ActivityProfile(
        activity=activity,
        gravity_direction=gravity,
        base_frequency_hz=base_hz,
        frequency_jitter=frequency_jitter,
        harmonics=specs,
        amplitude_jitter=amplitude_jitter,
        orientation_jitter_deg=orientation_jitter_deg,
    )


def default_activity_profiles() -> Dict[Activity, ActivityProfile]:
    """Return the default signal profiles for the six activities.

    The profile objects are immutable and identical on every call, so
    they are built once and shared (every fleet device constructs a
    signal generator; rebuilding ~20 validated dataclasses per device
    was a measurable slice of fleet start-up).  The returned dict is a
    fresh copy, so callers may add or replace entries freely.

    The numbers are not fitted to a particular dataset; they encode the
    qualitative structure reported across the wearable HAR literature:

    * postural activities differ in gravity orientation and have only
      sub-hertz, sub-0.3 m/s^2 sway;
    * walking has a step frequency near 1.9 Hz with strong vertical and
      forward harmonics;
    * stair ascent is slower (~1.4 Hz) with a larger forward component;
    * stair descent is faster (~2.3 Hz) with pronounced impact
      harmonics.
    """
    return dict(_default_activity_profiles())


@lru_cache(maxsize=1)
def _default_activity_profiles() -> "Tuple[Tuple[Activity, ActivityProfile], ...]":
    profiles = {
        Activity.SIT: _profile(
            Activity.SIT,
            gravity=(0.42, 0.12, 0.90),
            base_hz=0.25,
            harmonics=[
                (0, 0.10, 1.0),
                (1, 0.06, 1.3),
                (2, 0.08, 0.7),
            ],
            frequency_jitter=0.3,
            orientation_jitter_deg=6.0,
        ),
        Activity.STAND: _profile(
            Activity.STAND,
            gravity=(0.04, 0.03, 1.00),
            base_hz=0.45,
            harmonics=[
                (0, 0.16, 1.0),
                (1, 0.12, 0.8),
                (2, 0.10, 1.4),
            ],
            frequency_jitter=0.3,
            orientation_jitter_deg=5.0,
        ),
        Activity.LIE: _profile(
            Activity.LIE,
            gravity=(0.95, 0.25, 0.15),
            base_hz=0.18,
            harmonics=[
                (0, 0.04, 1.0),
                (1, 0.05, 0.6),
                (2, 0.04, 1.2),
            ],
            frequency_jitter=0.4,
            orientation_jitter_deg=8.0,
        ),
        Activity.WALK: _profile(
            Activity.WALK,
            gravity=(0.08, 0.05, 0.99),
            base_hz=1.85,
            harmonics=[
                (2, 2.4, 1.0),
                (2, 1.0, 2.0),
                (2, 0.4, 3.0),
                (0, 1.3, 1.0),
                (0, 0.5, 2.0),
                (1, 0.7, 0.5),
                (1, 0.35, 1.0),
            ],
            frequency_jitter=0.12,
            amplitude_jitter=0.35,
        ),
        Activity.UPSTAIRS: _profile(
            Activity.UPSTAIRS,
            gravity=(0.26, 0.06, 0.96),
            base_hz=1.6,
            harmonics=[
                (2, 1.7, 1.0),
                (2, 0.7, 2.0),
                (2, 0.3, 3.0),
                (0, 1.6, 1.0),
                (0, 0.7, 2.0),
                (1, 0.6, 0.5),
                (1, 0.3, 1.0),
            ],
            frequency_jitter=0.12,
            amplitude_jitter=0.35,
        ),
        Activity.DOWNSTAIRS: _profile(
            Activity.DOWNSTAIRS,
            gravity=(0.12, 0.04, 0.99),
            base_hz=2.2,
            harmonics=[
                (2, 3.0, 1.0),
                (2, 1.5, 2.0),
                (2, 0.9, 3.0),
                (0, 1.1, 1.0),
                (0, 0.5, 2.0),
                (1, 0.8, 0.5),
                (1, 0.4, 1.0),
            ],
            frequency_jitter=0.13,
            amplitude_jitter=0.3,
        ),
    }
    return tuple(profiles.items())


class SyntheticSignalGenerator:
    """Factory for activity signal realisations.

    Parameters
    ----------
    profiles:
        Mapping from :class:`Activity` to :class:`ActivityProfile`.  The
        default profiles (see :func:`default_activity_profiles`) cover
        all six activities.
    seed:
        Seed for the internal generator used when ``realize`` is called
        without an explicit generator.
    """

    def __init__(
        self,
        profiles: Optional[Dict[Activity, ActivityProfile]] = None,
        seed: SeedLike = None,
    ) -> None:
        self._profiles = dict(profiles) if profiles is not None else default_activity_profiles()
        missing = [a for a in Activity if a not in self._profiles]
        if missing:
            raise ValueError(f"profiles missing for activities: {missing}")
        self._rng = as_rng(seed)

    @property
    def profiles(self) -> Dict[Activity, ActivityProfile]:
        """The profile mapping used by this generator (a shallow copy)."""
        return dict(self._profiles)

    def realize(self, activity: Activity, rng: SeedLike = None) -> ActivityRealization:
        """Draw a realisation of ``activity``.

        Parameters
        ----------
        activity:
            Activity (or anything :meth:`Activity.from_any` accepts).
        rng:
            Optional seed or generator; defaults to the generator owned
            by this factory.
        """
        activity = Activity.from_any(activity)
        generator = self._rng if rng is None else as_rng(rng)
        return self._profiles[activity].realize(generator)


@dataclass(frozen=True)
class SignalSegment:
    """One bout of a scheduled signal: an activity over a time interval."""

    start_s: float
    end_s: float
    realization: ActivityRealization

    @property
    def activity(self) -> Activity:
        """Ground-truth activity of the segment."""
        return self.realization.activity

    @property
    def duration_s(self) -> float:
        """Length of the segment in seconds."""
        return self.end_s - self.start_s

    def contains(self, time_s: float) -> bool:
        """Whether ``time_s`` falls inside this segment (half-open)."""
        return self.start_s <= time_s < self.end_s


class ScheduledSignal:
    """A piecewise activity signal following a schedule of bouts.

    The schedule is a sequence of ``(activity, duration_s)`` pairs.  Each
    bout receives its own :class:`ActivityRealization`, so repeating an
    activity later in the schedule produces a fresh (but statistically
    identical) signal.

    Parameters
    ----------
    schedule:
        Sequence of ``(activity, duration_s)`` pairs.
    generator:
        Signal generator used to realise each bout.
    seed:
        Seed controlling all per-bout draws.
    """

    def __init__(
        self,
        schedule: Sequence[Tuple[Activity, float]],
        generator: Optional[SyntheticSignalGenerator] = None,
        seed: SeedLike = None,
    ) -> None:
        if not schedule:
            raise ValueError("schedule must contain at least one (activity, duration) pair")
        self._generator = generator if generator is not None else SyntheticSignalGenerator(seed=seed)
        rng = as_rng(seed)
        segments: List[SignalSegment] = []
        cursor = 0.0
        for activity, duration in schedule:
            duration = check_positive(duration, "duration")
            realization = self._generator.realize(Activity.from_any(activity), rng)
            segments.append(
                SignalSegment(start_s=cursor, end_s=cursor + duration, realization=realization)
            )
            cursor += duration
        self._segments = segments
        self._boundaries = np.array([segment.end_s for segment in segments])
        # Plain-float copy for bisect: the spanning test runs once per
        # device per simulated second, where a C-level bisect beats the
        # numpy searchsorted call overhead several-fold.
        self._boundary_list = [float(segment.end_s) for segment in segments]
        # Last segment the spanning lookup resolved to.  Consecutive
        # simulation ticks almost always stay inside one bout, so the
        # hint turns the common case into two float comparisons.
        self._span_hint = 0

    @property
    def segments(self) -> List[SignalSegment]:
        """The realised bouts in chronological order (copy of the list)."""
        return list(self._segments)

    @property
    def duration_s(self) -> float:
        """Total duration covered by the schedule in seconds."""
        return float(self._boundaries[-1])

    def activity_at(self, time_s: float) -> Activity:
        """Ground-truth activity at ``time_s``.

        Times at or beyond the end of the schedule return the last
        bout's activity so that simulations may run up to and including
        the final boundary.
        """
        if time_s < 0:
            raise ValueError(f"time_s must be non-negative, got {time_s}")
        index = int(np.searchsorted(self._boundaries, time_s, side="right"))
        index = min(index, len(self._segments) - 1)
        return self._segments[index].activity

    def activities_at(self, times_s: np.ndarray) -> List[Activity]:
        """Ground-truth activities at many times with one lookup.

        Vectorised spelling of :meth:`activity_at`, used by the
        execution engine to precompute a whole run's ground truth.
        """
        times = np.asarray(times_s, dtype=float)
        if times.size and times.min() < 0:
            raise ValueError("times_s must be non-negative")
        indices = np.searchsorted(self._boundaries, times, side="right")
        indices = np.minimum(indices, len(self._segments) - 1)
        return [self._segments[int(index)].activity for index in indices]

    def spanning_segment(
        self, times_s: np.ndarray
    ) -> Optional[SignalSegment]:
        """The single bout covering every time stamp, if any.

        Returns ``None`` when the (sorted) times straddle a bout
        boundary, in which case the caller must fall back to the
        segment-splitting :meth:`evaluate_windowed` path.  Callers that
        cache per-bout state (the fleet engine's signal tables) use the
        segment's time bounds to revalidate without a lookup.  Note the
        last segment is *clamped*: any window starting at or after its
        start resolves to it, even past ``end_s``.
        """
        times = np.asarray(times_s, dtype=float)
        if times.size == 0:
            return None
        last = len(self._segments) - 1
        first_time = float(times[0])
        last_time = float(times[-1])
        # Fast path: both end points still fall inside the segment the
        # previous lookup resolved to (the clamped last segment accepts
        # any time at or beyond its start).
        hinted = self._segments[self._span_hint]
        if first_time >= hinted.start_s and (
            self._span_hint == last or last_time < hinted.end_s
        ):
            return hinted
        # bisect_right on a float list performs exactly the comparisons
        # of np.searchsorted(..., side="right"); it is the scalar
        # spelling of the same lookup, minus the array-call overhead.
        first = min(bisect_right(self._boundary_list, first_time), last)
        if first != min(bisect_right(self._boundary_list, last_time), last):
            return None
        self._span_hint = first
        return self._segments[first]

    def segment_at(self, time_s: float) -> SignalSegment:
        """Return the bout covering ``time_s`` (clamped to the last bout)."""
        if time_s < 0:
            raise ValueError(f"time_s must be non-negative, got {time_s}")
        index = int(np.searchsorted(self._boundaries, time_s, side="right"))
        index = min(index, len(self._segments) - 1)
        return self._segments[index]

    def evaluate(self, times_s: np.ndarray) -> np.ndarray:
        """Instantaneous acceleration at the given times."""
        return self._evaluate(np.asarray(times_s, dtype=float), window_s=0.0)

    def evaluate_windowed(self, times_s: np.ndarray, window_s: float) -> np.ndarray:
        """Averaging-window-filtered acceleration at the given times."""
        check_non_negative(window_s, "window_s")
        return self._evaluate(np.asarray(times_s, dtype=float), window_s=float(window_s))

    def _evaluate(self, times_s: np.ndarray, window_s: float) -> np.ndarray:
        if times_s.ndim != 1:
            raise ValueError(f"times_s must be 1-D, got shape {times_s.shape}")
        if times_s.size and times_s.min() < 0:
            raise ValueError("times_s must be non-negative")
        output = np.empty((times_s.shape[0], NUM_AXES), dtype=float)
        indices = np.searchsorted(self._boundaries, times_s, side="right")
        indices = np.minimum(indices, len(self._segments) - 1)
        for segment_index in np.unique(indices):
            mask = indices == segment_index
            segment = self._segments[segment_index]
            if window_s > 0.0:
                output[mask] = segment.realization.evaluate_windowed(times_s[mask], window_s)
            else:
                output[mask] = segment.realization.evaluate(times_s[mask])
        return output
