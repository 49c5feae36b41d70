"""Behavioural simulator of a BMI160-class 3-axis accelerometer.

The simulator reproduces the aspects of the real part that matter to
AdaSense's accuracy/power trade-off:

* **Output data rate.** The sensor reports one 3-axis sample every
  ``1 / sampling_hz`` seconds.
* **Averaging window.** Each output sample is the mean of
  ``averaging_window`` internal sub-samples acquired at the internal
  conversion rate immediately before the sample instant.  Longer windows
  low-pass the signal (attenuating gait harmonics slightly) and reduce
  noise; shorter windows are noisier but cheaper in low-power mode.
* **Noise.** Per-sub-sample white noise with standard deviation
  ``base_noise_std_ms2`` which, after averaging, shrinks as
  ``1 / sqrt(averaging_window)``.
* **Quantisation and clipping.** Output values are clipped to the
  configured full-scale range and quantised to the ADC resolution.

The *signal* being measured is any object exposing
``evaluate_windowed(times_s, window_s) -> (n, 3)`` — in practice a
:class:`repro.datasets.synthetic.ScheduledSignal` or a single
:class:`repro.datasets.synthetic.ActivityRealization`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.config import SensorConfig
from repro.utils.constants import GRAVITY_MS2
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_non_negative, check_positive

#: Default internal conversion rate of the simulated IMU, in hertz.  One
#: internal sub-sample takes ``1 / INTERNAL_RATE_HZ`` seconds, so an
#: averaging window of ``W`` sub-samples spans ``W / INTERNAL_RATE_HZ``
#: seconds of signal.
DEFAULT_INTERNAL_RATE_HZ: float = 1600.0


def _sample_times(
    end_time_s: float, duration_s: float, config: "SensorConfig"
) -> np.ndarray:
    """Validated output-sample time grid shared by both acquisition paths.

    Single source of truth for the window's sample instants, so the
    scalar :meth:`SimulatedAccelerometer.read_window` and the stacked
    :func:`read_windows_stacked` cannot drift apart.
    """
    check_positive(duration_s, "duration_s")
    if end_time_s - duration_s < -1e-9:
        raise ValueError(
            "window starts before time zero: "
            f"end_time_s={end_time_s}, duration_s={duration_s}"
        )
    num_samples = config.samples_in(duration_s)
    period = 1.0 / config.sampling_hz
    start = end_time_s - duration_s
    times = start + period * np.arange(1, num_samples + 1)
    return np.clip(times, 0.0, None)


def _digitise(noisy, bias, full_scale, lsb):
    """Bias, clip and quantise noisy samples — the sensor's output stage.

    Shared by both acquisition paths (all operations are elementwise,
    so scalar and stacked invocations are bit-identical); the argument
    order *is* the contract: bias is added after the noise, then the
    result is clipped to the full-scale range and quantised to the ADC
    step.
    """
    biased = noisy + bias
    clipped = np.clip(biased, -full_scale, full_scale)
    return np.round(clipped / lsb) * lsb


def _digitise_inplace(noisy, bias, full_scale, lsb):
    """:func:`_digitise` overwriting its input — same value sequence
    (add bias, clip, divide, round, multiply), zero temporaries.  The
    stacked acquisition path owns its noisy stack outright, so the
    output stage may recycle it."""
    np.add(noisy, bias, out=noisy)
    np.clip(noisy, -full_scale, full_scale, out=noisy)
    np.divide(noisy, lsb, out=noisy)
    np.round(noisy, out=noisy)
    np.multiply(noisy, lsb, out=noisy)
    return noisy


class ContinuousSignal(Protocol):
    """Protocol for signals the simulated accelerometer can sample."""

    def evaluate_windowed(self, times_s: np.ndarray, window_s: float) -> np.ndarray:
        """Average of the signal over ``[t - window_s, t]`` for each time."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class NoiseModel:
    """Noise, bias and quantisation behaviour of the simulated accelerometer.

    Parameters
    ----------
    base_noise_std_ms2:
        Standard deviation of the white noise on one *internal*
        sub-sample, in m/s^2.  After averaging ``W`` sub-samples the
        output-sample noise is ``base_noise_std_ms2 / sqrt(W)``.
    bias_std_ms2:
        Standard deviation of the static per-axis offset drawn once per
        sensor instance (models imperfect calibration).
    full_scale_g:
        Symmetric full-scale range in multiples of g (the BMI160 default
        range of +/-2 g is used by the paper's setup).
    resolution_bits:
        ADC resolution; output samples are quantised to
        ``2 * full_scale / 2**resolution_bits`` steps.
    """

    base_noise_std_ms2: float = 1.4
    bias_std_ms2: float = 0.05
    full_scale_g: float = 2.0
    resolution_bits: int = 16
    #: Per-instance cache of output-sample noise per averaging window.
    #: A fleet device's model is queried once per simulated second with
    #: one of a handful of Table I averaging windows, so this stays tiny
    #: (unlike a module-level cache, which the per-device continuous
    #: noise-scale draws would thrash).  Derived state: excluded from
    #: equality and repr.
    _std_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_non_negative(self.base_noise_std_ms2, "base_noise_std_ms2")
        check_non_negative(self.bias_std_ms2, "bias_std_ms2")
        check_positive(self.full_scale_g, "full_scale_g")
        if self.resolution_bits < 1 or self.resolution_bits > 32:
            raise ValueError(
                f"resolution_bits must be between 1 and 32, got {self.resolution_bits}"
            )

    @property
    def full_scale_ms2(self) -> float:
        """Full-scale range expressed in m/s^2."""
        return self.full_scale_g * GRAVITY_MS2

    @property
    def lsb_ms2(self) -> float:
        """Size of one quantisation step in m/s^2."""
        return 2.0 * self.full_scale_ms2 / (2.0**self.resolution_bits)

    def output_noise_std(self, averaging_window: int) -> float:
        """Noise standard deviation of one output sample, in m/s^2."""
        if averaging_window < 1:
            raise ValueError(
                f"averaging_window must be at least 1, got {averaging_window}"
            )
        std = self._std_cache.get(averaging_window)
        if std is None:
            std = self.base_noise_std_ms2 / float(np.sqrt(averaging_window))
            self._std_cache[averaging_window] = std
        return std


@dataclass(frozen=True)
class SensorWindow:
    """A batch of accelerometer samples returned by the simulator.

    Attributes
    ----------
    samples:
        Array of shape ``(n, 3)`` in m/s^2.
    times_s:
        Sample time stamps (end of each sample's averaging window).
    config:
        The sensor configuration the samples were acquired under.
    """

    samples: np.ndarray
    times_s: np.ndarray
    config: SensorConfig

    def __post_init__(self) -> None:
        if self.samples.ndim != 2 or self.samples.shape[1] != 3:
            raise ValueError(
                f"samples must have shape (n, 3), got {self.samples.shape}"
            )
        if self.times_s.shape != (self.samples.shape[0],):
            raise ValueError(
                "times_s must have one entry per sample, got "
                f"{self.times_s.shape} for {self.samples.shape[0]} samples"
            )

    @property
    def num_samples(self) -> int:
        """Number of samples in the window."""
        return int(self.samples.shape[0])

    @property
    def duration_s(self) -> float:
        """Time spanned by the window in seconds."""
        if self.num_samples == 0:
            return 0.0
        return float(self.times_s[-1] - self.times_s[0]) + 1.0 / self.config.sampling_hz

    @property
    def sampling_hz(self) -> float:
        """Output data rate the window was captured at."""
        return self.config.sampling_hz


class SimulatedAccelerometer:
    """Samples a continuous activity signal the way a duty-cycled IMU would.

    Parameters
    ----------
    signal:
        The continuous signal to measure (anything implementing
        ``evaluate_windowed``).
    noise:
        Noise/quantisation model; defaults to a BMI160-flavoured
        :class:`NoiseModel`.
    internal_rate_hz:
        Internal conversion rate determining how much wall-clock time an
        averaging window of ``W`` sub-samples spans.
    seed:
        Seed for the measurement noise stream.
    """

    def __init__(
        self,
        signal: ContinuousSignal,
        noise: Optional[NoiseModel] = None,
        internal_rate_hz: float = DEFAULT_INTERNAL_RATE_HZ,
        seed: SeedLike = None,
    ) -> None:
        check_positive(internal_rate_hz, "internal_rate_hz")
        self._signal = signal
        self._noise = noise if noise is not None else NoiseModel()
        self._internal_rate_hz = float(internal_rate_hz)
        self._rng = as_rng(seed)
        self._bias = self._rng.normal(0.0, self._noise.bias_std_ms2, size=3)

    @property
    def signal(self) -> ContinuousSignal:
        """The signal this sensor is attached to."""
        return self._signal

    @property
    def noise_model(self) -> NoiseModel:
        """The sensor's noise/quantisation model."""
        return self._noise

    @property
    def internal_rate_hz(self) -> float:
        """Internal conversion rate in hertz."""
        return self._internal_rate_hz

    @property
    def bias_ms2(self) -> np.ndarray:
        """The static per-axis bias drawn for this sensor instance."""
        return self._bias.copy()

    def averaging_window_duration(self, config: SensorConfig) -> float:
        """Wall-clock span of the averaging window for ``config``, in seconds.

        The window cannot exceed the output sample period: a configuration
        asking for more sub-samples than fit between two output samples
        simply averages over the full sample period (this is how the
        normal-mode, always-on configurations behave).
        """
        window = config.averaging_window / self._internal_rate_hz
        return float(min(window, 1.0 / config.sampling_hz))

    def read_window(
        self,
        end_time_s: float,
        duration_s: float,
        config: SensorConfig,
        rng: SeedLike = None,
        noise: Optional[np.ndarray] = None,
    ) -> SensorWindow:
        """Acquire ``duration_s`` seconds of samples ending at ``end_time_s``.

        Parameters
        ----------
        end_time_s:
            Time stamp of the last sample in the window.
        duration_s:
            Length of the acquisition in seconds.
        config:
            Sampling frequency / averaging window to acquire under.
        rng:
            Optional explicit generator for the noise draw (defaults to
            the sensor's own stream).
        noise:
            Optional precomputed ``(samples, 3)`` measurement-noise
            block (already scaled to the output-sample standard
            deviation).  The execution engine's ``noise="batched"``
            mode passes the device's
            :class:`repro.sensors.noise_bank.NoiseBank` draw here so a
            scalar acquisition consumes exactly the same stream values
            as a stacked one.

        Returns
        -------
        SensorWindow
            The acquired batch, ``round(duration_s * sampling_hz)``
            samples long.
        """
        times = _sample_times(end_time_s, duration_s, config)

        window_span = self.averaging_window_duration(config)
        clean = self._signal.evaluate_windowed(times, window_span)

        if noise is None:
            generator = self._rng if rng is None else as_rng(rng)
            noise_std = self._noise.output_noise_std(config.averaging_window)
            noise = generator.normal(0.0, noise_std, size=clean.shape)
        elif noise.shape != clean.shape:
            raise ValueError(
                f"noise must have shape {clean.shape}, got {noise.shape}"
            )
        quantised = _digitise(
            clean + noise,
            self._bias[None, :],
            self._noise.full_scale_ms2,
            self._noise.lsb_ms2,
        )
        return SensorWindow(samples=quantised, times_s=times, config=config)

    def read_second(
        self, end_time_s: float, config: SensorConfig, rng: SeedLike = None
    ) -> SensorWindow:
        """Convenience wrapper acquiring exactly one second of samples."""
        return self.read_window(end_time_s, 1.0, config, rng=rng)


class SensorStatics:
    """Per-device output-stage constants of a fleet, as stacked arrays.

    A sensor's bias, full-scale range, quantisation step and base noise
    level never change during a run.  Built once per run, this cache
    turns the output stage of a whole configuration group into pure
    array slicing instead of one Python attribute walk per device per
    tick; per-window noise standard deviations (``base /
    sqrt(averaging_window)``) are interned per averaging window on
    first use.

    Parameters
    ----------
    sensors:
        Every device's simulated accelerometer, in fleet order.
    """

    def __init__(self, sensors: Sequence["SimulatedAccelerometer"]) -> None:
        self.biases = np.array([sensor._bias for sensor in sensors])
        self.full_scales = np.array(
            [sensor._noise.full_scale_ms2 for sensor in sensors]
        )
        self.lsbs = np.array([sensor._noise.lsb_ms2 for sensor in sensors])
        self._base_stds = np.array(
            [sensor._noise.base_noise_std_ms2 for sensor in sensors]
        )
        self._std_cache: Dict[int, np.ndarray] = {}
        rates = np.array([sensor._internal_rate_hz for sensor in sensors])
        #: The fleet's shared internal conversion rate, or ``None`` for
        #: heterogeneous hardware.  A uniform rate means every sensor
        #: shares one averaging-window span per configuration, which is
        #: what lets a configuration group be read as one stack.
        self.uniform_internal_rate_hz: Optional[float] = (
            float(rates[0]) if rates.size and (rates == rates[0]).all() else None
        )

    def averaging_window_duration(self, config: SensorConfig) -> float:
        """The fleet's shared averaging-window span for ``config``.

        Equal to every sensor's
        :meth:`SimulatedAccelerometer.averaging_window_duration`; a
        fleet mixing internal rates has no shared span and is rejected.
        """
        rate = self.uniform_internal_rate_hz
        if rate is None:
            raise ValueError(
                "stacked acquisition needs sensors sharing one internal "
                "conversion rate; read mixed-rate sensors individually "
                "with SimulatedAccelerometer.read_window"
            )
        window = config.averaging_window / rate
        return float(min(window, 1.0 / config.sampling_hz))

    def noise_stds(self, averaging_window: int) -> np.ndarray:
        """Output-sample noise standard deviation per device.

        Elementwise identical to querying every device's
        :meth:`NoiseModel.output_noise_std`.
        """
        stds = self._std_cache.get(averaging_window)
        if stds is None:
            if averaging_window < 1:
                raise ValueError(
                    f"averaging_window must be at least 1, got {averaging_window}"
                )
            stds = self._base_stds / float(np.sqrt(averaging_window))
            self._std_cache[averaging_window] = stds
        return stds


def read_windows_stacked(
    sensors: Sequence["SimulatedAccelerometer"],
    end_time_s: float,
    duration_s: float,
    config: SensorConfig,
    rngs: Sequence[np.random.Generator],
) -> List[SensorWindow]:
    """Acquire the same window interval from many sensors in one pass.

    All sensors share the configuration and the time grid, so the
    sample times are computed once, every device's clean signal comes
    from one stacked trigonometric pass and bias, clipping and
    quantisation apply to the whole ``(devices, samples, 3)`` stack at
    once.  Per-device noise is still drawn from each device's own
    generator with exactly the call
    :meth:`SimulatedAccelerometer.read_window` makes, so the returned
    windows are bit-for-bit identical to reading each sensor
    individually — the property the engine equivalence tests pin
    down.

    This one-shot spelling builds throwaway :class:`SensorStatics` and
    signal tables per call; the execution engine holds both across
    ticks and calls :func:`read_windows_stacked_raw` directly.

    Parameters
    ----------
    sensors:
        The simulated accelerometers to read, one per device; they must
        share one internal conversion rate.
    end_time_s, duration_s, config:
        As in :meth:`SimulatedAccelerometer.read_window`.
    rngs:
        One noise generator per sensor (parallel to ``sensors``).
    """
    from repro.datasets.synthetic import StackedEvaluationCache

    if len(sensors) != len(rngs):
        raise ValueError(
            f"sensors and rngs must be parallel, got {len(sensors)} sensors "
            f"and {len(rngs)} generators"
        )
    quantised, times = read_windows_stacked_raw(
        [sensor._signal for sensor in sensors],
        end_time_s=end_time_s,
        duration_s=duration_s,
        config=config,
        rows=np.arange(len(sensors)),
        statics=SensorStatics(sensors),
        tables=StackedEvaluationCache(len(sensors)),
        rngs=rngs,
    )
    return [
        SensorWindow(samples=quantised[index], times_s=times, config=config)
        for index in range(len(sensors))
    ]


def read_windows_stacked_raw(
    signals: Sequence,
    end_time_s: float,
    duration_s: float,
    config: SensorConfig,
    *,
    rows: np.ndarray,
    statics: SensorStatics,
    tables,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    noise_bank=None,
    table_rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Acquire one configuration group as a ``(devices, samples, 3)`` stack.

    The execution engine's acquisition layer: returns the quantised
    samples plus the shared time grid, without wrapping each device's
    rows in a :class:`SensorWindow` (buffers hold row views, feature
    extraction and intensity switching slice the stack).  The clean
    signals come from the persistent signal tables ``tables`` (a
    :class:`repro.datasets.synthetic.StackedEvaluationCache`), the
    output stage from the :class:`SensorStatics` arrays, both indexed
    by ``rows`` — the group's device indices.

    The two noise modes differ only in where the ``(devices, samples,
    3)`` noise block comes from:

    * ``rngs`` — one private generator per group member, drawn in
      device order exactly as :meth:`SimulatedAccelerometer.read_window`
      would (the ``noise="per_device"`` reference mode);
    * ``noise_bank`` — one pooled
      :class:`repro.sensors.noise_bank.NoiseBank` draw for the whole
      group, keyed by ``rows`` (the ``noise="batched"`` mode).

    ``table_rows`` optionally splits the signal-table keying from the
    device keying: fused multi-variant campaigns run several *virtual*
    devices per physical device, each with its own noise stream but one
    shared clean signal — passing the physical row per group member
    here lets the cache keep one row per physical device and serve
    duplicated members by gathering.  Defaults to ``rows``.
    """
    rows = np.asarray(rows)
    num_devices = rows.shape[0]
    if len(signals) != num_devices:
        raise ValueError(
            f"signals and rows must be parallel, got {len(signals)} signals "
            f"and {num_devices} rows"
        )
    if (rngs is None) == (noise_bank is None):
        raise ValueError("pass exactly one noise source: rngs or noise_bank")
    if rngs is not None and len(rngs) != num_devices:
        raise ValueError(
            f"rngs must be parallel to rows, got {len(rngs)} generators "
            f"for {num_devices} rows"
        )
    times = _sample_times(end_time_s, duration_s, config)
    num_samples = times.shape[0]
    clean = tables.evaluate_signals(
        signals,
        rows if table_rows is None else np.asarray(table_rows),
        times,
        statics.averaging_window_duration(config),
    )
    lane = clean.dtype
    stds = statics.noise_stds(config.averaging_window)[rows]
    if noise_bank is not None:
        noise = noise_bank.normal(rows, num_samples, stds.astype(lane, copy=False))
    else:
        noise = np.empty_like(clean)
        for rng, std, block in zip(rngs, stds, noise):
            block[...] = rng.normal(0.0, std, size=(num_samples, 3))
    np.add(clean, noise, out=clean)
    # Casting the output-stage constants to the lane dtype keeps the
    # single-precision lane in float32 loops end to end (float64
    # operands would silently promote every ufunc pass).
    quantised = _digitise_inplace(
        clean,
        statics.biases[rows].astype(lane, copy=False)[:, None, :],
        statics.full_scales[rows].astype(lane, copy=False)[:, None, None],
        statics.lsbs[rows].astype(lane, copy=False)[:, None, None],
    )
    return quantised, times
