"""Independent single-device reference loop for the fleet engine.

The execution core (:mod:`repro.exec`) gets its throughput from stacked
acquisition, a fleet-wide sample ring, per-configuration chunk
histories and a vectorized controller bank.  This module spells the
same closed loop the plain way — one device, one
:class:`~repro.sensors.buffer.SampleBuffer`, one controller object —
and imports nothing from :mod:`repro.exec`, so it is an *independent*
oracle: ``FleetSimulator.run_sequential``, ``repro fleet --engine
sequential`` and the differential tests check the engine against it,
bit for bit in float64.

Per classification tick, for one device:

1. **Sense** — :meth:`~repro.sensors.imu.SimulatedAccelerometer.read_window`
   one step of samples under the controller's active configuration.
   The device's stream is consumed in the engine's order: signal
   realisation, then sensor bias, then the per-tick noise draws — from
   the stream itself (``noise="per_device"``) or from a one-device
   :class:`~repro.sensors.noise_bank.NoiseBank` keyed by it
   (``noise="batched"``).
2. **Buffer** — push the window into the sample buffer, which flushes
   on a configuration change, and feed the controller's optional
   ``observe_window`` hook.
3. **Extract** — ``features="exact"`` reduces the buffered window from
   scratch; ``features="incremental"`` keeps this device's own deque
   of per-second chunk partials and combines them once a full,
   chunk-aligned window has been buffered under one configuration
   (warm-up and misaligned geometries fall back to the exact path).
4. **Classify** — one-row
   :meth:`~repro.core.pipeline.HarPipeline.classify_batch_labels`.
5. **Adapt & record** — append a :class:`~repro.sim.trace.StepRecord`
   and call ``controller.update``.

``dtype="float32"`` extracts features in the single-precision lane
from float64 samples.  The engine's float32 lane synthesises signals
in float32 as well, so in that lane this loop is a tolerance
reference, not a bit-exact one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.core.activities import Activity
from repro.core.config import SensorConfig
from repro.core.features import (
    WINDOW_DURATION_S,
    ChunkPartials,
    IncrementalFeatureExtractor,
    WindowGeometry,
)
from repro.core.pipeline import HarPipeline
from repro.datasets.synthetic import ScheduledSignal
from repro.energy.accelerometer import AccelerometerPowerModel
from repro.sensors.buffer import SampleBuffer
from repro.sensors.imu import (
    DEFAULT_INTERNAL_RATE_HZ,
    NoiseModel,
    SimulatedAccelerometer,
)
from repro.sensors.noise_bank import NoiseBank
from repro.sim.trace import SimulationTrace, StepRecord
from repro.utils.rng import as_rng

#: Feature modes of the reference loop.
REFERENCE_FEATURES = ("incremental", "exact")

#: Measurement-noise sources of the reference loop.
REFERENCE_NOISE = ("per_device", "batched")

#: Feature-extraction lanes of the reference loop.
REFERENCE_DTYPES = ("float64", "float32")


def _check_choice(value: str, choices, name: str) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def simulate_device(
    pipeline: HarPipeline,
    signal: ScheduledSignal,
    controller,
    power_model: AccelerometerPowerModel,
    noise_model: NoiseModel,
    rng,
    num_steps: int,
    *,
    internal_rate_hz: float = DEFAULT_INTERNAL_RATE_HZ,
    step_s: float = 1.0,
    window_duration_s: float = WINDOW_DURATION_S,
    features: str = "incremental",
    noise: str = "per_device",
    dtype: str = "float64",
) -> SimulationTrace:
    """Run one device's closed loop for ``num_steps`` ticks.

    ``rng`` is the device's master stream *after* the signal
    realisation was drawn from it; the sensor bias is drawn next, then
    the measurement noise.  The controller is reset first.
    """
    _check_choice(features, REFERENCE_FEATURES, "features")
    _check_choice(noise, REFERENCE_NOISE, "noise")
    _check_choice(dtype, REFERENCE_DTYPES, "dtype")
    if num_steps < 0:
        raise ValueError(f"num_steps must be non-negative, got {num_steps}")
    rng = as_rng(rng)
    sensor = SimulatedAccelerometer(
        signal=signal,
        noise=noise_model,
        internal_rate_hz=internal_rate_hz,
        seed=rng,
    )
    noise_bank = NoiseBank.from_rngs([rng]) if noise == "batched" else None
    lane = np.dtype(dtype)
    extractor = IncrementalFeatureExtractor(pipeline.extractor, dtype=lane)
    buffer = SampleBuffer(window_duration_s=window_duration_s)
    controller.reset()
    observe = getattr(controller, "observe_window", None)

    midpoints = step_s * np.arange(1, num_steps + 1) - 0.5 * step_s
    truths = signal.activities_at(midpoints)
    trace = SimulationTrace()
    features_row = np.empty((1, extractor.num_features))
    partials: Deque[ChunkPartials] = deque()
    previous: Optional[SensorConfig] = None

    for step_index in range(1, num_steps + 1):
        step_end = step_index * step_s
        config = controller.current_config
        if noise_bank is None:
            window = sensor.read_window(step_end, step_s, config, rng=rng)
        else:
            std = noise_model.output_noise_std(config.averaging_window)
            block = noise_bank.normal(
                np.zeros(1, dtype=np.intp),
                config.samples_in(step_s),
                np.array([std], dtype=lane),
            )
            window = sensor.read_window(step_end, step_s, config, noise=block[0])
        buffer.push(window)
        if observe is not None:
            observe(window)
        if config != previous:
            partials.clear()
            previous = config

        geometry = (
            WindowGeometry.for_window(
                config.sampling_hz, step_s, window_duration_s
            )
            if features == "incremental"
            else None
        )
        steady = False
        if geometry is not None:
            (chunk,) = extractor.chunk_partials_stacked(
                window.samples[None], geometry
            )
            partials.append(chunk)
            while len(partials) > geometry.cached_chunks:
                partials.popleft()
            steady = (
                len(partials) == geometry.cached_chunks
                and buffer.num_samples == geometry.window_samples
            )
        if steady:
            features_row[:] = extractor.combine_stacked([partials], geometry)
        else:
            features_row[:] = extractor.extractor.extract_batch(
                [(buffer.window().samples, config.sampling_hz)], dtype=lane
            )

        labels, confidences = pipeline.classify_batch_labels(features_row)
        predicted = Activity(int(labels[0]))
        confidence = float(confidences[0])
        trace.append(
            StepRecord(
                time_s=step_end,
                true_activity=truths[step_index - 1],
                predicted_activity=predicted,
                confidence=confidence,
                config_name=config.name,
                current_ua=power_model.current_ua(config),
                duration_s=step_s,
            )
        )
        controller.update(predicted, confidence)
    return trace


def simulate_profile(
    pipeline: HarPipeline, profile, num_steps: int, **knobs
) -> SimulationTrace:
    """Run one fleet device, built from its profile, for ``num_steps`` ticks.

    ``profile`` is a :class:`repro.fleet.population.DeviceProfile` (or
    anything with its ``seed``, ``schedule``, ``make_controller``,
    ``power_model`` and ``noise``); ``knobs`` are the keyword arguments
    of :func:`simulate_device`.
    """
    rng = as_rng(profile.seed)
    signal = ScheduledSignal(list(profile.schedule), seed=rng)
    return simulate_device(
        pipeline,
        signal,
        profile.make_controller(),
        profile.power_model,
        profile.noise,
        rng,
        num_steps,
        **knobs,
    )
