"""Step-by-step closed-loop simulation of the AdaSense framework (Fig. 3).

Each simulated second the loop performs exactly what the deployed system
would:

1. the accelerometer acquires one second of samples under the
   configuration chosen by the adaptive controller for this episode;
2. the samples are pushed into the two-second classification buffer
   (which flushes itself if the configuration just changed);
3. the buffered batch goes through feature extraction and the shared
   classifier;
4. the controller consumes the classification (activity + confidence)
   and decides the configuration for the next episode;
5. the energy model charges the episode with the current draw of the
   configuration that was active while the data was acquired.

The per-tick protocol itself lives in the shared execution core
(:class:`repro.exec.engine.StepEngine`) — this class is the
single-device facade over it, so the closed loop and the fleet engine
can never drift apart.  The result is a
:class:`repro.sim.trace.SimulationTrace` with one record per second,
from which the behavioural plot of Fig. 5 and the aggregate
power/accuracy numbers of Fig. 6 and Fig. 7 are derived.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.core.activities import Activity
from repro.core.controller import AdaptiveController
from repro.core.features import WINDOW_DURATION_S
from repro.core.pipeline import HarPipeline
from repro.datasets.scenarios import Schedule
from repro.datasets.synthetic import ScheduledSignal, SyntheticSignalGenerator
from repro.energy.accelerometer import AccelerometerPowerModel
from repro.exec.engine import StepEngine
from repro.sensors.imu import DEFAULT_INTERNAL_RATE_HZ, NoiseModel
from repro.sim.trace import SimulationTrace
from repro.utils.rng import SeedLike, as_rng

#: Anything the simulator accepts as "the user's behaviour".
ScheduleLike = Union[Schedule, Sequence[Tuple[Activity, float]], ScheduledSignal]


class ClosedLoopSimulator:
    """Runs the sense → classify → adapt loop over an activity schedule.

    Parameters
    ----------
    pipeline:
        The trained HAR pipeline shared by every sensor configuration.
    controller:
        The adaptive controller deciding the per-episode configuration.
        The simulator calls :meth:`reset` at the start of every run.
    power_model:
        Accelerometer current model used for the per-step energy
        accounting.
    noise:
        Sensor noise model used for the simulated acquisitions.
    internal_rate_hz:
        Internal conversion rate of the simulated accelerometer.
    step_s:
        Classification period; the paper classifies once per second.
    window_duration_s:
        Length of the classification buffer (two seconds in the paper).
    features:
        Feature-extraction mode of the underlying
        :class:`repro.exec.engine.StepEngine` — ``"incremental"``
        (default, chunk-cached) or ``"exact"`` (full-window).
    acquisition:
        Measurement-noise source of the engine — ``"per_device"``
        (default, bit-exact v1.3.0 measurement-noise streams) or
        ``"batched"`` (pooled counter-based streams; statistically
        equivalent noise, bit-identical across engines within the
        mode).  Named ``acquisition`` here because this facade already
        uses ``noise`` for the sensor's :class:`NoiseModel`.
    dtype:
        Compute-lane precision of the engine — ``"float64"`` (default,
        bit-exact with every prior release) or ``"float32"``
        (single-precision lane; see
        :class:`repro.exec.engine.StepEngine`).
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry` the engine
        records runtime telemetry into; ``None`` (default) runs
        unmetered at zero overhead.  Recording is observation only —
        traces stay bit-identical either way.
    """

    def __init__(
        self,
        pipeline: HarPipeline,
        controller: AdaptiveController,
        power_model: Optional[AccelerometerPowerModel] = None,
        noise: Optional[NoiseModel] = None,
        internal_rate_hz: float = DEFAULT_INTERNAL_RATE_HZ,
        step_s: float = 1.0,
        window_duration_s: float = WINDOW_DURATION_S,
        features: str = "incremental",
        acquisition: str = "per_device",
        dtype: str = "float64",
        metrics=None,
    ) -> None:
        self._engine = StepEngine(
            pipeline=pipeline,
            internal_rate_hz=internal_rate_hz,
            step_s=step_s,
            window_duration_s=window_duration_s,
            features=features,
            noise=acquisition,
            dtype=dtype,
            metrics=metrics,
        )
        self._controller = controller
        self._power_model = (
            power_model if power_model is not None else AccelerometerPowerModel.bmi160()
        )
        self._noise = noise if noise is not None else NoiseModel()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pipeline(self) -> HarPipeline:
        """The HAR pipeline used for every classification."""
        return self._engine.pipeline

    @property
    def controller(self) -> AdaptiveController:
        """The adaptive controller driving the sensor configuration."""
        return self._controller

    @property
    def power_model(self) -> AccelerometerPowerModel:
        """The accelerometer current model."""
        return self._power_model

    @property
    def engine(self) -> StepEngine:
        """The shared execution core this simulator drives."""
        return self._engine

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(
        self,
        schedule: ScheduleLike,
        seed: SeedLike = None,
        generator: Optional[SyntheticSignalGenerator] = None,
    ) -> SimulationTrace:
        """Simulate the closed loop over an activity schedule.

        Parameters
        ----------
        schedule:
            Either a list of ``(activity, duration_s)`` pairs or an
            already-realised :class:`ScheduledSignal`.
        seed:
            Seed controlling both the signal realisation (when a raw
            schedule is given) and the sensor noise.
        generator:
            Optional signal generator to realise a raw schedule with.

        Returns
        -------
        SimulationTrace
            One record per classification step.
        """
        rng = as_rng(seed)
        if isinstance(schedule, ScheduledSignal):
            signal = schedule
        else:
            signal = ScheduledSignal(list(schedule), generator=generator, seed=rng)

        runtime = self._engine.make_runtime(
            signal=signal,
            controller=self._controller,
            power_model=self._power_model,
            noise=self._noise,
            rng=rng,
        )
        num_steps = int(round(signal.duration_s / self._engine.step_s))
        traces = self._engine.run([runtime], num_steps)
        return traces[0]

    def run_many(
        self,
        schedules: Sequence[ScheduleLike],
        seed: SeedLike = None,
    ) -> list[SimulationTrace]:
        """Simulate several schedules, deriving one child seed per run."""
        rng = as_rng(seed)
        traces = []
        for schedule in schedules:
            traces.append(self.run(schedule, seed=rng))
        return traces
