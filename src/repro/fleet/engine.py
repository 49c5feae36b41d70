"""Vectorized lock-step simulation of a whole fleet of devices.

:class:`FleetSimulator` advances every device in a population through
the sense → classify → adapt loop *together*, one simulated second at a
time, by handing the whole population to the shared execution core
(:class:`repro.exec.engine.StepEngine`) — the same engine the
single-device :class:`repro.sim.runtime.ClosedLoopSimulator` drives, so
the two loops cannot drift apart.  Per tick the engine batches the
expensive middle of the loop: devices sharing a sensor configuration
are *sensed* with one stacked acquisition pass, their features are
extracted incrementally from cached per-second partials (or exactly,
with ``features="exact"``), and the entire fleet is classified with a
**single** :meth:`repro.core.pipeline.HarPipeline.classify_batch` call.

Because the batched classifier path is bit-for-bit invariant to batch
size, the stacked sensing path preserves each device's private noise
stream, and the incremental/exact feature decision depends only on
per-device state, a fleet simulation produces *exactly* the traces the
sequential per-device loop would — :meth:`FleetSimulator.run_sequential`
is that reference path, used by the equivalence tests, the sharding
tests and the throughput benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.features import WINDOW_DURATION_S
from repro.core.pipeline import HarPipeline
from repro.exec.engine import DeviceRuntime, EngineState, StepEngine
from repro.fleet.population import DeviceProfile, DevicePopulation
from repro.sensors.imu import DEFAULT_INTERNAL_RATE_HZ
from repro.sim.runtime import ClosedLoopSimulator
from repro.sim.trace import SimulationTrace, TraceSummary
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one fleet simulation.

    Attributes
    ----------
    profiles:
        The simulated device profiles, in device-id order.
    traces:
        One :class:`SimulationTrace` (``trace_mode="full"``) or
        :class:`repro.sim.trace.TraceSummary` (``trace_mode="summary"``)
        per device, parallel to ``profiles``.
    elapsed_s:
        Wall-clock time the simulation took.
    mode:
        ``"batched"``, ``"sequential"`` or ``"sharded"``.
    trace_mode:
        ``"full"`` when per-step traces were materialised,
        ``"summary"`` when only O(1)-memory running aggregates were
        kept per device.
    """

    profiles: Tuple[DeviceProfile, ...]
    traces: "Tuple[SimulationTrace | TraceSummary, ...]"
    elapsed_s: float
    mode: str
    trace_mode: str = "full"

    def __post_init__(self) -> None:
        if len(self.profiles) != len(self.traces):
            raise ValueError(
                f"profiles and traces must be parallel, got "
                f"{len(self.profiles)} profiles and {len(self.traces)} traces"
            )

    @property
    def num_devices(self) -> int:
        """Number of simulated devices."""
        return len(self.profiles)

    @property
    def device_seconds(self) -> float:
        """Total simulated device-time across the fleet, in seconds."""
        return float(sum(trace.duration_s for trace in self.traces))

    @property
    def throughput_device_seconds_per_s(self) -> float:
        """Simulated device-seconds per wall-clock second."""
        if self.elapsed_s <= 0.0:
            return float("inf")
        return self.device_seconds / self.elapsed_s


def resolve_fleet_duration(
    profiles: Sequence[DeviceProfile],
    duration_s: Optional[float],
    step_s: float,
) -> float:
    """Validate a requested fleet duration against the device schedules.

    Defaults to the shortest schedule in the population so every device
    has signal for the whole run; an explicit duration must not exceed
    that.  Either way the run must cover at least one ``step_s`` tick —
    a shorter one would simulate nothing.
    """
    shortest = min(profile.duration_s for profile in profiles)
    if duration_s is None:
        duration_s = shortest
    check_positive(duration_s, "duration_s")
    if duration_s - shortest > 1e-9:
        raise ValueError(
            f"duration_s={duration_s} exceeds the shortest device schedule "
            f"({shortest} s); regenerate the population with a longer duration"
        )
    if step_s - duration_s > 1e-9:
        raise ValueError(
            f"duration_s={duration_s} is shorter than one {step_s} s tick; "
            "nothing would be simulated"
        )
    return float(duration_s)


class FleetRuntime:
    """Reusable execution state for repeated runs over one population.

    Built once by :meth:`FleetSimulator.build_runtime` and passed to
    :meth:`FleetSimulator.run` any number of times: the per-device
    runtimes (signal realisations, sensors, generators), the engine's
    :class:`repro.exec.engine.EngineState` (controller bank, ring
    storage, noise pools, warm signal-table cache) and the cached
    spectral plans all survive across runs, so a repeated same-geometry
    run skips every construction cost and rebuilds nothing.

    :meth:`reset` rewinds all mutable state — generator positions,
    controllers, buffers, traces, feature partials — to the
    just-constructed snapshot, so every run over the runtime is
    bit-identical to a fresh simulator run in the same mode.
    """

    def __init__(self, engine: StepEngine, profiles: Tuple[DeviceProfile, ...]) -> None:
        if not profiles:
            raise ValueError("population must contain at least one device")
        self.engine = engine
        self.profiles = profiles
        self.runtimes: List[DeviceRuntime] = engine.runtimes_from_profiles(
            profiles
        )
        # Generator positions are captured after construction (signal
        # realisation and sensor-bias draws already consumed), so a
        # restore replays exactly the per-run draw sequence.  Spawned
        # seed-sequence children are NOT part of this state — the noise
        # bank keeps its own (see NoiseBank.reset).
        self._rng_states = [
            runtime.rng.bit_generator.state for runtime in self.runtimes
        ]
        self.state: EngineState = engine.make_state(self.runtimes)
        self._dirty = False

    @property
    def num_devices(self) -> int:
        """Number of devices in the reusable fleet."""
        return len(self.profiles)

    def reset(self) -> None:
        """Rewind every runtime to its just-constructed snapshot."""
        for runtime, rng_state in zip(self.runtimes, self._rng_states):
            runtime.rng.bit_generator.state = rng_state
            runtime.controller.reset()
            runtime.buffer.clear()
            runtime.trace = SimulationTrace()
            runtime.active_config = None
            runtime.partials.clear()
            runtime.chunks_in_config = 0
            runtime.previous_config = None
        self.state.reset()
        self._dirty = False

    def begin_run(self) -> None:
        """Reset if a previous run used this runtime, then mark it used."""
        if self._dirty:
            self.reset()
        self._dirty = True


class FleetSimulator:
    """Lock-step, batched simulation of a device population.

    Parameters
    ----------
    pipeline:
        The trained HAR pipeline shared by the whole fleet (the paper's
        shared-classifier property is what makes one batched inference
        call per tick possible).
    internal_rate_hz:
        Internal conversion rate of every simulated accelerometer.
    step_s:
        Classification period (one second in the paper).
    window_duration_s:
        Length of the classification buffer (two seconds in the paper).
    features:
        Feature mode of the execution core — ``"incremental"``
        (default) or ``"exact"``; see
        :class:`repro.exec.engine.StepEngine`.
    sensing:
        Acquisition mode — ``"stacked"`` (default, vectorised across
        devices sharing a configuration) or ``"per_device"``.
    controllers:
        Controller-advance mode — ``"bank"`` (default, one vectorized
        array-of-states pass per tick) or ``"per_object"``; see
        :class:`repro.exec.engine.StepEngine`.
    noise:
        Acquisition-layer mode — ``"per_device"`` (default, bit-exact
        v1.3.0 reference) or ``"batched"`` (pooled counter-based noise
        streams, ring sample storage and cached signal tables); see
        :class:`repro.exec.engine.StepEngine`.
    dtype:
        Compute-lane precision — ``"float64"`` (default, bit-exact with
        every prior release) or ``"float32"`` (single-precision signal
        synthesis, acquisition and feature extraction; features are
        converted to float64 only at the classifier boundary); see
        :class:`repro.exec.engine.StepEngine`.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry` the engine
        records runtime telemetry into (phase spans, counters, cohort
        histograms); ``None`` (default) runs unmetered at zero
        overhead.  Recording is observation only — traces stay
        bit-identical either way.
    """

    def __init__(
        self,
        pipeline: HarPipeline,
        internal_rate_hz: float = DEFAULT_INTERNAL_RATE_HZ,
        step_s: float = 1.0,
        window_duration_s: float = WINDOW_DURATION_S,
        features: str = "incremental",
        sensing: str = "stacked",
        controllers: str = "bank",
        noise: str = "per_device",
        dtype: str = "float64",
        metrics=None,
    ) -> None:
        self._engine = StepEngine(
            pipeline=pipeline,
            internal_rate_hz=internal_rate_hz,
            step_s=step_s,
            window_duration_s=window_duration_s,
            features=features,
            sensing=sensing,
            controllers=controllers,
            noise=noise,
            dtype=dtype,
            metrics=metrics,
        )

    @property
    def pipeline(self) -> HarPipeline:
        """The shared HAR pipeline."""
        return self._engine.pipeline

    @property
    def engine(self) -> StepEngine:
        """The shared execution core this simulator drives."""
        return self._engine

    @property
    def features(self) -> str:
        """The feature-extraction mode of the execution core."""
        return self._engine.features

    @property
    def metrics(self):
        """The engine's metrics recorder (null recorder when unmetered)."""
        return self._engine.metrics

    # ------------------------------------------------------------------
    # Batched simulation
    # ------------------------------------------------------------------
    def build_runtime(
        self, population: "DevicePopulation | Sequence[DeviceProfile]"
    ) -> FleetRuntime:
        """Build a reusable :class:`FleetRuntime` for ``population``.

        Pass the result to :meth:`run` (``runtime=``) to amortise device
        and engine-state construction across repeated runs of the same
        fleet; each run resets and replays the runtime bit-identically.
        """
        return FleetRuntime(self._engine, tuple(population))

    def run(
        self,
        population: "DevicePopulation | Sequence[DeviceProfile] | None" = None,
        duration_s: Optional[float] = None,
        trace: str = "full",
        runtime: Optional[FleetRuntime] = None,
    ) -> FleetResult:
        """Simulate every device in lock step with batched classification.

        Parameters
        ----------
        population:
            The devices to simulate.  Omit when passing ``runtime``.
        duration_s:
            Simulated seconds per device; defaults to the shortest
            schedule in the population so every device has signal for
            the whole run.
        trace:
            ``"full"`` (default) materialises one
            :class:`SimulationTrace` per device; ``"summary"`` keeps
            only O(1)-memory running aggregates per device
            (:class:`repro.sim.trace.TraceSummary`), dropping fleet
            memory from O(devices × steps) to O(devices) while yielding
            bit-identical telemetry reports.
        runtime:
            Optional reusable state from :meth:`build_runtime`.  The
            run resets it (when previously used) and replays it —
            bit-identical to a fresh run over the same population,
            minus every construction cost.

        Returns
        -------
        FleetResult
            Per-device traces (or summaries) bit-identical to
            :meth:`run_sequential` for the same population.
        """
        if runtime is not None:
            if runtime.engine is not self._engine:
                raise ValueError("runtime was built by a different simulator")
            if population is not None and tuple(population) != runtime.profiles:
                raise ValueError("population does not match the runtime's profiles")
            profiles = runtime.profiles
        elif population is not None:
            profiles = tuple(population)
        else:
            raise ValueError("run needs a population or a runtime")
        if not profiles:
            raise ValueError("population must contain at least one device")
        duration = resolve_fleet_duration(
            profiles, duration_s, self._engine.step_s
        )

        start = time.perf_counter()
        if runtime is not None:
            runtime.begin_run()
            runtimes = runtime.runtimes
            state = runtime.state
        else:
            runtimes = self._engine.runtimes_from_profiles(profiles)
            state = None
        num_steps = int(round(duration / self._engine.step_s))
        traces = self._engine.run(runtimes, num_steps, trace=trace, state=state)
        elapsed = time.perf_counter() - start
        return FleetResult(
            profiles=profiles,
            traces=tuple(traces),
            elapsed_s=elapsed,
            mode="batched",
            trace_mode=trace,
        )

    # ------------------------------------------------------------------
    # Sequential reference path
    # ------------------------------------------------------------------
    def run_sequential(
        self,
        population: "DevicePopulation | Sequence[DeviceProfile]",
        duration_s: Optional[float] = None,
    ) -> FleetResult:
        """Simulate each device independently with the single-device loop.

        This is the O(N × per-device-loop) reference the batched and
        sharded engines are validated against and benchmarked over.  It
        uses the same feature and noise modes as the batched path (so a
        ``noise="batched"`` simulator is compared against a
        batched-noise reference) but reads every
        sensor individually and advances every controller per object,
        so it exercises the scalar acquisition and adaptation paths.
        Devices whose schedules are longer than ``duration_s`` are
        truncated so both paths simulate the same number of steps.
        """
        profiles = tuple(population)
        if not profiles:
            raise ValueError("population must contain at least one device")
        duration = resolve_fleet_duration(
            profiles, duration_s, self._engine.step_s
        )
        num_steps = int(round(duration / self._engine.step_s))

        start = time.perf_counter()
        traces: List[SimulationTrace] = []
        for profile in profiles:
            simulator = ClosedLoopSimulator(
                pipeline=self._engine.pipeline,
                controller=profile.make_controller(),
                power_model=profile.power_model,
                noise=profile.noise,
                internal_rate_hz=self._engine.internal_rate_hz,
                step_s=self._engine.step_s,
                window_duration_s=self._engine.window_duration_s,
                features=self._engine.features,
                sensing="per_device",
                controllers="per_object",
                acquisition=self._engine.noise,
                dtype=self._engine.dtype,
                metrics=self._engine.metrics,
            )
            trace = simulator.run(list(profile.schedule), seed=profile.seed)
            trace.records = trace.records[:num_steps]
            traces.append(trace)
        elapsed = time.perf_counter() - start
        return FleetResult(
            profiles=profiles,
            traces=tuple(traces),
            elapsed_s=elapsed,
            mode="sequential",
        )


def traces_equal(left: SimulationTrace, right: SimulationTrace) -> bool:
    """Whether two traces are bit-for-bit identical, record by record."""
    if len(left) != len(right):
        return False
    for a, b in zip(left.records, right.records):
        if (
            a.time_s != b.time_s
            or a.true_activity != b.true_activity
            or a.predicted_activity != b.predicted_activity
            or a.confidence != b.confidence
            or a.config_name != b.config_name
            or a.current_ua != b.current_ua
            or a.duration_s != b.duration_s
        ):
            return False
    return True
