"""The shared execution core: one per-tick protocol for every simulator.

:class:`StepEngine` advances a set of :class:`DeviceRuntime` states in
lock step; the single-device
:class:`repro.sim.runtime.ClosedLoopSimulator`, the fleet-scale
:class:`repro.fleet.engine.FleetSimulator`, the sharded and campaign
runners are thin facades over it.  There is one execution path.  Per
simulated tick the engine performs, for every device:

1. **Sense** — group the devices by active configuration (read from
   the controller bank) and acquire each group with one stacked pass
   (:func:`repro.sensors.imu.read_windows_stacked_raw`): clean signals
   come from persistent per-device component tables
   (:class:`repro.datasets.synthetic.StackedEvaluationCache`) and the
   sensor output stage from stacked
   :class:`repro.sensors.imu.SensorStatics` arrays.  The noise modes
   differ only in the noise block: ``noise="per_device"`` draws from
   every device's own stream, bit-identical to a per-device
   :meth:`~repro.sensors.imu.SimulatedAccelerometer.read_window`;
   ``noise="batched"`` takes pooled per-device Philox streams
   (:class:`repro.sensors.noise_bank.NoiseBank`) — statistically
   equivalent noise, bit-identical across engines and shard counts
   within the mode.
2. **Buffer** — scatter each group into its rows of one fleet-wide
   sample ring (:class:`repro.sensors.buffer.RingBufferBank`, which
   flushes a row on configuration change) and feed loose controllers'
   optional ``observe_window`` hook.
3. **Extract** — turn buffered windows into feature vectors.  The
   default ``features="incremental"`` path keeps each configuration's
   last per-second chunk reductions
   (:class:`repro.core.features.IncrementalFeatureExtractor`) so an
   overlapping window costs one new-chunk reduction plus a cheap
   combine; warm-up windows, configuration switches and misaligned
   geometries fall back to the exact full-window path, which
   ``features="exact"`` forces everywhere.
4. **Classify** — one batched classifier call for the whole device set
   (batch-size invariant, so results do not depend on fleet
   composition).
5. **Adapt & record** — advance the controllers through the
   :class:`repro.exec.controller_bank.ControllerBank`: supported
   controller families in one vectorized array-of-states pass, any
   other ("loose") controller through its own ``update``.  With
   ``trace="full"`` the step is appended to a
   :class:`repro.sim.trace.StepRecord` trace; with ``trace="summary"``
   it is folded into O(devices) running telemetry accumulators
   (:class:`repro.sim.trace.TraceSummary`) and no per-step state is
   ever stored.

Determinism contract: for a fixed set of runtimes the engine produces
the same traces regardless of controller banking or how devices are
grouped — which is what makes process sharding
(:mod:`repro.exec.sharding`) a pure partitioning concern and
``trace="summary"`` a pure memory optimisation.  In float64 every
trace is bit-identical to the independent single-device loop of
:mod:`repro.sim.reference`, which shares no code with this package.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.intensity_based import stacked_intensities
from repro.core.activities import Activity
from repro.core.config import SensorConfig
from repro.core.features import (
    WINDOW_DURATION_S,
    IncrementalFeatureExtractor,
    WindowGeometry,
    plan_cache_stats,
)
from repro.core.pipeline import HarPipeline
from repro.datasets.synthetic import ScheduledSignal, StackedEvaluationCache
from repro.exec.controller_bank import ControllerBank
from repro.energy.accelerometer import AccelerometerPowerModel
from repro.obs.metrics import NULL_RECORDER
from repro.sensors.buffer import RingBufferBank
from repro.sensors.imu import (
    DEFAULT_INTERNAL_RATE_HZ,
    NoiseModel,
    SensorStatics,
    SensorWindow,
    SimulatedAccelerometer,
    read_windows_stacked_raw,
)
from repro.sensors.noise_bank import NoiseBank
from repro.sim.trace import SimulationTrace, StepRecord, TraceSummary
from repro.utils.blas import blas_threads
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive

#: Feature-extraction modes the engine supports.
FEATURE_MODES: Tuple[str, ...] = ("incremental", "exact")

#: Controller-advance modes the engine supports.
CONTROLLER_MODES: Tuple[str, ...] = ("bank", "per_object")

#: Trace-collection modes the engine supports.
TRACE_MODES: Tuple[str, ...] = ("full", "summary")

#: Measurement-noise / acquisition-layer modes the engine supports.
NOISE_MODES: Tuple[str, ...] = ("per_device", "batched")

#: Compute-lane dtypes the engine supports.
DTYPE_MODES: Tuple[str, ...] = ("float64", "float32")


class DeviceRuntime:
    """Mutable per-device state advanced by :class:`StepEngine`.

    Construction replicates the random-draw order the original
    single-device loop established: one stream per device seeds first
    the signal realisation (when built from a profile), then the sensor
    bias, then every per-step noise draw.  Sample buffers, feature
    partials and controller state arrays live on the
    :class:`EngineState`, not here.
    """

    __slots__ = (
        "signal",
        "sensor",
        "controller",
        "observe",
        "power_model",
        "rng",
        "trace",
        "active_config",
    )

    def __init__(
        self,
        signal: ScheduledSignal,
        controller,
        power_model: AccelerometerPowerModel,
        noise: NoiseModel,
        rng,
        internal_rate_hz: float = DEFAULT_INTERNAL_RATE_HZ,
    ) -> None:
        self.signal = signal
        self.rng = as_rng(rng)
        self.sensor = SimulatedAccelerometer(
            signal=signal,
            noise=noise,
            internal_rate_hz=internal_rate_hz,
            seed=self.rng,
        )
        self.controller = controller
        self.controller.reset()
        self.observe: Optional[Callable] = getattr(
            self.controller, "observe_window", None
        )
        self.power_model = power_model
        self.trace = SimulationTrace()
        self.active_config: Optional[SensorConfig] = None


class _StreamingSummary:
    """Vectorized per-tick telemetry fold over a whole fleet.

    Holds the :class:`repro.sim.trace.TraceSummary` accumulators of
    every device as parallel arrays and folds one tick with a handful
    of elementwise operations.  Because the per-device sequence of
    floating-point additions is exactly the sequence
    :meth:`TraceSummary.fold_step` performs, the emitted summaries are
    bit-identical to replaying a full trace through the scalar fold —
    the property the ``trace="summary"`` equivalence tests pin down.

    Configurations are interned to current columns on first sight, so
    each device's per-configuration sensor current is computed once per
    column, not once per tick.  Dwell and switch counts are keyed by
    configuration *name* (a separate interning), matching the
    per-record fold exactly even if two distinct configurations share a
    name.
    """

    def __init__(self, num_devices: int) -> None:
        self._num_devices = num_devices
        self._columns: Dict[SensorConfig, int] = {}
        self._name_columns: Dict[str, int] = {}
        self._names: List[str] = []
        #: Config column -> name column (grows with the config columns).
        self._name_of_column = np.empty(0, dtype=np.int64)
        self._currents = np.empty((num_devices, 0))
        self._dwell = np.empty((num_devices, 0))
        self._steps = 0
        self._duration = np.zeros(num_devices)
        self._correct = np.zeros(num_devices, dtype=np.int64)
        self._charge = np.zeros(num_devices)
        self._switches = np.zeros(num_devices, dtype=np.int64)
        self._previous_names: Optional[np.ndarray] = None

    def column(
        self, config: SensorConfig, runtimes: Sequence["DeviceRuntime"]
    ) -> int:
        """Current column of ``config``, created on first sight."""
        column = self._columns.get(config)
        if column is None:
            column = len(self._columns)
            self._columns[config] = column
            name_column = self._name_columns.get(config.name)
            if name_column is None:
                name_column = len(self._names)
                self._name_columns[config.name] = name_column
                self._names.append(config.name)
                self._dwell = np.column_stack(
                    [self._dwell, np.zeros(self._num_devices)]
                )
            self._name_of_column = np.append(self._name_of_column, name_column)
            currents = np.array(
                [runtime.power_model.current_ua(config) for runtime in runtimes]
            )
            self._currents = np.column_stack([self._currents, currents])
        return column

    def fold_tick(
        self,
        rows: np.ndarray,
        columns: np.ndarray,
        correct: np.ndarray,
        duration_s: float,
    ) -> None:
        """Fold one tick for every device at once."""
        self._steps += 1
        self._duration += duration_s
        self._correct += correct
        self._charge += self._currents[rows, columns] * duration_s
        names = self._name_of_column[columns]
        self._dwell[rows, names] += duration_s
        if self._previous_names is not None:
            self._switches += names != self._previous_names
        self._previous_names = names

    def summaries(self) -> List[TraceSummary]:
        """Emit one :class:`TraceSummary` per device, in device order."""
        result: List[TraceSummary] = []
        for index in range(self._num_devices):
            dwell = {
                name: float(self._dwell[index, column])
                for column, name in enumerate(self._names)
                if self._dwell[index, column] > 0.0
            }
            result.append(
                TraceSummary(
                    steps=self._steps,
                    duration_s=float(self._duration[index]),
                    correct_steps=int(self._correct[index]),
                    charge_uc=float(self._charge[index]),
                    dwell_s=dwell,
                    config_switches=int(self._switches[index]),
                    last_config=(
                        self._names[self._previous_names[index]]
                        if self._previous_names is not None
                        else None
                    ),
                )
            )
        return result


class EngineState:
    """Reusable per-fleet execution state of one :class:`StepEngine`.

    Everything :meth:`StepEngine.run` used to build per call that
    depends only on the runtimes and the engine modes — the controller
    bank, the fleet-wide ring sample storage, the pooled noise streams,
    the persistent signal-table cache, the sensor output-stage
    constants and the stacked signal object array — lives here, so
    repeated runs over the same fleet can reuse one instance (via
    :meth:`StepEngine.make_state` + :meth:`reset`) instead of
    reallocating it every run.

    A state is bound to the engine that built it and to one fixed
    runtime list; :meth:`StepEngine.run` rejects mismatches.  Between
    runs, :meth:`reset` rewinds the mutable parts; the signal-table
    cache is deliberately left warm — its rows depend only on the
    immutable signal realisations, so a reused cache revalidates
    instead of rebuilding (that is the point).

    The state also carries the *mid-simulation* accumulators a
    continued run needs — the per-configuration stacked-partials
    history and the streaming telemetry fold of
    ``trace="summary"`` runs — so one simulation can be advanced in
    several :meth:`StepEngine.run` segments (``start_step=``) and stay
    bit-identical to a single uninterrupted run.  That is what makes a
    checkpointed shard resumable: serialise the state between rounds,
    restore it, keep stepping.
    """

    __slots__ = (
        "engine",
        "num_devices",
        "controllers",
        "bank",
        "ring",
        "noise_bank",
        "statics",
        "signal_tables",
        "signal_array",
        "table_rows",
        "partials_history",
        "summary",
    )

    def __init__(self, engine: "StepEngine", runtimes: Sequence[DeviceRuntime]) -> None:
        if not runtimes:
            raise ValueError("an engine state needs at least one device runtime")
        self.engine = engine
        self.num_devices = len(runtimes)
        self.controllers = [runtime.controller for runtime in runtimes]
        # ``controllers="per_object"`` leaves every controller loose:
        # the bank still groups devices by configuration, but advances
        # each controller through its own ``update``.
        self.bank = ControllerBank(
            self.controllers, vectorize=engine.controllers == "bank"
        )
        self.ring = RingBufferBank(
            self.num_devices, engine.window_duration_s, dtype=engine._np_dtype
        )
        # The acquisition layer: both noise modes share the signal
        # tables and output-stage constants; only the batched mode
        # holds a noise pool (per-device noise draws from runtime.rng).
        self.noise_bank: Optional[NoiseBank] = (
            NoiseBank.from_rngs([runtime.rng for runtime in runtimes])
            if engine.noise == "batched"
            else None
        )
        self.statics = SensorStatics([runtime.sensor for runtime in runtimes])
        self.signal_tables = StackedEvaluationCache(
            self.num_devices, dtype=engine._np_dtype
        )
        self.signal_array = np.array(
            [runtime.signal for runtime in runtimes], dtype=object
        )
        # Signal-table rows are keyed by signal *identity*: fused
        # multi-variant campaigns run several virtual devices that
        # share one physical device's signal object, and mapping them
        # to one row lets the cache rebuild each bout once and serve
        # every variant by gathering.  Ordinary fleets have one signal
        # per device, so the mapping is the identity and is dropped.
        first_rows: Dict[int, int] = {}
        table_rows = np.empty(self.num_devices, dtype=np.intp)
        for index, runtime in enumerate(runtimes):
            table_rows[index] = first_rows.setdefault(id(runtime.signal), index)
        self.table_rows: Optional[np.ndarray] = (
            table_rows if len(first_rows) < self.num_devices else None
        )
        #: Per-configuration stacked-partials history (the
        #: last ``cached_chunks`` tick reductions); lives on the state
        #: so a segmented run keeps its incremental-feature warm-up.
        self.partials_history: Dict[SensorConfig, Deque] = {}
        #: Streaming telemetry fold of ``trace="summary"`` runs,
        #: created lazily on the first summary segment.
        self.summary: Optional["_StreamingSummary"] = None

    def reset(self) -> None:
        """Rewind the mutable state for another run over the same fleet.

        The controller bank snaps back to its construction snapshot (the
        caller must have reset any loose controllers, exactly as fresh
        construction requires), the ring empties without releasing its
        arrays, and the noise streams rewind to their origin.  The
        signal-table cache stays warm on purpose — see the class
        docstring.
        """
        self.bank.reset()
        self.ring.reset()
        if self.noise_bank is not None:
            self.noise_bank.reset()
        self.partials_history.clear()
        self.summary = None


class StepEngine:
    """Advances a set of :class:`DeviceRuntime` states in lock step.

    Parameters
    ----------
    pipeline:
        The trained HAR pipeline shared by every device.
    internal_rate_hz:
        Internal conversion rate of every simulated accelerometer.
    step_s:
        Classification period (one second in the paper).
    window_duration_s:
        Length of the classification buffer (two seconds in the paper).
    features:
        ``"incremental"`` (default) caches per-chunk partial features
        and combines overlapping windows cheaply; ``"exact"`` extracts
        every window from scratch (the pre-refactor behaviour).
    controllers:
        ``"bank"`` (default) advances every supported controller family
        through the vectorized array-of-states
        :class:`repro.exec.controller_bank.ControllerBank` (custom
        controller types automatically stay loose); ``"per_object"``
        leaves every controller loose, so each one's own ``update`` and
        ``observe_window`` run on the same ring path.  Both produce
        bit-identical traces.
    noise:
        Measurement-noise source.  ``"per_device"`` (default) draws
        every device's measurement noise from its own master stream
        exactly as v1.3.0 did — the bit-compatible reference.
        ``"batched"`` draws it from pooled counter-based noise streams
        (:class:`repro.sensors.noise_bank.NoiseBank`, one Philox stream
        per device).  Both modes share the rest of the acquisition
        layer (cached clean-signal component tables and stacked sensor
        constants).  Batched noise *values* differ from the per-device
        stream (the draws come from a different generator family) but
        are statistically equivalent, and runs are bit-identical across
        engines, controller modes and shard counts within the mode.
    dtype:
        Compute-lane precision.  ``"float64"`` (default) is the
        bit-exact reference — identical to the pre-dtype engine in
        every mode.  ``"float32"`` runs signal synthesis, acquisition
        and feature extraction single-precision end to end (complex64
        spectra), converting to float64 only at the classifier
        boundary: features agree with the float64 lane to ~1e-4
        relative, labels match away from decision boundaries, and runs
        stay bit-identical across engines, controller modes and shard
        counts *within* the lane.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry` the engine
        records phase spans, counters and gauges into while running —
        see :mod:`repro.obs` for the metric glossary.  Defaults to the
        no-op :data:`repro.obs.metrics.NULL_RECORDER`: the unmetered
        path takes no clock readings and allocates nothing per tick.
        Metrics are observation only — metered traces are bit-identical
        to unmetered ones in every mode.
    """

    def __init__(
        self,
        pipeline: HarPipeline,
        internal_rate_hz: float = DEFAULT_INTERNAL_RATE_HZ,
        step_s: float = 1.0,
        window_duration_s: float = WINDOW_DURATION_S,
        features: str = "incremental",
        controllers: str = "bank",
        noise: str = "per_device",
        dtype: str = "float64",
        metrics=None,
    ) -> None:
        check_positive(step_s, "step_s")
        check_positive(window_duration_s, "window_duration_s")
        if window_duration_s < step_s:
            raise ValueError(
                "window_duration_s must be at least step_s, got "
                f"{window_duration_s} < {step_s}"
            )
        if features not in FEATURE_MODES:
            raise ValueError(
                f"features must be one of {FEATURE_MODES}, got {features!r}"
            )
        if controllers not in CONTROLLER_MODES:
            raise ValueError(
                f"controllers must be one of {CONTROLLER_MODES}, got {controllers!r}"
            )
        if noise not in NOISE_MODES:
            raise ValueError(
                f"noise must be one of {NOISE_MODES}, got {noise!r}"
            )
        if dtype not in DTYPE_MODES:
            raise ValueError(
                f"dtype must be one of {DTYPE_MODES}, got {dtype!r}"
            )
        self._pipeline = pipeline
        self._internal_rate_hz = float(internal_rate_hz)
        self._step_s = float(step_s)
        self._window_duration_s = float(window_duration_s)
        self._features = features
        self._controllers = controllers
        self._noise = noise
        self._dtype = dtype
        self._np_dtype = np.dtype(np.float32 if dtype == "float32" else np.float64)
        self._incremental = IncrementalFeatureExtractor(
            pipeline.extractor, dtype=self._np_dtype
        )
        self._geometries: Dict[SensorConfig, Optional[WindowGeometry]] = {}
        self._metrics = metrics if metrics is not None else NULL_RECORDER

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pipeline(self) -> HarPipeline:
        """The shared HAR pipeline."""
        return self._pipeline

    @property
    def internal_rate_hz(self) -> float:
        """Internal conversion rate of the simulated accelerometers."""
        return self._internal_rate_hz

    @property
    def step_s(self) -> float:
        """Classification period in seconds."""
        return self._step_s

    @property
    def window_duration_s(self) -> float:
        """Classification-buffer length in seconds."""
        return self._window_duration_s

    @property
    def features(self) -> str:
        """The active feature-extraction mode."""
        return self._features

    @property
    def controllers(self) -> str:
        """The active controller-advance mode."""
        return self._controllers

    @property
    def noise(self) -> str:
        """The active acquisition-layer mode."""
        return self._noise

    @property
    def dtype(self) -> str:
        """The active compute-lane precision (``"float64"``/``"float32"``)."""
        return self._dtype

    @property
    def metrics(self):
        """The metrics recorder (the no-op null recorder by default)."""
        return self._metrics

    # ------------------------------------------------------------------
    # Runtime construction
    # ------------------------------------------------------------------
    def make_runtime(
        self,
        signal: ScheduledSignal,
        controller,
        power_model: AccelerometerPowerModel,
        noise: NoiseModel,
        rng,
    ) -> DeviceRuntime:
        """Build a runtime matching this engine's timing parameters."""
        return DeviceRuntime(
            signal=signal,
            controller=controller,
            power_model=power_model,
            noise=noise,
            rng=rng,
            internal_rate_hz=self._internal_rate_hz,
        )

    def runtime_from_profile(self, profile) -> DeviceRuntime:
        """Build a fleet-device runtime matching this engine's timing."""
        return self.runtimes_from_profiles([profile])[0]

    def runtimes_from_profiles(self, profiles) -> List[DeviceRuntime]:
        """Build one runtime per profile, sharing synthesis where possible.

        Profiles with the same integer seed and the same schedule draw
        the *same* signal realisation (signal synthesis consumes the
        seed's stream first, before the sensor bias) — the defining
        property of a fused multi-variant campaign, where every variant
        of one physical device differs only in its controller.  Those
        profiles share one :class:`ScheduledSignal` object; each
        runtime after the first gets a fresh generator restored to the
        post-synthesis stream position, so its sensor-bias and
        noise-stream draws replay bit-identically to an independent
        single-profile construction.

        Ordinary fleets (per-device seeds) see exactly the historical
        per-profile construction, object for object.
        """
        runtimes: List[DeviceRuntime] = []
        shared: Dict[Tuple, Tuple[ScheduledSignal, dict]] = {}
        for profile in profiles:
            seed = profile.seed
            key = (
                (int(seed), profile.schedule)
                if isinstance(seed, (int, np.integer))
                else None
            )
            entry = shared.get(key) if key is not None else None
            if entry is None:
                rng = as_rng(seed)
                signal = ScheduledSignal(list(profile.schedule), seed=rng)
                if key is not None:
                    # ``state`` snapshots the generator right after the
                    # signal draws — the position every sibling runtime
                    # must restart its own stream from.
                    shared[key] = (signal, rng.bit_generator.state)
            else:
                signal, state = entry
                rng = as_rng(int(seed))
                rng.bit_generator.state = state
            runtimes.append(
                DeviceRuntime(
                    signal=signal,
                    controller=profile.make_controller(),
                    power_model=profile.power_model,
                    noise=profile.noise,
                    rng=rng,
                    internal_rate_hz=self._internal_rate_hz,
                )
            )
        return runtimes

    def make_state(self, runtimes: Sequence[DeviceRuntime]) -> "EngineState":
        """Build the reusable per-fleet execution state for ``runtimes``.

        :meth:`run` builds one internally when none is passed; callers
        that re-run the same fleet (the serving and DSE workloads, the
        benchmark harness) build it once, pass it to every run and call
        :meth:`EngineState.reset` between runs — skipping the ring,
        noise-pool, signal-table and controller-array construction.
        """
        return EngineState(self, runtimes)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(
        self,
        runtimes: Sequence[DeviceRuntime],
        num_steps: int,
        trace: str = "full",
        state: Optional[EngineState] = None,
        start_step: int = 0,
    ) -> Union[List[SimulationTrace], List[TraceSummary]]:
        """Advance every runtime ``num_steps`` ticks.

        Parameters
        ----------
        runtimes:
            The device states to advance, in device order.
        num_steps:
            Number of classification ticks to simulate.
        trace:
            ``"full"`` (default) appends one
            :class:`repro.sim.trace.StepRecord` per device per tick and
            returns the accumulated traces; ``"summary"`` folds every
            tick into O(devices) running telemetry accumulators and
            returns one :class:`repro.sim.trace.TraceSummary` per
            device — same aggregate statistics, bit for bit, without
            ever storing per-step state.
        state:
            Optional reusable execution state from :meth:`make_state`
            built over the *same* runtimes.  When omitted a fresh state
            is constructed (the historical behaviour, bit for bit).
            Callers reusing a state must :meth:`EngineState.reset` it
            between runs.
        start_step:
            Ticks already simulated on ``state`` by earlier segments.
            Simulated time continues at ``start_step * step_s``, so a
            run split into consecutive segments over one state (the
            fault-tolerant round loop) is bit-identical to a single
            ``run(..., num_steps=total)`` call.  Continuing requires
            ``state`` to carry the earlier segments' accumulators —
            pass the same state, unreset.
        """
        if not runtimes:
            raise ValueError("run needs at least one device runtime")
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        if start_step < 0:
            raise ValueError(
                f"start_step must be non-negative, got {start_step}"
            )
        if trace not in TRACE_MODES:
            raise ValueError(f"trace must be one of {TRACE_MODES}, got {trace!r}")
        if state is None:
            state = EngineState(self, runtimes)
        elif state.engine is not self:
            raise ValueError("state was built by a different engine")
        elif state.num_devices != len(runtimes):
            raise ValueError(
                f"state holds {state.num_devices} devices, got "
                f"{len(runtimes)} runtimes"
            )
        # From a few thousand rows OpenBLAS splits the per-tick classify
        # GEMM across threads, and its idle worker then spin-waits
        # through the rest of every tick.  One thread changes no value
        # (see repro.utils.blas).
        with blas_threads(1):
            return self._run(runtimes, num_steps, trace, state, start_step)

    def _run(
        self,
        runtimes: Sequence[DeviceRuntime],
        num_steps: int,
        trace: str,
        state: EngineState,
        start_step: int,
    ) -> Union[List[SimulationTrace], List[TraceSummary]]:
        """The tick loop of :meth:`run`, on validated arguments."""
        num_devices = len(runtimes)
        step_s = self._step_s
        controllers = state.controllers

        # Ground truth is taken at the midpoint of each step's newest
        # second of data; one precomputed (devices, steps) label matrix
        # removes every per-tick segment lookup from the hot loop.  The
        # per-device Activity lists are only kept for full-trace record
        # building — summary mode fills the matrix row by row and holds
        # nothing else per step.
        midpoints = (
            step_s * np.arange(start_step + 1, start_step + num_steps + 1)
            - 0.5 * step_s
        )
        truth_labels = np.empty((num_devices, num_steps), dtype=np.int64)
        truths: Optional[List] = None
        # Ground-truth lookups are cached by signal identity: a fused
        # campaign's variant runtimes share one signal per physical
        # device, so its activity schedule is resolved once, not once
        # per variant.  Ordinary fleets pay one dict probe per device.
        activity_cache: Dict[int, List[Activity]] = {}
        if trace == "full":
            truths = []
            for runtime in runtimes:
                activities = activity_cache.get(id(runtime.signal))
                if activities is None:
                    activities = runtime.signal.activities_at(midpoints)
                    activity_cache[id(runtime.signal)] = activities
                truths.append(activities)
            truth_labels[:] = np.array(truths, dtype=np.int64).reshape(
                num_devices, num_steps
            )
        else:
            for index, runtime in enumerate(runtimes):
                activities = activity_cache.get(id(runtime.signal))
                if activities is None:
                    activities = runtime.signal.activities_at(midpoints)
                    activity_cache[id(runtime.signal)] = activities
                truth_labels[index] = activities

        bank = state.bank
        loose = bank.loose_indices
        # Continuation accumulators live on the state so a segmented
        # run (fault-tolerant round loop) resumes mid-stream exactly.
        if trace == "summary":
            if state.summary is None:
                state.summary = _StreamingSummary(num_devices)
            summary = state.summary
        else:
            summary = None
        partials_history = state.partials_history
        # The acquisition layer (noise pool, cached clean-signal
        # tables, output-stage constants, ring sample storage) lives on
        # the state so reusable runtimes keep it across runs.
        noise_bank = state.noise_bank
        signal_tables = state.signal_tables
        ring = state.ring
        intensities = np.full(num_devices, np.nan) if bank.has_intensity else None
        device_rows = np.arange(num_devices)

        # Observability: every update below is guarded by ``metered``,
        # so the disabled (NULL_RECORDER) path takes no clock readings
        # and allocates nothing per tick.  Recording never touches
        # random streams or sample arrays — metered traces are
        # bit-identical to unmetered ones (pinned by the obs tests).
        mx = self._metrics
        metered = mx.enabled
        if metered:
            run_start_ns = mx.now_ns()
            run_cpu_s = time.process_time()
            mx.count("engine.runs")
            mx.gauge("engine.devices", float(num_devices))
            # Reused states carry their counters across runs (the
            # signal-table cache is deliberately never reset) and the
            # plan cache is process-global, so every per-run figure is
            # recorded as a delta from a start-of-run snapshot.
            noise_refills_0 = noise_bank.refills if noise_bank is not None else 0
            noise_bypasses_0 = (
                noise_bank.pool_bypasses if noise_bank is not None else 0
            )
            tables_revalidations_0 = signal_tables.revalidations
            tables_rebuilds_0 = signal_tables.rebuilds
            tables_straddles_0 = signal_tables.straddles
            tables_fallbacks_0 = signal_tables.fallbacks
            tables_shared_0 = signal_tables.shared_hits
            plan_hits_0, plan_misses_0 = plan_cache_stats()

        for step_index in range(1, num_steps + 1):
            step_end = (start_step + step_index) * step_s
            if metered:
                tick_start_ns = mx.now_ns()
            switched = 0

            # Phase 1: group devices by active configuration, read from
            # the bank's state arrays; group index vectors stay ndarrays
            # so later per-group scatters need no list round-trips.
            # ``active_config`` only feeds full-trace records, so
            # summary runs skip the stores.
            groups: Dict[SensorConfig, np.ndarray] = {}
            config_ids = bank.current_config_ids(controllers)
            for config_id in np.unique(config_ids):
                indices = np.flatnonzero(config_ids == config_id)
                config = bank.config_for_id(config_id)
                groups[config] = indices
                if summary is None:
                    for i in indices:
                        runtimes[i].active_config = config

            # Phase 1b: acquire, one stacked pass per configuration.  The
            # stack itself is the acquisition record: the ring holds its
            # rows and feature extraction / intensity switching slice
            # it, so no per-device window objects exist.
            stacks: Dict[SensorConfig, Tuple[np.ndarray, np.ndarray]] = {
                config: self._acquire(state, runtimes, indices, config, step_end)
                for config, indices in groups.items()
            }

            # Phase 2: ring buffers and observe hooks — one scatter per
            # configuration group (rows whose configuration changed are
            # flushed first); only loose devices with observe hooks still
            # see Python.
            if metered:
                ring_start_ns = mx.now_ns()
            for config, indices in groups.items():
                samples, sample_times = stacks[config]
                changed = ring.push_group(indices, samples, sample_times, config)
                switched += changed.size
                if loose:
                    for row in np.flatnonzero(~bank.is_banked[indices]):
                        index = indices[row]
                        if runtimes[index].observe is not None:
                            runtimes[index].observe(
                                SensorWindow(
                                    samples=samples[row],
                                    times_s=sample_times,
                                    config=config,
                                )
                            )
            if metered:
                mx.span("tick.sense.ring", ring_start_ns, mx.now_ns())

            # Banked intensity devices: one stacked derivative pass per
            # configuration replaces their per-object observe hooks.
            if intensities is not None:
                for config, indices in groups.items():
                    rows = np.flatnonzero(bank.is_intensity[indices])
                    if rows.size:
                        intensities[indices[rows]] = stacked_intensities(
                            stacks[config][0][rows]
                        )
                bank.observe_intensities(intensities)

            if metered:
                sense_end_ns = mx.now_ns()
                mx.span("tick.sense", tick_start_ns, sense_end_ns)
                mx.count("engine.ticks")
                mx.count("engine.config_groups", len(groups))
                for group_indices in groups.values():
                    mx.observe("engine.cohort_devices", len(group_indices))
                # The first tick of the whole run assigns every device
                # its initial configuration; only later ticks (counted
                # globally across segments) count as switches.
                if start_step + step_index > 1:
                    mx.count("engine.config_switches", switched)
                mx.gauge("ring.buffered_samples", float(ring.counts.sum()))

            # Phase 3: feature extraction (incremental where possible).
            features = np.empty(
                (num_devices, self._pipeline.extractor.num_features)
            )
            for config, indices in groups.items():
                self._extract_features(
                    features,
                    config,
                    indices,
                    stacks[config][0],
                    partials_history,
                    ring,
                )

            if metered:
                extract_end_ns = mx.now_ns()
                mx.span("tick.extract", sense_end_ns, extract_end_ns)

            # Phase 4: one batched classification for the whole device set.
            labels, confidences = self._pipeline.classify_batch_labels(features)

            if metered:
                classify_end_ns = mx.now_ns()
                mx.span("tick.classify", extract_end_ns, classify_end_ns)
                mx.count("engine.windows_classified", num_devices)

            # Phase 5: controllers advance (one vectorized pass for the
            # banked devices, one ``update`` per loose controller),
            # traces record or accumulators fold.
            bank.update(labels, confidences)
            for index in loose:
                controllers[index].update(
                    Activity(int(labels[index])), float(confidences[index])
                )

            if metered:
                adapt_end_ns = mx.now_ns()
                mx.span("tick.adapt", classify_end_ns, adapt_end_ns)

            if summary is not None:
                columns = np.empty(num_devices, dtype=np.int64)
                for config, indices in groups.items():
                    columns[indices] = summary.column(config, runtimes)
                summary.fold_tick(
                    rows=device_rows,
                    columns=columns,
                    correct=truth_labels[:, step_index - 1] == labels,
                    duration_s=step_s,
                )
            else:
                for index, runtime in enumerate(runtimes):
                    runtime.trace.append(
                        StepRecord(
                            time_s=step_end,
                            true_activity=truths[index][step_index - 1],
                            predicted_activity=Activity(int(labels[index])),
                            confidence=float(confidences[index]),
                            config_name=runtime.active_config.name,
                            current_ua=runtime.power_model.current_ua(
                                runtime.active_config
                            ),
                            duration_s=step_s,
                        )
                    )

            if metered:
                mx.span("tick.fold", adapt_end_ns, mx.now_ns())

        if metered:
            if noise_bank is not None:
                mx.count("noise.refills", noise_bank.refills - noise_refills_0)
                mx.count(
                    "noise.pool_bypasses",
                    noise_bank.pool_bypasses - noise_bypasses_0,
                )
            mx.count(
                "signal_cache.revalidations",
                signal_tables.revalidations - tables_revalidations_0,
            )
            mx.count(
                "signal_cache.rebuilds",
                signal_tables.rebuilds - tables_rebuilds_0,
            )
            mx.count(
                "signal_cache.straddles",
                signal_tables.straddles - tables_straddles_0,
            )
            mx.count(
                "signal_cache.fallbacks",
                signal_tables.fallbacks - tables_fallbacks_0,
            )
            mx.count(
                "campaign.shared_group_hits",
                signal_tables.shared_hits - tables_shared_0,
            )
            plan_hits_1, plan_misses_1 = plan_cache_stats()
            mx.count("plan_cache.hits", plan_hits_1 - plan_hits_0)
            mx.count("plan_cache.misses", plan_misses_1 - plan_misses_0)
            mx.span("engine.run", run_start_ns, mx.now_ns())
            # Process CPU over the same interval, every thread included.
            mx.count("engine.cpu_s", time.process_time() - run_cpu_s)
            # Progress tap for the live-telemetry plane: the absolute
            # step cursor after this segment, readable between segments
            # by the heartbeat emitter without touching engine state.
            mx.gauge("engine.steps_done", float(start_step + num_steps))

        bank.write_back(controllers)
        if summary is not None:
            return summary.summaries()
        return [runtime.trace for runtime in runtimes]

    def _acquire(
        self,
        state: EngineState,
        runtimes: Sequence[DeviceRuntime],
        rows: np.ndarray,
        config: SensorConfig,
        end_time_s: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Read one configuration group as a stacked acquisition."""
        noise_bank = state.noise_bank
        return read_windows_stacked_raw(
            state.signal_array[rows],
            end_time_s=end_time_s,
            duration_s=self._step_s,
            config=config,
            rows=rows,
            statics=state.statics,
            tables=state.signal_tables,
            rngs=(
                [runtimes[i].rng for i in rows] if noise_bank is None else None
            ),
            noise_bank=noise_bank,
            table_rows=(
                None if state.table_rows is None else state.table_rows[rows]
            ),
            metrics=self._metrics,
        )

    # ------------------------------------------------------------------
    # Feature extraction internals
    # ------------------------------------------------------------------
    def _geometry(self, config: SensorConfig) -> Optional[WindowGeometry]:
        if config not in self._geometries:
            self._geometries[config] = WindowGeometry.for_window(
                config.sampling_hz, self._step_s, self._window_duration_s
            )
        return self._geometries[config]

    def _extract_features(
        self,
        features: np.ndarray,
        config: SensorConfig,
        indices: np.ndarray,
        chunk_stack: np.ndarray,
        history: Dict[SensorConfig, Deque],
        ring: RingBufferBank,
    ) -> None:
        """Fill the feature rows of one configuration group.

        Each tick's group reduction stays one
        :class:`repro.core.features.StackedChunkPartials`, kept in a
        per-configuration history of the last ``cached_chunks`` ticks;
        a steady-state device's window gathers its row from each
        history slot.  The per-device steady/warm-up decision is one
        array comparison against the ring bank's sample counts: a row
        holds a full window only after ``cached_chunks`` consecutive
        ticks under ``config`` (the ring flushes on a configuration
        change), so the history's slots are exactly that device's
        chunks.  Feature values are bit-identical to reducing each
        device's own chunk deque (the reference loop's spelling).
        """
        geometry = (
            self._geometry(config) if self._features == "incremental" else None
        )
        exact_indices = indices
        steady = None
        mx = self._metrics
        metered = mx.enabled
        if geometry is not None:
            if metered:
                partials_start_ns = mx.now_ns()
            stacked = self._incremental.chunk_partials_arrays(chunk_stack, geometry)
            if metered:
                mx.span("tick.extract.partials", partials_start_ns, mx.now_ns())
            rows = np.empty(features.shape[0], dtype=np.intp)
            rows[indices] = np.arange(len(indices))
            entries = history.get(config)
            if entries is None:
                entries = deque(maxlen=geometry.cached_chunks)
                history[config] = entries
            entries.append((stacked, rows))
            if len(entries) == geometry.cached_chunks:
                steady_mask = ring.counts[indices] == geometry.window_samples
                steady = indices[steady_mask]
                exact_indices = indices[~steady_mask]
            if steady is not None and steady.size:
                if metered:
                    mx.count("features.incremental_windows", int(steady.size))
                    combine_start_ns = mx.now_ns()
                tailed = bool(geometry.tail_samples)
                slots = [
                    slot_partials.slot_arrays(
                        slot_rows[steady], tailed and slot == 0
                    )
                    for slot, (slot_partials, slot_rows) in enumerate(entries)
                ]
                features[steady] = self._incremental.combine_slot_arrays(
                    slots, geometry
                )
                if metered:
                    mx.span("tick.extract.combine", combine_start_ns, mx.now_ns())
        if len(exact_indices):
            self._extract_exact(features, config, exact_indices, ring)

    def _extract_exact(
        self,
        features: np.ndarray,
        config: SensorConfig,
        exact_indices: np.ndarray,
        ring: RingBufferBank,
    ) -> None:
        """Exact full-window extraction for warm-up windows and the
        ``features="exact"`` toggle; extract_batch stacks equal-shape
        windows and keeps the input order."""
        if self._metrics.enabled:
            self._metrics.count("features.exact_windows", len(exact_indices))
        windows = [(ring.window(i)[0], config.sampling_hz) for i in exact_indices]
        features[exact_indices] = self._incremental.extractor.extract_batch(
            windows, dtype=self._np_dtype
        )
