"""Process-sharded fleet simulation with fault-tolerant supervision.

A :class:`repro.fleet.population.DevicePopulation` is embarrassingly
parallel: every device owns a private random stream derived from the
population's master seed, so a device's trace depends only on its own
profile — never on which other devices happen to share its batch.  The
execution core is additionally batch-size invariant, which makes
sharding a pure partitioning concern: split the population into
contiguous shards, simulate each shard with the shared
:class:`repro.exec.engine.StepEngine` in its own worker process, and
merge the per-shard traces and
:class:`repro.fleet.telemetry.FleetTelemetry` reports back in
device-id order.  The merged result is bit-identical to a
single-process run — and to the per-device sequential reference — for
any shard count, which the shard-invariance tests pin down.

Execution is supervised (see :mod:`repro.exec.resilience`): every
shard attempt runs in its own worker process, dead or hung workers are
retried with exponential backoff (falling back to an in-process
attempt as a last resort), and shards optionally simulate in fixed
**rounds** of simulated seconds, checkpointing their engine state via
:mod:`repro.ml.persistence` after every round.  A retried — or
resumed — shard reloads the last complete round and continues
mid-stream; because the engine's segmented runs are bit-identical to
unsegmented ones, recovery never changes a single trace bit.  The
deterministic failure modes themselves are injectable
(:class:`repro.exec.resilience.FaultInjector`), so every recovery path
stays testable in CI.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing

from repro.core.features import WINDOW_DURATION_S, clear_plan_cache
from repro.core.pipeline import HarPipeline
from repro.exec.engine import StepEngine
from repro.exec.resilience import (
    FaultInjector,
    FaultPlan,
    PayloadCorruptionError,
    RetryPolicy,
    ShardExecutionError,
    ShardSupervisor,
)
from repro.fleet.engine import FleetResult, FleetSimulator, resolve_fleet_duration
from repro.fleet.population import DeviceProfile, DevicePopulation
from repro.fleet.telemetry import FleetTelemetry
from repro.ml.persistence import load_checkpoint, save_checkpoint
from repro.obs.live import RunMonitor, build_heartbeat, current_rss_bytes
from repro.obs.logsetup import shard_logger
from repro.obs.metrics import NULL_RECORDER, MetricsRegistry, MetricsSnapshot
from repro.sensors.imu import DEFAULT_INTERNAL_RATE_HZ
from repro.utils.validation import check_positive, check_positive_int

#: Schema version of the checkpoint-directory manifest.  Bumped whenever
#: the pickled engine state changes layout (2: the signal-table cache
#: keeps per-row count signatures and no per-span amplitude tables), so
#: resuming an older directory fails at the manifest check, not mid-run.
MANIFEST_VERSION = 2

#: Checkpoint files kept per shard (the latest plus one fallback, so a
#: crash mid-write of the newest round never strands the campaign).
KEPT_CHECKPOINTS = 2


@dataclass(frozen=True)
class _ShardTask:
    """Everything one shard worker needs for one (re-)attempt."""

    shard_index: int
    pipeline: HarPipeline
    profiles: Tuple[DeviceProfile, ...]
    duration_s: float
    settings: Dict[str, object]
    trace: str
    collect_metrics: bool
    trace_events: bool
    round_steps: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    injector: Optional[FaultInjector] = None
    heartbeat_steps: Optional[int] = None


def _shard_checkpoint_dir(root: str, shard_index: int) -> Path:
    return Path(root) / f"shard_{shard_index:04d}"


def _checkpoint_path(directory: Path, rounds_done: int) -> Path:
    return directory / f"round_{rounds_done:06d}.ckpt"


def _load_latest_checkpoint(directory: Path, logger) -> Optional[dict]:
    """Newest loadable checkpoint bundle in ``directory`` (or ``None``).

    Corrupt or truncated files fall back to the next-newest; a shard
    with no loadable checkpoint starts from scratch, which is exactly
    the resume semantics for a shard killed before its first round
    completed.
    """
    candidates = sorted(directory.glob("round_*.ckpt"), reverse=True)
    for path in candidates:
        try:
            return load_checkpoint(path)
        except Exception as exc:  # noqa: BLE001 - any bad file falls back
            logger.warning("skipping unreadable checkpoint %s: %s", path, exc)
    return None


def _run_shard_attempt(
    task: _ShardTask, attempt: int, emit: Callable[[dict], None]
) -> Tuple[int, FleetResult, FleetTelemetry, Optional[MetricsSnapshot]]:
    """Simulate one shard attempt (worker process or inline).

    The shard advances in rounds of ``task.round_steps`` engine ticks.
    With a checkpoint directory the engine state is serialised after
    every completed round, and a retry (``attempt > 0``) or an explicit
    resume reloads the newest complete round and continues mid-stream —
    bit-identical to an uninterrupted run because the engine's
    segmented runs are (pinned by the resilience tests).

    ``emit`` (injected by the supervisor) ships in-flight events back
    over the result pipe: attempt and round starts, checkpoints, and —
    when ``task.heartbeat_steps`` is set — periodic heartbeats, for
    which rounds are sub-segmented at the heartbeat cadence.
    Sub-segmentation reuses the engine's segmented-run path, so a
    monitored run's traces stay bit-identical; fault injection and
    checkpointing still happen only at round boundaries, so recovery
    semantics are unchanged too.
    """
    in_worker = multiprocessing.parent_process() is not None
    if in_worker:
        # Forked workers inherit the parent's process-wide spectral plan
        # cache.  Drop it so a pre-warmed parent can neither leak stale
        # tables into the worker nor pollute the worker's plan-cache
        # metrics with hits it never earned.  Inline attempts (no
        # parent process) must NOT clear — they run in the coordinator.
        clear_plan_cache()
    logger = shard_logger(task.shard_index)
    metrics = (
        MetricsRegistry(trace_events=task.trace_events, tid=task.shard_index)
        if task.collect_metrics
        else None
    )
    recorder = metrics if metrics is not None else NULL_RECORDER
    beat_steps = task.heartbeat_steps
    # Heartbeats carry per-phase span deltas.  An unmetered monitored
    # run taps them through a private registry that feeds the engine's
    # spans but is never returned in the outcome, so the reported
    # metrics (none) match an unmonitored run exactly.
    tap = (
        MetricsRegistry()
        if beat_steps is not None and metrics is None
        else None
    )
    engine_metrics = metrics if metrics is not None else tap

    ckpt_dir: Optional[Path] = None
    if task.checkpoint_dir is not None:
        ckpt_dir = _shard_checkpoint_dir(task.checkpoint_dir, task.shard_index)

    bundle: Optional[dict] = None
    if ckpt_dir is not None and (attempt > 0 or task.resume):
        bundle = _load_latest_checkpoint(ckpt_dir, logger)

    start = time.perf_counter()
    if bundle is None:
        engine = StepEngine(
            pipeline=task.pipeline, metrics=engine_metrics, **task.settings
        )
        runtimes = engine.runtimes_from_profiles(task.profiles)
        state = engine.make_state(runtimes)
        steps_done = 0
    else:
        # The single-dump checkpoint preserves the aliasing between the
        # engine state, its runtimes and the engine itself, so resuming
        # means picking up the unpickled engine — only its metrics
        # recorder is rebound to this attempt's fresh registry (or the
        # heartbeat tap when the run is monitored but unmetered).
        runtimes = bundle["runtimes"]
        state = bundle["engine_state"]
        steps_done = bundle["steps_done"]
        engine = state.engine
        engine._metrics = (
            engine_metrics if engine_metrics is not None else NULL_RECORDER
        )
        if metrics is not None:
            metrics.count("checkpoint.loads")
        logger.info(
            "resumed %d devices from step %d", len(runtimes), steps_done
        )

    num_steps = int(round(task.duration_s / engine.step_s))
    round_steps = task.round_steps if task.round_steps else num_steps
    round_steps = max(1, round_steps)
    if steps_done > num_steps:
        raise ValueError(
            f"checkpoint is ahead of the requested run: {steps_done} steps "
            f"done, {num_steps} requested"
        )
    injector = task.injector
    if beat_steps is not None:
        beat_steps = max(1, min(int(beat_steps), round_steps))

    logger.debug(
        "simulating %d devices (%d/%d steps done, attempt %d)",
        len(task.profiles), steps_done, num_steps, attempt,
    )
    emit(
        {
            "event": "attempt_start",
            "shard": task.shard_index,
            "attempt": attempt,
            "steps_done": steps_done,
            "num_steps": num_steps,
            "devices": len(task.profiles),
            "round_steps": round_steps,
        }
    )
    phase_prev: Dict[str, float] = (
        engine_metrics.phase_totals()
        if beat_steps is not None and engine_metrics is not None
        else {}
    )
    beat_wall = start
    beat_cursor = steps_done
    traces = None
    while steps_done < num_steps:
        # Checkpoints only land on round boundaries (or at the end of
        # the run), so a loop entry — fresh or resumed — always sits on
        # one; the first segment of a round emits its round_start and
        # consults the fault injector exactly once, heartbeats or not.
        if steps_done % round_steps == 0:
            round_index = steps_done // round_steps
            emit(
                {
                    "event": "round_start",
                    "shard": task.shard_index,
                    "attempt": attempt,
                    "round": round_index,
                    "steps_done": steps_done,
                }
            )
            if injector is not None:
                injector.on_round(task.shard_index, round_index, attempt)
        round_end = min(
            ((steps_done // round_steps) + 1) * round_steps, num_steps
        )
        segment = round_end - steps_done
        if beat_steps is not None:
            segment = min(segment, beat_steps)
        traces = engine.run(
            runtimes,
            segment,
            trace=task.trace,
            state=state,
            start_step=steps_done,
        )
        steps_done += segment
        if beat_steps is not None:
            beat_now = time.perf_counter()
            totals = engine_metrics.phase_totals()
            emit(
                build_heartbeat(
                    shard=task.shard_index,
                    attempt=attempt,
                    round_index=(steps_done - 1) // round_steps,
                    steps_done=steps_done,
                    num_steps=num_steps,
                    devices=len(task.profiles),
                    elapsed_s=beat_now - start,
                    interval_s=beat_now - beat_wall,
                    steps_delta=steps_done - beat_cursor,
                    phase_s={
                        name: totals[name] - phase_prev.get(name, 0.0)
                        for name in totals
                    },
                    rss_bytes=current_rss_bytes(),
                )
            )
            recorder.count("heartbeat.emitted")
            phase_prev = totals
            beat_wall = beat_now
            beat_cursor = steps_done
        if steps_done % round_steps != 0 and steps_done < num_steps:
            # Mid-round heartbeat segment: no round accounting yet.
            continue
        recorder.count("shard.rounds")
        if ckpt_dir is not None:
            rounds_done = (steps_done + round_steps - 1) // round_steps
            saved_metrics = engine._metrics
            engine._metrics = NULL_RECORDER
            try:
                written = save_checkpoint(
                    _checkpoint_path(ckpt_dir, rounds_done),
                    {
                        "shard_index": task.shard_index,
                        "steps_done": steps_done,
                        "runtimes": runtimes,
                        "engine_state": state,
                    },
                )
            finally:
                engine._metrics = saved_metrics
            recorder.count("checkpoint.saves")
            recorder.count("checkpoint.bytes", written)
            emit(
                {
                    "event": "checkpoint",
                    "shard": task.shard_index,
                    "attempt": attempt,
                    "rounds_done": rounds_done,
                    "steps_done": steps_done,
                    "bytes": written,
                }
            )
            stale = sorted(ckpt_dir.glob("round_*.ckpt"))[:-KEPT_CHECKPOINTS]
            for path in stale:
                path.unlink(missing_ok=True)
    if traces is None:
        # Nothing left to simulate (fully-resumed shard or zero-length
        # run): a zero-step engine call still yields the trace/summary
        # objects from the state, so this path merges like any other.
        traces = engine.run(
            runtimes, 0, trace=task.trace, state=state, start_step=steps_done
        )
    elapsed = time.perf_counter() - start

    result = FleetResult(
        profiles=task.profiles,
        traces=tuple(traces),
        elapsed_s=elapsed,
        mode="batched",
        trace_mode=task.trace,
    )
    if injector is not None and injector.corrupts(task.shard_index, attempt):
        # Deterministic payload corruption: drop the last device so the
        # coordinator's validation hook has something real to catch.
        result = FleetResult(
            profiles=result.profiles[:-1],
            traces=result.traces[:-1],
            elapsed_s=result.elapsed_s,
            mode=result.mode,
            trace_mode=result.trace_mode,
        )
    logger.debug(
        "finished %d devices in %.3f s", len(result.profiles), elapsed
    )
    snapshot = metrics.snapshot() if metrics is not None else None
    return (
        task.shard_index,
        result,
        FleetTelemetry.from_result(result),
        snapshot,
    )


@dataclass(frozen=True)
class ShardedFleetRun:
    """Outcome of one sharded fleet simulation.

    Attributes
    ----------
    result:
        The merged :class:`FleetResult` (``mode="sharded"``), traces in
        device-id order and bit-identical to a single-process run.
    telemetry:
        Fleet telemetry merged from the per-shard reports.
    shard_sizes:
        Devices per shard, in shard order.
    used_processes:
        Whether worker processes were actually used (single shards and
        platforms without process spawning run inline).
    shard_elapsed_s:
        Per-shard simulation wall-clock, in shard order.  With worker
        processes the shards run concurrently, so the spread between
        entries is straggler skew, not serial cost.
    shard_metrics:
        One :class:`repro.obs.metrics.MetricsSnapshot` per shard when
        the run was metered, ``()`` otherwise.
    metrics:
        The coordinator's merged snapshot (worker snapshots folded with
        the coordinator's own shard heartbeat metrics), ``None`` when
        the run was unmetered.
    shard_attempts:
        Attempts each shard consumed, in shard order (all ``1`` on a
        fault-free run).
    retries:
        Shard re-attempts across the whole run.  A completed run
        retried every failed attempt, so this always equals
        ``failures``.
    failures:
        Failed shard attempts across the whole run (worker deaths,
        raised exceptions, timeouts and corrupt payloads).
    timeouts:
        Attempts terminated for exceeding the per-shard timeout.
    stragglers:
        Shards still flagged by the run monitor's online straggler
        detector when the run finished (``()`` without heartbeats or
        when every shard kept pace) — the hook a future elastic
        rebalancer consumes.

    ``used_processes`` and the five fields above are read from the
    run's :class:`repro.obs.live.RunMonitor` fold over the supervisor's
    event stream.
    """

    result: FleetResult
    telemetry: FleetTelemetry
    shard_sizes: Tuple[int, ...]
    used_processes: bool
    shard_elapsed_s: Tuple[float, ...] = ()
    shard_metrics: Tuple[MetricsSnapshot, ...] = ()
    metrics: Optional[MetricsSnapshot] = None
    shard_attempts: Tuple[int, ...] = ()
    retries: int = 0
    failures: int = 0
    timeouts: int = 0
    stragglers: Tuple[int, ...] = ()

    @property
    def num_shards(self) -> int:
        """Number of shards the population was split into."""
        return len(self.shard_sizes)

    @property
    def elapsed_s(self) -> float:
        """Wall-clock time of the whole sharded run."""
        return self.result.elapsed_s

    def straggler_stats(self) -> Dict[str, float]:
        """Wall-clock skew across shards (empty without per-shard times).

        ``skew`` is max/mean shard elapsed — 1.0 means perfectly
        balanced shards; the merge barrier waits on the ``straggler``
        shard for ``spread_s`` seconds longer than the fastest one.
        Degenerate all-zero timings (clock resolution on trivial
        shards) report the balanced value 1.0 rather than NaN.
        """
        if not self.shard_elapsed_s:
            return {}
        elapsed = self.shard_elapsed_s
        mean = sum(elapsed) / len(elapsed)
        slowest = max(elapsed)
        return {
            "min_s": min(elapsed),
            "max_s": slowest,
            "mean_s": mean,
            "spread_s": slowest - min(elapsed),
            "skew": slowest / mean if mean > 0.0 else 1.0,
            "straggler": float(elapsed.index(slowest)),
        }


class ShardedFleetSimulator:
    """Splits a device population across supervised worker processes.

    Parameters
    ----------
    pipeline:
        The trained HAR pipeline; shipped to every worker.
    num_shards:
        Default shard count for :meth:`run`; ``None`` uses the machine's
        CPU count.
    internal_rate_hz, step_s, window_duration_s, features, controllers, noise, dtype:
        Forwarded to the per-shard :class:`repro.exec.engine.StepEngine`.
        The ``noise="batched"`` acquisition layer derives every device's
        stream from the device's own seed, so sharded results stay
        invariant to the shard count in either mode.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry` for the
        coordinator.  When given (and enabled), every worker builds its
        own registry with ``tid`` set to its shard index (inheriting
        the coordinator's ``trace_events`` setting), the coordinator
        records shard heartbeats (``shard.elapsed_s`` /
        ``shard.devices`` histograms, ``shard.count`` gauge) plus the
        counters of its run monitor's fold (``shard.retries`` /
        ``shard.failures`` / ``shard.timeouts`` /
        ``shard.corrupt_payloads``, ``heartbeat.*``, ``straggler.*``,
        ``flight.*``), and :attr:`ShardedFleetRun.metrics` carries the
        merged snapshot.
        Merging is associative and shard-count invariant for every
        device-attributable metric on fault-free runs; runs that
        recovered from faults may repeat or resume engine work, so
        engine-side *effort* counters can legitimately differ from a
        fault-free run even though traces and telemetry never do.
    max_retries:
        Worker re-attempts per shard after its first try (default 2).
    shard_timeout_s:
        Wall-clock budget per shard attempt; ``None`` (default) never
        times out.  Timeouts require worker processes, so a
        single-shard run with a timeout leaves the historical inline
        path.
    backoff_base_s, backoff_factor, backoff_max_s:
        Exponential backoff between attempts (see
        :class:`repro.exec.resilience.RetryPolicy`).
    inline_last_resort:
        Run one final in-coordinator attempt after every process
        attempt failed (default ``True``).
    checkpoint_dir:
        Directory for round checkpoints and the campaign manifest.
        Enables round-based execution: shards checkpoint after every
        round, retries resume from the last complete round, and a
        killed campaign can be resumed with ``resume=True``.
    round_s:
        Simulated seconds per round (default 60 when checkpointing is
        enabled, otherwise the whole run is one round).
    resume:
        Resume a previous campaign from ``checkpoint_dir``.  The
        directory's manifest must match this run's geometry exactly;
        shards restart from their newest complete round (or from
        scratch if they never finished one).  Bit-identical to an
        uninterrupted run.
    fault_plan:
        A :class:`repro.exec.resilience.FaultPlan`, a spec string for
        :meth:`FaultPlan.parse`, or ``None`` (default) to read the
        ``REPRO_FAULT_PLAN`` environment variable.  Injected faults are
        deterministic, so chaos runs replay identically.
    monitor:
        Optional :class:`repro.obs.live.RunMonitor`, the fold over the
        supervisor's event stream.  Every run folds through one; without
        this argument it is a default monitor with no watch line, no
        NDJSON and no heartbeats.  With heartbeats, shard workers emit
        progress, device-steps/s, per-phase span deltas and RSS at the
        monitor's cadence, which feed live progress/ETA, straggler flags
        (:attr:`ShardedFleetRun.stragglers`) and the monitor's
        ``--watch`` / NDJSON outputs.  Monitored runs stay bit-identical
        to unmonitored ones: heartbeat pacing only re-segments the
        engine loop, and monitoring reads clocks and counters only.
    heartbeat_s:
        Override the monitor's heartbeat interval (simulated seconds)
        for runs through this simulator.
    flight_dir:
        Directory for flight-recorder crash dumps.  Defaults to
        ``checkpoint_dir`` when one is set, so checkpointed runs get
        crash dumps even without an explicit monitor.
    """

    def __init__(
        self,
        pipeline: HarPipeline,
        num_shards: Optional[int] = None,
        internal_rate_hz: float = DEFAULT_INTERNAL_RATE_HZ,
        step_s: float = 1.0,
        window_duration_s: float = WINDOW_DURATION_S,
        features: str = "incremental",
        controllers: str = "bank",
        noise: str = "per_device",
        dtype: str = "float64",
        metrics: Optional[MetricsRegistry] = None,
        max_retries: int = 2,
        shard_timeout_s: Optional[float] = None,
        backoff_base_s: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max_s: float = 2.0,
        inline_last_resort: bool = True,
        checkpoint_dir: "Optional[str | os.PathLike]" = None,
        round_s: Optional[float] = None,
        resume: bool = False,
        fault_plan: "FaultPlan | str | None" = None,
        monitor: Optional[RunMonitor] = None,
        heartbeat_s: Optional[float] = None,
        flight_dir: "Optional[str | os.PathLike]" = None,
    ) -> None:
        if num_shards is not None:
            check_positive_int(num_shards, "num_shards")
        self._pipeline = pipeline
        self._num_shards = num_shards
        self._metrics = metrics
        self._settings: Dict[str, object] = {
            "internal_rate_hz": internal_rate_hz,
            "step_s": step_s,
            "window_duration_s": window_duration_s,
            "features": features,
            "controllers": controllers,
            "noise": noise,
            "dtype": dtype,
        }
        # Validate the engine settings eagerly (in the parent process)
        # instead of deep inside the first worker.
        FleetSimulator(pipeline, **self._settings)
        self._policy = RetryPolicy(
            max_retries=max_retries,
            backoff_base_s=backoff_base_s,
            backoff_factor=backoff_factor,
            backoff_max_s=backoff_max_s,
            shard_timeout_s=shard_timeout_s,
            inline_last_resort=inline_last_resort,
        )
        self._checkpoint_dir = (
            os.fspath(checkpoint_dir) if checkpoint_dir is not None else None
        )
        if resume and self._checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        self._resume = bool(resume)
        if round_s is not None:
            check_positive(round_s, "round_s")
        elif self._checkpoint_dir is not None:
            round_s = 60.0
        self._round_s = round_s
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        elif isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        self._fault_plan: Optional[FaultPlan] = fault_plan
        self._injector = (
            FaultInjector(fault_plan)
            if fault_plan is not None and not fault_plan.is_empty
            else None
        )
        self._monitor = monitor
        if heartbeat_s is not None:
            check_positive(heartbeat_s, "heartbeat_s")
        self._heartbeat_s = heartbeat_s
        self._flight_dir = (
            os.fspath(flight_dir) if flight_dir is not None else None
        )

    @property
    def pipeline(self) -> HarPipeline:
        """The shared HAR pipeline."""
        return self._pipeline

    @property
    def retry_policy(self) -> RetryPolicy:
        """The supervision policy shard attempts run under."""
        return self._policy

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The active fault-injection plan (``None`` when faultless)."""
        return self._fault_plan

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        population: "DevicePopulation | Sequence[DeviceProfile]",
        num_shards: Optional[int] = None,
    ) -> List[Tuple[DeviceProfile, ...]]:
        """Split a population into contiguous, near-equal shards.

        Contiguous splitting preserves device-id order, so merging shard
        outputs is a plain concatenation.  The shard count is capped at
        the population size.
        """
        profiles = tuple(population)
        if not profiles:
            raise ValueError("population must contain at least one device")
        requested = num_shards if num_shards is not None else self._num_shards
        if requested is None:
            requested = os.cpu_count() or 1
        check_positive_int(requested, "num_shards")
        count = min(requested, len(profiles))
        base, extra = divmod(len(profiles), count)
        shards: List[Tuple[DeviceProfile, ...]] = []
        cursor = 0
        for shard_index in range(count):
            size = base + (1 if shard_index < extra else 0)
            shards.append(profiles[cursor : cursor + size])
            cursor += size
        return shards

    # ------------------------------------------------------------------
    # Checkpoint campaign manifest
    # ------------------------------------------------------------------
    def _round_steps(self, num_steps: int) -> Optional[int]:
        if self._round_s is None:
            return None
        step_s = float(self._settings["step_s"])
        return max(1, int(round(self._round_s / step_s)))

    def _manifest(
        self, num_devices: int, duration: float, num_shards: int, trace: str
    ) -> Dict[str, object]:
        return {
            "version": MANIFEST_VERSION,
            "num_devices": num_devices,
            "duration_s": duration,
            "num_shards": num_shards,
            "trace": trace,
            "round_s": self._round_s,
            "settings": {
                key: value for key, value in self._settings.items()
            },
        }

    def _prepare_campaign(
        self, num_devices: int, duration: float, num_shards: int, trace: str
    ) -> None:
        """Create or validate the checkpoint directory's manifest."""
        assert self._checkpoint_dir is not None
        root = Path(self._checkpoint_dir)
        manifest_path = root / "manifest.json"
        manifest = self._manifest(num_devices, duration, num_shards, trace)
        if self._resume:
            if not manifest_path.is_file():
                raise ValueError(
                    f"cannot resume: no campaign manifest at {manifest_path}"
                )
            stored = json.loads(manifest_path.read_text())
            if stored != manifest:
                raise ValueError(
                    "cannot resume: checkpoint directory holds a different "
                    f"campaign ({manifest_path}); population, duration, "
                    "shard count, trace mode, round length and engine "
                    "settings must all match"
                )
            return
        if manifest_path.is_file():
            raise ValueError(
                f"checkpoint directory {root} already holds a campaign; "
                "pass resume=True to continue it or point at a fresh "
                "directory"
            )
        root.mkdir(parents=True, exist_ok=True)
        manifest_path.write_text(json.dumps(manifest, sort_keys=True))

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(
        self,
        population: "DevicePopulation | Sequence[DeviceProfile]",
        duration_s: Optional[float] = None,
        num_shards: Optional[int] = None,
        trace: str = "full",
    ) -> ShardedFleetRun:
        """Simulate the population across supervised workers and merge.

        Parameters
        ----------
        population:
            The devices to simulate.
        duration_s:
            Simulated seconds per device (defaults to the shortest
            schedule, as in :meth:`FleetSimulator.run`).
        num_shards:
            Overrides the simulator's default shard count for this run.
        trace:
            ``"full"`` (default) or ``"summary"`` (streaming
            accumulators only; also shrinks the per-shard payload the
            workers ship back to O(devices)).

        Returns
        -------
        ShardedFleetRun
            Merged traces and telemetry, invariant to the shard count,
            the fault pattern, the retry schedule and fresh-vs-resumed
            execution.

        Raises
        ------
        repro.exec.resilience.ShardExecutionError
            When a shard fails every attempt the retry policy allows.
        """
        profiles = tuple(population)
        if not profiles:
            raise ValueError("population must contain at least one device")
        step_s = float(self._settings["step_s"])
        duration = resolve_fleet_duration(profiles, duration_s, step_s)
        shards = self.plan(profiles, num_shards)

        num_steps = int(round(duration / step_s))
        round_steps = self._round_steps(num_steps)
        if self._checkpoint_dir is not None:
            self._prepare_campaign(len(profiles), duration, len(shards), trace)

        collect_metrics = self._metrics is not None and self._metrics.enabled
        trace_events = bool(self._metrics.trace_events) if collect_metrics else False
        # Every run folds its event stream through a monitor; checkpointed
        # runs record flight rings, so chaos failures always leave crash
        # dumps next to the checkpoints.
        monitor = (
            self._monitor
            if self._monitor is not None
            else RunMonitor(heartbeat_s=None)
        )
        flight_root = self._flight_dir or self._checkpoint_dir
        if flight_root is not None:
            monitor.ensure_flight_dir(flight_root)
        heartbeat_steps = monitor.heartbeat_steps(step_s, self._heartbeat_s)
        start = time.perf_counter()
        tasks = [
            _ShardTask(
                shard_index=index,
                pipeline=self._pipeline,
                profiles=shard,
                duration_s=duration,
                settings=self._settings,
                trace=trace,
                collect_metrics=collect_metrics,
                trace_events=trace_events,
                round_steps=round_steps,
                checkpoint_dir=self._checkpoint_dir,
                resume=self._resume,
                injector=self._injector,
                heartbeat_steps=heartbeat_steps,
            )
            for index, shard in enumerate(shards)
        ]

        expected_ids = [
            tuple(profile.device_id for profile in shard) for shard in shards
        ]

        def validate(outcome) -> None:
            shard_index, result, telemetry, _ = outcome
            ids = tuple(profile.device_id for profile in result.profiles)
            if ids != expected_ids[shard_index]:
                raise PayloadCorruptionError(
                    f"shard {shard_index} returned {len(ids)} devices, "
                    f"expected {len(expected_ids[shard_index])}"
                )
            if len(result.traces) != len(ids):
                raise PayloadCorruptionError(
                    f"shard {shard_index} returned {len(result.traces)} "
                    f"traces for {len(ids)} devices"
                )

        # Single shards never paid process overhead historically; keep
        # that unless a timeout demands a killable worker.
        inline_only = (
            len(tasks) == 1 and self._policy.shard_timeout_s is None
        )
        supervisor = ShardSupervisor(
            _run_shard_attempt,
            monitor.handle,
            policy=self._policy,
            validate=validate,
            inline_only=inline_only,
        )
        monitor.begin_run([len(shard) for shard in shards], num_steps, step_s)
        run_ok = False
        try:
            outcomes = supervisor.run(tasks)
            run_ok = True
        except ShardExecutionError as error:
            flight_path = monitor.flight_path(error.shard_index)
            if flight_path is None:
                raise
            raise ShardExecutionError(
                error.shard_index, error.attempts, error.last_error,
                flight_path=flight_path,
            ) from None
        finally:
            monitor.end_run(run_ok)
        outcomes.sort(key=lambda outcome: outcome[0])
        traces = tuple(
            trace for _, result, _, _ in outcomes for trace in result.traces
        )
        telemetry = FleetTelemetry.merge(
            [shard_telemetry for _, _, shard_telemetry, _ in outcomes]
        )
        elapsed = time.perf_counter() - start
        merged = FleetResult(
            profiles=profiles,
            traces=traces,
            elapsed_s=elapsed,
            mode="sharded",
            trace_mode=trace,
        )
        shard_elapsed = tuple(result.elapsed_s for _, result, _, _ in outcomes)
        shard_metrics: Tuple[MetricsSnapshot, ...] = ()
        merged_metrics: Optional[MetricsSnapshot] = None
        if collect_metrics:
            shard_metrics = tuple(
                snapshot for _, _, _, snapshot in outcomes if snapshot is not None
            )
            # Coordinator-level heartbeats: one observation per shard so
            # the merged snapshot carries balance/straggler information
            # alongside the device-attributable engine metrics.
            self._metrics.gauge("shard.count", float(len(shards)))
            for (_, result, _, _), shard in zip(outcomes, shards):
                self._metrics.observe("shard.elapsed_s", result.elapsed_s)
                self._metrics.observe("shard.devices", float(len(shard)))
            # Fold the event-stream counters (shard.retries and the
            # other failure counts, heartbeat.received, straggler.flags,
            # flight.*) into the coordinator registry so they reach the
            # merged snapshot and every exporter.
            for name, value in sorted(monitor.counters.items()):
                self._metrics.count(name, value)
            merged_metrics = MetricsSnapshot.merge_all(
                (self._metrics.snapshot(),) + shard_metrics
            )
        return ShardedFleetRun(
            result=merged,
            telemetry=telemetry,
            shard_sizes=tuple(len(shard) for shard in shards),
            used_processes=monitor.used_processes,
            shard_elapsed_s=shard_elapsed,
            shard_metrics=shard_metrics,
            metrics=merged_metrics,
            shard_attempts=monitor.shard_attempts,
            retries=monitor.retries,
            failures=monitor.failures,
            timeouts=monitor.timeouts,
            stragglers=monitor.stragglers(),
        )
