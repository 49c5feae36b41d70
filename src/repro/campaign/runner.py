"""Fused execution of a whole campaign grid as one stacked fleet.

Running a V-point controller grid naively means V independent fleet
runs that re-synthesize the *same* clean signals, re-fill the *same*
noise pools and rebuild the *same* spectral plans.  The
:class:`CampaignRunner` instead lays all variants out as one fused
fleet of ``V x D`` virtual devices (:func:`repro.campaign.grid.virtual_profiles`)
and pushes them through the existing :class:`repro.exec.engine.StepEngine`
in one pass, so per tick the expensive shared structure is paid once:

* every variant of physical device ``d`` shares one
  :class:`~repro.datasets.synthetic.ScheduledSignal` realisation
  (``StepEngine.runtimes_from_profiles``), and the batched acquisition
  layer's signal tables evaluate each physical device once per cohort
  and *gather* the duplicated rows (``campaign.shared_group_hits``);
* truth labels are resolved once per physical schedule;
* devices from different variants that sit in the same sensor
  configuration are sensed in one stacked cohort and classified in the
  same single batched call as the rest of the fleet;
* the process-wide spectral plan cache is shared across every variant
  within a tick;
* virtual devices that are *behaviourally indistinguishable* are not
  simulated at all: grid axes a device's controller kind ignores
  (confidence cutoffs for plain SPOT, every controller axis for static
  and intensity devices) collapse onto one representative per
  ``(physical device, behaviour)`` class
  (:func:`repro.campaign.grid.fused_layout`), whose trace is fanned
  back out to every duplicate variant at fold time.

Because each virtual device keeps its *own* generator — seeded from the
physical device's seed and rewound to the post-synthesis stream
position — variant v of device d draws bit-identical sensor bias and
noise to an independent run of that variant, which is what the
equivalence suite (``tests/test_campaign.py``) pins.

Sharding splits the fused fleet on the variant axis (variant-major
layout + contiguous shard plan), so the PR 8 supervised coordinator,
round checkpoints and resume work unchanged; results are invariant to
the shard count and to fresh-vs-resumed execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.grid import CampaignVariant, fused_layout
from repro.campaign.pareto import ParetoPoint, pareto_fronts, variant_points
from repro.core.pipeline import HarPipeline
from repro.exec.sharding import ShardedFleetSimulator
from repro.fleet.engine import (
    FleetResult,
    FleetSimulator,
    resolve_fleet_duration,
)
from repro.fleet.population import DeviceProfile
from repro.fleet.telemetry import FleetTelemetry
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.sensors.imu import DEFAULT_INTERNAL_RATE_HZ
from repro.core.features import WINDOW_DURATION_S

#: JSON schema tag of :meth:`CampaignResult.to_dict`.
CAMPAIGN_SCHEMA = "repro.campaign/v1"


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one campaign run (fused or naive).

    Attributes
    ----------
    variants:
        The evaluated grid points, in grid order.
    results:
        One per-variant :class:`FleetResult` (physical device ids,
        traces in device order) — for a fused run these are slices of
        the fused fleet's merged traces.
    telemetries:
        One :class:`FleetTelemetry` per variant, parallel to
        ``variants``.
    fronts:
        Per-scenario 3-D Pareto fronts (accuracy up, energy down,
        battery up) across variants, including the ``"fleet"``
        aggregate.
    mode:
        ``"fused"`` (one stacked fleet of V x D virtual devices) or
        ``"naive"`` (V sequential independent fleet runs).
    num_shards:
        Shards the fused fleet ran across (1 for in-process runs and
        every naive run).
    unique_devices:
        Virtual devices actually simulated after behaviour dedupe
        (``None`` for naive runs, which simulate every grid point).
    metrics:
        Merged metrics snapshot when the run was metered, else ``None``.
    """

    variants: Tuple[CampaignVariant, ...]
    results: Tuple[FleetResult, ...]
    telemetries: Tuple[FleetTelemetry, ...]
    fronts: Dict[str, List[ParetoPoint]]
    elapsed_s: float
    duration_s: float
    num_devices: int
    mode: str
    trace_mode: str
    num_shards: int = 1
    unique_devices: Optional[int] = None
    metrics: Optional[MetricsSnapshot] = None

    def __post_init__(self) -> None:
        if not (
            len(self.variants) == len(self.results) == len(self.telemetries)
        ):
            raise ValueError(
                "variants, results and telemetries must be parallel"
            )

    @property
    def num_variants(self) -> int:
        """Grid points evaluated."""
        return len(self.variants)

    @property
    def virtual_devices(self) -> int:
        """Virtual devices the fused layout spans."""
        return self.num_variants * self.num_devices

    @property
    def simulated_devices(self) -> int:
        """Virtual devices actually simulated after behaviour dedupe."""
        if self.unique_devices is not None:
            return self.unique_devices
        return self.virtual_devices

    @property
    def device_seconds(self) -> float:
        """Total simulated device-time across all variants, in seconds."""
        return float(sum(result.device_seconds for result in self.results))

    @property
    def throughput_device_seconds_per_s(self) -> float:
        """Simulated device-seconds per wall-clock second."""
        if self.elapsed_s <= 0.0:
            return float("inf")
        return self.device_seconds / self.elapsed_s

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable campaign report (schema ``repro.campaign/v1``)."""
        return {
            "schema": CAMPAIGN_SCHEMA,
            "meta": {
                "mode": self.mode,
                "trace": self.trace_mode,
                "num_variants": self.num_variants,
                "num_devices": self.num_devices,
                "virtual_devices": self.virtual_devices,
                "simulated_devices": self.simulated_devices,
                "num_shards": self.num_shards,
                "duration_s": self.duration_s,
                "elapsed_s": self.elapsed_s,
                "device_seconds": self.device_seconds,
                "throughput_device_seconds_per_s": (
                    self.throughput_device_seconds_per_s
                ),
            },
            "variants": [
                {
                    "name": variant.name,
                    "overrides": {
                        key: list(value) if isinstance(value, tuple) else value
                        for key, value in variant.overrides.items()
                    },
                    "fleet": telemetry.fleet_summary(),
                    "by_scenario": telemetry.by_scenario(),
                }
                for variant, telemetry in zip(self.variants, self.telemetries)
            ],
            "pareto_fronts": {
                scenario: [point.to_dict() for point in front]
                for scenario, front in self.fronts.items()
            },
        }

    def format_table(self) -> str:
        """Human-readable campaign summary for the CLI."""
        lines = [
            f"variants           : {self.num_variants}",
            f"devices            : {self.num_devices} physical, "
            f"{self.virtual_devices} virtual "
            f"({self.simulated_devices} simulated after dedupe)",
            f"mode               : {self.mode} ({self.num_shards} shards)",
            (
                "throughput         : "
                f"{self.throughput_device_seconds_per_s:.0f} "
                f"device-seconds/s ({self.elapsed_s:.2f} s wall clock)"
            ),
            "pareto fronts      :",
        ]
        for scenario, front in self.fronts.items():
            lines.append(f"  {scenario} ({len(front)} non-dominated):")
            for point in front:
                lines.append(
                    f"    {point.variant:<40} acc {point.accuracy:.3f}  "
                    f"{point.energy_uc / 1e6:8.2f} C  "
                    f"{point.battery_life_days:6.1f} days"
                )
        return "\n".join(lines)


class CampaignRunner:
    """Executes a variant grid over one population as a fused fleet.

    Parameters
    ----------
    pipeline:
        The trained HAR pipeline shared by every variant.
    variants:
        The grid points (see :func:`repro.campaign.grid.variant_grid`).
    internal_rate_hz, step_s, window_duration_s, features, sensing, controllers, noise, dtype:
        Engine settings, as in :class:`repro.fleet.engine.FleetSimulator`.
        Campaigns default to the batched acquisition layer
        (``noise="batched"``) — that is the lane whose signal tables
        share evaluations across variants.
    metrics:
        Optional coordinator :class:`MetricsRegistry`; metered runs
        report ``campaign.variants`` / ``campaign.devices`` gauges and
        the engine's ``campaign.shared_group_hits`` counter.
    num_shards:
        Default shard count for :meth:`run`; ``None`` runs in-process.
        Shard counts that divide the variant count split the fused
        fleet into whole-variant blocks.
    checkpoint_dir, round_s, resume, max_retries, shard_timeout_s, fault_plan:
        Supervision and checkpoint/resume options forwarded to
        :class:`repro.exec.sharding.ShardedFleetSimulator`; campaigns
        checkpoint at round boundaries and resume bit-identically.
    monitor, heartbeat_s, flight_dir:
        Live-telemetry options forwarded to
        :class:`repro.exec.sharding.ShardedFleetSimulator`: a
        :class:`repro.obs.live.RunMonitor` turns the fused run into a
        watchable one (heartbeats, progress/ETA, stragglers, NDJSON
        events, flight-recorder crash dumps) without changing a single
        trace bit.  Passing a monitor forces sharded execution, since
        heartbeats ride the supervisor's worker pipes.
    """

    def __init__(
        self,
        pipeline: HarPipeline,
        variants: Sequence[CampaignVariant],
        internal_rate_hz: float = DEFAULT_INTERNAL_RATE_HZ,
        step_s: float = 1.0,
        window_duration_s: float = WINDOW_DURATION_S,
        features: str = "incremental",
        sensing: str = "stacked",
        controllers: str = "bank",
        noise: str = "batched",
        dtype: str = "float64",
        metrics: Optional[MetricsRegistry] = None,
        num_shards: Optional[int] = None,
        checkpoint_dir=None,
        round_s: Optional[float] = None,
        resume: bool = False,
        max_retries: int = 2,
        shard_timeout_s: Optional[float] = None,
        fault_plan=None,
        monitor=None,
        heartbeat_s: Optional[float] = None,
        flight_dir=None,
    ) -> None:
        self._variants: Tuple[CampaignVariant, ...] = tuple(variants)
        if not self._variants:
            raise ValueError("campaign needs at least one variant")
        names = [variant.name for variant in self._variants]
        if len(set(names)) != len(names):
            raise ValueError("variant names must be unique")
        self._pipeline = pipeline
        self._metrics = metrics
        self._settings: Dict[str, object] = {
            "internal_rate_hz": internal_rate_hz,
            "step_s": step_s,
            "window_duration_s": window_duration_s,
            "features": features,
            "sensing": sensing,
            "controllers": controllers,
            "noise": noise,
            "dtype": dtype,
        }
        self._num_shards = num_shards
        self._supervision: Dict[str, object] = {
            "checkpoint_dir": checkpoint_dir,
            "round_s": round_s,
            "resume": resume,
            "max_retries": max_retries,
            "shard_timeout_s": shard_timeout_s,
            "fault_plan": fault_plan,
            "monitor": monitor,
            "heartbeat_s": heartbeat_s,
            "flight_dir": flight_dir,
        }
        self._sharded = (
            num_shards is not None
            or checkpoint_dir is not None
            or resume
            or monitor is not None
        )
        # Validate engine settings eagerly.
        FleetSimulator(pipeline, **self._settings)

    @property
    def variants(self) -> Tuple[CampaignVariant, ...]:
        """The campaign's grid points."""
        return self._variants

    @property
    def metrics(self):
        """The runner's metrics recorder (null recorder when unmetered)."""
        from repro.obs.metrics import NULL_RECORDER

        return self._metrics if self._metrics is not None else NULL_RECORDER

    # ------------------------------------------------------------------
    # Fused execution
    # ------------------------------------------------------------------
    def run(
        self,
        population: "Sequence[DeviceProfile]",
        duration_s: Optional[float] = None,
        trace: str = "summary",
        num_shards: Optional[int] = None,
    ) -> CampaignResult:
        """Run every variant as one fused stacked fleet.

        Returns per-variant traces bit-identical to independent runs of
        each variant over the same population (any shard count, fresh
        or resumed).
        """
        physical = tuple(population)
        fused, assignment = fused_layout(physical, self._variants)
        duration = resolve_fleet_duration(
            fused, duration_s, self._settings["step_s"]
        )
        if self._metrics is not None:
            self._metrics.gauge("campaign.variants", len(self._variants))
            self._metrics.gauge("campaign.devices", len(physical))
            self._metrics.gauge("campaign.unique_devices", len(fused))

        start = time.perf_counter()
        snapshot: Optional[MetricsSnapshot] = None
        if self._sharded or num_shards is not None:
            sharded = ShardedFleetSimulator(
                self._pipeline,
                num_shards=num_shards
                if num_shards is not None
                else self._num_shards,
                metrics=self._metrics,
                **self._settings,
                **self._supervision,
            )
            run = sharded.run(fused, duration_s=duration, trace=trace)
            traces = run.result.traces
            snapshot = run.metrics
            shards_used = run.num_shards
        else:
            simulator = FleetSimulator(
                self._pipeline, metrics=self._metrics, **self._settings
            )
            result = simulator.run(fused, duration_s=duration, trace=trace)
            traces = result.traces
            if self._metrics is not None:
                snapshot = self._metrics.snapshot()
            shards_used = 1
        elapsed = time.perf_counter() - start
        return self._fold(
            physical, traces, assignment, duration, elapsed, trace, "fused",
            shards_used, snapshot, unique_devices=len(fused),
        )

    # ------------------------------------------------------------------
    # Naive reference (sequential independent variants)
    # ------------------------------------------------------------------
    def run_naive(
        self,
        population: "Sequence[DeviceProfile]",
        duration_s: Optional[float] = None,
        trace: str = "summary",
    ) -> CampaignResult:
        """Run each variant as its own independent fleet, sequentially.

        This is the cold-start baseline the fused path is benchmarked
        against (and validated against, trace by trace): every variant
        pays population acquisition, signal synthesis and engine-state
        construction from scratch.
        """
        physical = tuple(population)
        duration = resolve_fleet_duration(
            physical, duration_s, self._settings["step_s"]
        )
        start = time.perf_counter()
        traces: List[object] = []
        for variant in self._variants:
            simulator = FleetSimulator(
                self._pipeline, metrics=self._metrics, **self._settings
            )
            result = simulator.run(
                variant.profiles_for(physical), duration_s=duration,
                trace=trace,
            )
            traces.extend(result.traces)
        elapsed = time.perf_counter() - start
        snapshot = (
            self._metrics.snapshot() if self._metrics is not None else None
        )
        num_devices = len(physical)
        assignment = tuple(
            tuple(range(index * num_devices, (index + 1) * num_devices))
            for index in range(len(self._variants))
        )
        return self._fold(
            physical, tuple(traces), assignment, duration, elapsed, trace,
            "naive", 1, snapshot, unique_devices=None,
        )

    # ------------------------------------------------------------------
    # Folding fused traces back into per-variant results
    # ------------------------------------------------------------------
    def _fold(
        self,
        physical: Tuple[DeviceProfile, ...],
        traces: Tuple,
        assignment: Tuple[Tuple[int, ...], ...],
        duration: float,
        elapsed: float,
        trace: str,
        mode: str,
        num_shards: int,
        snapshot: Optional[MetricsSnapshot],
        unique_devices: Optional[int] = None,
    ) -> CampaignResult:
        num_devices = len(physical)
        results: List[FleetResult] = []
        telemetries: List[FleetTelemetry] = []
        per_variant_points: List[List[ParetoPoint]] = []
        for index, variant in enumerate(self._variants):
            block = tuple(traces[position] for position in assignment[index])
            result = FleetResult(
                profiles=variant.profiles_for(physical),
                traces=block,
                elapsed_s=elapsed / len(self._variants),
                mode=mode,
                trace_mode=trace,
            )
            telemetry = FleetTelemetry.from_result(result)
            results.append(result)
            telemetries.append(telemetry)
            per_variant_points.append(variant_points(variant.name, telemetry))
        return CampaignResult(
            variants=self._variants,
            results=tuple(results),
            telemetries=tuple(telemetries),
            fronts=pareto_fronts(per_variant_points),
            elapsed_s=elapsed,
            duration_s=duration,
            num_devices=num_devices,
            mode=mode,
            trace_mode=trace,
            num_shards=num_shards,
            unique_devices=unique_devices,
            metrics=snapshot,
        )
