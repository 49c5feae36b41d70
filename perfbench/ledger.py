"""Per-layer ledger of one traced run, and the kernel floors behind it.

Input is the stamps JSON a traced ``child.py`` run writes (benchmark spans,
the engine's metrics snapshot, per-tick wall times, run facts and the
shapes the run worked on) plus the parent's spawn stamp.  Output is a
flat ``{metric: value}`` dict.  A layer that does not run on a workload
reports 0 for its metrics.

Self times partition the traced wall time (spawn to report written):
``process.start_s`` (interpreter start), the self time of every benchmark
span, and ``trace.unattributed_s`` for the gaps between spans, sum to
``trace.wall_s``.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

import numpy as np

PHASES = ("sense", "extract", "classify", "adapt", "fold")

#: Benchmark span -> the per-layer metric that carries its self time.
SELF_TIME_METRICS = {
    "import repro.cli": "cli.import_s",
    "WindowDatasetBuilder.build": "datasets.build_s",
    "HarPipeline.train": "ml.train_s",
    "AdaSense.train": "adasense.self_s",
    "DevicePopulation.generate": "population.generate_s",
    "FleetSimulator.build_runtime": "engine.build_s",
    "FleetSimulator.run": "simulate.self_s",
    "ShardedFleetSimulator.run": "simulate.self_s",
    "CampaignRunner.run": "simulate.self_s",
    "fused_layout": "campaign.layout_s",
    "FleetTelemetry.from_result": "telemetry.fold_s",
    "FleetTelemetry.to_json": "telemetry.json_s",
    "CampaignResult.to_dict": "campaign.report_s",
    "report.write": "report.write_s",
}


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Seconds of each span not covered by its child spans, per metric."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
    totals = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    for index, span in enumerate(spans):
        metric = SELF_TIME_METRICS[span["name"]]
        own = span["end_ns"] - span["start_ns"] - child_ns[index]
        totals[metric] += own * 1e-9
    return totals


def _median_s(kernel, min_reps: int = 5, budget_s: float = 0.3) -> float:
    """Median seconds of ``kernel()`` over repeats filling ``budget_s``."""
    kernel()
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_reps or time.perf_counter() < deadline:
        start = time.perf_counter_ns()
        kernel()
        samples.append((time.perf_counter_ns() - start) * 1e-9)
    return statistics.median(samples)


def kernel_floors(shapes: dict) -> Dict[str, float]:
    """Each hot phase's core kernel alone at one tick's shape, ns/device-tick.

    * sense: a Philox ``standard_normal`` draw of one tick's samples
      (three axes, float32 like the noise pool);
    * extract: one batched ``np.fft.rfft`` over one tick's windows
      (one per device and axis, the mean window length);
    * classify: one matmul shaped like the classifier's first layer.
    """
    batch = int(shapes["batch"])
    per_tick = float(shapes["samples_per_device_tick"])
    window = max(2, int(round(per_tick * shapes["window_s"])))
    generator = np.random.Generator(np.random.Philox(0))
    draws = int(round(batch * per_tick * 3))
    windows = generator.standard_normal((batch * 3, window))
    features = generator.standard_normal((batch, shapes["features"]))
    weights = generator.standard_normal((shapes["features"], shapes["hidden"]))
    seconds = {
        "sense": _median_s(lambda: generator.standard_normal(draws, dtype=np.float32)),
        "extract": _median_s(lambda: np.fft.rfft(windows, axis=1)),
        "classify": _median_s(lambda: features @ weights),
    }
    return {phase: value * 1e9 / batch for phase, value in seconds.items()}


def ledger(stamps: dict, spawn_ns: int, report_bytes: int,
           untraced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run."""
    counters = stamps["snapshot"]["counters"]
    gauges = stamps["snapshot"]["gauges"]
    totals = stamps["snapshot"]["totals"]
    facts = stamps["facts"]
    devices = facts["devices"]
    device_ticks = counters.get("engine.windows_classified", 0.0)
    ticks = counters.get("engine.ticks", 0.0)

    def per_device_tick_ns(seconds: float) -> float:
        return seconds * 1e9 / device_ticks if device_ticks else 0.0

    wall_s = (stamps["report_end_ns"] - spawn_ns) * 1e-9
    out = self_times(stamps["spans"])
    out["process.start_s"] = (stamps["start_ns"] - spawn_ns) * 1e-9
    out["trace.unattributed_s"] = wall_s - sum(out.values())
    out["trace.wall_s"] = wall_s
    out["trace.overhead"] = wall_s / untraced_wall_s - 1.0

    out["population.us_per_device"] = out["population.generate_s"] * 1e6 / devices
    out["engine.us_per_device"] = out["engine.build_s"] * 1e6 / devices
    run_s = totals.get("engine.run", 0.0)
    out["engine.run_s"] = run_s
    out["engine.ns_per_device_tick"] = per_device_tick_ns(run_s)
    tick_ms = stamps["tick_ms"]
    out["engine.tick_p50_ms"] = float(np.percentile(tick_ms, 50))
    out["engine.tick_p90_ms"] = float(np.percentile(tick_ms, 90))
    for phase in PHASES:
        seconds = totals.get(f"tick.{phase}", 0.0)
        out[f"tick.{phase}.ns_per_device_tick"] = per_device_tick_ns(seconds)
        out[f"tick.{phase}.share"] = seconds / run_s if run_s else 0.0
    out["tick.classify.ns_per_window"] = out["tick.classify.ns_per_device_tick"]

    for name in ("noise.refills", "noise.pool_bypasses", "signal_cache.rebuilds",
                 "signal_cache.revalidations", "signal_cache.fallbacks",
                 "features.incremental_windows", "engine.windows_classified",
                 "engine.config_switches", "checkpoint.saves", "checkpoint.bytes",
                 "shard.retries", "shard.failures", "shard.timeouts"):
        out[name] = counters.get(name, 0.0)
    simulated = facts.get("simulated_devices", devices)
    out["ring.buffered_samples_per_device"] = (
        gauges.get("ring.buffered_samples", 0.0) / simulated
    )
    lookups = counters.get("plan_cache.hits", 0.0) + counters.get("plan_cache.misses", 0.0)
    out["plan_cache.hit_ratio"] = (
        counters.get("plan_cache.hits", 0.0) / lookups if lookups else 0.0
    )
    out["telemetry.json_bytes"] = float(report_bytes)

    out["campaign.dedupe_ratio"] = (
        simulated / facts["virtual_devices"] if "virtual_devices" in facts else 0.0
    )
    out["campaign.shared_group_hits_per_tick"] = (
        counters.get("campaign.shared_group_hits", 0.0) / ticks if ticks else 0.0
    )

    shard_s = facts.get("shard_elapsed_s", [])
    if shard_s:
        sharded_span = next(
            span for span in stamps["spans"] if span["name"] == "ShardedFleetSimulator.run"
        )
        out["shard.elapsed_max_s"] = max(shard_s)
        out["shard.skew"] = max(shard_s) / statistics.median(shard_s)
        out["supervisor.overhead_s"] = (
            (sharded_span["end_ns"] - sharded_span["start_ns"]) * 1e-9 - max(shard_s)
        )
    else:
        out["shard.elapsed_max_s"] = out["shard.skew"] = out["supervisor.overhead_s"] = 0.0
    out["checkpoint.save_s"] = facts.get("checkpoint_save_s", 0.0)
    out["checkpoint.load_s"] = facts.get("checkpoint_load_s", 0.0)

    floors = kernel_floors(stamps["shapes"])
    for phase, floor_ns in floors.items():
        out[f"floor.{phase}.ns_per_device_tick"] = floor_ns
        out[f"floor.{phase}.achieved_ratio"] = (
            out[f"tick.{phase}.ns_per_device_tick"] / floor_ns
        )
    return out
