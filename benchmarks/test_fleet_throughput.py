"""Throughput benchmark: the fleet execution paths against each other.

Two suites are measured and written to ``BENCH_fleet.json`` at the
repository root so the performance trajectory is tracked across PRs.

**Mode guards** (one 50-device population) compare the named
execution recipes:

``sequential``
    The independent per-device reference loop
    (:mod:`repro.sim.reference`: exact features, one
    ``read_window`` / ``SampleBuffer`` / controller object per device).
``batched``
    Lock-step batched classification with exact full-window features
    and every controller loose (``controllers="per_object"``).
``incremental``
    Chunk-cached incremental feature extraction, still with loose
    controllers and full per-step traces.
``controller_bank``
    Incremental features plus the vectorized array-of-states
    controller bank and streaming (``trace="summary"``) telemetry — no
    per-device Python in the adapt phase and O(devices) memory.
``batched_noise``
    The controller-bank recipe with pooled counter-based noise
    streams (``noise="batched"``).  Both recipes share the cached
    acquisition layer (persistent per-device signal tables and stacked
    sensor constants), so they differ only in the noise generator.
``float32``
    The batched-noise recipe run in the single-precision compute lane
    (``dtype="float32"``) through a reusable
    :class:`~repro.fleet.engine.FleetRuntime`, so repeated runs also
    skip runtime construction and spectral-plan rebuilds.

Every recipe but ``sequential`` runs the engine's one execution path
(stacked acquisition, sample ring, controller bank).  The mode guard
gates only that the banked engine is not slower than the reference
loop; the incremental-vs-batched and bank-vs-incremental ratios are
recorded, not gated — the per-device acquisition and unbanked code
paths they were gated against no longer exist.

**Scaling sweep**: the ``incremental``, ``controller_bank``,
``batched_noise`` and ``float32`` recipes are raced over growing
device counts (50 → 5 000 by default).  One hard gate at the largest
count, where per-device Python dominates the per-tick budget: the
float32 lane must deliver at least ``REPRO_MIN_FLOAT32_SPEEDUP``×
(default 1.25×) the batched-noise recipe's devices/s.  The
bank-vs-incremental and batched-noise vs controller-bank ratios are
recorded but not gated.

Set ``REPRO_BENCH_SMOKE=1`` (as CI does on shared runners) to run the
whole file in smoke mode: tiny populations, no thresholds, no
``BENCH_fleet.json`` rewrite — keeping the bench path exercised without
flaking on loaded machines.

A separate test verifies the speed does not cost fidelity: bank and
sharded runs must be bit-identical to the sequential reference, and
summary-mode telemetry must equal full-trace telemetry.
"""

from __future__ import annotations

import gc
import json
import os
from pathlib import Path

import pytest

from _bench_utils import (
    BENCH_SEED,
    append_bench_history,
    campaign_variant_count,
    print_report,
    recipe_settings,
    run_metadata,
)

from repro.core.adasense import AdaSense
from repro.exec import DTYPE_MODES
from repro.fleet import (
    DevicePopulation,
    FleetSimulator,
    FleetTelemetry,
    ShardedFleetSimulator,
    traces_equal,
)
from repro.obs import MetricsRegistry

#: Smoke mode: exercise the bench path without thresholds (CI runners).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Fleet size for the mode guards; the issue requires >= 50 devices.
NUM_DEVICES = 8 if SMOKE else 50

#: Simulated seconds per device (kept short: the guards compare
#: *relative* speed, and 50 x 30 = 1500 device-seconds is plenty).
DURATION_S = 10.0 if SMOKE else 30.0

#: Device counts of the scaling sweep (50 -> 5000).
SWEEP_DEVICES = (8, 16) if SMOKE else (50, 500, 5000)

#: Simulated seconds per device in the scaling sweep.
SWEEP_DURATION_S = 10.0 if SMOKE else 20.0

#: Required speedup of the single-precision lane (float32 recipe run
#: through a reusable fleet runtime) over the float64 batched-noise
#: recipe at the largest sweep count.  Overridable for noisy shared
#: runners; the default is the guarantee tracked on dedicated hardware.
MIN_FLOAT32_SPEEDUP = 0.0 if SMOKE else float(
    os.environ.get("REPRO_MIN_FLOAT32_SPEEDUP", "1.25")
)

#: Required speedup of the fused campaign over the naive
#: run-variants-sequentially baseline at 16 variants x 1000 devices.
MIN_CAMPAIGN_SPEEDUP = 0.0 if SMOKE else float(
    os.environ.get("REPRO_MIN_CAMPAIGN_SPEEDUP", "2.0")
)

#: Campaign bench geometry: the issue's 16 variants x 1000 devices
#: (tiny grid in smoke mode).
CAMPAIGN_DEVICES = 8 if SMOKE else 1000
CAMPAIGN_DURATION_S = 10.0
CAMPAIGN_THRESHOLDS = (10, 30) if SMOKE else (10, 20, 30, 40)
CAMPAIGN_CONFIDENCES = (0.75, 0.85) if SMOKE else (0.75, 0.8, 0.85, 0.9)

#: Maximum relative slowdown a metered run may show over an unmetered
#: run of the same recipe at the largest sweep count (default 3 %).
MAX_METRICS_OVERHEAD = float(
    os.environ.get("REPRO_MAX_METRICS_OVERHEAD", "0.03")
)

#: Maximum relative slowdown the fault-tolerance layer (shard
#: supervisor + segmented round execution, no faults injected) may show
#: over a plain single-process run of the same recipe (default 3 %).
MAX_RESILIENCE_OVERHEAD = float(
    os.environ.get("REPRO_MAX_RESILIENCE_OVERHEAD", "0.03")
)

#: Maximum relative slowdown a heartbeat-monitored supervised run may
#: show over the same supervised run without a monitor (default 3 %).
MAX_HEARTBEAT_OVERHEAD = float(
    os.environ.get("REPRO_MAX_HEARTBEAT_OVERHEAD", "0.03")
)


def _make_engine(pipeline, recipe_name, **extra):
    """A FleetSimulator configured from a named bench recipe."""
    kwargs, trace = recipe_settings(recipe_name)
    return FleetSimulator(pipeline, **kwargs, **extra), trace


def _write_bench_json(update) -> None:
    """Merge an update (plus run provenance) into BENCH_fleet.json."""
    existing = {}
    if BENCH_JSON_PATH.exists():
        existing = json.loads(BENCH_JSON_PATH.read_text())
    existing.update(update)
    existing["meta"] = run_metadata(smoke=SMOKE, dtype_modes=list(DTYPE_MODES))
    BENCH_JSON_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n"
    )

#: Where the machine-readable throughput report lands.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"


@pytest.fixture(scope="module")
def fleet_setup():
    system = AdaSense.train(windows_per_activity_per_config=16, seed=BENCH_SEED)
    population = DevicePopulation.generate(
        NUM_DEVICES, duration_s=DURATION_S, master_seed=BENCH_SEED
    )
    return system.pipeline, population


def _mode_entry(result) -> dict:
    return {
        "elapsed_s": result.elapsed_s,
        "device_seconds_per_s": result.throughput_device_seconds_per_s,
        "devices_per_s": result.num_devices / result.elapsed_s,
    }


def _best_of(runner, rounds: int = 2):
    """Warm a mode up once, then keep its fastest timed round.

    Every mode gets the same treatment — one discarded warm-up run
    followed by ``rounds`` timed runs — so no path is compared warm
    against another path's cold first call, and a single scheduling
    blip on a loaded CI runner cannot fail the hard throughput gates
    below.
    """
    runner()
    results = [runner() for _ in range(rounds)]
    return min(results, key=lambda result: result.elapsed_s)


def _race(*runners, rounds: int = 3, keep: str = "best"):
    """Interleave contestants round by round; keep each one's best.

    Interleaving (instead of timing one mode's rounds back to back)
    spreads machine-load noise evenly over every contestant, and the
    collection before every timed run stops one mode's garbage from
    being charged to another — together they are what make the
    speedup gates below meaningful on shared hardware.  ``keep="all"``
    returns every round's result per contestant instead of the best,
    for gates that compare paired totals.
    """
    for runner in runners:
        runner()
    results = [[] for _ in runners]
    for _ in range(rounds):
        for index, runner in enumerate(runners):
            gc.collect()
            results[index].append(runner())
    if keep == "all":
        return tuple(results)
    return tuple(
        min(outcomes, key=lambda result: result.elapsed_s)
        for outcomes in results
    )


def test_fleet_throughput_modes(benchmark, fleet_setup):
    pipeline, population = fleet_setup
    pr1_style, _ = _make_engine(pipeline, "batched")
    pr2_style, _ = _make_engine(pipeline, "incremental")
    bank_engine, bank_trace = _make_engine(pipeline, "controller_bank")
    noise_engine, noise_trace = _make_engine(pipeline, "batched_noise")
    f32_engine, f32_trace = _make_engine(pipeline, "float32")
    f32_runtime = f32_engine.build_runtime(population)
    sharded_engine = ShardedFleetSimulator(pipeline)

    first_incremental = benchmark.pedantic(
        pr2_style.run,
        args=(population,),
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    incremental = min(
        (first_incremental, pr2_style.run(population)),
        key=lambda result: result.elapsed_s,
    )
    controller_bank = _best_of(lambda: bank_engine.run(population, trace=bank_trace))
    batched_noise = _best_of(
        lambda: noise_engine.run(population, trace=noise_trace)
    )
    float32 = _best_of(
        lambda: f32_engine.run(runtime=f32_runtime, trace=f32_trace)
    )
    batched = _best_of(lambda: pr1_style.run(population))
    sequential = _best_of(lambda: pr1_style.run_sequential(population))
    sharded_run = _best_of(lambda: sharded_engine.run(population, trace="summary"))
    sharded = sharded_run.result

    report = {
        "num_devices": NUM_DEVICES,
        "duration_s": DURATION_S,
        "seed": BENCH_SEED,
        "modes": {
            "sequential": _mode_entry(sequential),
            "batched": _mode_entry(batched),
            "incremental": _mode_entry(incremental),
            "controller_bank": _mode_entry(controller_bank),
            "batched_noise": _mode_entry(batched_noise),
            "float32": {
                **_mode_entry(float32),
                "dtype": "float32",
                "runtime_reused": True,
            },
            "sharded": {
                **_mode_entry(sharded),
                "num_shards": sharded_run.num_shards,
                "used_processes": sharded_run.used_processes,
            },
        },
        "speedup_incremental_vs_batched": batched.elapsed_s / incremental.elapsed_s,
        "speedup_batched_vs_sequential": sequential.elapsed_s / batched.elapsed_s,
        "speedup_bank_vs_incremental": incremental.elapsed_s
        / controller_bank.elapsed_s,
        "speedup_noise_vs_bank": controller_bank.elapsed_s
        / batched_noise.elapsed_s,
        "speedup_float32_vs_noise": batched_noise.elapsed_s
        / float32.elapsed_s,
    }
    if not SMOKE:
        _write_bench_json(report)
        append_bench_history(
            "fleet_modes",
            {
                "num_devices": NUM_DEVICES,
                "devices_per_s": {
                    name: entry["devices_per_s"]
                    for name, entry in report["modes"].items()
                },
                "gates": {
                    "incremental_vs_batched": report[
                        "speedup_incremental_vs_batched"
                    ],
                    "bank_vs_sequential": sequential.elapsed_s
                    / controller_bank.elapsed_s,
                },
            },
        )

    print_report(
        "Fleet throughput — execution paths over one 50-device population",
        "\n".join(
            [
                f"devices                : {NUM_DEVICES}",
                f"simulated device-time  : {incremental.device_seconds:.0f} s",
            ]
            + [
                (
                    f"{name:<23}: {result.elapsed_s:8.3f} s wall "
                    f"({result.throughput_device_seconds_per_s:8.0f} device-s/s)"
                )
                for name, result in (
                    ("sequential reference", sequential),
                    ("batched", batched),
                    ("incremental", incremental),
                    ("controller_bank", controller_bank),
                    ("batched_noise", batched_noise),
                    ("float32 lane", float32),
                    ("sharded", sharded),
                )
            ]
            + [
                (
                    "incremental vs batched : "
                    f"{report['speedup_incremental_vs_batched']:8.2f}x"
                ),
                (
                    "bank vs incremental    : "
                    f"{report['speedup_bank_vs_incremental']:8.2f}x"
                ),
                (
                    "noise vs bank          : "
                    f"{report['speedup_noise_vs_bank']:8.2f}x"
                ),
                (
                    "float32 vs noise       : "
                    f"{report['speedup_float32_vs_noise']:8.2f}x"
                ),
                f"report                 -> {BENCH_JSON_PATH.name}",
            ]
        ),
    )

    # Sanity: every engine simulated the same fleet...
    assert (
        sequential.num_devices
        == batched.num_devices
        == incremental.num_devices
        == controller_bank.num_devices
        == batched_noise.num_devices
        == float32.num_devices
        == sharded.num_devices
        == NUM_DEVICES
    )
    assert batched.device_seconds == sequential.device_seconds
    assert incremental.device_seconds == sequential.device_seconds
    assert controller_bank.device_seconds == sequential.device_seconds
    assert batched_noise.device_seconds == sequential.device_seconds
    assert float32.device_seconds == sequential.device_seconds
    # ...and the banked engine must not be slower than the reference loop.
    assert SMOKE or controller_bank.elapsed_s <= sequential.elapsed_s, (
        f"controller-bank fleet simulation took "
        f"{controller_bank.elapsed_s:.3f} s but the sequential reference "
        f"loop took {sequential.elapsed_s:.3f} s for {NUM_DEVICES} devices"
    )


def test_fleet_throughput_scaling_sweep(fleet_setup):
    """Race the incremental, controller-bank, batched-noise and
    float32-lane recipes over growing device counts; gate the float32
    speedup at the top."""
    pipeline, _ = fleet_setup
    pr2_style, _ = _make_engine(pipeline, "incremental")
    bank_engine, bank_trace = _make_engine(pipeline, "controller_bank")
    noise_engine, noise_trace = _make_engine(pipeline, "batched_noise")
    f32_engine, f32_trace = _make_engine(pipeline, "float32")

    sweep = {}
    for count in SWEEP_DEVICES:
        population = DevicePopulation.generate(
            count, duration_s=SWEEP_DURATION_S, master_seed=BENCH_SEED
        )
        # The float32 lane is benchmarked the way it is meant to be
        # deployed: one reusable runtime per population, reset between
        # runs, so repeated runs skip runtime construction and
        # spectral-plan rebuilds (both are part of what the other
        # recipes re-pay every run).
        f32_runtime = f32_engine.build_runtime(population)
        rounds = 4 if count == max(SWEEP_DEVICES) else 2
        incremental, controller_bank, batched_noise, float32 = _race(
            lambda: pr2_style.run(population),
            lambda: bank_engine.run(population, trace=bank_trace),
            lambda: noise_engine.run(population, trace=noise_trace),
            lambda: f32_engine.run(runtime=f32_runtime, trace=f32_trace),
            rounds=rounds,
        )
        sweep[str(count)] = {
            "incremental": _mode_entry(incremental),
            "controller_bank": _mode_entry(controller_bank),
            "batched_noise": _mode_entry(batched_noise),
            "float32": {
                **_mode_entry(float32),
                "dtype": "float32",
                "runtime_reused": True,
            },
            "speedup_bank_vs_incremental": incremental.elapsed_s
            / controller_bank.elapsed_s,
            "speedup_noise_vs_bank": controller_bank.elapsed_s
            / batched_noise.elapsed_s,
            "speedup_float32_vs_noise": batched_noise.elapsed_s
            / float32.elapsed_s,
        }

    top = str(max(SWEEP_DEVICES))
    if not SMOKE:
        _write_bench_json(
            {
                "scaling": {
                    "duration_s": SWEEP_DURATION_S,
                    "seed": BENCH_SEED,
                    "devices": sweep,
                }
            }
        )
        append_bench_history(
            "fleet_scaling",
            {
                "num_devices": int(top),
                "devices_per_s": {
                    name: sweep[top][name]["devices_per_s"]
                    for name in (
                        "incremental", "controller_bank",
                        "batched_noise", "float32",
                    )
                },
                "gates": {
                    "bank_vs_incremental": sweep[top][
                        "speedup_bank_vs_incremental"
                    ],
                    "noise_vs_bank": sweep[top]["speedup_noise_vs_bank"],
                    "float32_vs_noise": sweep[top][
                        "speedup_float32_vs_noise"
                    ],
                    "min_float32_speedup": MIN_FLOAT32_SPEEDUP,
                },
            },
        )
    print_report(
        "Fleet throughput — device-count scaling sweep",
        "\n".join(
            [
                f"duration per device    : {SWEEP_DURATION_S:.0f} s",
            ]
            + [
                (
                    f"{count:>6} devices        : "
                    f"incr {entry['incremental']['devices_per_s']:7.1f}  "
                    f"bank {entry['controller_bank']['devices_per_s']:7.1f}  "
                    f"noise {entry['batched_noise']['devices_per_s']:7.1f}  "
                    f"f32 {entry['float32']['devices_per_s']:7.1f} dev/s  "
                    f"(bank {entry['speedup_bank_vs_incremental']:.2f}x, "
                    f"noise {entry['speedup_noise_vs_bank']:.2f}x, "
                    f"f32 {entry['speedup_float32_vs_noise']:.2f}x)"
                )
                for count, entry in sweep.items()
            ]
            + [
                f"gate (at {top} devices): float32 >= {MIN_FLOAT32_SPEEDUP}x"
            ]
        ),
    )

    float32_speedup = sweep[top]["speedup_float32_vs_noise"]
    assert float32_speedup >= MIN_FLOAT32_SPEEDUP, (
        f"float32-lane throughput is only {float32_speedup:.2f}x the "
        f"float64 batched-noise recipe (required: {MIN_FLOAT32_SPEEDUP}x) "
        f"at {top} devices"
    )


def test_fleet_fast_paths_match_sequential_reference(fleet_setup):
    """The speedup must not cost fidelity: banked and sharded runs are
    bit-identical to the independent per-device reference loop for the whole
    population, and summary-mode telemetry (single-process and sharded)
    matches the telemetry of the sequential traces."""
    pipeline, population = fleet_setup
    simulator = FleetSimulator(pipeline)
    sequential = simulator.run_sequential(population)
    banked = simulator.run(population)
    sharded_run = ShardedFleetSimulator(pipeline).run(population, trace="summary")

    for left, right in zip(banked.traces, sequential.traces):
        assert traces_equal(left, right)
    reference_telemetry = FleetTelemetry.from_result(sequential).to_dict()
    assert (
        FleetTelemetry.from_result(
            simulator.run(population, trace="summary")
        ).to_dict()
        == reference_telemetry
    )
    assert sharded_run.telemetry.to_dict() == reference_telemetry

    # The batched acquisition layer has its own reference: within
    # noise="batched" every engine spelling is bit-identical too.
    noise_engine = FleetSimulator(pipeline, noise="batched")
    for left, right in zip(
        noise_engine.run(population).traces,
        noise_engine.run_sequential(population).traces,
    ):
        assert traces_equal(left, right)


#: Where the machine-readable campaign report lands.
CAMPAIGN_JSON_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_campaign.json"
)


def test_campaign_fused_vs_naive(fleet_setup):
    """The fused campaign must beat running its variants sequentially.

    A 16-variant controller grid (SPOT thresholds x confidence cutoffs)
    over one 1000-device population is executed twice through the
    ``campaign`` recipe: fused (one stacked fleet of 16 000 virtual
    devices, shared signals / tables / plans / classify batches) and
    naive (16 independent fleet runs).  The fused run must deliver at
    least ``REPRO_MIN_CAMPAIGN_SPEEDUP``x (default 2x) the naive wall
    clock, while producing bit-identical per-variant telemetry — the
    speedup is pure redundancy elimination, not approximation.
    """
    from repro.campaign import CampaignRunner, variant_grid

    pipeline, _ = fleet_setup
    kwargs, trace = recipe_settings("campaign")
    variants = variant_grid(
        stability_thresholds=CAMPAIGN_THRESHOLDS,
        confidence_thresholds=CAMPAIGN_CONFIDENCES,
    )
    assert SMOKE or len(variants) == campaign_variant_count()
    population = DevicePopulation.generate(
        CAMPAIGN_DEVICES, duration_s=CAMPAIGN_DURATION_S, master_seed=BENCH_SEED
    )

    # Warm the process-wide spectral plan cache and every lazy import so
    # neither contestant pays one-time process costs.
    warm_pop = DevicePopulation.generate(
        4, duration_s=CAMPAIGN_DURATION_S, master_seed=BENCH_SEED
    )
    warm_runner = CampaignRunner(pipeline, variants[:2], **kwargs)
    warm_runner.run(warm_pop, trace=trace)
    warm_runner.run_naive(warm_pop, trace=trace)

    registry = MetricsRegistry()
    metered_runner = CampaignRunner(
        pipeline, variants, metrics=registry, **kwargs
    )
    gc.collect()
    fused = metered_runner.run(population, trace=trace)
    plain_runner = CampaignRunner(pipeline, variants, **kwargs)
    gc.collect()
    naive = plain_runner.run_naive(population, trace=trace)

    # Fidelity: the fused campaign's per-variant telemetry equals the
    # naive (independent-runs) telemetry, variant by variant.
    for fused_t, naive_t in zip(fused.telemetries, naive.telemetries):
        assert fused_t.to_dict() == naive_t.to_dict()

    ratio = naive.elapsed_s / fused.elapsed_s
    shared_hits = registry.counter_value("campaign.shared_group_hits")
    report = {
        "num_devices": CAMPAIGN_DEVICES,
        "num_variants": len(variants),
        "duration_s": CAMPAIGN_DURATION_S,
        "seed": BENCH_SEED,
        "recipe": "campaign",
        "fused": {
            **_mode_entry(fused),
            "virtual_devices": fused.virtual_devices,
            "simulated_devices": fused.simulated_devices,
            "shared_group_hits": shared_hits,
            "metered": True,
        },
        "naive": _mode_entry(naive),
        "speedup_fused_vs_naive": ratio,
        "min_campaign_speedup": MIN_CAMPAIGN_SPEEDUP,
        "pareto_scenarios": sorted(fused.fronts),
        "meta": run_metadata(
            smoke=SMOKE,
            variants=len(variants),
            naive_vs_fused_ratio=ratio,
        ),
    }
    if not SMOKE:
        CAMPAIGN_JSON_PATH.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        append_bench_history(
            "campaign",
            {
                "num_devices": CAMPAIGN_DEVICES,
                "num_variants": len(variants),
                "devices_per_s": {
                    "fused": report["fused"]["devices_per_s"],
                    "naive": report["naive"]["devices_per_s"],
                },
                "gates": {
                    "fused_vs_naive": ratio,
                    "min_campaign_speedup": MIN_CAMPAIGN_SPEEDUP,
                },
            },
        )

    print_report(
        "Campaign throughput — fused stacked fleet vs sequential variants",
        "\n".join(
            [
                f"variants               : {len(variants)}",
                f"devices                : {CAMPAIGN_DEVICES} physical, "
                f"{fused.virtual_devices} virtual",
                f"fused                  : {fused.elapsed_s:8.3f} s wall "
                f"({fused.throughput_device_seconds_per_s:8.0f} device-s/s)",
                f"naive (sequential)     : {naive.elapsed_s:8.3f} s wall "
                f"({naive.throughput_device_seconds_per_s:8.0f} device-s/s)",
                f"fused vs naive         : {ratio:8.2f}x "
                f"(gate: {MIN_CAMPAIGN_SPEEDUP}x)",
                f"shared signal rows     : {shared_hits:8.0f}",
                f"report                 -> {CAMPAIGN_JSON_PATH.name}",
            ]
        ),
    )

    assert shared_hits > 0.0, (
        "the fused campaign never shared a signal-table row across "
        "variants — cross-variant compute sharing is not engaged"
    )
    assert ratio >= MIN_CAMPAIGN_SPEEDUP, (
        f"fused campaign throughput is only {ratio:.2f}x the naive "
        f"sequential-variants baseline (required: {MIN_CAMPAIGN_SPEEDUP}x) "
        f"at {len(variants)} variants x {CAMPAIGN_DEVICES} devices"
    )


def test_fleet_metrics_overhead(fleet_setup):
    """Metering must be near-free: racing a metered batched-noise run
    against an unmetered one at the largest sweep count, the metered
    run may be at most ``REPRO_MAX_METRICS_OVERHEAD`` (default 3 %)
    slower."""
    pipeline, _ = fleet_setup
    count = max(SWEEP_DEVICES)
    population = DevicePopulation.generate(
        count, duration_s=SWEEP_DURATION_S, master_seed=BENCH_SEED
    )
    kwargs, trace = recipe_settings("batched_noise")
    registry = MetricsRegistry()
    plain_engine = FleetSimulator(pipeline, **kwargs)
    metered_engine = FleetSimulator(pipeline, metrics=registry, **kwargs)

    # Paired totals over interleaved rounds, not best-of: single-round
    # wall clocks on a shared machine swing by more than the overhead
    # being measured, and interleaving cancels slow load drift.
    rounds = 2 if SMOKE else 5
    plain_runs, metered_runs = _race(
        lambda: plain_engine.run(population, trace=trace),
        lambda: metered_engine.run(population, trace=trace),
        rounds=rounds,
        keep="all",
    )
    plain_total = sum(result.elapsed_s for result in plain_runs)
    metered_total = sum(result.elapsed_s for result in metered_runs)
    overhead = metered_total / plain_total - 1.0
    plain = min(plain_runs, key=lambda result: result.elapsed_s)
    metered = min(metered_runs, key=lambda result: result.elapsed_s)

    # The registry really recorded the runs it claims to have metered.
    assert registry.counter_value("engine.runs") == rounds + 1
    assert registry.counter_value("engine.windows_classified") > 0.0
    assert "tick.sense" in registry.snapshot().histograms

    if not SMOKE:
        _write_bench_json(
            {
                "metrics_overhead": {
                    "num_devices": count,
                    "duration_s": SWEEP_DURATION_S,
                    "recipe": "batched_noise",
                    "unmetered": _mode_entry(plain),
                    "metered": _mode_entry(metered),
                    "overhead": overhead,
                    "max_overhead": MAX_METRICS_OVERHEAD,
                }
            }
        )
        append_bench_history(
            "metrics_overhead",
            {
                "num_devices": count,
                "devices_per_s": {
                    "unmetered": count / plain.elapsed_s,
                    "metered": count / metered.elapsed_s,
                },
                "gates": {
                    "overhead": overhead,
                    "max_overhead": MAX_METRICS_OVERHEAD,
                },
            },
        )

    print_report(
        "Fleet metrics overhead — metered vs unmetered batched_noise",
        "\n".join(
            [
                f"devices                : {count}",
                f"unmetered              : {plain.elapsed_s:8.3f} s wall "
                f"({plain.throughput_device_seconds_per_s:8.0f} device-s/s)",
                f"metered                : {metered.elapsed_s:8.3f} s wall "
                f"({metered.throughput_device_seconds_per_s:8.0f} device-s/s)",
                f"overhead               : {100.0 * overhead:8.2f} % "
                f"(gate: {100.0 * MAX_METRICS_OVERHEAD:.0f} %)",
            ]
        ),
    )

    assert SMOKE or overhead <= MAX_METRICS_OVERHEAD, (
        f"metered run is {100.0 * overhead:.2f}% slower than unmetered "
        f"(allowed: {100.0 * MAX_METRICS_OVERHEAD:.0f}%) at {count} devices"
    )


def test_fleet_resilience_overhead(fleet_setup):
    """Fault tolerance must be near-free when nothing fails: racing a
    supervised single-shard run (retries enabled, no faults injected)
    against a plain single-process run of the same recipe, the
    supervised run may be at most ``REPRO_MAX_RESILIENCE_OVERHEAD``
    (default 3 %) slower.  A round-segmented variant (four supervised
    segments, as a checkpointed campaign would run them, minus the
    checkpoint I/O) rides along ungated for the report: each segment
    boundary re-materialises the per-device summaries, which is part
    of the price of opting into checkpoints, not of the supervisor."""
    pipeline, _ = fleet_setup
    count = max(SWEEP_DEVICES)
    population = DevicePopulation.generate(
        count, duration_s=SWEEP_DURATION_S, master_seed=BENCH_SEED
    )
    kwargs, trace = recipe_settings("batched_noise")
    plain_engine = FleetSimulator(pipeline, **kwargs)
    control_engine = FleetSimulator(pipeline, **kwargs)
    # One shard keeps the comparison apples-to-apples: no fork wins or
    # losses, just the supervisor wrapped around the same inline run.
    resilient_engine = ShardedFleetSimulator(
        pipeline, num_shards=1, fault_plan="", **kwargs
    )
    segmented_engine = ShardedFleetSimulator(
        pipeline,
        num_shards=1,
        round_s=SWEEP_DURATION_S / 4.0,
        fault_plan="",
        **kwargs,
    )

    # Four interleaved contestants; the second is an A/A control (the
    # identical plain recipe again), which turns this into a
    # self-calibrating gate: loaded shared hosts swing wall clocks by
    # more than the 3 % being measured, and whatever apparent
    # "overhead" the control shows against the baseline is pure
    # measurement noise, added to the allowance below.
    rounds = 2 if SMOKE else 7
    plain_runs, control_runs, resilient_runs, segmented_runs = _race(
        lambda: plain_engine.run(population, trace=trace),
        lambda: control_engine.run(population, trace=trace),
        lambda: resilient_engine.run(population, trace=trace).result,
        lambda: segmented_engine.run(population, trace=trace).result,
        rounds=rounds,
        keep="all",
    )

    # Median of the per-round paired ratios, not a ratio of totals, so
    # a single scheduling blip poisoning one round's wall clock cannot
    # dominate the statistic.
    def _median_overhead(contestant_runs):
        ratios = sorted(
            contestant.elapsed_s / base.elapsed_s
            for contestant, base in zip(contestant_runs, plain_runs)
        )
        middle = len(ratios) // 2
        if len(ratios) % 2:
            return ratios[middle] - 1.0
        return (ratios[middle - 1] + ratios[middle]) / 2.0 - 1.0

    noise_floor = abs(_median_overhead(control_runs))
    overhead = _median_overhead(resilient_runs)
    segmented_overhead = _median_overhead(segmented_runs)
    allowed = MAX_RESILIENCE_OVERHEAD + noise_floor
    plain = min(plain_runs, key=lambda result: result.elapsed_s)
    resilient = min(resilient_runs, key=lambda result: result.elapsed_s)
    segmented = min(segmented_runs, key=lambda result: result.elapsed_s)

    # Fidelity first: supervised and segmented runs are bit-identical
    # (summary-mode recipe, so equality is checked on the telemetry).
    reference = FleetTelemetry.from_result(plain).to_dict()
    assert FleetTelemetry.from_result(resilient).to_dict() == reference
    assert FleetTelemetry.from_result(segmented).to_dict() == reference

    if not SMOKE:
        _write_bench_json(
            {
                "resilience_overhead": {
                    "num_devices": count,
                    "duration_s": SWEEP_DURATION_S,
                    "recipe": "batched_noise",
                    "plain": _mode_entry(plain),
                    "supervised": _mode_entry(resilient),
                    "segmented": _mode_entry(segmented),
                    "overhead": overhead,
                    "segmented_overhead": segmented_overhead,
                    "noise_floor": noise_floor,
                    "max_overhead": MAX_RESILIENCE_OVERHEAD,
                }
            }
        )
        append_bench_history(
            "resilience_overhead",
            {
                "num_devices": count,
                "devices_per_s": {
                    "plain": count / plain.elapsed_s,
                    "supervised": count / resilient.elapsed_s,
                    "segmented": count / segmented.elapsed_s,
                },
                "gates": {
                    "overhead": overhead,
                    "noise_floor": noise_floor,
                    "max_overhead": MAX_RESILIENCE_OVERHEAD,
                },
            },
        )

    print_report(
        "Fleet resilience overhead — supervised (and segmented) vs plain",
        "\n".join(
            [
                f"devices                : {count}",
                f"plain                  : {plain.elapsed_s:8.3f} s wall "
                f"({plain.throughput_device_seconds_per_s:8.0f} device-s/s)",
                f"supervised             : {resilient.elapsed_s:8.3f} s wall "
                f"({resilient.throughput_device_seconds_per_s:8.0f} device-s/s)",
                f"segmented (4 rounds)   : {segmented.elapsed_s:8.3f} s wall "
                f"({segmented.throughput_device_seconds_per_s:8.0f} device-s/s)",
                f"overhead               : {100.0 * overhead:8.2f} % "
                f"(gate: {100.0 * MAX_RESILIENCE_OVERHEAD:.0f} % + "
                f"{100.0 * noise_floor:.2f} % A/A noise floor)",
                f"segmented overhead     : {100.0 * segmented_overhead:8.2f} % "
                f"(ungated)",
            ]
        ),
    )

    assert SMOKE or overhead <= allowed, (
        f"supervised run is {100.0 * overhead:.2f}% slower than plain "
        f"(allowed: {100.0 * MAX_RESILIENCE_OVERHEAD:.0f}% + "
        f"{100.0 * noise_floor:.2f}% measured A/A noise) at {count} devices"
    )


def test_fleet_heartbeat_overhead(fleet_setup):
    """Live telemetry must be near-free: racing a heartbeat-monitored
    supervised run against the same supervised run without a monitor
    at the largest sweep count, the monitored run may be at most
    ``REPRO_MAX_HEARTBEAT_OVERHEAD`` (default 3 %) slower.  The
    baseline is the *supervised* single-shard run, so the gate
    isolates the cost of heartbeats (segment sub-division, phase-delta
    reads, event folding) from the already-gated supervisor cost; the
    same A/A-control noise floor and median-of-paired-ratios statistic
    as the resilience gate keep it meaningful on shared hosts."""
    from repro.obs import RunMonitor

    pipeline, _ = fleet_setup
    count = max(SWEEP_DEVICES)
    population = DevicePopulation.generate(
        count, duration_s=SWEEP_DURATION_S, master_seed=BENCH_SEED
    )
    kwargs, trace = recipe_settings("batched_noise")
    plain_engine = ShardedFleetSimulator(
        pipeline, num_shards=1, fault_plan="", **kwargs
    )
    control_engine = ShardedFleetSimulator(
        pipeline, num_shards=1, fault_plan="", **kwargs
    )
    monitor = RunMonitor()  # default heartbeat cadence, no sinks
    monitored_engine = ShardedFleetSimulator(
        pipeline, num_shards=1, fault_plan="", monitor=monitor, **kwargs
    )

    rounds = 2 if SMOKE else 7
    plain_runs, control_runs, monitored_runs = _race(
        lambda: plain_engine.run(population, trace=trace).result,
        lambda: control_engine.run(population, trace=trace).result,
        lambda: monitored_engine.run(population, trace=trace).result,
        rounds=rounds,
        keep="all",
    )

    def _median_overhead(contestant_runs):
        ratios = sorted(
            contestant.elapsed_s / base.elapsed_s
            for contestant, base in zip(contestant_runs, plain_runs)
        )
        middle = len(ratios) // 2
        if len(ratios) % 2:
            return ratios[middle] - 1.0
        return (ratios[middle - 1] + ratios[middle]) / 2.0 - 1.0

    noise_floor = abs(_median_overhead(control_runs))
    overhead = _median_overhead(monitored_runs)
    allowed = MAX_HEARTBEAT_OVERHEAD + noise_floor
    plain = min(plain_runs, key=lambda result: result.elapsed_s)
    monitored = min(monitored_runs, key=lambda result: result.elapsed_s)

    # Fidelity first: the monitored run is bit-identical (summary-mode
    # recipe, so equality is checked on the telemetry), and the monitor
    # really heard heartbeats.
    reference = FleetTelemetry.from_result(plain).to_dict()
    assert FleetTelemetry.from_result(monitored).to_dict() == reference
    assert monitor.counters.get("heartbeat.received", 0.0) > 0.0

    if not SMOKE:
        _write_bench_json(
            {
                "heartbeat_overhead": {
                    "num_devices": count,
                    "duration_s": SWEEP_DURATION_S,
                    "recipe": "batched_noise",
                    "supervised": _mode_entry(plain),
                    "monitored": _mode_entry(monitored),
                    "overhead": overhead,
                    "noise_floor": noise_floor,
                    "max_overhead": MAX_HEARTBEAT_OVERHEAD,
                }
            }
        )
        append_bench_history(
            "heartbeat_overhead",
            {
                "num_devices": count,
                "devices_per_s": {
                    "supervised": count / plain.elapsed_s,
                    "monitored": count / monitored.elapsed_s,
                },
                "gates": {
                    "overhead": overhead,
                    "noise_floor": noise_floor,
                    "max_overhead": MAX_HEARTBEAT_OVERHEAD,
                },
            },
        )

    print_report(
        "Fleet heartbeat overhead — monitored vs unmonitored supervised",
        "\n".join(
            [
                f"devices                : {count}",
                f"supervised             : {plain.elapsed_s:8.3f} s wall "
                f"({plain.throughput_device_seconds_per_s:8.0f} device-s/s)",
                f"monitored              : {monitored.elapsed_s:8.3f} s wall "
                f"({monitored.throughput_device_seconds_per_s:8.0f} device-s/s)",
                f"heartbeats received    : "
                f"{monitor.counters.get('heartbeat.received', 0.0):8.0f}",
                f"overhead               : {100.0 * overhead:8.2f} % "
                f"(gate: {100.0 * MAX_HEARTBEAT_OVERHEAD:.0f} % + "
                f"{100.0 * noise_floor:.2f} % A/A noise floor)",
            ]
        ),
    )

    assert SMOKE or overhead <= allowed, (
        f"heartbeat-monitored run is {100.0 * overhead:.2f}% slower than "
        f"the unmonitored supervised run (allowed: "
        f"{100.0 * MAX_HEARTBEAT_OVERHEAD:.0f}% + "
        f"{100.0 * noise_floor:.2f}% measured A/A noise) at {count} devices"
    )
