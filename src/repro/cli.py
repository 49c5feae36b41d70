"""Command-line interface for the AdaSense reproduction.

The CLI wraps the most common workflows so they can be run without writing
Python:

``adasense-repro experiments`` (or ``python -m repro.cli experiments``)
    List the available paper artefacts.
``adasense-repro run <experiment>``
    Run one experiment driver (Table I, Fig. 2, Fig. 5, Fig. 6, Fig. 7,
    memory, headline, mismatch) and print the paper-style table.
``adasense-repro train``
    Train the shared classifier and save it (plus its scaler) to a JSON
    file that ``simulate`` can reuse.
``adasense-repro simulate``
    Run the closed loop on a user-activity setting with a chosen
    controller and print the power/accuracy summary.
``adasense-repro fleet``
    Simulate a heterogeneous population of devices with the vectorized
    fleet engine and print (or export as JSON) fleet-level telemetry.
``adasense-repro campaign``
    Grid controller hyperparameters over one population and run every
    variant as a single fused stacked fleet, emitting per-archetype
    Pareto fronts (accuracy vs energy vs battery).

Every command accepts ``--seed`` so results are reproducible.  The
``repro`` console script and ``python -m repro`` invoke the same
entry point.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.core.adasense import AdaSense
from repro.core.controller import (
    AdaptiveController,
    SpotController,
    SpotWithConfidenceController,
    StaticController,
)
from repro.core.pipeline import HarPipeline
from repro.datasets.scenarios import ActivitySetting, make_setting_schedule
from repro.fleet import (
    DevicePopulation,
    FleetSimulator,
    FleetTelemetry,
    ShardedFleetSimulator,
)
from repro.ml.persistence import load_model, save_model
from repro.obs import (
    DEFAULT_HEARTBEAT_S,
    LOG_LEVELS,
    MetricsRegistry,
    RunMonitor,
    configure_logging,
    to_prometheus_text,
    write_chrome_trace,
    write_metrics_json,
)

#: Experiment name -> callable returning an object with ``format_table()``.
ExperimentRunner = Callable[[str, int], object]


def _run_table1(scale: str, seed: int):
    from repro.experiments.table1 import run_table1

    return run_table1()


def _run_fig2(scale: str, seed: int):
    from repro.experiments.fig2_dse import run_fig2

    windows = 60 if scale == "quick" else 120
    return run_fig2(windows_per_activity=windows, seed=seed)


def _run_fig5(scale: str, seed: int):
    from repro.experiments.fig5_behavior import run_fig5

    return run_fig5(scale=scale)


def _run_fig6(scale: str, seed: int):
    from repro.experiments.fig6_power_accuracy import run_fig6

    return run_fig6(scale=scale, seed=seed)


def _run_fig7(scale: str, seed: int):
    from repro.experiments.fig7_comparison import run_fig7

    return run_fig7(scale=scale, seed=seed)


def _run_memory(scale: str, seed: int):
    from repro.experiments.memory_overhead import run_memory_overhead

    return run_memory_overhead(scale=scale, seed=seed)


def _run_headline(scale: str, seed: int):
    from repro.experiments.headline import run_headline

    return run_headline(scale=scale, seed=seed)


def _run_mismatch(scale: str, seed: int):
    from repro.experiments.mismatch import run_mismatch

    windows = 30 if scale == "quick" else 120
    return run_mismatch(windows_per_activity_per_config=windows, seed=seed)


EXPERIMENTS: Dict[str, tuple[str, ExperimentRunner]] = {
    "table1": ("Table I — explored sensor configurations", _run_table1),
    "fig2": ("Fig. 2 — accuracy/current trade-off and Pareto front", _run_fig2),
    "fig5": ("Fig. 5 — behavioural analysis (sit then walk)", _run_fig5),
    "fig6": ("Fig. 6 — accuracy and power vs stability threshold", _run_fig6),
    "fig7": ("Fig. 7 — AdaSense vs the intensity-based approach", _run_fig7),
    "memory": ("Section V-D — memory and processing overhead", _run_memory),
    "headline": ("Headline — power reduction vs accuracy loss", _run_headline),
    "mismatch": ("Motivation — configuration-mismatch experiment", _run_mismatch),
}

_CONTROLLERS = ("static", "spot", "spot_confidence")

#: Classification period of every engine the CLI builds (their default).
_TICK_S = 1.0


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse type: an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _positive_float(text: str) -> float:
    """argparse type: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}"
        )
    return value


def _grid_axis(field_name: str, convert: Callable) -> Callable[[str], str]:
    """argparse type for a comma-separated campaign grid axis.

    Every item is converted and checked with the grid's own validator
    (:func:`repro.campaign.grid.check_axis_value`), so a bad value
    fails at parse time instead of after training.  The text itself is
    returned unchanged: callers split it themselves.
    """

    def parse(text: str) -> str:
        from repro.campaign.grid import check_axis_value

        items = [part for part in text.split(",") if part]
        if not items:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list, got {text!r}"
            )
        for item in items:
            try:
                value = convert(item)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"cannot parse {item!r}"
                ) from None
            try:
                check_axis_value(field_name, value)
            except ValueError as error:
                raise argparse.ArgumentTypeError(str(error)) from None
        return text

    return parse


def _fleet_duration(text: str) -> float:
    """argparse type: simulated seconds covering at least one tick."""
    value = _positive_float(text)
    if value < _TICK_S:
        raise argparse.ArgumentTypeError(
            f"must cover at least one {_TICK_S:g} s tick, got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="adasense-repro",
        description="AdaSense (DAC 2020) reproduction command-line interface.",
    )
    # Shared by every subcommand so the flag works in either position
    # (``repro fleet --log-level debug``).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level", choices=LOG_LEVELS, default=None,
        help="route diagnostic logging to stderr at this level "
             "(sharded workers prefix their lines with [shard N])",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "experiments", help="list the reproducible paper artefacts",
        parents=[common],
    )

    run_parser = subparsers.add_parser(
        "run", help="run one experiment driver", parents=[common]
    )
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument(
        "--scale", choices=("quick", "paper"), default="quick",
        help="experiment fidelity (default: quick)",
    )
    run_parser.add_argument("--seed", type=int, default=2020)

    train_parser = subparsers.add_parser(
        "train", help="train the shared classifier and save it to JSON",
        parents=[common],
    )
    train_parser.add_argument("--output", required=True, help="destination JSON file")
    train_parser.add_argument(
        "--windows", type=int, default=60,
        help="training windows per activity per configuration (default: 60)",
    )
    train_parser.add_argument("--hidden", type=int, default=32, help="hidden units")
    train_parser.add_argument("--seed", type=int, default=2020)

    simulate_parser = subparsers.add_parser(
        "simulate", help="run the closed loop on a user-activity setting",
        parents=[common],
    )
    simulate_parser.add_argument(
        "--setting", choices=[setting.value for setting in ActivitySetting],
        default="low", help="activity-change rate of the simulated user",
    )
    simulate_parser.add_argument("--duration", type=float, default=600.0,
                                 help="simulated seconds (default: 600)")
    simulate_parser.add_argument("--controller", choices=_CONTROLLERS,
                                 default="spot_confidence")
    simulate_parser.add_argument("--threshold", type=int, default=20,
                                 help="SPOT stability threshold in seconds")
    simulate_parser.add_argument("--confidence", type=float, default=0.85,
                                 help="confidence gate for spot_confidence")
    simulate_parser.add_argument("--model", default=None,
                                 help="JSON model saved by 'train' (otherwise trains a fresh one)")
    simulate_parser.add_argument("--windows", type=int, default=40,
                                 help="training windows per activity per configuration "
                                      "when no saved model is given")
    simulate_parser.add_argument("--seed", type=int, default=2020)

    fleet_parser = subparsers.add_parser(
        "fleet",
        help="simulate a heterogeneous device population with the fleet engine",
        parents=[common],
    )
    fleet_parser.add_argument("--devices", type=_positive_int, default=100,
                              help="number of simulated devices (default: 100)")
    fleet_parser.add_argument("--duration", type=_fleet_duration, default=600.0,
                              help="simulated seconds per device (default: 600)")
    fleet_parser.add_argument("--out", default=None,
                              help="write the full JSON telemetry report here")
    fleet_parser.add_argument(
        "--engine", choices=("batched", "sequential", "sharded"), default="batched",
        help="batched lock-step fleet engine (default), the independent "
             "per-device reference loop (sim/reference.py; full traces, "
             "bit-identical reports in float64), or the process-sharded "
             "engine",
    )
    fleet_parser.add_argument(
        "--features", choices=("incremental", "exact"), default="incremental",
        help="feature extraction: chunk-cached incremental path (default) "
             "or the exact full-window path",
    )
    fleet_parser.add_argument(
        "--shards", type=_positive_int, default=None,
        help="worker processes for --engine sharded (default: CPU count)",
    )
    fleet_parser.add_argument(
        "--max-retries", type=_non_negative_int, default=2, dest="max_retries",
        help="worker re-attempts per shard before the run fails "
             "(--engine sharded; default: 2, plus one inline last-resort "
             "attempt)",
    )
    fleet_parser.add_argument(
        "--shard-timeout", type=_positive_float, default=None,
        dest="shard_timeout",
        metavar="SECONDS",
        help="wall-clock budget per shard attempt; hung workers are "
             "terminated and retried (--engine sharded; default: no "
             "timeout)",
    )
    fleet_parser.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="checkpoint directory for --engine sharded: shards simulate "
             "in rounds (see --round) and serialise their engine state "
             "after each one, so retries and resumed campaigns continue "
             "from the last complete round bit-identically",
    )
    fleet_parser.add_argument(
        "--round", type=_positive_float, default=None, dest="round_s",
        metavar="SECONDS",
        help="simulated seconds per checkpoint round (default: 60 when "
             "--checkpoint is given)",
    )
    fleet_parser.add_argument(
        "--resume", action="store_true",
        help="resume the campaign in --checkpoint DIR from its last "
             "complete rounds (bit-identical to an uninterrupted run)",
    )
    fleet_parser.add_argument(
        "--controllers", choices=("bank", "per_object"), default="bank",
        help="bank (default): advance the built-in controller families "
             "with one vectorized array-of-states pass; per_object: leave "
             "every controller loose, each advanced by its own update() "
             "on the same execution path (bit-identical traces)",
    )
    fleet_parser.add_argument(
        "--noise", choices=("per_device", "batched"), default="per_device",
        help="measurement-noise source: each device's own generator "
             "(default, bit-exact v1.3.0 reference) or pooled counter-based "
             "per-device noise streams (statistically equivalent and "
             "shard-invariant); both read the same ring storage and cached "
             "signal tables",
    )
    fleet_parser.add_argument(
        "--dtype", choices=("float64", "float32"), default="float64",
        help="compute-lane precision: float64 (default, bit-exact with "
             "prior releases) or float32 (single-precision signal "
             "synthesis, acquisition and feature extraction; features "
             "reach the classifier as float64 either way)",
    )
    fleet_parser.add_argument(
        "--trace", choices=("summary", "full"), default="summary",
        help="collect streaming O(devices) telemetry accumulators "
             "(default) or materialise full per-step traces; reports are "
             "bit-identical (--engine sequential always records full "
             "traces)",
    )
    fleet_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="meter the run and write the metrics snapshot (counters, "
             "gauges, phase-span histograms) as JSON; metering never "
             "perturbs the simulated traces",
    )
    fleet_parser.add_argument(
        "--trace-events", default=None, metavar="PATH", dest="trace_events",
        help="meter the run and write per-tick phase spans as Chrome "
             "trace-event JSON (open in Perfetto or chrome://tracing; "
             "one lane per shard)",
    )
    fleet_parser.add_argument(
        "--prometheus", default=None, metavar="PATH",
        help="meter the run and write the snapshot in the Prometheus "
             "text exposition format",
    )
    fleet_parser.add_argument(
        "--watch", action="store_true",
        help="render a live progress/ETA status line on stderr, fed by "
             "in-flight shard heartbeats (--engine sharded; traces stay "
             "bit-identical)",
    )
    fleet_parser.add_argument(
        "--events", default=None, metavar="PATH",
        help="append the live telemetry event stream (heartbeats, "
             "attempts, checkpoints, stragglers) as NDJSON to PATH "
             "(--engine sharded)",
    )
    fleet_parser.add_argument(
        "--heartbeat", type=_positive_float, default=None, dest="heartbeat_s",
        metavar="SECONDS",
        help="simulated seconds between shard heartbeats (--engine "
             f"sharded; default: {DEFAULT_HEARTBEAT_S:g} when live "
             "telemetry is enabled)",
    )
    fleet_parser.add_argument(
        "--flight", default=None, metavar="DIR",
        help="flight-recorder directory: on a worker death, timeout or "
             "corrupt payload the recent event ring for that shard is "
             "dumped here (--engine sharded; defaults to --checkpoint "
             "DIR when set)",
    )
    fleet_parser.add_argument("--model", default=None,
                              help="JSON model saved by 'train' (otherwise trains a fresh one)")
    fleet_parser.add_argument("--windows", type=_positive_int, default=40,
                              help="training windows per activity per configuration "
                                   "when no saved model is given")
    fleet_parser.add_argument("--seed", type=int, default=2020,
                              help="master seed for the population, the training "
                                   "data and every device's random stream")

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run a controller hyperparameter grid as one fused stacked fleet",
        parents=[common],
    )
    campaign_parser.add_argument("--devices", type=_positive_int, default=100,
                                 help="physical devices in the shared population "
                                      "(default: 100)")
    campaign_parser.add_argument("--duration", type=_fleet_duration,
                                 default=600.0,
                                 help="simulated seconds per device (default: 600)")
    campaign_parser.add_argument(
        "--thresholds", default=None, metavar="T1,T2,...",
        type=_grid_axis("stability_threshold", int),
        help="SPOT stability thresholds to grid (comma-separated seconds)",
    )
    campaign_parser.add_argument(
        "--confidences", default=None, metavar="C1,C2,...",
        type=_grid_axis("confidence_threshold", float),
        help="confidence cutoffs to grid (comma-separated probabilities)",
    )
    campaign_parser.add_argument(
        "--kinds", default=None, metavar="K1,K2,...",
        type=_grid_axis("kind", str),
        help="controller kinds to force fleet-wide (comma-separated; "
             "any of spot, spot_confidence, static)",
    )
    campaign_parser.add_argument(
        "--tables", default=None, metavar="N1+N2,...",
        type=_grid_axis("config_table", lambda table: table.split("+")),
        help="SPOT config tables to grid: comma-separated tables, each a "
             "'+'-joined list of config names, e.g. "
             "F100_A128+F50_A16+F12.5_A8",
    )
    campaign_parser.add_argument(
        "--out", default=None,
        help="write the campaign JSON report (variants, Pareto fronts) here",
    )
    campaign_parser.add_argument(
        "--shards", type=_positive_int, default=None,
        help="split the fused fleet across worker processes on the "
             "variant axis (default: in-process)",
    )
    campaign_parser.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="checkpoint directory: the fused fleet simulates in rounds "
             "and can be resumed bit-identically with --resume",
    )
    campaign_parser.add_argument(
        "--round", type=_positive_float, default=None, dest="round_s",
        metavar="SECONDS",
        help="simulated seconds per checkpoint round (default: 60 when "
             "--checkpoint is given)",
    )
    campaign_parser.add_argument(
        "--resume", action="store_true",
        help="resume the campaign in --checkpoint DIR from its last "
             "complete rounds",
    )
    campaign_parser.add_argument(
        "--features", choices=("incremental", "exact"), default="incremental",
        help="feature extraction mode (default: incremental)",
    )
    campaign_parser.add_argument(
        "--noise", choices=("per_device", "batched"), default="batched",
        help="acquisition layer (default: batched — the lane whose signal "
             "tables share evaluations across variants)",
    )
    campaign_parser.add_argument(
        "--dtype", choices=("float64", "float32"), default="float64",
        help="compute-lane precision (default: float64)",
    )
    campaign_parser.add_argument(
        "--trace", choices=("summary", "full"), default="summary",
        help="streaming summary accumulators (default) or full traces",
    )
    campaign_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="meter the run and write the metrics snapshot as JSON "
             "(includes campaign.variants / campaign.shared_group_hits)",
    )
    campaign_parser.add_argument(
        "--watch", action="store_true",
        help="render a live progress/ETA status line on stderr, fed by "
             "in-flight shard heartbeats (forces the supervised sharded "
             "path; results stay bit-identical)",
    )
    campaign_parser.add_argument(
        "--events", default=None, metavar="PATH",
        help="append the live telemetry event stream (heartbeats, "
             "attempts, checkpoints, stragglers) as NDJSON to PATH "
             "(forces the supervised sharded path)",
    )
    campaign_parser.add_argument(
        "--heartbeat", type=_positive_float, default=None, dest="heartbeat_s",
        metavar="SECONDS",
        help="simulated seconds between shard heartbeats (default: "
             f"{DEFAULT_HEARTBEAT_S:g} when live telemetry is enabled)",
    )
    campaign_parser.add_argument(
        "--flight", default=None, metavar="DIR",
        help="flight-recorder directory for crash dumps (defaults to "
             "--checkpoint DIR when set)",
    )
    campaign_parser.add_argument("--model", default=None,
                                 help="JSON model saved by 'train' "
                                      "(otherwise trains a fresh one)")
    campaign_parser.add_argument("--windows", type=_positive_int, default=40,
                                 help="training windows per activity per "
                                      "configuration when no saved model is given")
    campaign_parser.add_argument("--seed", type=int, default=2020,
                                 help="master seed for the population, the "
                                      "training data and every device's stream")
    return parser


def _make_controller(name: str, threshold: int, confidence: float) -> AdaptiveController:
    if name == "static":
        return StaticController()
    if name == "spot":
        return SpotController(stability_threshold=threshold)
    if name == "spot_confidence":
        return SpotWithConfidenceController(
            stability_threshold=threshold, confidence_threshold=confidence
        )
    raise ValueError(f"unknown controller {name!r}")


def _command_experiments(args: argparse.Namespace, out) -> int:
    out.write("Reproducible paper artefacts:\n")
    for name, (description, _) in sorted(EXPERIMENTS.items()):
        out.write(f"  {name:<10} {description}\n")
    return 0


def _command_run(args: argparse.Namespace, out) -> int:
    description, runner = EXPERIMENTS[args.experiment]
    out.write(f"{description}\n{'=' * len(description)}\n")
    result = runner(args.scale, args.seed)
    out.write(result.format_table() + "\n")
    return 0


def _command_train(args: argparse.Namespace, out) -> int:
    system = AdaSense.train(
        windows_per_activity_per_config=args.windows,
        hidden_units=(args.hidden,),
        seed=args.seed,
    )
    pipeline = system.pipeline
    path = save_model(
        args.output,
        pipeline.classifier,
        scaler=pipeline.scaler,
        metadata={
            "windows_per_activity_per_config": args.windows,
            "hidden_units": args.hidden,
            "seed": args.seed,
        },
    )
    out.write(
        f"trained shared classifier ({pipeline.num_parameters} parameters, "
        f"{pipeline.memory_bytes()} bytes) -> {path}\n"
    )
    return 0


def _load_or_train_system(args: argparse.Namespace) -> AdaSense:
    if args.model is not None:
        classifier, scaler, _ = load_model(args.model)
        return AdaSense(pipeline=HarPipeline(classifier=classifier, scaler=scaler))
    return AdaSense.train(
        windows_per_activity_per_config=args.windows, seed=args.seed
    )


def _command_simulate(args: argparse.Namespace, out) -> int:
    system = _load_or_train_system(args)
    controller = _make_controller(args.controller, args.threshold, args.confidence)
    adaptive = system.with_controller(controller)
    schedule = make_setting_schedule(
        ActivitySetting(args.setting), total_duration_s=args.duration, seed=args.seed
    )
    trace = adaptive.simulate(schedule, seed=args.seed + 1)

    always_on = system.power_model.current_ua(StaticController().current_config)
    saving = 1.0 - trace.average_current_ua / always_on
    out.write(f"setting            : {args.setting}\n")
    out.write(f"controller         : {args.controller} (threshold {args.threshold}s)\n")
    out.write(f"simulated duration : {trace.duration_s:.0f} s\n")
    out.write(f"accuracy           : {trace.accuracy:.3f}\n")
    out.write(f"average current    : {trace.average_current_ua:.1f} uA\n")
    out.write(f"power saving       : {100.0 * saving:.1f} % vs always-on\n")
    out.write("state residency    :\n")
    for name, share in sorted(trace.state_residency().items()):
        out.write(f"  {name:>12}: {100.0 * share:5.1f} %\n")
    return 0


def _monitor_from_args(args: argparse.Namespace) -> Optional[RunMonitor]:
    """A :class:`RunMonitor` when any live-telemetry flag was given."""
    if not (
        args.watch
        or args.events is not None
        or args.heartbeat_s is not None
        or args.flight is not None
    ):
        return None
    return RunMonitor(
        watch=sys.stderr if args.watch else None,
        events=args.events,
        flight_dir=args.flight,
        heartbeat_s=(
            args.heartbeat_s
            if args.heartbeat_s is not None
            else DEFAULT_HEARTBEAT_S
        ),
    )


def _command_fleet(args: argparse.Namespace, out) -> int:
    system = _load_or_train_system(args)
    population = DevicePopulation.generate(
        num_devices=args.devices,
        duration_s=args.duration,
        master_seed=args.seed,
    )
    want_metrics = (
        args.metrics is not None
        or args.trace_events is not None
        or args.prometheus is not None
    )
    registry = (
        MetricsRegistry(trace_events=args.trace_events is not None)
        if want_metrics
        else None
    )
    snapshot = None
    if args.engine == "sharded":
        monitor = _monitor_from_args(args)
        sharded = ShardedFleetSimulator(
            system.pipeline,
            features=args.features,
            controllers=args.controllers,
            noise=args.noise,
            dtype=args.dtype,
            metrics=registry,
            max_retries=args.max_retries,
            shard_timeout_s=args.shard_timeout,
            checkpoint_dir=args.checkpoint,
            round_s=args.round_s,
            resume=args.resume,
            monitor=monitor,
        )
        run = sharded.run(population, num_shards=args.shards, trace=args.trace)
        result = run.result
        telemetry = run.telemetry
        snapshot = run.metrics
        out.write(
            f"engine             : sharded ({run.num_shards} shards: "
            f"{', '.join(str(size) for size in run.shard_sizes)})\n"
        )
        for index, (size, shard_elapsed) in enumerate(
            zip(run.shard_sizes, run.shard_elapsed_s)
        ):
            attempts = (
                run.shard_attempts[index]
                if index < len(run.shard_attempts)
                else 1
            )
            retry_note = (
                f", {attempts} attempts" if attempts > 1 else ""
            )
            out.write(
                f"  shard {index}        : {size} devices, "
                f"{shard_elapsed:.2f} s{retry_note}\n"
            )
        if run.retries or run.failures or run.timeouts:
            out.write(
                f"  recovery         : {run.retries} retries, "
                f"{run.failures} failed attempts, "
                f"{run.timeouts} timeouts\n"
            )
        if args.checkpoint is not None:
            out.write(
                f"  checkpoints      : {args.checkpoint} "
                f"({'resumed' if args.resume else 'fresh'} campaign)\n"
            )
        stats = run.straggler_stats()
        if stats:
            out.write(
                f"  shard skew       : {stats['skew']:.2f}x "
                f"(straggler shard {int(stats['straggler'])}, "
                f"spread {stats['spread_s']:.2f} s)\n"
            )
        if run.stragglers:
            out.write(
                "  live stragglers  : "
                + ", ".join(f"shard {index}" for index in run.stragglers)
                + "\n"
            )
        if args.events is not None:
            out.write(f"  event stream     -> {args.events}\n")
    else:
        simulator = FleetSimulator(
            system.pipeline,
            features=args.features,
            controllers=args.controllers,
            noise=args.noise,
            dtype=args.dtype,
            metrics=registry,
        )
        if args.engine == "sequential":
            result = simulator.run_sequential(population)
        else:
            result = simulator.run(population, trace=args.trace)
        telemetry = FleetTelemetry.from_result(result)
        if registry is not None:
            snapshot = registry.snapshot()
        out.write(f"engine             : {result.mode}\n")
    out.write(f"features           : {args.features}\n")
    out.write(f"controllers        : {args.controllers}\n")
    out.write(f"noise              : {args.noise}\n")
    out.write(f"dtype              : {args.dtype}\n")
    out.write(f"trace              : {result.trace_mode}\n")
    out.write(
        f"throughput         : {result.throughput_device_seconds_per_s:.0f} "
        f"device-seconds/s ({result.elapsed_s:.2f} s wall clock)\n"
    )
    out.write(telemetry.format_table() + "\n")
    if args.out is not None:
        telemetry.to_json(args.out)
        out.write(f"telemetry          -> {args.out}\n")
    if snapshot is not None:
        meta = {
            "engine": args.engine,
            "devices": args.devices,
            "duration_s": args.duration,
            "features": args.features,
            "controllers": args.controllers,
            "noise": args.noise,
            "dtype": args.dtype,
            "trace": args.trace,
            "seed": args.seed,
        }
        if args.metrics is not None:
            write_metrics_json(snapshot, args.metrics, extra=meta)
            out.write(f"metrics            -> {args.metrics}\n")
        if args.trace_events is not None:
            write_chrome_trace(snapshot, args.trace_events)
            out.write(f"trace events       -> {args.trace_events}\n")
        if args.prometheus is not None:
            with open(args.prometheus, "w", encoding="utf-8") as handle:
                handle.write(to_prometheus_text(snapshot))
            out.write(f"prometheus         -> {args.prometheus}\n")
    return 0


def _split_csv(text: Optional[str], convert) -> Optional[list]:
    if text is None:
        return None
    return [convert(part) for part in text.split(",") if part]


def _command_campaign(args: argparse.Namespace, out) -> int:
    from repro.campaign import CampaignRunner, variant_grid

    system = _load_or_train_system(args)
    population = DevicePopulation.generate(
        num_devices=args.devices,
        duration_s=args.duration,
        master_seed=args.seed,
    )
    variants = variant_grid(
        stability_thresholds=_split_csv(args.thresholds, int),
        confidence_thresholds=_split_csv(args.confidences, float),
        controller_kinds=_split_csv(args.kinds, str),
        config_tables=_split_csv(args.tables, lambda table: table.split("+")),
    )
    registry = MetricsRegistry() if args.metrics is not None else None
    monitor = _monitor_from_args(args)
    runner = CampaignRunner(
        system.pipeline,
        variants,
        features=args.features,
        noise=args.noise,
        dtype=args.dtype,
        metrics=registry,
        num_shards=args.shards,
        checkpoint_dir=args.checkpoint,
        round_s=args.round_s,
        resume=args.resume,
        monitor=monitor,
    )
    result = runner.run(population, trace=args.trace)
    if args.events is not None:
        out.write(f"event stream       -> {args.events}\n")
    out.write(f"features           : {args.features}\n")
    out.write(f"noise              : {args.noise}\n")
    out.write(f"dtype              : {args.dtype}\n")
    out.write(f"trace              : {result.trace_mode}\n")
    out.write(result.format_table() + "\n")
    if args.out is not None:
        import json as _json

        with open(args.out, "w", encoding="utf-8") as handle:
            _json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.write(f"campaign report    -> {args.out}\n")
    if registry is not None and result.metrics is not None:
        write_metrics_json(
            result.metrics,
            args.metrics,
            extra={
                "engine": "campaign",
                "devices": args.devices,
                "variants": result.num_variants,
                "duration_s": args.duration,
                "noise": args.noise,
                "dtype": args.dtype,
                "trace": args.trace,
                "seed": args.seed,
            },
        )
        out.write(f"metrics            -> {args.metrics}\n")
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point for ``repro`` / ``adasense-repro`` / ``python -m repro``."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if (
        getattr(args, "resume", False)
        and getattr(args, "checkpoint", None) is None
    ):
        parser.error(f"{args.command}: --resume requires --checkpoint DIR")
    if args.command == "fleet" and args.engine != "sharded":
        live_flags = [
            flag
            for flag, given in (
                ("--watch", args.watch),
                ("--events", args.events is not None),
                ("--heartbeat", args.heartbeat_s is not None),
                ("--flight", args.flight is not None),
            )
            if given
        ]
        if live_flags:
            parser.error(
                f"fleet: {'/'.join(live_flags)} requires --engine sharded"
            )
    configure_logging(getattr(args, "log_level", None))
    commands = {
        "experiments": _command_experiments,
        "run": _command_run,
        "train": _command_train,
        "simulate": _command_simulate,
        "fleet": _command_fleet,
        "campaign": _command_campaign,
    }
    return commands[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
