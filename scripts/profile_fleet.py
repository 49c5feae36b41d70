"""Profile a fleet simulation and dump the hottest functions.

A tiny cProfile harness around the fleet engine so a performance
regression can be localised in one command, without writing a script:

    PYTHONPATH=src python scripts/profile_fleet.py
    PYTHONPATH=src python scripts/profile_fleet.py \
        --devices 2000 --duration 20 --controllers per_object --trace full \
        --sort tottime --top 40

``--compare`` profiles two named recipes back to back and prints a
side-by-side table of their hottest functions, so the cost shifted by
a mode change is visible at a glance:

    PYTHONPATH=src python scripts/profile_fleet.py \
        --devices 2000 --compare controller_bank batched_noise

Training the shared classifier and generating the population happen
*outside* the profiled region — the numbers cover exactly one
simulation run (runtime construction plus the tick loop), which is what
``BENCH_fleet.json`` times.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

# The named execution recipes live with the benchmarks so the profiler
# and BENCH_fleet.json can never disagree about what a recipe means.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from _bench_utils import (  # noqa: E402
    RECIPES,
    campaign_variant_count,
    recipe_settings,
)

#: Counters whose per-run deltas are printed for every compared recipe
#: (cache effectiveness and cross-variant sharing at a glance).
SHARING_COUNTERS = (
    "plan_cache.hits",
    "plan_cache.misses",
    "campaign.shared_group_hits",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=1000,
                        help="number of simulated devices (default: 1000)")
    parser.add_argument("--duration", type=float, default=20.0,
                        help="simulated seconds per device (default: 20)")
    parser.add_argument("--seed", type=int, default=2020,
                        help="master seed for training and the population")
    parser.add_argument("--windows", type=int, default=16,
                        help="training windows per activity per configuration")
    parser.add_argument("--features", choices=("incremental", "exact"),
                        default="incremental")
    parser.add_argument("--controllers", choices=("bank", "per_object"),
                        default="bank")
    parser.add_argument("--noise", choices=("per_device", "batched"),
                        default="per_device",
                        help="acquisition layer (default: per_device)")
    parser.add_argument("--dtype", choices=("float64", "float32"),
                        default="float64",
                        help="compute-lane precision (default: float64)")
    parser.add_argument("--trace", choices=("summary", "full"),
                        default="summary")
    parser.add_argument("--compare", nargs=2, metavar=("MODE_A", "MODE_B"),
                        choices=sorted(RECIPES), default=None,
                        help="profile two named recipes and print a "
                             "side-by-side diff of their hottest functions")
    parser.add_argument("--sort", choices=("tottime", "cumulative", "ncalls"),
                        default="tottime", help="pstats sort key")
    parser.add_argument("--top", type=int, default=30,
                        help="number of entries to print (default: 30)")
    parser.add_argument("--output", default=None,
                        help="optional .pstats dump path for snakeviz etc.")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="meter the profiled run and write the metrics "
                             "snapshot (phase-span histograms, counters) as "
                             "JSON")
    parser.add_argument("--trace-events", default=None, metavar="PATH",
                        dest="trace_events",
                        help="meter the profiled run and write its per-tick "
                             "phase spans as Chrome trace-event JSON "
                             "(Perfetto)")
    return parser


def _profile_run(simulator, population, trace):
    """One warmed-up, profiled simulation; returns (result, stats)."""
    # One untimed warm-up run so lazily built caches (DFT bases,
    # spectral layouts, BLAS threads) do not pollute the profile.  A
    # metered simulator is disabled for the warm-up so the exported
    # snapshot covers exactly the profiled run.
    metrics = simulator.metrics
    if metrics.enabled:
        metrics.enabled = False
        simulator.run(population, trace=trace)
        metrics.enabled = True
    else:
        simulator.run(population, trace=trace)
    profile = cProfile.Profile()
    profile.enable()
    result = simulator.run(population, trace=trace)
    profile.disable()
    return result, pstats.Stats(profile)


def _function_totals(stats: pstats.Stats) -> dict:
    """Map ``file:line(function)`` -> (tottime, ncalls)."""
    totals = {}
    for (filename, line, name), (cc, nc, tt, ct, callers) in stats.stats.items():
        short = filename.rsplit("/", 1)[-1]
        totals[f"{short}:{line}({name})"] = (tt, nc)
    return totals


def _print_comparison(name_a, result_a, stats_a, name_b, result_b, stats_b,
                      top: int) -> None:
    totals_a = _function_totals(stats_a)
    totals_b = _function_totals(stats_b)
    ranked = sorted(
        set(totals_a) | set(totals_b),
        key=lambda key: -max(
            totals_a.get(key, (0.0, 0))[0], totals_b.get(key, (0.0, 0))[0]
        ),
    )[:top]
    width = max((len(key) for key in ranked), default=20)
    print(
        f"\nside-by-side tottime — {name_a} "
        f"({result_a.elapsed_s:.2f} s) vs {name_b} "
        f"({result_b.elapsed_s:.2f} s)"
    )
    print(f"{'function':<{width}}  {name_a:>14}  {name_b:>14}      delta")
    for key in ranked:
        left, _ = totals_a.get(key, (0.0, 0))
        right, _ = totals_b.get(key, (0.0, 0))
        print(
            f"{key:<{width}}  {left:>12.3f} s  {right:>12.3f} s  "
            f"{right - left:>+8.3f} s"
        )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    from repro.core.adasense import AdaSense
    from repro.fleet import DevicePopulation, FleetSimulator

    start = time.perf_counter()
    system = AdaSense.train(
        windows_per_activity_per_config=args.windows, seed=args.seed
    )
    population = DevicePopulation.generate(
        args.devices, duration_s=args.duration, master_seed=args.seed
    )
    print(
        f"setup: {args.devices} devices x {args.duration:.0f} s, "
        f"prepared in {time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )

    if args.compare is not None:
        from repro.obs import MetricsRegistry

        name_a, name_b = args.compare
        outcomes = []
        for name in (name_a, name_b):
            recipe, trace = recipe_settings(name)
            registry = MetricsRegistry()
            if name == "sequential":
                simulator = FleetSimulator(system.pipeline, **recipe)
                simulator.run_sequential(population)
                profile = cProfile.Profile()
                profile.enable()
                result = simulator.run_sequential(population)
                profile.disable()
                outcomes.append((result, pstats.Stats(profile)))
            else:
                variants = campaign_variant_count(name)
                if variants > 1:
                    from repro.campaign import CampaignRunner, variant_grid

                    grid = variant_grid(
                        stability_thresholds=(10, 20, 30, 40),
                        confidence_thresholds=(0.75, 0.8, 0.85, 0.9),
                    )[:variants]
                    runner = CampaignRunner(
                        system.pipeline, grid, metrics=registry, **recipe
                    )
                else:
                    runner = FleetSimulator(
                        system.pipeline, metrics=registry, **recipe
                    )
                outcomes.append(_profile_run(runner, population, trace))
            print(
                f"{name}: {outcomes[-1][0].elapsed_s:.2f} s wall, "
                f"{outcomes[-1][0].throughput_device_seconds_per_s:.0f} "
                f"device-seconds/s",
                file=sys.stderr,
            )
            counters = registry.snapshot().counters
            deltas = ", ".join(
                f"{key}={counters[key]:.0f}"
                for key in SHARING_COUNTERS
                if key in counters
            )
            if deltas:
                print(f"{name}: {deltas}", file=sys.stderr)
        _print_comparison(
            name_a, *outcomes[0], name_b, *outcomes[1], top=args.top
        )
        return 0

    registry = None
    if args.metrics is not None or args.trace_events is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry(trace_events=args.trace_events is not None)
    simulator = FleetSimulator(
        system.pipeline,
        features=args.features,
        controllers=args.controllers,
        noise=args.noise,
        dtype=args.dtype,
        metrics=registry,
    )
    result, stats = _profile_run(simulator, population, args.trace)
    print(
        f"profiled run: {result.elapsed_s:.2f} s wall, "
        f"{result.throughput_device_seconds_per_s:.0f} device-seconds/s",
        file=sys.stderr,
    )
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.output:
        stats.dump_stats(args.output)
        print(f"pstats dump -> {args.output}", file=sys.stderr)
    if registry is not None:
        from repro.obs import write_chrome_trace, write_metrics_json

        snapshot = registry.snapshot()
        meta = {
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
            print(f"metrics -> {args.metrics}", file=sys.stderr)
        if args.trace_events is not None:
            write_chrome_trace(snapshot, args.trace_events)
            print(f"trace events -> {args.trace_events}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
