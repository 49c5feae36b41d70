"""One benchmark run: the public calls of ``repro fleet`` / ``repro campaign``.

The child parses a ``repro`` command line with the CLI's own parser and
makes the same public calls the ``fleet`` / ``campaign`` commands make,
stamping a span around each one, so set-up, simulation and report fold
are separated without any tracing inside ``src/``.  It writes the
report where ``--out`` says (byte-identical to the CLI's) and its spans
and run facts as JSON to ``--stamps``.

Usage::

    python3 perfbench/child.py --stamps S.json [--traced T.json] -- fleet ...
    python3 perfbench/child.py --stamps S.json --inprocess -- fleet --engine sharded ...

``--traced`` meters the run with ``MetricsRegistry(trace_events=True)``,
adds spans around the nested calls (dataset build, classifier training,
campaign layout, telemetry fold, report dict), and writes every span —
the benchmark's and the engine's ``tick.*`` — as Chrome-trace JSON.
``--inprocess`` runs a sharded command line in one process with
``FleetSimulator`` instead (the sharded output check's reference).
"""

import time

T_START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


class Spans:
    """In-memory span recorder: name, start, end, parent, shared run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.records)
        self.records.append(
            {
                "name": name,
                "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None,
                "start_ns": time.perf_counter_ns(),
                "end_ns": None,
            }
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index]["end_ns"] = time.perf_counter_ns()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records a span."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        static = inspect.getattr_static(owner, attr)
        if isinstance(static, (classmethod, staticmethod)):
            traced = staticmethod(traced)
        setattr(owner, attr, traced)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stamps", required=True)
    parser.add_argument("--traced", default=None, metavar="TRACE_JSON")
    parser.add_argument("--inprocess", action="store_true")
    if "--" not in argv:
        parser.error("the repro command line follows '--'")
    split = argv.index("--")
    return parser.parse_args(argv[:split]), argv[split + 1:]


def _tick_durations_ms(engine_spans):
    """Per-tick wall time, tick.sense start to tick.fold end, per lane."""
    durations = []
    starts = {}
    for event in sorted(engine_spans, key=lambda e: e.start_ns):
        if event.name == "tick.sense":
            starts[event.tid] = event.start_ns
        elif event.name == "tick.fold" and event.tid in starts:
            end = event.start_ns + event.duration_ns
            durations.append((end - starts.pop(event.tid)) * 1e-6)
    return durations


def _chrome_trace(spans, engine_spans, path):
    events = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": "bench",
         "args": {"name": "bench"}},
    ]
    for index, record in enumerate(spans.records):
        events.append(
            {
                "name": record["name"], "cat": "bench", "ph": "X",
                "ts": record["start_ns"] / 1e3,
                "dur": (record["end_ns"] - record["start_ns"]) / 1e3,
                "pid": 0, "tid": "bench",
                "args": {"run": record["run"], "span": index,
                         "parent": record["parent"]},
            }
        )
    for event in engine_spans:
        events.append(
            {
                "name": event.name, "cat": "engine", "ph": "X",
                "ts": event.start_ns / 1e3, "dur": event.duration_ns / 1e3,
                "pid": 0, "tid": f"shard-{event.tid}",
                "args": {"run": spans.run_id},
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        handle.write("\n")


def _csv(text, convert):
    """A comma-separated CLI list, parsed as ``repro.cli`` parses it."""
    if text is None:
        return None
    return [convert(part) for part in text.split(",") if part]


def _mean_output_rate_hz(dwell):
    from repro.core.config import get_config

    total = sum(dwell.values())
    return sum(get_config(name).sampling_hz * share for name, share in dwell.items()) / total


def _checkpoint_probe(checkpoint_dir, scratch):
    """Time load + save of one shard's newest post-round payload."""
    from repro.ml.persistence import load_checkpoint, save_checkpoint

    newest = sorted((Path(checkpoint_dir) / "shard_0000").glob("round_*.ckpt"))[-1]
    start = time.perf_counter()
    payload = load_checkpoint(newest)
    loaded = time.perf_counter()
    probe = Path(scratch) / "probe.ckpt"
    save_checkpoint(probe, payload)
    saved = time.perf_counter()
    probe.unlink()
    return {"checkpoint_load_s": loaded - start, "checkpoint_save_s": saved - loaded}


def main(argv) -> int:
    opts, cli_argv = _parse(argv)
    spans = Spans(f"{os.getpid()}-{T_START_NS}")
    with spans.span("import repro.cli"):
        import repro.cli
    from repro.core.adasense import AdaSense
    from repro.core.features import WINDOW_DURATION_S
    from repro.core.pipeline import HarPipeline
    from repro.datasets.windows import WindowDatasetBuilder
    from repro.fleet import (
        DevicePopulation,
        FleetSimulator,
        FleetTelemetry,
        ShardedFleetSimulator,
    )
    from repro.obs import MetricsRegistry

    args = repro.cli.build_parser().parse_args(cli_argv)
    traced = opts.traced is not None
    registry = MetricsRegistry(trace_events=True) if traced else None
    if traced:
        import repro.campaign.runner as runner_module
        from repro.campaign import CampaignResult

        spans.wrap(WindowDatasetBuilder, "build", "WindowDatasetBuilder.build")
        spans.wrap(HarPipeline, "train", "HarPipeline.train")
        if args.command == "campaign" or args.engine == "sharded":
            # The fleet path below spans its own top-level fold call.
            spans.wrap(FleetTelemetry, "from_result", "FleetTelemetry.from_result")
        spans.wrap(runner_module, "fused_layout", "fused_layout")
        spans.wrap(CampaignResult, "to_dict", "CampaignResult.to_dict")

    with spans.span("AdaSense.train"):
        system = AdaSense.train(
            windows_per_activity_per_config=args.windows, seed=args.seed
        )
    with spans.span("DevicePopulation.generate"):
        population = DevicePopulation.generate(
            num_devices=args.devices,
            duration_s=args.duration,
            master_seed=args.seed,
        )
    facts = {"devices": args.devices}
    settings = dict(features=args.features, noise=args.noise, dtype=args.dtype)
    if args.command == "campaign":
        from repro.campaign import CampaignRunner, variant_grid

        variants = variant_grid(
            stability_thresholds=_csv(args.thresholds, int),
            confidence_thresholds=_csv(args.confidences, float),
            controller_kinds=_csv(args.kinds, str),
            config_tables=_csv(args.tables, lambda table: tuple(table.split("+"))),
        )
        runner = CampaignRunner(system.pipeline, variants, metrics=registry, **settings)
        with spans.span("CampaignRunner.run"):
            result = runner.run(population, trace=args.trace)
        with spans.span("report.write"):
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        report_end_ns = time.perf_counter_ns()
        snapshot = result.metrics
        facts.update(
            simulated_devices=result.simulated_devices,
            virtual_devices=result.virtual_devices,
        )
        telemetries = result.telemetries
    elif args.engine == "sharded" and not opts.inprocess:
        sharded = ShardedFleetSimulator(
            system.pipeline,
            controllers=args.controllers,
            metrics=registry,
            max_retries=args.max_retries,
            shard_timeout_s=args.shard_timeout,
            checkpoint_dir=args.checkpoint,
            round_s=args.round_s,
            resume=args.resume,
            **settings,
        )
        with spans.span("ShardedFleetSimulator.run"):
            run = sharded.run(population, num_shards=args.shards, trace=args.trace)
        with spans.span("FleetTelemetry.to_json"):
            run.telemetry.to_json(args.out)
        report_end_ns = time.perf_counter_ns()
        snapshot = run.metrics
        facts.update(
            shard_elapsed_s=list(run.shard_elapsed_s),
            retries=run.retries,
            failures=run.failures,
            timeouts=run.timeouts,
        )
        telemetries = [run.telemetry]
    else:
        simulator = FleetSimulator(
            system.pipeline, controllers=args.controllers, metrics=registry, **settings
        )
        with spans.span("FleetSimulator.build_runtime"):
            runtime = simulator.build_runtime(population)
        with spans.span("FleetSimulator.run"):
            result = simulator.run(runtime=runtime, trace=args.trace)
        with spans.span("FleetTelemetry.from_result"):
            telemetry = FleetTelemetry.from_result(result)
        with spans.span("FleetTelemetry.to_json"):
            telemetry.to_json(args.out)
        report_end_ns = time.perf_counter_ns()
        snapshot = registry.snapshot() if traced else None
        telemetries = [telemetry]

    stamps = {
        "start_ns": T_START_NS,
        "report_end_ns": report_end_ns,
        "spans": spans.records,
        "facts": facts,
    }
    if traced:
        weights = system.pipeline.classifier.get_parameters()["W0"].shape
        dwell = {}
        for telemetry in telemetries:
            for name, share in telemetry.config_dwell().items():
                dwell[name] = dwell.get(name, 0.0) + share
        stamps["shapes"] = {
            "batch": facts.get("simulated_devices", args.devices),
            "samples_per_device_tick": _mean_output_rate_hz(dwell),
            "window_s": WINDOW_DURATION_S,
            "features": int(weights[0]),
            "hidden": int(weights[1]),
        }
        stamps["snapshot"] = {
            "counters": dict(snapshot.counters),
            "gauges": dict(snapshot.gauges),
            "totals": {name: h.total for name, h in snapshot.histograms.items()},
        }
        stamps["tick_ms"] = _tick_durations_ms(snapshot.spans)
        if args.checkpoint is not None:
            facts.update(_checkpoint_probe(args.checkpoint, Path(opts.stamps).parent))
        _chrome_trace(spans, snapshot.spans, opts.traced)
    with open(opts.stamps, "w", encoding="utf-8") as handle:
        json.dump(stamps, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
