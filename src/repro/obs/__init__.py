"""Runtime observability for the fleet platform.

The :mod:`repro.obs` package is the *online* counterpart of the offline
profiling tools: a low-overhead metrics registry
(:class:`~repro.obs.metrics.MetricsRegistry`) that the execution core
updates while a run executes — per-tick phase spans, engine counters
and gauges, per-config cohort histograms — plus mergeable snapshots for
the sharded coordinator (:class:`~repro.obs.metrics.MetricsSnapshot`)
and exporters (:mod:`repro.obs.export`) for JSON, Chrome trace-event
timelines (Perfetto) and the Prometheus text exposition format.

The package also carries the *in-flight* plane: :mod:`repro.obs.live`
(worker heartbeats and the coordinator-side
:class:`~repro.obs.live.RunMonitor`, the one fold over a supervised
run's event stream: recovery figures, ``shard.*`` counters,
progress/ETA, stragglers, the ``--watch`` line and the NDJSON file)
and :mod:`repro.obs.flight` (the per-shard crash flight recorder).

Everything is injectable and off by default: simulators take a
``metrics=`` recorder, and the :data:`~repro.obs.metrics.NULL_RECORDER`
default guarantees the unmetered hot path performs no clock reads and
no per-tick allocations, and that traces stay bit-identical in every
engine mode.
"""

from repro.obs.export import (
    COUNTER_GLOSSARY,
    snapshot_to_dict,
    to_chrome_trace,
    to_prometheus_text,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.flight import DEFAULT_RING_SIZE, FLIGHT_SCHEMA, FlightRecorder
from repro.obs.live import (
    DEFAULT_HEARTBEAT_S,
    LIVE_SCHEMA,
    RunMonitor,
    build_heartbeat,
    current_rss_bytes,
    validate_events_file,
    validate_live_event,
)
from repro.obs.logsetup import LOG_LEVELS, configure_logging, shard_logger
from repro.obs.metrics import (
    DEFAULT_BUCKET_RATIO,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    NullRecorder,
    NULL_RECORDER,
    SpanEvent,
    default_bucket_bounds,
)

__all__ = [
    "COUNTER_GLOSSARY",
    "DEFAULT_BUCKET_RATIO",
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_RING_SIZE",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "HistogramSnapshot",
    "LIVE_SCHEMA",
    "LOG_LEVELS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRecorder",
    "NULL_RECORDER",
    "RunMonitor",
    "SpanEvent",
    "build_heartbeat",
    "configure_logging",
    "current_rss_bytes",
    "default_bucket_bounds",
    "shard_logger",
    "snapshot_to_dict",
    "to_chrome_trace",
    "to_prometheus_text",
    "validate_events_file",
    "validate_live_event",
    "write_chrome_trace",
    "write_metrics_json",
]
