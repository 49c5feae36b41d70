"""Exporters for :class:`repro.obs.metrics.MetricsSnapshot`.

Three formats, each aimed at a different consumer:

* :func:`write_metrics_json` — a structured snapshot file (counters,
  gauges, histogram quantiles) for scripts and CI artifacts;
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format (``{"traceEvents": [...]}``), loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``; one lane
  (``tid``) per shard;
* :func:`to_prometheus_text` — the Prometheus text exposition format
  (counters and gauges as-is, histograms as summaries with
  ``quantile`` labels), servable from any scrape endpoint.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsSnapshot

__all__ = [
    "COUNTER_GLOSSARY",
    "snapshot_to_dict",
    "to_chrome_trace",
    "to_prometheus_text",
    "write_chrome_trace",
    "write_metrics_json",
]

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: One-line meanings of the well-known metric names, mirrored by the
#: README's counter glossary and emitted as ``# HELP`` lines by
#: :func:`to_prometheus_text`.
COUNTER_GLOSSARY: Dict[str, str] = {
    "engine.runs": "engine.run invocations (one per shard attempt segment)",
    "engine.ticks": "simulated classification ticks across all devices",
    "engine.cpu_s": "process CPU seconds (all threads) spent inside engine.run",
    "engine.config_groups": "per-tick sensor-configuration cohorts formed",
    "engine.config_switches": "devices that changed configuration on a tick",
    "features.incremental_windows": "windows served by the incremental path",
    "noise.refills": "pooled noise-stream block refills",
    "noise.pool_bypasses": "acquisitions too large for the noise pool",
    "signal_cache.revalidations": "signal-table cache validity re-checks",
    "signal_cache.rebuilds": "signal-table cache rebuilds",
    "signal_cache.straddles": "signal-table windows straddling a bout boundary",
    "signal_cache.fallbacks": "acquisitions of signals without segment support",
    "plan_cache.hits": "spectral plan cache hits",
    "plan_cache.misses": "spectral plan cache misses",
    "shard.rounds": "checkpoint rounds simulated across shard attempts",
    "shard.retries": "shard attempts re-launched after a failure "
    "(equals shard.failures on a completed run)",
    "shard.failures": "failed shard attempts (death, error, timeout, corruption)",
    "shard.timeouts": "shard attempts terminated at the per-shard timeout",
    "shard.corrupt_payloads": "shard results rejected by payload validation",
    "checkpoint.saves": "round checkpoints written by shard workers",
    "checkpoint.loads": "checkpoints loaded by resumed or retried shards",
    "checkpoint.bytes": "total checkpoint bytes written",
    "heartbeat.emitted": "in-flight heartbeat events emitted by shard workers",
    "heartbeat.received": "heartbeat events folded by the run monitor",
    "heartbeat.malformed": "in-flight events the run monitor could not parse",
    "straggler.flags": "shards flagged by the online straggler detector",
    "flight.events": "events folded into flight-recorder rings",
    "flight.dumps": "flight-recorder crash dumps written on attempt failures",
    "campaign.variants": "controller variants fused into the campaign fleet",
    "campaign.devices": "physical devices the campaign grid spans",
    "campaign.unique_devices": "virtual devices simulated after behaviour dedupe",
    "campaign.shared_group_hits": "signal-table rows gathered from a shared variant's evaluation",
}


def snapshot_to_dict(
    snapshot: MetricsSnapshot, extra: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """The JSON-ready form of a snapshot, with optional extra metadata."""
    payload = snapshot.to_dict()
    if extra:
        payload["meta"] = dict(extra)
    return payload


def write_metrics_json(
    snapshot: MetricsSnapshot,
    path: str,
    extra: Optional[Dict[str, object]] = None,
    indent: int = 2,
) -> str:
    """Write the snapshot as a JSON file; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            snapshot_to_dict(snapshot, extra), handle, indent=indent,
            sort_keys=True,
        )
        handle.write("\n")
    return path


def to_chrome_trace(snapshot: MetricsSnapshot) -> Dict[str, object]:
    """Build a Chrome trace-event document from the snapshot's spans.

    Events are complete spans (``"ph": "X"``) with microsecond
    timestamps rebased to the earliest span, so timelines recorded by
    forked shard workers (which share the monotonic clock) align in one
    view; each shard's events sit in their own ``tid`` lane, named via
    thread-metadata events.
    """
    events: List[Dict[str, object]] = []
    origin_ns = min(
        (span.start_ns for span in snapshot.spans), default=0
    )
    tids = sorted({span.tid for span in snapshot.spans})
    for tid in tids:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": f"shard-{tid}"},
            }
        )
    for span in snapshot.spans:
        events.append(
            {
                "name": span.name,
                "cat": "engine",
                "ph": "X",
                "ts": (span.start_ns - origin_ns) / 1e3,
                "dur": span.duration_ns / 1e3,
                "pid": 0,
                "tid": span.tid,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(snapshot: MetricsSnapshot, path: str) -> str:
    """Write the Chrome trace-event JSON file; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(snapshot), handle)
        handle.write("\n")
    return path


def _prometheus_name(name: str, prefix: str) -> str:
    return prefix + _METRIC_NAME_RE.sub("_", name)


def to_prometheus_text(
    snapshot: MetricsSnapshot, prefix: str = "repro_"
) -> str:
    """Render the snapshot in the Prometheus text exposition format.

    Counters and gauges map directly; histograms are exposed as
    summaries (``quantile`` labels plus ``_sum``/``_count`` series) so
    p50/p95/p99 are scrapeable without bucket math on the server.
    Metrics listed in :data:`COUNTER_GLOSSARY` get a ``# HELP`` line.
    """
    lines: List[str] = []
    for name in sorted(snapshot.counters):
        metric = _prometheus_name(name, prefix)
        help_text = COUNTER_GLOSSARY.get(name)
        if help_text is not None:
            lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot.counters[name]:g}")
    for name in sorted(snapshot.gauges):
        metric = _prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {snapshot.gauges[name]:g}")
    for name in sorted(snapshot.histograms):
        histogram = snapshot.histograms[name]
        metric = _prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        if histogram.count:
            for q in (50.0, 95.0, 99.0):
                lines.append(
                    f'{metric}{{quantile="{q / 100.0:g}"}} '
                    f"{histogram.percentile(q):g}"
                )
        lines.append(f"{metric}_sum {histogram.total:g}")
        lines.append(f"{metric}_count {histogram.count}")
    return "\n".join(lines) + "\n"
