"""The supervisor's one event stream, reconciled with everything read
from it.

A supervised sharded run reports a single ``repro.live/v1`` lifecycle:
the supervisor's ``launch`` / ``attempt_failure`` / ``shard_complete``
events plus the worker events it forwards.  The recovery figures of
:class:`repro.exec.sharding.ShardedFleetRun` and the metered
``shard.*`` counters are folds over that stream, so across the fault
matrix they must equal plain counts over the written event log.  The
structural tests pin that an unmonitored run pays nothing for the
stream: one engine call per round and no heartbeats.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.exec.engine import StepEngine
from repro.exec.sharding import ShardedFleetSimulator
from repro.fleet import DevicePopulation, FleetSimulator, traces_equal
from repro.obs import MetricsRegistry, RunMonitor, validate_live_event


@pytest.fixture(scope="module")
def population():
    return DevicePopulation.generate(8, duration_s=12.0, master_seed=77)


@pytest.fixture(scope="module")
def reference(trained_pipeline, population):
    return FleetSimulator(trained_pipeline).run(population)


FAULT_MATRIX = {
    "kill": dict(fault_plan="kill:shard=1,round=0"),
    "kill-twice": dict(
        fault_plan="kill:shard=1,round=0,attempts=0-1", max_retries=2
    ),
    "timeout": dict(
        fault_plan="delay:shard=0,round=0,seconds=60", shard_timeout_s=2.0
    ),
    "corrupt": dict(fault_plan="corrupt:shard=0"),
    "inline-fallback": dict(
        fault_plan="kill:shard=0,round=0,attempts=0-1", max_retries=1
    ),
}


@pytest.mark.parametrize("case", sorted(FAULT_MATRIX))
def test_run_figures_reconcile_with_the_event_log(
    trained_pipeline, population, reference, case
):
    log = io.StringIO()
    monitor = RunMonitor(events=log, heartbeat_s=3.0)
    run = ShardedFleetSimulator(
        trained_pipeline,
        num_shards=2,
        backoff_base_s=0.0,
        metrics=MetricsRegistry(),
        monitor=monitor,
        **FAULT_MATRIX[case],
    ).run(population)
    for left, right in zip(run.result.traces, reference.traces):
        assert traces_equal(left, right)

    events = [json.loads(line) for line in log.getvalue().splitlines()]
    for event in events:
        validate_live_event(event)
    failures = [e for e in events if e["event"] == "attempt_failure"]
    by_kind = {}
    for event in failures:
        by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
    assert failures, "every matrix case fails at least one attempt"

    assert run.failures == len(failures)
    assert run.timeouts == by_kind.get("timeout", 0)
    # Every failure of a completed run was retried.
    assert run.retries == run.failures
    assert run.retries == sum(
        1 for e in events if e["event"] == "launch" and e["attempt"] > 0
    )
    for shard in range(run.num_shards):
        shard_failures = sum(1 for e in failures if e["shard"] == shard)
        assert run.shard_attempts[shard] == 1 + shard_failures
    assert run.used_processes == any(
        e["event"] == "launch" and not e["inline"] for e in events
    )

    counters = run.metrics.counters
    assert counters["shard.failures"] == len(failures)
    assert counters["shard.retries"] == len(failures)
    assert counters.get("shard.timeouts", 0.0) == by_kind.get("timeout", 0)
    assert counters.get("shard.corrupt_payloads", 0.0) == by_kind.get(
        "corrupt", 0
    )
    assert counters["heartbeat.received"] == sum(
        1 for e in events if e["event"] == "heartbeat"
    )


def test_fault_free_run_has_no_failure_counters(trained_pipeline, population):
    run = ShardedFleetSimulator(
        trained_pipeline, num_shards=2, metrics=MetricsRegistry()
    ).run(population)
    assert run.retries == run.failures == run.timeouts == 0
    assert run.shard_attempts == (1, 1)
    # A fault-free run writes no failure counter keys at all.
    for name in ("shard.retries", "shard.failures", "shard.timeouts"):
        assert name not in run.metrics.counters


# ----------------------------------------------------------------------
# Off costs nothing: counting shims on the engine and the event sink
# ----------------------------------------------------------------------
@pytest.fixture
def shims(monkeypatch):
    """Record every ``StepEngine.run`` segment and every sunk event.

    Single-shard runs stay in-process, so both shims see every call.
    """
    segments = []
    sunk = []
    engine_run = StepEngine.run
    handle = RunMonitor.handle

    def counting_run(self, runtimes, num_steps, *args, **kwargs):
        segments.append((kwargs.get("start_step", 0), num_steps))
        return engine_run(self, runtimes, num_steps, *args, **kwargs)

    def counting_handle(self, shard, attempt, event):
        sunk.append(event["event"])
        return handle(self, shard, attempt, event)

    monkeypatch.setattr(StepEngine, "run", counting_run)
    monkeypatch.setattr(RunMonitor, "handle", counting_handle)
    return segments, sunk


@pytest.mark.parametrize(
    "round_s, expected",
    [(None, [(0, 12)]), (4.0, [(0, 4), (4, 4), (8, 4)])],
)
def test_unmonitored_run_calls_the_engine_once_per_round(
    trained_pipeline, population, shims, round_s, expected
):
    segments, sunk = shims
    ShardedFleetSimulator(trained_pipeline, round_s=round_s).run(
        population, num_shards=1
    )
    assert segments == expected
    assert "heartbeat" not in sunk
    assert sunk.count("round_start") == len(expected)


def test_monitored_run_resegments_only_at_the_heartbeat_cadence(
    trained_pipeline, population, shims
):
    segments, sunk = shims
    ShardedFleetSimulator(
        trained_pipeline, round_s=4.0, monitor=RunMonitor(heartbeat_s=3.0)
    ).run(population, num_shards=1)
    # Rounds of 4 ticks split at every third tick of the round.
    assert segments == [(0, 3), (3, 1), (4, 3), (7, 1), (8, 3), (11, 1)]
    assert sunk.count("heartbeat") == len(segments)
    assert sunk.count("round_start") == 3
