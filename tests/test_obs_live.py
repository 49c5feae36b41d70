"""Tests for the live run-telemetry plane: heartbeats, the run
monitor, the straggler detector and the crash flight recorder.

The load-bearing contract is observational transparency: a monitored
sharded (or campaign) run — heartbeats, watch line, NDJSON stream,
flight rings and all — produces traces and telemetry bit-identical to
the unmonitored run at every shard count and in both dtype lanes.
Heartbeats only sub-segment engine runs, and segmented runs are pinned
bit-identical elsewhere, so monitoring reads clocks and counters but
never touches a sample or an RNG draw.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.campaign import CampaignRunner, variant_grid
from repro.exec.resilience import ShardExecutionError
from repro.exec.sharding import ShardedFleetSimulator
from repro.fleet import DevicePopulation, FleetSimulator, traces_equal
from repro.fleet.telemetry import FleetTelemetry
from repro.obs import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    MetricsRegistry,
    RunMonitor,
    build_heartbeat,
    current_rss_bytes,
    validate_events_file,
    validate_live_event,
)


@pytest.fixture(scope="module")
def population():
    return DevicePopulation.generate(8, duration_s=12.0, master_seed=77)


@pytest.fixture(scope="module")
def references(trained_pipeline, population):
    """Unmonitored batched runs, one per dtype lane."""
    return {
        dtype: FleetSimulator(trained_pipeline, dtype=dtype).run(population)
        for dtype in ("float64", "float32")
    }


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_monitor(**kwargs):
    """A monitor wired to in-memory sinks and a controllable clock."""
    clock = FakeClock()
    watch = io.StringIO()
    events = io.StringIO()
    kwargs.setdefault("watch", watch)
    kwargs.setdefault("events", events)
    kwargs.setdefault("clock", clock)
    kwargs.setdefault("watch_interval_s", 0.0)
    return RunMonitor(**kwargs), clock, watch, events


def beat(shard, steps_done, rate, num_steps=12, devices=4, attempt=0):
    """A schema-complete heartbeat with a forced rate."""
    payload = build_heartbeat(
        shard=shard,
        attempt=attempt,
        round_index=0,
        steps_done=steps_done,
        num_steps=num_steps,
        devices=devices,
        elapsed_s=1.0,
        interval_s=1.0,
        steps_delta=1,
        phase_s={"tick.sense": 0.25},
    )
    payload["rate"] = float(rate)
    return payload


def launch(shard, attempt=0, inline=False):
    """The supervisor's ``launch`` event."""
    return {"event": "launch", "shard": shard, "attempt": attempt,
            "inline": inline}


def complete(shard, attempts=1):
    """The supervisor's ``shard_complete`` event."""
    return {"event": "shard_complete", "shard": shard, "attempts": attempts}


def attempt_failure(shard, attempt, kind, reason):
    """The supervisor's ``attempt_failure`` event."""
    return {"event": "attempt_failure", "shard": shard, "attempt": attempt,
            "kind": kind, "reason": reason}


# ----------------------------------------------------------------------
# Event schema units
# ----------------------------------------------------------------------
class TestHeartbeatSchema:
    def test_build_heartbeat_computes_rate(self):
        payload = build_heartbeat(
            shard=2, attempt=1, round_index=3, steps_done=40, num_steps=120,
            devices=10, elapsed_s=4.0, interval_s=0.5, steps_delta=20,
            phase_s={"tick.sense": 0.125}, rss_bytes=4096,
        )
        assert payload["event"] == "heartbeat"
        assert payload["rate"] == pytest.approx(10 * 20 / 0.5)
        assert payload["phase_s"] == {"tick.sense": 0.125}
        assert payload["rss_bytes"] == 4096
        payload["t"] = 0.5
        assert validate_live_event(payload) == "heartbeat"

    def test_zero_interval_rate_is_zero(self):
        payload = build_heartbeat(
            shard=0, attempt=0, round_index=0, steps_done=1, num_steps=2,
            devices=1, elapsed_s=0.0, interval_s=0.0, steps_delta=1,
            phase_s={},
        )
        assert payload["rate"] == 0.0

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("not a dict", "must be an object"),
            ({"event": "mystery", "t": 0.0}, "unknown live event"),
            ({"event": "heartbeat", "t": -1.0}, "bad timestamp"),
            ({"event": "heartbeat", "t": 0.0}, "missing keys"),
            (
                {
                    "event": "run_start", "t": 0.0, "schema": "bogus/v0",
                    "shards": 1, "devices": 1, "num_steps": 1,
                },
                "schema",
            ),
        ],
    )
    def test_invalid_events_rejected(self, payload, match):
        with pytest.raises(ValueError, match=match):
            validate_live_event(payload)

    def test_events_file_must_open_with_run_start(self, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text(
            json.dumps(
                {"event": "shard_complete", "t": 0.0, "shard": 0, "attempts": 1}
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="must open with run_start"):
            validate_events_file(path)

    def test_events_file_rejects_broken_json(self, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            validate_events_file(path)

    def test_rss_probe_returns_plausible_size(self):
        rss = current_rss_bytes()
        assert rss is None or rss > 1024 * 1024


# ----------------------------------------------------------------------
# Flight recorder units
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded(self, tmp_path):
        recorder = FlightRecorder(tmp_path, ring_size=4)
        for index in range(10):
            recorder.record(0, {"event": "heartbeat", "steps_done": index})
        events = recorder.events(0)
        assert len(events) == 4
        assert [event["steps_done"] for event in events] == [6, 7, 8, 9]

    def test_tracks_last_round(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        assert recorder.last_round(0) is None
        recorder.record(0, {"event": "round_start", "round": 0})
        recorder.record(0, {"event": "round_start", "round": 3})
        recorder.record(1, {"event": "round_start", "round": 7})
        assert recorder.last_round(0) == 3
        assert recorder.last_round(1) == 7

    def test_dump_schema_and_naming(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "flight")
        recorder.record(2, {"event": "round_start", "round": 1})
        recorder.record(2, {"event": "heartbeat", "steps_done": 5})
        path = recorder.dump(2, attempt=1, kind="died", reason="exit code 9")
        assert path.name == "flight_shard_0002_attempt_01.json"
        assert recorder.last_dump(2) == path
        payload = json.loads(path.read_text())
        assert payload["schema"] == FLIGHT_SCHEMA
        assert payload["shard"] == 2
        assert payload["attempt"] == 1
        assert payload["kind"] == "died"
        assert payload["last_round"] == 1
        assert payload["num_events"] == 2
        assert payload["events"][0]["event"] == "round_start"


# ----------------------------------------------------------------------
# RunMonitor units (fake clock, in-memory sinks)
# ----------------------------------------------------------------------
class TestRunMonitor:
    def test_heartbeat_steps_rounds_to_ticks(self):
        monitor = RunMonitor(heartbeat_s=10.0)
        assert monitor.heartbeat_steps(step_s=2.5) == 4
        assert monitor.heartbeat_steps(step_s=40.0) == 1
        assert RunMonitor(heartbeat_s=None).heartbeat_steps(2.5) is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"heartbeat_s": 0.0},
            {"straggler_ratio": 0.0},
            {"straggler_ratio": 1.5},
            {"straggler_min_heartbeats": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunMonitor(**kwargs)

    def test_progress_eta_and_rates(self):
        monitor, clock, _, _ = make_monitor()
        monitor.begin_run([4, 4], num_steps=12, step_s=1.0)
        assert monitor.progress() == 0.0
        assert monitor.eta_s() is None  # no rate yet
        clock.advance(1.0)
        monitor.handle(0, 0, beat(0, steps_done=6, rate=8.0))
        monitor.handle(1, 0, beat(1, steps_done=3, rate=4.0))
        assert monitor.progress() == pytest.approx((4 * 6 + 4 * 3) / 96.0)
        # remaining 4*6 + 4*9 = 60 device-steps at 12/s.
        assert monitor.eta_s() == pytest.approx(60 / 12.0)
        assert monitor.shard_rates() == {0: 8.0, 1: 4.0}
        monitor.handle(0, 0, complete(0))
        monitor.handle(1, 0, complete(1))
        assert monitor.progress() == 1.0
        assert monitor.eta_s() == 0.0

    def test_straggler_flag_and_clear(self):
        monitor, clock, _, events = make_monitor(straggler_min_heartbeats=2)
        monitor.begin_run([4, 4, 4], num_steps=100, step_s=1.0)
        for round_index in range(2):
            clock.advance(1.0)
            monitor.handle(0, 0, beat(0, 10 * (round_index + 1), rate=10.0))
            monitor.handle(1, 0, beat(1, 10 * (round_index + 1), rate=10.0))
            monitor.handle(2, 0, beat(2, round_index + 1, rate=1.0))
        assert monitor.stragglers() == (2,)
        assert monitor.counters["straggler.flags"] == 1.0
        # Recovery clears the flag and emits straggler_cleared.
        clock.advance(1.0)
        monitor.handle(2, 0, beat(2, 30, rate=10.0))
        assert monitor.stragglers() == ()
        names = [
            json.loads(line)["event"]
            for line in events.getvalue().splitlines()
        ]
        assert "straggler" in names and "straggler_cleared" in names

    def test_single_shard_is_never_a_straggler(self):
        monitor, clock, _, _ = make_monitor()
        monitor.begin_run([4], num_steps=100, step_s=1.0)
        for round_index in range(5):
            clock.advance(1.0)
            monitor.handle(0, 0, beat(0, round_index + 1, rate=0.001))
        assert monitor.stragglers() == ()

    def test_malformed_event_counted_not_raised(self):
        monitor, _, _, _ = make_monitor()
        monitor.begin_run([4], num_steps=10, step_s=1.0)
        monitor.handle(0, 0, ["not", "a", "dict"])
        monitor.handle(0, 0, {"no_event_key": True})
        assert monitor.counters["heartbeat.malformed"] == 2.0

    def test_watch_line_renders_progress(self):
        monitor, clock, watch, _ = make_monitor()
        monitor.begin_run([4, 4], num_steps=10, step_s=1.0)
        clock.advance(1.0)
        monitor.handle(0, 0, beat(0, steps_done=5, rate=20.0, num_steps=10))
        text = watch.getvalue()
        assert "[repro]" in text
        assert "dev-steps" in text
        assert "shards 0/2" in text
        monitor.handle(0, 0, complete(0))
        monitor.handle(1, 0, complete(1))
        monitor.end_run(ok=True)
        assert "100.0%" in watch.getvalue()
        assert watch.getvalue().endswith("\n")

    def test_event_stream_validates_end_to_end(self, tmp_path):
        path = tmp_path / "events.ndjson"
        clock = FakeClock()
        monitor = RunMonitor(events=path, clock=clock, watch_interval_s=0.0)
        monitor.begin_run([4, 4], num_steps=12, step_s=1.0)
        monitor.handle(0, 0, launch(0))
        clock.advance(1.0)
        monitor.handle(0, 0, beat(0, steps_done=6, rate=8.0))
        monitor.handle(0, 0, complete(0))
        monitor.handle(1, 0, complete(1))
        monitor.end_run(ok=True)
        counts = validate_events_file(path)
        assert counts == {
            "run_start": 1,
            "launch": 1,
            "heartbeat": 1,
            "shard_complete": 2,
            "run_complete": 1,
        }

    def test_failure_dumps_flight_ring(self, tmp_path):
        monitor, _, _, events = make_monitor(
            flight_dir=tmp_path / "flight", ring_size=2
        )
        monitor.begin_run([4, 4], num_steps=12, step_s=1.0)
        monitor.handle(1, 0, launch(1))
        monitor.handle(1, 0, {"event": "round_start", "shard": 1,
                              "attempt": 0, "round": 0})
        monitor.handle(
            1, 0, attempt_failure(1, 0, kind="died", reason="exit code 9")
        )
        path = monitor.flight_path(1)
        assert path is not None
        payload = json.loads(open(path).read())
        assert payload["kind"] == "died"
        assert payload["last_round"] == 0
        # The ring evicted the launch; the counter still saw it.
        assert payload["num_events"] == 2
        assert monitor.counters["flight.events"] == 3.0
        assert monitor.counters["flight.dumps"] == 1.0
        assert monitor.failures == 1 and monitor.used_processes
        failure = [
            json.loads(line)
            for line in events.getvalue().splitlines()
            if json.loads(line)["event"] == "attempt_failure"
        ]
        assert failure and failure[0]["flight"] == path

    def test_ensure_flight_dir_does_not_override(self, tmp_path):
        monitor = RunMonitor(flight_dir=tmp_path / "explicit")
        monitor.ensure_flight_dir(tmp_path / "fallback")
        assert monitor.flight_dir.endswith("explicit")
        bare = RunMonitor()
        assert bare.flight_dir is None
        bare.ensure_flight_dir(tmp_path / "fallback")
        assert bare.flight_dir.endswith("fallback")


# ----------------------------------------------------------------------
# Monitored runs are bit-identical to unmonitored ones
# ----------------------------------------------------------------------
class TestMonitoredBitIdentity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fleet_matches_unmonitored(
        self, trained_pipeline, population, references, num_shards, dtype
    ):
        monitor, _, watch, events = make_monitor(heartbeat_s=3.0)
        run = ShardedFleetSimulator(
            trained_pipeline, dtype=dtype, monitor=monitor
        ).run(population, num_shards=num_shards)
        reference = references[dtype]
        assert len(run.result.traces) == len(reference.traces)
        for left, right in zip(run.result.traces, reference.traces):
            assert traces_equal(left, right)
        assert (
            run.telemetry.to_dict()
            == FleetTelemetry.from_result(reference).to_dict()
        )
        # The monitor actually observed the run.
        lines = [json.loads(line) for line in events.getvalue().splitlines()]
        counts: dict = {}
        for line in lines:
            counts[line["event"]] = counts.get(line["event"], 0) + 1
        assert counts["run_start"] == 1
        assert counts["run_complete"] == 1
        assert counts["shard_complete"] == num_shards
        assert counts["heartbeat"] >= num_shards
        assert "[repro]" in watch.getvalue()

    def test_heartbeat_interval_override_is_transparent(
        self, trained_pipeline, population, references
    ):
        """A 1-tick heartbeat maximally sub-segments the run; traces
        still match, only the event count changes."""
        monitor, _, _, events = make_monitor(heartbeat_s=1.0)
        run = ShardedFleetSimulator(
            trained_pipeline, heartbeat_s=1.0, monitor=monitor
        ).run(population, num_shards=2)
        for left, right in zip(
            run.result.traces, references["float64"].traces
        ):
            assert traces_equal(left, right)
        beats = sum(
            1
            for line in events.getvalue().splitlines()
            if json.loads(line)["event"] == "heartbeat"
        )
        assert beats >= 8  # every simulated step on every shard

    def test_monitored_metered_run_folds_monitor_counters(
        self, trained_pipeline, population, references
    ):
        registry = MetricsRegistry()
        monitor, _, _, _ = make_monitor(heartbeat_s=3.0)
        run = ShardedFleetSimulator(
            trained_pipeline, metrics=registry, monitor=monitor
        ).run(population, num_shards=2)
        for left, right in zip(
            run.result.traces, references["float64"].traces
        ):
            assert traces_equal(left, right)
        assert run.metrics is not None
        assert run.metrics.counters["heartbeat.emitted"] >= 2.0
        assert (
            run.metrics.counters["heartbeat.received"]
            == run.metrics.counters["heartbeat.emitted"]
        )

    def test_campaign_matches_unmonitored(self, trained_pipeline, population):
        variants = variant_grid(stability_thresholds=(10, 30))
        baseline = CampaignRunner(trained_pipeline, variants).run(population)
        monitor, _, _, events = make_monitor(heartbeat_s=3.0)
        monitored = CampaignRunner(
            trained_pipeline, variants, monitor=monitor
        ).run(population)
        for got, want in zip(monitored.telemetries, baseline.telemetries):
            assert got.to_dict() == want.to_dict()
        names = {
            json.loads(line)["event"]
            for line in events.getvalue().splitlines()
        }
        assert {"run_start", "heartbeat", "run_complete"} <= names


# ----------------------------------------------------------------------
# Crash flight dumps under injected faults
# ----------------------------------------------------------------------
class TestFlightDumps:
    def test_injected_kill_leaves_a_dump(
        self, trained_pipeline, population, references, tmp_path
    ):
        """A chaos kill with a checkpoint dir but no explicit monitor
        still writes a flight dump naming the shard, round and attempt
        — and the run recovers bit-identically."""
        run = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            backoff_base_s=0.0,
            checkpoint_dir=tmp_path / "ckpt",
            round_s=6.0,
            fault_plan="kill:shard=1,round=0",
        ).run(population)
        for left, right in zip(
            run.result.traces, references["float64"].traces
        ):
            assert traces_equal(left, right)
        assert run.retries == 1
        dump = tmp_path / "ckpt" / "flight_shard_0001_attempt_00.json"
        assert dump.exists()
        payload = json.loads(dump.read_text())
        assert payload["schema"] == FLIGHT_SCHEMA
        assert payload["shard"] == 1
        assert payload["attempt"] == 0
        assert payload["kind"] == "died"
        assert payload["last_round"] == 0
        assert any(
            event["event"] == "round_start" for event in payload["events"]
        )

    def test_exhausted_retries_reference_the_dump(
        self, trained_pipeline, population, tmp_path
    ):
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            max_retries=1,
            backoff_base_s=0.0,
            inline_last_resort=False,
            flight_dir=tmp_path / "flight",
            fault_plan="kill:shard=1,round=*,attempts=*",
        )
        with pytest.raises(ShardExecutionError) as excinfo:
            simulator.run(population)
        assert excinfo.value.flight_path is not None
        assert "flight recording:" in str(excinfo.value)
        payload = json.loads(open(excinfo.value.flight_path).read())
        assert payload["shard"] == 1
        assert payload["kind"] == "died"
