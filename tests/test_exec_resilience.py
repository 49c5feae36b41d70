"""Tests for fault-tolerant sharded execution.

The contract under test: for any shard count, any fault pattern, any
retry schedule, and fresh-vs-resumed execution, the merged traces and
telemetry are bit-identical to the fault-free single-process run.  The
fault matrix (kill first/middle/last shard, kill twice, exhaust
retries, timeouts, corrupt payloads, checkpoint → kill → resume) pins
every recovery path with the deterministic
:class:`repro.exec.resilience.FaultInjector`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time

import pytest

from repro.exec.resilience import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
    PayloadCorruptionError,
    RetryPolicy,
    ShardExecutionError,
    ShardSupervisor,
)
from repro.exec.sharding import ShardedFleetSimulator
from repro.fleet import DevicePopulation, FleetSimulator, traces_equal
from repro.obs import RunMonitor
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def population():
    return DevicePopulation.generate(8, duration_s=12.0, master_seed=77)


@pytest.fixture(scope="module")
def reference(trained_pipeline, population):
    """The fault-free batched run every recovered run must match."""
    return FleetSimulator(trained_pipeline).run(population)


def assert_matches_reference(run, reference):
    assert len(run.result.traces) == len(reference.traces)
    for left, right in zip(run.result.traces, reference.traces):
        assert traces_equal(left, right)


# ----------------------------------------------------------------------
# Retry policy + fault plan units
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3
        )
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(2) == pytest.approx(0.3)
        assert policy.backoff_s(10) == pytest.approx(0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_max_s": -1.0},
            {"shard_timeout_s": 0.0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestFaultPlan:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "kill:shard=1,round=2,attempts=0-1;"
            "delay:shard=*,seconds=0.5,attempts=*;"
            "corrupt:shard=0"
        )
        assert len(plan.rules) == 3
        kill, delay, corrupt = plan.rules
        assert kill == FaultRule(
            kind="kill", shard=1, round_index=2, attempt_range=(0, 1)
        )
        assert delay.shard is None
        assert delay.seconds == 0.5
        assert delay.attempt_range is None
        assert corrupt.kind == "corrupt"

    def test_defaults_hit_only_first_attempt_round_zero(self):
        plan = FaultPlan.parse("kill:shard=2")
        rule = plan.rules[0]
        assert rule.matches(2, 0, 0)
        assert not rule.matches(2, 0, 1)  # retry survives
        assert not rule.matches(2, 1, 0)  # later rounds survive
        assert not rule.matches(1, 0, 0)  # other shards survive

    def test_wildcards(self):
        plan = FaultPlan.parse("kill:shard=*,round=*,attempts=*")
        assert plan.rules[0].matches(5, 9, 3)

    def test_empty_spec_is_empty_plan(self):
        assert FaultPlan.parse("  ;  ").is_empty

    @pytest.mark.parametrize(
        "spec",
        [
            "explode:shard=1",
            "kill:shard=x",
            "kill:shard",
            "kill:attempts=3-1",
            "kill:volume=11",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        plan = FaultPlan.from_env({"REPRO_FAULT_PLAN": "kill:shard=0"})
        assert plan is not None and len(plan.rules) == 1

    def test_injector_raises_inline(self):
        injector = FaultInjector(FaultPlan.parse("kill:shard=0"))
        with pytest.raises(InjectedFault):
            injector.on_round(0, 0, 0)
        injector.on_round(0, 0, 1)  # retry passes

    def test_injector_corrupts(self):
        injector = FaultInjector(FaultPlan.parse("corrupt:shard=1"))
        assert injector.corrupts(1, 0)
        assert not injector.corrupts(1, 1)
        assert not injector.corrupts(0, 0)


# ----------------------------------------------------------------------
# Supervisor units (toy workers, no fleet)
# ----------------------------------------------------------------------
def _toy_worker(payload, attempt, emit):
    kind, value = payload
    if kind == "kill-first" and attempt == 0:
        if multiprocessing.parent_process() is not None:
            os._exit(23)
        raise InjectedFault("inline kill")
    if kind == "raise-first" and attempt == 0:
        raise RuntimeError("transient")
    if kind == "always-raise":
        raise RuntimeError("permanent")
    if kind == "slow-first" and attempt == 0:
        time.sleep(10.0)
    return value * 10


def supervise(payloads, policy, **kwargs):
    """Run toy payloads with a :class:`RunMonitor` folding the events."""
    monitor = RunMonitor(heartbeat_s=None)
    supervisor = ShardSupervisor(
        _toy_worker, monitor.handle, policy, **kwargs
    )
    return supervisor.run(payloads), monitor


class TestShardSupervisor:
    POLICY = RetryPolicy(max_retries=2, backoff_base_s=0.0)

    def test_fault_free_passthrough(self):
        results, monitor = supervise([("ok", 1), ("ok", 2)], self.POLICY)
        assert results == [10, 20]
        assert monitor.shard_attempts == (1, 1)
        assert monitor.retries == monitor.failures == monitor.timeouts == 0

    def test_worker_death_is_retried(self):
        results, monitor = supervise(
            [("kill-first", 1), ("ok", 2)], self.POLICY
        )
        assert results == [10, 20]
        assert monitor.shard_attempts == (2, 1)
        assert monitor.retries == 1 and monitor.failures == 1

    def test_raised_exception_is_retried(self):
        results, _ = supervise([("raise-first", 3)], self.POLICY)
        assert results == [30]

    def test_timeout_kills_and_retries(self):
        policy = RetryPolicy(
            max_retries=1, backoff_base_s=0.0, shard_timeout_s=0.5
        )
        results, monitor = supervise([("slow-first", 4)], policy)
        assert results == [40]
        assert monitor.timeouts == 1

    def test_exhausted_budget_raises_with_shard_and_attempts(self):
        policy = RetryPolicy(
            max_retries=1, backoff_base_s=0.0, inline_last_resort=True
        )
        with pytest.raises(ShardExecutionError) as excinfo:
            supervise([("ok", 1), ("always-raise", 2)], policy)
        error = excinfo.value
        assert error.shard_index == 1
        # Two process attempts plus the inline last resort.
        assert error.attempts == 3
        assert "shard 1" in str(error) and "3 attempts" in str(error)

    def test_failure_counters_fold_from_the_event_stream(self):
        _, monitor = supervise([("kill-first", 1)], self.POLICY)
        assert monitor.counters["shard.retries"] == 1.0
        assert monitor.counters["shard.failures"] == 1.0

    def test_inline_only_mode_never_spawns(self):
        results, monitor = supervise(
            [("raise-first", 5)], self.POLICY, inline_only=True
        )
        assert results == [50]
        assert monitor.used_processes is False


# ----------------------------------------------------------------------
# Fault matrix over the real sharded fleet
# ----------------------------------------------------------------------
class TestFaultMatrix:
    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_kill_each_shard_once(
        self, trained_pipeline, population, reference, victim
    ):
        """Kill the first, middle and last shard's first attempt; the
        retry recomputes and the merged run stays bit-identical."""
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=3,
            backoff_base_s=0.0,
            fault_plan=f"kill:shard={victim},round=0",
        )
        run = simulator.run(population)
        assert_matches_reference(run, reference)
        assert run.shard_attempts[victim] == 2
        assert run.retries == 1 and run.failures == 1

    def test_kill_twice_retry_succeeds(
        self, trained_pipeline, population, reference
    ):
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            max_retries=2,
            backoff_base_s=0.0,
            fault_plan="kill:shard=1,round=0,attempts=0-1",
        )
        run = simulator.run(population)
        assert_matches_reference(run, reference)
        assert run.shard_attempts[1] == 3
        assert run.retries == 2 and run.failures == 2

    def test_exhausted_retries_name_shard_and_attempts(
        self, trained_pipeline, population
    ):
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            max_retries=1,
            backoff_base_s=0.0,
            fault_plan="kill:shard=1,round=*,attempts=*",
        )
        with pytest.raises(ShardExecutionError) as excinfo:
            simulator.run(population)
        assert excinfo.value.shard_index == 1
        assert excinfo.value.attempts == 3

    def test_shard_timeout_recovers(
        self, trained_pipeline, population, reference
    ):
        """A delayed first attempt blows the per-shard timeout; the
        retry runs undelayed and the result is unchanged."""
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            shard_timeout_s=2.0,
            backoff_base_s=0.0,
            fault_plan="delay:shard=0,round=0,seconds=60",
        )
        run = simulator.run(population)
        assert_matches_reference(run, reference)
        assert run.timeouts == 1
        assert run.shard_attempts[0] == 2

    def test_corrupt_payload_detected_and_retried(
        self, trained_pipeline, population, reference
    ):
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            backoff_base_s=0.0,
            fault_plan="corrupt:shard=0",
        )
        run = simulator.run(population)
        assert_matches_reference(run, reference)
        assert run.failures == 1 and run.retries == 1

    def test_inline_fallback_after_worker_deaths(
        self, trained_pipeline, population, reference
    ):
        """Every process attempt dies mid-run; the inline last resort
        completes the shard (the BrokenProcessPool regression)."""
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            max_retries=1,
            backoff_base_s=0.0,
            fault_plan="kill:shard=0,round=0,attempts=0-1",
        )
        run = simulator.run(population)
        assert_matches_reference(run, reference)
        # Two dead workers, then the inline attempt (which the plan no
        # longer matches) finishes the work in the coordinator.
        assert run.shard_attempts[0] == 3
        assert run.failures == 2

    def test_metered_faulty_run_counts_and_matches(
        self, trained_pipeline, population, reference
    ):
        registry = MetricsRegistry()
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            metrics=registry,
            backoff_base_s=0.0,
            fault_plan="kill:shard=1,round=0",
        )
        run = simulator.run(population)
        assert_matches_reference(run, reference)
        assert run.metrics is not None
        assert run.metrics.counters["shard.retries"] == 1.0
        assert run.metrics.counters["shard.failures"] == 1.0


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_kill_resumes_from_checkpoint_bit_identically(
        self, trained_pipeline, population, reference, tmp_path, num_shards
    ):
        """Round-checkpointed shards killed mid-campaign resume from
        the last complete round and match the fault-free run exactly."""
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=num_shards,
            backoff_base_s=0.0,
            checkpoint_dir=tmp_path / "campaign",
            round_s=4.0,
            fault_plan=f"kill:shard={num_shards - 1},round=1",
        )
        run = simulator.run(population)
        assert_matches_reference(run, reference)
        assert run.shard_attempts[num_shards - 1] == 2

    def test_killed_campaign_resumes_bit_identically(
        self, trained_pipeline, population, reference, tmp_path
    ):
        """A campaign that dies outright (retries exhausted) is
        resumable: the rerun picks up every shard's newest complete
        round and finishes bit-identically."""
        directory = tmp_path / "campaign"
        doomed = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            max_retries=0,
            inline_last_resort=False,
            backoff_base_s=0.0,
            checkpoint_dir=directory,
            round_s=4.0,
            fault_plan="kill:shard=1,round=1,attempts=*",
        )
        with pytest.raises(ShardExecutionError):
            doomed.run(population)
        # Shard 1 checkpointed round 0 before dying.
        assert list((directory / "shard_0001").glob("round_*.ckpt"))
        revived = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            checkpoint_dir=directory,
            round_s=4.0,
            resume=True,
            fault_plan="",
        )
        run = revived.run(population)
        assert_matches_reference(run, reference)

    def test_summary_mode_checkpoint_resume(
        self, trained_pipeline, population, tmp_path
    ):
        summary_reference = FleetSimulator(trained_pipeline).run(
            population, trace="summary"
        )
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            backoff_base_s=0.0,
            checkpoint_dir=tmp_path / "campaign",
            round_s=4.0,
            fault_plan="kill:shard=0,round=2",
        )
        run = simulator.run(population, trace="summary")
        assert list(run.result.traces) == list(summary_reference.traces)

    def test_resume_requires_matching_manifest(
        self, trained_pipeline, population, tmp_path
    ):
        directory = tmp_path / "campaign"
        ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            checkpoint_dir=directory,
            round_s=4.0,
        ).run(population)
        mismatched = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=4,  # different geometry
            checkpoint_dir=directory,
            round_s=4.0,
            resume=True,
        )
        with pytest.raises(ValueError, match="different campaign"):
            mismatched.run(population)

    def test_fresh_run_refuses_existing_campaign(
        self, trained_pipeline, population, tmp_path
    ):
        directory = tmp_path / "campaign"
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            checkpoint_dir=directory,
            round_s=4.0,
        )
        simulator.run(population)
        fresh = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            checkpoint_dir=directory,
            round_s=4.0,
        )
        with pytest.raises(ValueError, match="already holds a campaign"):
            fresh.run(population)

    def test_resume_without_manifest_rejected(
        self, trained_pipeline, population, tmp_path
    ):
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            checkpoint_dir=tmp_path / "nowhere",
            resume=True,
        )
        with pytest.raises(ValueError, match="no campaign manifest"):
            simulator.run(population)

    def test_resume_requires_checkpoint_dir(self, trained_pipeline):
        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            ShardedFleetSimulator(trained_pipeline, resume=True)

    def test_checkpoint_metrics_counted(
        self, trained_pipeline, population, tmp_path
    ):
        registry = MetricsRegistry()
        simulator = ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            metrics=registry,
            checkpoint_dir=tmp_path / "campaign",
            round_s=4.0,
        )
        run = simulator.run(population)
        assert run.metrics is not None
        # 2 shards x 3 rounds of 4 simulated seconds.
        assert run.metrics.counters["checkpoint.saves"] == 6.0
        assert run.metrics.counters["checkpoint.bytes"] > 0.0
        assert run.metrics.counters["shard.rounds"] == 6.0

    def test_stale_checkpoints_pruned(
        self, trained_pipeline, population, tmp_path
    ):
        directory = tmp_path / "campaign"
        ShardedFleetSimulator(
            trained_pipeline,
            num_shards=2,
            checkpoint_dir=directory,
            round_s=2.0,  # 6 rounds
        ).run(population)
        for shard_dir in sorted(directory.glob("shard_*")):
            assert len(list(shard_dir.glob("round_*.ckpt"))) == 2


# ----------------------------------------------------------------------
# Segmented engine runs (the mechanism checkpointing relies on)
# ----------------------------------------------------------------------
class TestSegmentedRuns:
    @pytest.mark.parametrize(
        "engine_kwargs",
        [
            {},
            {"noise": "batched"},
            {"noise": "batched", "dtype": "float32"},
            {"features": "exact"},
        ],
    )
    def test_segmented_run_matches_single_run(
        self, trained_pipeline, population, engine_kwargs
    ):
        simulator = FleetSimulator(trained_pipeline, **engine_kwargs)
        reference = simulator.run(population, duration_s=12.0)
        runtime = simulator.build_runtime(population)
        runtime.begin_run()
        done = 0
        for segment in (5, 4, 3):
            traces = simulator.engine.run(
                runtime.runtimes,
                segment,
                state=runtime.state,
                start_step=done,
            )
            done += segment
        for left, right in zip(traces, reference.traces):
            assert traces_equal(left, right)

    @pytest.mark.parametrize("noise", ["per_device", "batched"])
    def test_pickled_state_continues_bit_identically(
        self, trained_pipeline, population, noise
    ):
        """A checkpoint payload round trip mid-run changes nothing, and
        the signal tables' trig scratch stays out of the payload."""
        simulator = FleetSimulator(trained_pipeline, noise=noise)
        reference = simulator.run(population, duration_s=12.0)
        runtime = simulator.build_runtime(population)
        runtime.begin_run()
        simulator.engine.run(runtime.runtimes, 6, state=runtime.state)
        tables = runtime.state.signal_tables
        scratch_bytes = tables._scratch.nbytes
        assert scratch_bytes > 0
        payload = pickle.dumps(
            {"runtimes": runtime.runtimes, "engine_state": runtime.state}
        )
        assert len(pickle.dumps(tables)) < (
            len(pickle.dumps(vars(tables))) - scratch_bytes // 2
        )
        restored = pickle.loads(payload)
        state = restored["engine_state"]
        assert state.signal_tables._scratch.size == 0
        # Like a resumed shard, continue on the unpickled engine.
        traces = state.engine.run(
            restored["runtimes"], 6, state=state, start_step=6
        )
        for left, right in zip(traces, reference.traces):
            assert traces_equal(left, right)

    def test_negative_start_step_rejected(self, trained_pipeline, population):
        simulator = FleetSimulator(trained_pipeline)
        runtime = simulator.build_runtime(population)
        runtime.begin_run()
        with pytest.raises(ValueError, match="start_step"):
            simulator.engine.run(
                runtime.runtimes, 1, state=runtime.state, start_step=-1
            )
