"""Fault-tolerant shard execution: supervision, retry and fault injection.

The sharded fleet coordinator used to submit every shard to one
:class:`~concurrent.futures.ProcessPoolExecutor` and hope — a single
dead worker raised ``BrokenProcessPool`` out of the pool and lost the
whole campaign.  This module replaces that with an explicit supervisor
built on raw :class:`multiprocessing.Process` workers:

* each shard **attempt** runs in its own process with its own result
  pipe, so a hung or dead worker can be timed out and terminated
  without disturbing the other shards;
* failed attempts (worker death, raised exceptions, timeouts, corrupt
  payloads) are retried with exponential backoff up to a configurable
  budget, with an optional in-process last-resort attempt;
* a shard that exhausts every attempt raises a clean
  :class:`ShardExecutionError` naming the shard and the attempt count;
* the supervisor keeps no books of its own.  It reports one event
  stream — the ``repro.live/v1`` lifecycle — to a single
  ``on_event(shard, attempt, event)`` sink: its own ``launch`` /
  ``attempt_failure`` / ``shard_complete`` events, and the worker
  events (``attempt_start``, ``round_start``, ``heartbeat``,
  ``checkpoint``) that workers interleave as ``("event", payload)``
  messages with the terminal ``("ok", ...)`` / ``("error", ...)``
  result on the same pipe.  Retry, failure, timeout and attempt
  figures, the ``shard.*`` counters, live progress and the flight
  recorder are all folds over that stream
  (:class:`repro.obs.live.RunMonitor`).

Because every recovery path must be testable in CI, the module also
provides a deterministic :class:`FaultInjector` driven by a parsed
:class:`FaultPlan` (constructor argument or the ``REPRO_FAULT_PLAN``
environment variable): kill shard *k* at round *r*, delay shard *k* by
*d* seconds, or corrupt one result payload.  Injection is a pure
function of ``(kind, shard, round, attempt)``, so a fault schedule
replays identically on every run.

The supervisor is deliberately agnostic of what a "shard" computes: it
runs ``worker(payload, attempt, emit)`` callables and hands back their
return values in task order.  Round-based checkpointing lives in the
worker (see :mod:`repro.exec.sharding`); the attempt index threaded
through here is what lets a retried worker resume from its checkpoint.
"""

from __future__ import annotations

import functools
import logging
import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "PayloadCorruptionError",
    "RetryPolicy",
    "ShardExecutionError",
    "ShardSupervisor",
]

_LOGGER = logging.getLogger("repro.exec.resilience")

#: Exit code used by injected worker kills, chosen to be recognisable
#: in process tables and test assertions.
FAULT_EXIT_CODE = 23

#: Environment variable holding a fault-plan spec (see
#: :meth:`FaultPlan.parse`).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


class InjectedFault(RuntimeError):
    """Raised by :class:`FaultInjector` for kills in in-process runs.

    Worker processes die via ``os._exit`` (simulating a hard crash);
    inline attempts cannot take the whole coordinator down, so the
    injector raises this instead and the retry machinery treats it
    like any other attempt failure.
    """


class PayloadCorruptionError(RuntimeError):
    """A shard returned a structurally invalid result payload."""


class ShardExecutionError(RuntimeError):
    """A shard failed every attempt the retry policy allowed.

    Attributes
    ----------
    shard_index:
        The shard that could not be completed.
    attempts:
        Total attempts made (first try plus retries).
    last_error:
        Human-readable description of the final attempt's failure.
    flight_path:
        Path of the shard's newest flight-recorder dump, when the
        coordinator's run monitor recorded one (``None`` otherwise) —
        the artifact to open first when debugging.
    """

    def __init__(
        self,
        shard_index: int,
        attempts: int,
        last_error: str,
        flight_path: Optional[str] = None,
    ) -> None:
        message = (
            f"shard {shard_index} failed after {attempts} attempt"
            f"{'s' if attempts != 1 else ''} (last error: {last_error})"
        )
        if flight_path is not None:
            message += f"; flight recording: {flight_path}"
        super().__init__(message)
        self.shard_index = shard_index
        self.attempts = attempts
        self.last_error = last_error
        self.flight_path = flight_path


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How hard the supervisor tries before giving up on a shard.

    Attributes
    ----------
    max_retries:
        Process re-attempts after the first try (so a shard gets
        ``1 + max_retries`` process attempts).
    backoff_base_s, backoff_factor, backoff_max_s:
        Exponential backoff between attempts: retry *n* (0-based) waits
        ``min(backoff_base_s * backoff_factor ** n, backoff_max_s)``
        seconds before resubmitting.
    shard_timeout_s:
        Wall-clock budget per attempt; a worker still running at the
        deadline is terminated and the attempt counts as a timeout
        failure.  ``None`` (default) never times out.
    inline_last_resort:
        After every process attempt fails, run one final attempt in the
        coordinator process itself (no timeout enforcement there).  The
        last line of defence for environments where process spawning is
        broken entirely.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    shard_timeout_s: Optional[float] = None
    inline_last_resort: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.backoff_base_s < 0.0:
            raise ValueError(
                f"backoff_base_s must be non-negative, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max_s < 0.0:
            raise ValueError(
                f"backoff_max_s must be non-negative, got {self.backoff_max_s}"
            )
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0.0:
            raise ValueError(
                f"shard_timeout_s must be positive, got {self.shard_timeout_s}"
            )

    def backoff_s(self, retry_index: int) -> float:
        """Delay before the ``retry_index``-th retry (0-based)."""
        return min(
            self.backoff_base_s * self.backoff_factor**retry_index,
            self.backoff_max_s,
        )


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: ``kind`` at a (shard, round, attempt) site.

    ``None`` fields are wildcards.  ``attempt_range`` is an inclusive
    ``(lo, hi)`` pair; ``None`` matches every attempt.
    """

    kind: str
    shard: Optional[int] = None
    round_index: Optional[int] = 0
    attempt_range: Optional[Tuple[int, int]] = (0, 0)
    seconds: float = 0.25

    KINDS = ("kill", "delay", "corrupt")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(
                f"fault kind must be one of {self.KINDS}, got {self.kind!r}"
            )
        if self.seconds < 0.0:
            raise ValueError(f"seconds must be non-negative, got {self.seconds}")
        if self.attempt_range is not None:
            lo, hi = self.attempt_range
            if lo < 0 or hi < lo:
                raise ValueError(
                    f"attempt range must satisfy 0 <= lo <= hi, got {lo}-{hi}"
                )

    def matches(
        self, shard: int, round_index: Optional[int], attempt: int
    ) -> bool:
        """Does this rule fire at the given site?

        ``round_index=None`` (used for result-time faults like
        ``corrupt``) only matches rules whose round is a wildcard or 0
        — corruption is a property of the attempt, not of a round.
        """
        if self.shard is not None and self.shard != shard:
            return False
        if self.round_index is not None:
            site_round = 0 if round_index is None else round_index
            if self.round_index != site_round:
                return False
        if self.attempt_range is not None:
            lo, hi = self.attempt_range
            if not lo <= attempt <= hi:
                return False
        return True


def _parse_site(value: str, key: str) -> Optional[int]:
    if value == "*":
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise ValueError(f"fault plan {key} must be an int or '*', got {value!r}")
    if parsed < 0:
        raise ValueError(f"fault plan {key} must be non-negative, got {parsed}")
    return parsed


def _parse_attempts(value: str) -> Optional[Tuple[int, int]]:
    if value == "*":
        return None
    if "-" in value:
        lo_text, _, hi_text = value.partition("-")
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(value)
    if lo < 0 or hi < lo:
        raise ValueError(
            f"fault plan attempts must satisfy 0 <= lo <= hi, got {value!r}"
        )
    return (lo, hi)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultRule` entries.

    Specs are ``;``-separated rules of the form
    ``KIND:key=value,key=value`` where ``KIND`` is ``kill`` / ``delay``
    / ``corrupt`` and the keys are:

    ``shard``
        Shard index or ``*`` (any shard).  Default ``*``.
    ``round``
        Round index or ``*`` (any round).  Default ``0``.
    ``attempts``
        Attempt index, inclusive range ``lo-hi``, or ``*``.
        Default ``0`` — by default a fault hits only the first attempt,
        so the retry succeeds.
    ``seconds``
        Delay duration (``delay`` rules only).  Default ``0.25``.

    Examples: ``kill:shard=1,round=0`` (kill shard 1's first attempt in
    round 0), ``delay:shard=*,seconds=0.5,attempts=*`` (slow every
    attempt of every shard), ``kill:shard=2,attempts=0-3`` (keep
    killing shard 2 until its fourth attempt).
    """

    rules: Tuple[FaultRule, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string (see class docstring for the grammar)."""
        rules: List[FaultRule] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, _, arg_text = chunk.partition(":")
            kind = kind.strip()
            kwargs: Dict[str, Any] = {
                "shard": None,
                "round_index": 0,
                "attempt_range": (0, 0),
            }
            for item in arg_text.split(","):
                item = item.strip()
                if not item:
                    continue
                key, sep, value = item.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not value:
                    raise ValueError(
                        f"fault plan entry {item!r} is not key=value"
                    )
                if key == "shard":
                    kwargs["shard"] = _parse_site(value, "shard")
                elif key == "round":
                    kwargs["round_index"] = _parse_site(value, "round")
                elif key == "attempts":
                    kwargs["attempt_range"] = _parse_attempts(value)
                elif key == "seconds":
                    kwargs["seconds"] = float(value)
                else:
                    raise ValueError(f"unknown fault plan key {key!r}")
            rules.append(FaultRule(kind=kind, **kwargs))
        return cls(rules=tuple(rules))

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultPlan"]:
        """Build a plan from ``REPRO_FAULT_PLAN``; ``None`` when unset."""
        env = os.environ if environ is None else environ
        spec = env.get(FAULT_PLAN_ENV, "").strip()
        if not spec:
            return None
        return cls.parse(spec)

    @property
    def is_empty(self) -> bool:
        return not self.rules

    def first_match(
        self, kind: str, shard: int, round_index: Optional[int], attempt: int
    ) -> Optional[FaultRule]:
        """First rule of ``kind`` firing at the site, or ``None``."""
        for rule in self.rules:
            if rule.kind == kind and rule.matches(shard, round_index, attempt):
                return rule
        return None


class FaultInjector:
    """Executes a :class:`FaultPlan` inside shard workers.

    The injector travels to the worker in the shard payload and is
    consulted at deterministic points: :meth:`on_round` before each
    simulated round (delays sleep, kills die) and :meth:`corrupts`
    when the result payload is assembled.  A worker-process kill uses
    ``os._exit`` — no cleanup, no exception propagation — to model a
    hard crash; inline attempts raise :class:`InjectedFault` instead.
    """

    def __init__(self, plan: FaultPlan, exit_code: int = FAULT_EXIT_CODE) -> None:
        self._plan = plan
        self._exit_code = exit_code

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def on_round(self, shard: int, round_index: int, attempt: int) -> None:
        """Apply round-start faults for the site (delay, then kill)."""
        delay = self._plan.first_match("delay", shard, round_index, attempt)
        if delay is not None and delay.seconds > 0.0:
            time.sleep(delay.seconds)
        kill = self._plan.first_match("kill", shard, round_index, attempt)
        if kill is not None:
            if multiprocessing.parent_process() is not None:
                os._exit(self._exit_code)
            raise InjectedFault(
                f"injected kill: shard {shard}, round {round_index}, "
                f"attempt {attempt}"
            )

    def corrupts(self, shard: int, attempt: int) -> bool:
        """Should this attempt's result payload be corrupted?"""
        return self._plan.first_match("corrupt", shard, None, attempt) is not None


# ----------------------------------------------------------------------
# Supervision
# ----------------------------------------------------------------------
def _supervised_entry(
    worker: Callable[..., Any],
    payload: Any,
    attempt: int,
    conn: multiprocessing.connection.Connection,
) -> None:
    """Process entry point: run the worker, ship outcome over the pipe.

    The worker's ``emit`` callable ships ``("event", payload)`` messages
    over the same pipe, ahead of the terminal ``("ok", ...)`` /
    ``("error", ...)`` message; the supervisor's event loop forwards
    them to its sink.  Emission is best-effort: a closed pipe must
    never take the simulation down.
    """

    def emit(event: Any) -> None:
        try:
            conn.send(("event", event))
        except Exception:  # noqa: BLE001 - monitoring only
            pass

    try:
        result = worker(payload, attempt, emit)
    except BaseException as exc:  # noqa: BLE001 - forwarded to supervisor
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        finally:
            conn.close()
        return
    try:
        conn.send(("ok", result))
    except Exception as exc:  # result not picklable / pipe gone
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


class _Attempt:
    """One in-flight or queued shard attempt."""

    __slots__ = ("task_index", "attempt", "ready_at", "inline", "process",
                 "conn", "deadline")

    def __init__(
        self,
        task_index: int,
        attempt: int,
        ready_at: float = 0.0,
        inline: bool = False,
    ) -> None:
        self.task_index = task_index
        self.attempt = attempt
        self.ready_at = ready_at
        self.inline = inline
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Optional[multiprocessing.connection.Connection] = None
        self.deadline: Optional[float] = None


class ShardSupervisor:
    """Runs shard payloads under retry/timeout/fault supervision.

    Parameters
    ----------
    worker:
        ``worker(payload, attempt, emit) -> result`` callable.  Must be
        picklable (a module-level function) so spawn-based contexts can
        ship it to worker processes.  ``emit(event)`` forwards one
        in-flight event dict to ``on_event``.
    on_event:
        ``on_event(shard, attempt, event)`` sink for the run's one event
        stream.  The supervisor reports each of its own lifecycle
        events once — ``launch`` (with ``inline``), ``attempt_failure``
        (with ``kind``: ``died`` / ``error`` / ``timeout`` /
        ``corrupt``, and ``reason``) and ``shard_complete`` (with
        ``attempts``) — and forwards worker events unchanged.
        Retries, failures, timeouts, attempts and whether worker
        processes ran are folds over this stream
        (:class:`repro.obs.live.RunMonitor`).
    policy:
        The :class:`RetryPolicy`; defaults to ``RetryPolicy()``.
    validate:
        Optional hook called with every successful result; raise
        :class:`PayloadCorruptionError` to reject it and trigger a
        retry.
    inline_only:
        Run every attempt in the current process (no workers, no
        timeout enforcement).  Used for single-shard runs, which never
        paid process overhead historically, and as the global fallback
        when the platform cannot spawn processes at all.
    """

    def __init__(
        self,
        worker: Callable[..., Any],
        on_event: Callable[[int, int, Dict[str, Any]], None],
        policy: Optional[RetryPolicy] = None,
        validate: Optional[Callable[[Any], None]] = None,
        inline_only: bool = False,
    ) -> None:
        self._worker = worker
        self._on_event = on_event
        self._policy = policy if policy is not None else RetryPolicy()
        self._validate = validate
        self._inline_only = inline_only

    # -- lifecycle events -----------------------------------------------
    def _launched(self, task_index: int, attempt: int, inline: bool) -> None:
        self._on_event(
            task_index,
            attempt,
            {
                "event": "launch",
                "shard": task_index,
                "attempt": attempt,
                "inline": inline,
            },
        )

    def _failed(
        self, task_index: int, attempt: int, reason: str, kind: str
    ) -> None:
        _LOGGER.warning(
            "shard %d attempt %d failed: %s", task_index, attempt, reason
        )
        self._on_event(
            task_index,
            attempt,
            {
                "event": "attempt_failure",
                "shard": task_index,
                "attempt": attempt,
                "kind": kind,
                "reason": reason,
            },
        )

    def _completed(self, task_index: int, attempt: int) -> None:
        self._on_event(
            task_index,
            attempt,
            {
                "event": "shard_complete",
                "shard": task_index,
                "attempts": attempt + 1,
            },
        )

    # -- public API -----------------------------------------------------
    def run(self, payloads: Sequence[Any]) -> List[Any]:
        """Run every payload to completion (or raise).

        Returns results in task order.  Raises
        :class:`ShardExecutionError` as soon as any shard exhausts its
        attempt budget; remaining workers are terminated first.
        """
        tasks = list(payloads)
        if self._inline_only:
            return [
                self._run_task_inline(index, payload)
                for index, payload in enumerate(tasks)
            ]
        results: List[Any] = [None] * len(tasks)
        if tasks:
            self._run_supervised(tasks, results)
        return results

    # -- inline path ----------------------------------------------------
    def _attempt_inline(self, task_index: int, payload: Any, attempt: int):
        """One inline attempt.  Returns ``(ok, result_or_reason, kind)``."""
        self._launched(task_index, attempt, inline=True)
        emit = functools.partial(self._on_event, task_index, attempt)
        try:
            result = self._worker(payload, attempt, emit)
            if self._validate is not None:
                self._validate(result)
        except PayloadCorruptionError as exc:
            return False, f"{type(exc).__name__}: {exc}", "corrupt"
        except Exception as exc:  # noqa: BLE001 - retried below
            return False, f"{type(exc).__name__}: {exc}", "error"
        return True, result, "ok"

    def _run_task_inline(self, task_index: int, payload: Any) -> Any:
        """Run one task fully inline with the policy's retry budget."""
        total_attempts = 1 + self._policy.max_retries
        last_reason = "unknown"
        for attempt in range(total_attempts):
            if attempt > 0:
                backoff = self._policy.backoff_s(attempt - 1)
                if backoff > 0.0:
                    time.sleep(backoff)
            ok, outcome, kind = self._attempt_inline(task_index, payload, attempt)
            if ok:
                self._completed(task_index, attempt)
                return outcome
            last_reason = outcome
            self._failed(task_index, attempt, outcome, kind)
        raise ShardExecutionError(task_index, total_attempts, last_reason)

    # -- supervised (process) path --------------------------------------
    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    def _launch(
        self, context, entry: _Attempt, payload: Any
    ) -> None:
        """Start a worker process for an attempt (raises OSError on
        platforms that cannot spawn)."""
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_supervised_entry,
            args=(self._worker, payload, entry.attempt, sender),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            receiver.close()
            sender.close()
            raise
        sender.close()
        entry.process = process
        entry.conn = receiver
        if self._policy.shard_timeout_s is not None:
            entry.deadline = time.monotonic() + self._policy.shard_timeout_s
        self._launched(entry.task_index, entry.attempt, inline=False)

    def _reap(self, entry: _Attempt) -> None:
        """Terminate and clean up an attempt's process, if any."""
        if entry.process is not None:
            if entry.process.is_alive():
                entry.process.terminate()
            entry.process.join()
        if entry.conn is not None:
            entry.conn.close()

    def _schedule_retry(
        self,
        entry: _Attempt,
        pending: List[_Attempt],
        now: float,
        reason: str,
    ) -> Optional[Tuple[int, int, str]]:
        """Queue the next attempt for a failed one.

        Returns ``None`` when a retry (or the inline last resort) was
        scheduled, otherwise ``(task_index, attempts, reason)`` meaning
        the shard is out of budget.
        """
        next_attempt = entry.attempt + 1
        if entry.attempt < self._policy.max_retries:
            pending.append(
                _Attempt(
                    entry.task_index,
                    next_attempt,
                    ready_at=now + self._policy.backoff_s(entry.attempt),
                )
            )
            return None
        if not entry.inline and self._policy.inline_last_resort:
            _LOGGER.warning(
                "shard %d: process attempts exhausted, falling back inline",
                entry.task_index,
            )
            pending.append(
                _Attempt(entry.task_index, next_attempt, inline=True)
            )
            return None
        return entry.task_index, next_attempt, reason

    def _run_supervised(self, tasks: List[Any], results: List[Any]) -> None:
        policy = self._policy
        context = self._context()
        max_workers = min(len(tasks), os.cpu_count() or 1)
        pending: List[_Attempt] = [
            _Attempt(index, 0) for index in range(len(tasks))
        ]
        running: Dict[Any, _Attempt] = {}
        inline_mode = False
        fatal: Optional[Tuple[int, int, str]] = None

        def fail_attempt(
            entry: _Attempt, reason: str, now: float, kind: str = "error"
        ) -> None:
            nonlocal fatal
            self._failed(entry.task_index, entry.attempt, reason, kind)
            exhausted = self._schedule_retry(entry, pending, now, reason)
            if exhausted is not None and fatal is None:
                fatal = exhausted

        def finish_attempt(entry: _Attempt, result: Any, now: float) -> None:
            try:
                if self._validate is not None:
                    self._validate(result)
            except PayloadCorruptionError as exc:
                fail_attempt(entry, f"{type(exc).__name__}: {exc}", now,
                             kind="corrupt")
                return
            results[entry.task_index] = result
            self._completed(entry.task_index, entry.attempt)

        try:
            while (pending or running) and fatal is None:
                now = time.monotonic()
                # Launch every due attempt the worker budget allows.
                # Inline attempts (last resort or global fallback) run
                # synchronously right here.
                for entry in list(pending):
                    if fatal is not None:
                        break
                    if entry.ready_at > now:
                        continue
                    if entry.inline or inline_mode:
                        pending.remove(entry)
                        ok, outcome, kind = self._attempt_inline(
                            entry.task_index, tasks[entry.task_index],
                            entry.attempt,
                        )
                        now = time.monotonic()
                        if ok:
                            results[entry.task_index] = outcome
                            self._completed(entry.task_index, entry.attempt)
                        else:
                            entry.inline = True
                            fail_attempt(entry, outcome, now, kind)
                        continue
                    if len(running) >= max_workers:
                        continue
                    pending.remove(entry)
                    try:
                        self._launch(context, entry, tasks[entry.task_index])
                    except OSError as exc:
                        # Restricted environment: no process spawning at
                        # all.  Finish everything inline (the historical
                        # fallback), starting with this attempt.
                        _LOGGER.warning(
                            "cannot spawn shard workers (%s); running inline",
                            exc,
                        )
                        inline_mode = True
                        pending.append(entry)
                        continue
                    running[entry.conn] = entry
                if fatal is not None or (not pending and not running):
                    break
                if not running:
                    # Everything queued is backing off; sleep to the
                    # earliest ready time.
                    wake = min(entry.ready_at for entry in pending)
                    delay = wake - time.monotonic()
                    if delay > 0.0:
                        time.sleep(delay)
                    continue
                # Wait for a result, a worker death, a deadline or a
                # backoff expiry — whichever comes first.
                timeout: Optional[float] = None
                bounds = [
                    entry.deadline
                    for entry in running.values()
                    if entry.deadline is not None
                ]
                bounds.extend(
                    entry.ready_at for entry in pending if entry.ready_at > now
                )
                if bounds:
                    timeout = max(0.0, min(bounds) - time.monotonic())
                ready = multiprocessing.connection.wait(
                    list(running.keys()), timeout=timeout
                )
                now = time.monotonic()
                for conn in ready:
                    entry = running[conn]
                    try:
                        kind, value = conn.recv()
                    except (EOFError, OSError):
                        kind, value = "died", None
                    if kind == "event":
                        # In-flight worker event: forward it and keep the
                        # attempt registered — only the terminal
                        # ok/error/death messages retire it.
                        self._on_event(entry.task_index, entry.attempt, value)
                        continue
                    del running[conn]
                    self._reap(entry)
                    if kind == "died":
                        fail_attempt(
                            entry,
                            "worker died before reporting "
                            f"(exit code {entry.process.exitcode})",
                            now,
                            kind="died",
                        )
                    elif kind == "ok":
                        finish_attempt(entry, value, now)
                    else:
                        fail_attempt(entry, str(value), now)
                # Deadline sweep.
                for conn, entry in list(running.items()):
                    if entry.deadline is not None and now >= entry.deadline:
                        del running[conn]
                        self._reap(entry)
                        fail_attempt(
                            entry,
                            f"timed out after {policy.shard_timeout_s} s",
                            now,
                            kind="timeout",
                        )
        finally:
            for entry in running.values():
                self._reap(entry)
        if fatal is not None:
            raise ShardExecutionError(*fatal)
