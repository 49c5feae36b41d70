"""Live run telemetry: the one event stream of a supervised run, folded.

A supervised sharded run reports exactly one event stream, the
:data:`LIVE_SCHEMA` lifecycle.  :class:`repro.exec.resilience.ShardSupervisor`
emits its own ``launch`` / ``attempt_failure`` / ``shard_complete``
events and forwards the events its shard workers ship over their
result pipes, interleaved with the ``ok``/``error`` result protocol:
``attempt_start``, ``round_start``, ``checkpoint`` and — at the
heartbeat cadence — ``heartbeat`` (built with :func:`build_heartbeat`:
round/step progress, devices simulated, device-steps/s, per-phase span
deltas, RSS).

:class:`RunMonitor` is the fold over that stream, entered through its
one :meth:`RunMonitor.handle` method.  Everything else is read from it:

* the run's recovery figures — retries, failed attempts, timeouts,
  attempts per shard, whether worker processes ran — and the
  ``shard.*`` / ``heartbeat.*`` / ``straggler.*`` / ``flight.*``
  counters the coordinator folds into its metrics;
* live progress/ETA, per-shard rate gauges and an **online straggler
  detector** (relative-lag rule over heartbeat rates — the hook a
  future elastic rebalancer will consume at round boundaries);
* a ``--watch`` TTY status line and an append-only NDJSON event file
  (``--events``), checkable with :func:`validate_events_file`;
* the per-shard :class:`repro.obs.flight.FlightRecorder` ring, dumped
  on every attempt failure so worker deaths, timeouts and corrupt
  payloads leave a crash artifact behind.

Monitoring never perturbs the simulation: workers only read clocks,
counters and ``/proc`` — never random streams or sample arrays — and
heartbeat pacing only re-segments the engine loop, which is pinned
bit-identical to unsegmented execution by the resilience tests.
"""

from __future__ import annotations

import json
import os
import sys
import time
from statistics import median
from typing import Callable, Dict, IO, List, Optional, Tuple

from repro.obs.flight import DEFAULT_RING_SIZE, FlightRecorder

__all__ = [
    "DEFAULT_HEARTBEAT_S",
    "LIVE_SCHEMA",
    "RunMonitor",
    "build_heartbeat",
    "current_rss_bytes",
    "validate_events_file",
    "validate_live_event",
]

#: Schema tag stamped on the ``run_start`` event of every NDJSON stream.
LIVE_SCHEMA = "repro.live/v1"

#: Default heartbeat interval in *simulated* seconds.  Simulated time is
#: the only clock workers share deterministically, so pacing beats by it
#: keeps the event schedule reproducible run-to-run.
DEFAULT_HEARTBEAT_S = 10.0

#: Minimum keys per event type; :func:`validate_live_event` enforces
#: these, so the NDJSON stream is machine-checkable in CI.
_EVENT_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "run_start": ("schema", "shards", "devices", "num_steps"),
    "launch": ("shard", "attempt"),
    "attempt_start": ("shard", "attempt", "steps_done", "num_steps", "devices"),
    "round_start": ("shard", "attempt", "round"),
    "heartbeat": (
        "shard", "attempt", "round", "steps_done", "num_steps", "devices",
        "rate", "interval_s", "phase_s",
    ),
    "checkpoint": ("shard", "attempt", "rounds_done", "steps_done"),
    "attempt_failure": ("shard", "attempt", "kind", "reason"),
    "shard_complete": ("shard", "attempts"),
    "straggler": ("shard", "rate", "median_rate"),
    "straggler_cleared": ("shard",),
    "run_complete": ("ok",),
}


#: Failure kinds with a counter of their own, beside ``shard.failures``.
_FAILURE_COUNTERS: Dict[str, str] = {
    "timeout": "shard.timeouts",
    "corrupt": "shard.corrupt_payloads",
}


def current_rss_bytes() -> Optional[int]:
    """Resident-set size of this process, or ``None`` when unknowable.

    Reads ``/proc/self/statm`` (Linux) and falls back to
    :func:`resource.getrusage` (peak RSS) elsewhere — no third-party
    process libraries, so the hot path never grows a dependency.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except Exception:  # noqa: BLE001 - not Linux / procfs unavailable
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is bytes on macOS, kibibytes on Linux/BSD.
        return int(peak) if sys.platform == "darwin" else int(peak) * 1024
    except Exception:  # noqa: BLE001 - platform without getrusage
        return None


def build_heartbeat(
    shard: int,
    attempt: int,
    round_index: int,
    steps_done: int,
    num_steps: int,
    devices: int,
    elapsed_s: float,
    interval_s: float,
    steps_delta: int,
    phase_s: Dict[str, float],
    rss_bytes: Optional[int] = None,
) -> Dict[str, object]:
    """Assemble one heartbeat event dict (the worker-side schema).

    ``rate`` is device-steps per wall-clock second over the reporting
    interval — the straggler detector's common currency, because it is
    comparable across shards of different sizes.
    """
    rate = (
        devices * steps_delta / interval_s if interval_s > 0.0 else 0.0
    )
    return {
        "event": "heartbeat",
        "shard": int(shard),
        "attempt": int(attempt),
        "round": int(round_index),
        "steps_done": int(steps_done),
        "num_steps": int(num_steps),
        "devices": int(devices),
        "elapsed_s": round(float(elapsed_s), 6),
        "interval_s": round(float(interval_s), 6),
        "rate": round(float(rate), 3),
        "phase_s": {
            name: round(float(value), 6)
            for name, value in sorted(phase_s.items())
        },
        "rss_bytes": rss_bytes,
    }


def validate_live_event(payload: object) -> str:
    """Check one decoded NDJSON event; returns its type or raises.

    Raises :class:`ValueError` on unknown event types, missing required
    keys, a bad timestamp, or a ``run_start`` with the wrong schema tag.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"live event must be an object, got {type(payload).__name__}")
    name = payload.get("event")
    if name not in _EVENT_REQUIRED:
        raise ValueError(f"unknown live event type {name!r}")
    stamp = payload.get("t")
    if not isinstance(stamp, (int, float)) or stamp < 0:
        raise ValueError(f"live event {name!r} has bad timestamp {stamp!r}")
    missing = [key for key in _EVENT_REQUIRED[name] if key not in payload]
    if missing:
        raise ValueError(f"live event {name!r} missing keys {missing}")
    if name == "run_start" and payload["schema"] != LIVE_SCHEMA:
        raise ValueError(
            f"run_start schema {payload['schema']!r} != {LIVE_SCHEMA!r}"
        )
    return str(name)


def validate_events_file(path: "str | os.PathLike") -> Dict[str, int]:
    """Validate a whole NDJSON event stream; returns per-type counts.

    Every line must decode to a valid event and the stream must open
    with a ``run_start`` — the contract the CI smoke asserts.
    """
    counts: Dict[str, int] = {}
    first: Optional[str] = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from exc
            try:
                name = validate_live_event(payload)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if first is None:
                first = name
            counts[name] = counts.get(name, 0) + 1
    if first != "run_start":
        raise ValueError(f"{path}: stream must open with run_start, got {first!r}")
    return counts


class _ShardState:
    """Mutable live view of one shard, fed by its events."""

    __slots__ = (
        "devices", "num_steps", "steps_done", "rate", "heartbeats",
        "attempts", "rss_bytes",
    )

    def __init__(self, devices: int, num_steps: int) -> None:
        self.devices = int(devices)
        self.num_steps = int(num_steps)
        self.steps_done = 0
        self.rate = 0.0
        self.heartbeats = 0
        self.attempts = 0
        self.rss_bytes: Optional[int] = None


class RunMonitor:
    """The fold over a supervised run's one event stream.

    :meth:`handle` is the :class:`repro.exec.resilience.ShardSupervisor`
    event sink; :class:`repro.exec.sharding.ShardedFleetSimulator`
    always runs through one (a default one has no watch line, no
    NDJSON and no heartbeats) and brackets the run with
    :meth:`begin_run` / :meth:`end_run`.  The run's recovery figures
    (:attr:`retries`, :attr:`failures`, :attr:`timeouts`,
    :attr:`shard_attempts`, :attr:`used_processes`), its
    :attr:`counters` and the flight recordings are all read from here.
    Sink and dump I/O failures are swallowed: monitoring can degrade,
    but it must never fail a run.

    Parameters
    ----------
    watch:
        ``True`` for a live status line on ``sys.stderr``, or any
        writable text stream (tests pass ``io.StringIO``).
    events:
        Path (opened for append) or writable stream receiving one JSON
        object per line (see :func:`validate_events_file`).
    flight_dir:
        Directory for :class:`~repro.obs.flight.FlightRecorder` crash
        dumps.  The sharded coordinator defaults it to the checkpoint
        directory when one exists.
    heartbeat_s:
        Heartbeat interval in simulated seconds (default
        :data:`DEFAULT_HEARTBEAT_S`); ``None`` disables in-round
        heartbeats while keeping lifecycle events and flight recording.
    straggler_ratio:
        A shard is flagged when its latest heartbeat rate drops below
        ``straggler_ratio`` × the median rate of the active shards.
    straggler_min_heartbeats:
        Heartbeats a shard must have reported before it can be flagged
        (suppresses cold-start noise).
    ring_size:
        Flight-recorder ring length per shard.
    watch_interval_s:
        Minimum wall-clock spacing between watch-line repaints (forced
        repaints — failures, completions — ignore it).
    clock:
        Monotonic clock, injectable for tests.
    """

    def __init__(
        self,
        watch: "bool | IO[str] | None" = None,
        events: "str | os.PathLike | IO[str] | None" = None,
        flight_dir: "str | os.PathLike | None" = None,
        heartbeat_s: Optional[float] = DEFAULT_HEARTBEAT_S,
        straggler_ratio: float = 0.5,
        straggler_min_heartbeats: int = 2,
        ring_size: int = DEFAULT_RING_SIZE,
        watch_interval_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if heartbeat_s is not None and heartbeat_s <= 0.0:
            raise ValueError(f"heartbeat_s must be positive, got {heartbeat_s}")
        if not 0.0 < straggler_ratio <= 1.0:
            raise ValueError(
                f"straggler_ratio must be in (0, 1], got {straggler_ratio}"
            )
        if straggler_min_heartbeats < 1:
            raise ValueError(
                "straggler_min_heartbeats must be positive, got "
                f"{straggler_min_heartbeats}"
            )
        self.heartbeat_s = heartbeat_s
        self._straggler_ratio = float(straggler_ratio)
        self._straggler_min = int(straggler_min_heartbeats)
        self._ring_size = int(ring_size)
        self._watch: Optional[IO[str]] = None
        if watch is True:
            self._watch = sys.stderr
        elif watch:
            self._watch = watch  # type: ignore[assignment]
        self._watch_interval_s = float(watch_interval_s)
        self._events_request = events
        self._events_stream: Optional[IO[str]] = None
        self._events_owned = False
        self._flight: Optional[FlightRecorder] = (
            FlightRecorder(flight_dir, ring_size)
            if flight_dir is not None
            else None
        )
        self._clock = clock
        self._counters: Dict[str, float] = {}
        self._shards: Dict[int, _ShardState] = {}
        self._flagged: set = set()
        self._completed: set = set()
        self._used_processes = False
        self._t0 = 0.0
        self._started = False
        self._finished = False
        self._last_render = float("-inf")
        self._last_line_len = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def flight_dir(self) -> Optional[str]:
        """The flight-recorder dump directory (``None`` when disabled)."""
        return (
            str(self._flight.directory) if self._flight is not None else None
        )

    def ensure_flight_dir(self, path: "str | os.PathLike") -> None:
        """Install a flight recorder at ``path`` unless one is set."""
        if self._flight is None:
            self._flight = FlightRecorder(path, self._ring_size)

    @property
    def counters(self) -> Dict[str, float]:
        """Counters folded from the stream (``shard.*`` /
        ``heartbeat.*`` / ``straggler.*`` / ``flight.*``) for the
        coordinator's metrics.  A key exists only once it is non-zero."""
        return dict(self._counters)

    @property
    def retries(self) -> int:
        """Re-launched attempts (``launch`` events past attempt 0).
        Every failure of a completed run was retried, so there this
        equals :attr:`failures`."""
        return int(self._counters.get("shard.retries", 0))

    @property
    def failures(self) -> int:
        """``attempt_failure`` events of any kind."""
        return int(self._counters.get("shard.failures", 0))

    @property
    def timeouts(self) -> int:
        """``attempt_failure`` events of kind ``timeout``."""
        return int(self._counters.get("shard.timeouts", 0))

    @property
    def shard_attempts(self) -> Tuple[int, ...]:
        """Attempts per shard in shard order (the ``attempts`` of each
        ``shard_complete``, once every shard has completed)."""
        return tuple(
            self._shards[index].attempts for index in sorted(self._shards)
        )

    @property
    def used_processes(self) -> bool:
        """Whether any attempt was launched in a worker process."""
        return self._used_processes

    def heartbeat_steps(
        self, step_s: float, heartbeat_s: Optional[float] = None
    ) -> Optional[int]:
        """Engine ticks per heartbeat segment (``None`` when disabled).

        ``heartbeat_s`` overrides the monitor's own interval.
        """
        beat_s = self.heartbeat_s if heartbeat_s is None else heartbeat_s
        if beat_s is None:
            return None
        return max(1, int(round(beat_s / float(step_s))))

    def stragglers(self) -> Tuple[int, ...]:
        """Currently-flagged straggler shards, ascending."""
        return tuple(sorted(self._flagged))

    def progress(self) -> float:
        """Run completion in [0, 1], weighted by device-steps."""
        total = sum(
            state.devices * state.num_steps for state in self._shards.values()
        )
        if total <= 0:
            return 0.0
        done = sum(
            state.devices * min(state.steps_done, state.num_steps)
            for state in self._shards.values()
        )
        return done / total

    def eta_s(self) -> Optional[float]:
        """Estimated seconds to completion from current shard rates."""
        remaining = 0.0
        rate = 0.0
        for index, state in self._shards.items():
            if index in self._completed:
                continue
            remaining += state.devices * max(
                state.num_steps - state.steps_done, 0
            )
            rate += state.rate
        if remaining <= 0.0:
            return 0.0
        if rate <= 0.0:
            return None
        return remaining / rate

    def shard_rates(self) -> Dict[int, float]:
        """Latest heartbeat rate per shard (device-steps/s)."""
        return {
            index: state.rate
            for index, state in self._shards.items()
            if state.heartbeats > 0
        }

    # ------------------------------------------------------------------
    # Run lifecycle (called by the sharded coordinator)
    # ------------------------------------------------------------------
    def begin_run(
        self,
        shard_sizes: "List[int] | Tuple[int, ...]",
        num_steps: int,
        step_s: float = 1.0,
    ) -> None:
        """Arm the monitor for one run and emit ``run_start``."""
        self._t0 = self._clock()
        self._started = True
        self._finished = False
        self._counters = {}
        self._flagged = set()
        self._completed = set()
        self._used_processes = False
        self._shards = {
            index: _ShardState(devices=size, num_steps=num_steps)
            for index, size in enumerate(shard_sizes)
        }
        self._last_render = float("-inf")
        if self._events_request is not None and self._events_stream is None:
            if hasattr(self._events_request, "write"):
                self._events_stream = self._events_request  # type: ignore[assignment]
            else:
                self._events_stream = open(
                    os.fspath(self._events_request), "a", encoding="utf-8"
                )
                self._events_owned = True
        self._emit(
            {
                "event": "run_start",
                "schema": LIVE_SCHEMA,
                "shards": len(self._shards),
                "devices": int(sum(shard_sizes)),
                "num_steps": int(num_steps),
                "step_s": float(step_s),
                "heartbeat_s": self.heartbeat_s,
            }
        )
        self._render(force=True)

    def end_run(self, ok: bool) -> None:
        """Emit ``run_complete``, finish the watch line, close the file."""
        if not self._started or self._finished:
            return
        self._finished = True
        self._emit(
            {
                "event": "run_complete",
                "ok": bool(ok),
                "progress": round(self.progress(), 6),
                "stragglers": list(self.stragglers()),
                "heartbeats": int(self._counters.get("heartbeat.received", 0)),
                "elapsed_s": round(self._clock() - self._t0, 6),
            }
        )
        self._render(force=True)
        if self._watch is not None:
            try:
                self._watch.write("\n")
                self._watch.flush()
            except Exception:  # noqa: BLE001 - watch stream gone
                pass
        if self._events_owned and self._events_stream is not None:
            try:
                self._events_stream.close()
            finally:
                self._events_stream = None
                self._events_owned = False

    # ------------------------------------------------------------------
    # The event sink
    # ------------------------------------------------------------------
    def handle(self, shard: int, attempt: int, event: object) -> None:
        """Fold one event of the run's stream (the supervisor's sink).

        Every well-formed event except ``shard_complete`` enters the
        shard's flight ring; an ``attempt_failure`` then dumps the ring
        and names the dump in the event it writes to the NDJSON stream.
        """
        if not isinstance(event, dict) or "event" not in event:
            self._count("heartbeat.malformed")
            return
        name = event["event"]
        if self._flight is not None and name != "shard_complete":
            self._flight.record(shard, event)
            self._count("flight.events")
        if name == "launch":
            if attempt > 0:
                self._count("shard.retries")
            if not event.get("inline"):
                self._used_processes = True
            self._emit(event)
            return
        if name == "attempt_failure":
            self._fail(shard, attempt, event)
            return
        state = self._state(shard)
        if name == "shard_complete":
            self._complete(shard, state, event)
            return
        if name == "attempt_start":
            state.attempts = int(attempt) + 1
            state.devices = int(event.get("devices", state.devices))
            state.num_steps = int(event.get("num_steps", state.num_steps))
            state.steps_done = int(event.get("steps_done", state.steps_done))
        elif name == "heartbeat":
            self._count("heartbeat.received")
            state.steps_done = int(event.get("steps_done", state.steps_done))
            state.num_steps = int(event.get("num_steps", state.num_steps))
            state.devices = int(event.get("devices", state.devices))
            state.rate = float(event.get("rate", 0.0))
            state.heartbeats += 1
            rss = event.get("rss_bytes")
            if rss is not None:
                state.rss_bytes = int(rss)
        elif name == "checkpoint":
            state.steps_done = int(event.get("steps_done", state.steps_done))
        self._emit(event)
        if name == "heartbeat":
            self._check_stragglers()
        self._render(force=False)

    def _fail(self, shard: int, attempt: int, event: Dict[str, object]) -> None:
        """An attempt failed: count it, dump the flight ring, emit."""
        kind = str(event.get("kind"))
        self._count("shard.failures")
        if kind in _FAILURE_COUNTERS:
            self._count(_FAILURE_COUNTERS[kind])
        if self._flight is not None:
            try:
                path = self._flight.dump(
                    shard, attempt, kind, str(event.get("reason"))
                )
            except OSError:
                pass
            else:
                self._count("flight.dumps")
                event = dict(event, flight=str(path))
        self._emit(event)
        self._render(force=True)

    def _complete(
        self, shard: int, state: _ShardState, event: Dict[str, object]
    ) -> None:
        """A shard finished (result accepted by validation)."""
        state.steps_done = state.num_steps
        state.attempts = int(event["attempts"])
        self._completed.add(shard)
        if shard in self._flagged:
            self._flagged.discard(shard)
            self._emit({"event": "straggler_cleared", "shard": int(shard)})
        self._emit(event)
        self._render(force=True)

    def flight_path(self, task_index: int) -> Optional[str]:
        """Most recent flight dump for a shard, for error messages."""
        if self._flight is None:
            return None
        path = self._flight.last_dump(task_index)
        return str(path) if path is not None else None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _state(self, task_index: int) -> _ShardState:
        state = self._shards.get(task_index)
        if state is None:
            state = _ShardState(devices=0, num_steps=0)
            self._shards[task_index] = state
        return state

    def _count(self, name: str, value: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + value

    def _emit(self, payload: Dict[str, object]) -> None:
        if self._events_stream is None:
            return
        event = {"t": round(max(self._clock() - self._t0, 0.0), 6)}
        event.update(payload)
        try:
            self._events_stream.write(
                json.dumps(event, sort_keys=True, default=str) + "\n"
            )
            self._events_stream.flush()
        except Exception:  # noqa: BLE001 - event sink gone; keep running
            pass

    def _check_stragglers(self) -> None:
        """Re-evaluate the relative-lag rule over active shard rates."""
        active = {
            index: state
            for index, state in self._shards.items()
            if index not in self._completed and state.heartbeats > 0
        }
        if len(active) < 2:
            return
        med = median(state.rate for state in active.values())
        if med <= 0.0:
            return
        threshold = self._straggler_ratio * med
        for index, state in active.items():
            lagging = (
                state.heartbeats >= self._straggler_min
                and state.rate < threshold
            )
            if lagging and index not in self._flagged:
                self._flagged.add(index)
                self._count("straggler.flags")
                self._emit(
                    {
                        "event": "straggler",
                        "shard": int(index),
                        "rate": round(state.rate, 3),
                        "median_rate": round(med, 3),
                        "threshold": round(threshold, 3),
                    }
                )
            elif not lagging and index in self._flagged:
                self._flagged.discard(index)
                self._emit(
                    {
                        "event": "straggler_cleared",
                        "shard": int(index),
                        "rate": round(state.rate, 3),
                        "median_rate": round(med, 3),
                    }
                )

    def _render(self, force: bool) -> None:
        if self._watch is None or not self._started:
            return
        now = self._clock()
        if not force and (now - self._last_render) < self._watch_interval_s:
            return
        self._last_render = now
        total = sum(
            state.devices * state.num_steps for state in self._shards.values()
        )
        done = sum(
            state.devices * min(state.steps_done, state.num_steps)
            for state in self._shards.values()
        )
        pct = 100.0 * done / total if total else 0.0
        rate = sum(
            state.rate
            for index, state in self._shards.items()
            if index not in self._completed
        )
        if rate <= 0.0 and done:
            # Every shard already finished (or none has heartbeat yet):
            # fall back to the whole-run average so the final repaint
            # shows real throughput instead of an idle 0.
            elapsed = now - self._t0
            if elapsed > 0.0:
                rate = done / elapsed
        eta = self.eta_s()
        if eta is None:
            eta_text = "--:--"
        else:
            eta_text = f"{int(eta) // 60:02d}:{int(eta) % 60:02d}"
        flagged = ",".join(str(index) for index in self.stragglers()) or "-"
        line = (
            f"[repro] {pct:5.1f}% | {int(done):,}/{int(total):,} dev-steps"
            f" | {rate:,.0f} dev-steps/s | eta {eta_text}"
            f" | shards {len(self._completed)}/{len(self._shards)}"
            f" | stragglers {flagged}"
        )
        padded = line.ljust(self._last_line_len)
        self._last_line_len = len(line)
        try:
            self._watch.write("\r" + padded)
            self._watch.flush()
        except Exception:  # noqa: BLE001 - watch stream gone
            pass
