"""Crash flight recorder for supervised shard attempts.

When a shard worker dies, hangs past its timeout, or returns a corrupt
payload, the process is already gone — it cannot dump its own state.
The :class:`FlightRecorder` therefore lives on the *coordinator* side
of the result pipe, as part of the :class:`repro.obs.live.RunMonitor`
fold over the run's one ``repro.live/v1`` event stream: every event of
a shard's lifecycle — the supervisor's launches and failures and the
worker's attempt starts, round starts, heartbeats and checkpoints — is
recorded into a bounded per-shard ring, and when an attempt fails the
ring is dumped as a small JSON artifact next to the checkpoints.  A
chaos failure then leaves behind the last ~:data:`DEFAULT_RING_SIZE`
things the shard did instead of just an exit code, and
:class:`repro.exec.resilience.ShardExecutionError` can point straight
at the file.  The recorder keeps no tallies of its own: the monitor
counts ``flight.events`` and ``flight.dumps``.

The dump format is versioned (:data:`FLIGHT_SCHEMA`) and append-safe:
one file per ``(shard, attempt)``, so a shard that fails several
attempts keeps one recording per attempt rather than overwriting the
evidence.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional

__all__ = [
    "DEFAULT_RING_SIZE",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
]

#: Schema tag stamped on every flight-recorder dump.
FLIGHT_SCHEMA = "repro.flight/v1"

#: Events retained per shard before the ring starts evicting.
DEFAULT_RING_SIZE = 64


class FlightRecorder:
    """Bounded per-shard event rings, dumpable as JSON crash artifacts.

    Parameters
    ----------
    directory:
        Where dumps are written (created on first dump, so a fault-free
        run leaves no empty directory behind).
    ring_size:
        Events retained per shard; older events are evicted FIFO.
    """

    def __init__(
        self,
        directory: "str | Path",
        ring_size: int = DEFAULT_RING_SIZE,
    ) -> None:
        if ring_size < 1:
            raise ValueError(f"ring_size must be positive, got {ring_size}")
        self._directory = Path(directory)
        self._ring_size = int(ring_size)
        self._rings: Dict[int, Deque[Dict[str, object]]] = {}
        self._last_round: Dict[int, int] = {}
        self._last_dump: Dict[int, Path] = {}

    @property
    def directory(self) -> Path:
        """The dump directory."""
        return self._directory

    def record(self, shard: int, event: Dict[str, object]) -> None:
        """Append one event to the shard's ring.

        ``round_start`` events additionally update the shard's
        last-known round, which the dump reports even after the event
        itself has been evicted from the ring.
        """
        ring = self._rings.get(shard)
        if ring is None:
            ring = deque(maxlen=self._ring_size)
            self._rings[shard] = ring
        ring.append(dict(event))
        if event.get("event") == "round_start":
            try:
                self._last_round[shard] = int(event["round"])  # type: ignore[arg-type]
            except (KeyError, TypeError, ValueError):
                pass

    def events(self, shard: int) -> List[Dict[str, object]]:
        """The shard's current ring contents, oldest first."""
        return [dict(event) for event in self._rings.get(shard, ())]

    def last_round(self, shard: int) -> Optional[int]:
        """Last round the shard was seen starting (``None`` if never)."""
        return self._last_round.get(shard)

    def dump_path(self, shard: int, attempt: int) -> Path:
        """Where a dump for ``(shard, attempt)`` lands."""
        return (
            self._directory
            / f"flight_shard_{shard:04d}_attempt_{attempt:02d}.json"
        )

    def last_dump(self, shard: int) -> Optional[Path]:
        """Path of the shard's most recent dump (``None`` if none yet)."""
        return self._last_dump.get(shard)

    def dump(
        self, shard: int, attempt: int, kind: str, reason: str
    ) -> Path:
        """Write the shard's ring as a JSON crash artifact.

        ``kind`` is the failure class (``died`` / ``error`` /
        ``timeout`` / ``corrupt``); ``reason`` is the human-readable
        description the supervisor logged.  Returns the written path.
        """
        payload = {
            "schema": FLIGHT_SCHEMA,
            "shard": int(shard),
            "attempt": int(attempt),
            "kind": str(kind),
            "reason": str(reason),
            "last_round": self._last_round.get(shard),
            "num_events": len(self._rings.get(shard, ())),
            "events": self.events(shard),
        }
        self._directory.mkdir(parents=True, exist_ok=True)
        path = self.dump_path(shard, attempt)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
        self._last_dump[shard] = path
        return path
