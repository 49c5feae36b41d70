"""Helpers shared by the benchmark modules and the profiling script.

Kept separate from ``conftest.py`` so benchmark files can import them
explicitly (``from _bench_utils import print_report``) without relying on
how pytest names conftest modules.  ``scripts/profile_fleet.py`` imports
:data:`RECIPES` from here too, so the benchmarks and the profiler can
never disagree about what a named execution recipe means.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.experiments.common import Scale

#: Seed shared by every benchmark so printed tables are reproducible.
BENCH_SEED = 2020

#: The named execution recipes of the benchmarks.  Each maps
#: to ``FleetSimulator`` keyword arguments plus the trace mode
#: (``sequential`` runs the independent per-device reference loop of
#: ``repro.sim.reference`` with these feature and noise settings).
#: Every fleet recipe runs the engine's one execution path (stacked
#: acquisition, sample ring, controller bank); ``controllers=
#: "per_object"`` leaves every controller loose in the bank.
RECIPES: Dict[str, Dict[str, str]] = {
    "sequential": dict(
        features="exact", controllers="per_object",
        noise="per_device", trace="full",
    ),
    "batched": dict(
        features="exact", controllers="per_object",
        noise="per_device", trace="full",
    ),
    "incremental": dict(
        features="incremental", controllers="per_object",
        noise="per_device", trace="full",
    ),
    "controller_bank": dict(
        features="incremental", controllers="bank",
        noise="per_device", trace="summary",
    ),
    "batched_noise": dict(
        features="incremental", controllers="bank",
        noise="batched", trace="summary",
    ),
    "float32": dict(
        features="incremental", controllers="bank",
        noise="batched", dtype="float32", trace="summary",
    ),
    "campaign": dict(
        features="incremental", controllers="bank",
        noise="batched", trace="summary", campaign_variants="16",
    ),
}

#: RECIPES keys that configure the campaign layer rather than the
#: fleet simulator; :func:`recipe_settings` strips them so every
#: recipe's kwargs can be splatted straight into ``FleetSimulator`` /
#: ``CampaignRunner``.
CAMPAIGN_KEYS: Tuple[str, ...] = ("campaign_variants",)


def recipe_settings(name: str) -> Tuple[Dict[str, str], str]:
    """Split a named recipe into (simulator kwargs, trace mode)."""
    recipe = dict(RECIPES[name])
    trace = recipe.pop("trace")
    for key in CAMPAIGN_KEYS:
        recipe.pop(key, None)
    return recipe, trace


def campaign_variant_count(name: str = "campaign") -> int:
    """Grid size of a campaign recipe (1 for plain fleet recipes)."""
    return int(RECIPES[name].get("campaign_variants", "1"))


def run_metadata(**knobs) -> Dict[str, object]:
    """Provenance of one benchmark run: machine, toolchain, mode knobs.

    Stored alongside the timings in ``BENCH_fleet.json`` so a historical
    number can always be traced back to the hardware and library
    versions that produced it.
    """
    meta: Dict[str, object] = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
    }
    meta.update(knobs)
    return meta


def bench_scale() -> Scale:
    """The experiment scale selected via ``REPRO_BENCH_SCALE``.

    ``quick`` (default) keeps the whole harness in the minutes range;
    ``paper`` regenerates the figures at a fidelity comparable to the
    paper's 7300-window dataset.
    """
    value = os.environ.get("REPRO_BENCH_SCALE", "quick").strip().lower()
    if value not in ("quick", "paper"):
        raise ValueError(
            f"REPRO_BENCH_SCALE must be 'quick' or 'paper', got {value!r}"
        )
    return value  # type: ignore[return-value]


#: Append-only ledger of benchmark outcomes across PRs, one JSON
#: object per line (read back by ``scripts/bench_report.py``).
BENCH_HISTORY_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"
)


def git_sha() -> Optional[str]:
    """The short commit hash of HEAD, or ``None`` outside a checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def append_bench_history(
    kind: str,
    record: Dict[str, object],
    path: "Path | str" = BENCH_HISTORY_PATH,
) -> Dict[str, object]:
    """Append one timestamped benchmark record to the history ledger.

    Each line carries its own provenance (UTC timestamp, git sha, the
    record ``kind``) so the devices/s trend and the gate ratios can be
    tracked across commits without diffing ``BENCH_fleet.json``
    snapshots.  Returns the entry that was written.
    """
    entry: Dict[str, object] = {
        "ts": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha(),
        "kind": str(kind),
    }
    entry.update(record)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def print_report(title: str, body: str) -> None:
    """Print a paper-artefact report with a visible header.

    pytest captures stdout by default; run with ``-s`` to stream the
    tables, or rely on the captured-output section of a failing test.
    """
    rule = "=" * 72
    print(f"\n{rule}\n{title}\n{rule}\n{body}\n")
