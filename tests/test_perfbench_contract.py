"""The benchmark child drives the CLI's public calls: keep that contract.

``perfbench/child.py`` parses each workload's ``repro`` command line
with the CLI's own parser and calls ``FleetSimulator``,
``ShardedFleetSimulator`` and ``CampaignRunner`` with the parsed flags.
Running every workload here, shrunk to a few devices and seconds, makes
a deleted CLI flag or constructor keyword fail the unit suite instead
of the benchmark run.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()

#: The span the child records around each workload's simulation call.
SIMULATION_SPANS = {
    "FleetSimulator.run",
    "ShardedFleetSimulator.run",
    "CampaignRunner.run",
}


def _shrunk(args):
    """A workload command line cut down to a few devices and seconds."""
    args = list(args)
    for flag, value in (("--devices", "6"), ("--duration", "12")):
        args[args.index(flag) + 1] = value
    return args + ["--windows", "6"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_child_runs_every_workload(workload, tmp_path):
    checkpoint = (
        str(tmp_path / "checkpoint")
        if WORKLOADS.needs_checkpoint(workload)
        else None
    )
    argv = _shrunk(
        WORKLOADS.cli_args(
            workload, WORKLOADS.DEFAULT_SEED, str(tmp_path / "report.json"),
            checkpoint,
        )
    )
    stamps = tmp_path / "stamps.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--stamps", str(stamps),
         "--", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    names = {span["name"] for span in json.loads(stamps.read_text())["spans"]}
    assert names & SIMULATION_SPANS, sorted(names)
    assert (tmp_path / "report.json").exists()
