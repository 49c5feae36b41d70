"""The benchmark's workloads, each one ``repro`` command line.

The seed reaches the program only as the generated ``--seed`` argument,
which seeds both classifier training and the device population.  Why
each workload exists is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

from typing import List, Optional

#: Workload seed used when none is given.  Seed 7 is kept aside for
#: checking a claim on data it was not tuned on.
DEFAULT_SEED = 2020

WORKLOADS = {
    "fleet_steady": ["fleet", "--devices", "2000", "--duration", "36",
                     "--noise", "batched"],
    "fleet_cold": ["fleet", "--devices", "4000", "--duration", "8"],
    "campaign_grid": ["campaign", "--devices", "500", "--duration", "24",
                      "--thresholds", "5,10,20,40",
                      "--confidences", "0.7,0.8,0.85,0.95"],
    "fleet_sharded": ["fleet", "--engine", "sharded", "--shards", "2",
                      "--noise", "batched", "--round", "15",
                      "--devices", "1500", "--duration", "60"],
}


def needs_checkpoint(workload: str) -> bool:
    """Whether runs of ``workload`` need a fresh checkpoint directory."""
    return "--round" in WORKLOADS[workload]


def cli_args(
    workload: str, seed: int, out: str, checkpoint: Optional[str] = None
) -> List[str]:
    """The full ``repro`` argument list of one run of ``workload``."""
    args = WORKLOADS[workload] + ["--seed", str(seed), "--out", out]
    if checkpoint is not None:
        args += ["--checkpoint", checkpoint]
    return args
