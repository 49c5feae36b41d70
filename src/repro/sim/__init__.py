"""Closed-loop simulation of the AdaSense system.

The subpackage drives the full loop of Fig. 3 against a synthetic user:
an activity schedule produces a continuous signal, the simulated
accelerometer samples it under the configuration chosen by the adaptive
controller, the HAR pipeline classifies each buffered batch, and the
controller reacts to the classification — while the energy model keeps
track of what the sensor cost during every one-second episode.

* :mod:`repro.sim.trace` — per-step records and trace-level summaries;
* :mod:`repro.sim.runtime` — the step-by-step simulator;
* :mod:`repro.sim.reference` — the independent per-device reference
  loop the fleet engine is checked against.
"""

from repro.sim.runtime import ClosedLoopSimulator
from repro.sim.streaming import StreamingAdaSense, StreamingStep
from repro.sim.trace import SimulationTrace, StepRecord

__all__ = [
    "ClosedLoopSimulator",
    "StreamingAdaSense",
    "StreamingStep",
    "SimulationTrace",
    "StepRecord",
]
