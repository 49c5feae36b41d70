"""Shared execution core for single-device and fleet simulation.

:mod:`repro.exec.engine` owns the per-tick sense → classify → adapt
protocol (:class:`~repro.exec.engine.StepEngine` advancing
:class:`~repro.exec.engine.DeviceRuntime` states);
:mod:`repro.exec.sharding` scales it across worker processes
(:class:`~repro.exec.sharding.ShardedFleetSimulator`).  The simulators
in :mod:`repro.sim.runtime` and :mod:`repro.fleet.engine` are facades
over this package.

``ShardedFleetSimulator`` is exported lazily because the sharding
module sits *above* the fleet layer (it merges fleet telemetry), while
the engine sits below it — an eager import here would cycle.
"""

from repro.exec.controller_bank import ConfigTable, ControllerBank
from repro.exec.engine import (
    CONTROLLER_MODES,
    DTYPE_MODES,
    FEATURE_MODES,
    NOISE_MODES,
    TRACE_MODES,
    DeviceRuntime,
    EngineState,
    StepEngine,
)
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

__all__ = [
    "CONTROLLER_MODES",
    "DTYPE_MODES",
    "FEATURE_MODES",
    "NOISE_MODES",
    "TRACE_MODES",
    "ConfigTable",
    "ControllerBank",
    "DeviceRuntime",
    "EngineState",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "PayloadCorruptionError",
    "RetryPolicy",
    "ShardExecutionError",
    "ShardSupervisor",
    "StepEngine",
    "ShardedFleetRun",
    "ShardedFleetSimulator",
]


def __getattr__(name: str):
    if name in ("ShardedFleetSimulator", "ShardedFleetRun"):
        from repro.exec import sharding

        return getattr(sharding, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
