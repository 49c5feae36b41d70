"""AdaSense reproduction: adaptive low-power sensing and activity recognition.

This package reproduces the system described in

    Neseem, Nelson, Reda — "AdaSense: Adaptive Low-Power Sensing and
    Activity Recognition for Wearable Devices", DAC 2020.

It contains the paper's contribution (unified feature extraction, a
shared activity classifier, the SPOT adaptive sensing controllers and
the sensor-configuration design-space exploration) together with every
substrate the evaluation needs in a laptop-only environment: a synthetic
activity-signal generator, a behavioural accelerometer simulator, energy
and memory models, a from-scratch NumPy ML stack, comparison baselines
and a closed-loop simulator.

Quickstart
----------
>>> from repro import AdaSense, make_fig5_schedule
>>> system = AdaSense.train(windows_per_activity_per_config=20, seed=0)
>>> trace = system.simulate(make_fig5_schedule(), seed=1)
>>> round(trace.accuracy, 2) >= 0.5
True

Fleet simulation
----------------
The :mod:`repro.fleet` subsystem scales the closed loop from one device
to whole populations.  A :class:`~repro.fleet.DevicePopulation` samples
N heterogeneous devices (behaviour scenarios from the Fig. 7 settings
plus lifestyle archetypes, mixed controllers, per-device noise, power
and battery variation) deterministically from a master seed; the
:class:`~repro.fleet.FleetSimulator` advances every device in lock step,
classifying the whole fleet with **one batched pipeline call per
simulated second** — bit-identical to, and much faster than, running the
per-device loop N times; :class:`~repro.fleet.FleetTelemetry` turns the
traces into fleet-level distributions with JSON export.

>>> from repro import DevicePopulation, FleetSimulator, FleetTelemetry
>>> population = DevicePopulation.generate(4, duration_s=30.0, master_seed=1)
>>> result = FleetSimulator(system.pipeline).run(population)
>>> FleetTelemetry.from_result(result).num_devices
4

Every simulation path runs on one shared execution core
(:mod:`repro.exec`): stacked multi-device sensing, incremental
(chunk-cached) feature extraction and one batched classifier call per
tick, with :class:`~repro.fleet.ShardedFleetSimulator` splitting a
population across worker processes — all bit-identical to the
per-device sequential reference.

The same study is available from the command line::

    repro fleet --devices 500 --duration 600 --out fleet.json
    repro fleet --devices 500 --duration 600 --engine sharded

See ``examples/`` for complete, commented scenarios (including
``examples/fleet_report.py``) and ``benchmarks/`` for the scripts that
regenerate every table and figure of the paper.
"""

from repro.core.activities import Activity
from repro.core.adasense import AdaSense
from repro.core.config import (
    DEFAULT_SPOT_STATES,
    HIGH_POWER_CONFIG,
    LOW_POWER_CONFIG,
    TABLE1_CONFIGS,
    SensorConfig,
)
from repro.core.controller import (
    SpotController,
    SpotWithConfidenceController,
    StaticController,
)
from repro.core.dse import DesignSpaceExplorer
from repro.core.features import (
    FeatureExtractor,
    IncrementalFeatureExtractor,
    WindowGeometry,
)
from repro.core.pipeline import HarPipeline
from repro.exec.engine import DeviceRuntime, StepEngine
from repro.baselines.intensity_based import IntensityBasedApproach
from repro.baselines.static import AlwaysHighPowerBaseline
from repro.datasets.scenarios import (
    ActivitySetting,
    ScenarioArchetype,
    make_archetype_schedule,
    make_fig5_schedule,
    make_setting_schedule,
)
from repro.datasets.windows import WindowDataset, WindowDatasetBuilder
from repro.energy.accelerometer import AccelerometerPowerModel
from repro.energy.mcu import McuModel
from repro.fleet import (
    DevicePopulation,
    DeviceProfile,
    FleetResult,
    FleetSimulator,
    FleetTelemetry,
    PopulationSpec,
    ShardedFleetRun,
    ShardedFleetSimulator,
)
from repro.sim.runtime import ClosedLoopSimulator
from repro.sim.trace import SimulationTrace

__version__ = "1.10.0"

__all__ = [
    "__version__",
    "Activity",
    "AdaSense",
    "SensorConfig",
    "TABLE1_CONFIGS",
    "DEFAULT_SPOT_STATES",
    "HIGH_POWER_CONFIG",
    "LOW_POWER_CONFIG",
    "SpotController",
    "SpotWithConfidenceController",
    "StaticController",
    "DesignSpaceExplorer",
    "FeatureExtractor",
    "HarPipeline",
    "IntensityBasedApproach",
    "AlwaysHighPowerBaseline",
    "ActivitySetting",
    "make_fig5_schedule",
    "make_setting_schedule",
    "WindowDataset",
    "WindowDatasetBuilder",
    "AccelerometerPowerModel",
    "McuModel",
    "ClosedLoopSimulator",
    "SimulationTrace",
    "ScenarioArchetype",
    "make_archetype_schedule",
    "DevicePopulation",
    "DeviceProfile",
    "DeviceRuntime",
    "FleetResult",
    "FleetSimulator",
    "FleetTelemetry",
    "IncrementalFeatureExtractor",
    "PopulationSpec",
    "ShardedFleetRun",
    "ShardedFleetSimulator",
    "StepEngine",
    "WindowGeometry",
]
