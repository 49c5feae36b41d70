"""Differential test: the fleet engine against the independent reference.

:mod:`repro.sim.reference` runs the closed loop one device at a time
with plain objects (``read_window`` → ``SampleBuffer`` → features →
classifier → ``controller.update``) and imports nothing from
:mod:`repro.exec`.  Hypothesis draws small fleets over every float64
engine combination — feature mode, noise source, controller mode, trace
mode, a one- or two-segment ``start_step`` split, and custom controllers
the bank cannot vectorise (including an all-loose bank) — and the
engine's traces, or their ``TraceSummary`` folds, must be bit-identical
to the reference's.
"""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.controller import SpotController
from repro.datasets.synthetic import ScheduledSignal
from repro.exec.engine import StepEngine
from repro.fleet import traces_equal
from repro.fleet.population import DevicePopulation, PopulationSpec
from repro.sim import reference
from repro.sim.trace import TraceSummary
from repro.utils.rng import as_rng

#: Every controller family, so the bank holds several sub-banks, and
#: stability thresholds of a few seconds, so SPOT devices switch
#: configuration within a short run — devices join configuration groups
#: mid-history and leave them again.
MIXED_SPEC = PopulationSpec(
    controller_weights={
        "spot": 1.0,
        "spot_confidence": 1.0,
        "static": 0.5,
        "intensity": 0.5,
    },
    stability_choices=(1, 2, 3, 5),
)


class LooseSpot(SpotController):
    """A user subclass: the bank cannot replicate an overridden policy,
    so it always stays loose and runs its own ``update``."""

    def update(self, activity, confidence):
        return super().update(activity, confidence)


def _controller(profile, loose: bool):
    if loose:
        spec = profile.controller
        return LooseSpot(stability_threshold=spec.stability_threshold)
    return profile.make_controller()


def _signal_and_rng(profile):
    """A device's stream after its signal realisation was drawn."""
    rng = as_rng(profile.seed)
    return ScheduledSignal(list(profile.schedule), seed=rng), rng


@st.composite
def scenarios(draw):
    num_devices = draw(st.integers(1, 12))
    num_steps = draw(st.integers(2, 20))
    custom = draw(st.sampled_from(("none", "some", "all")))
    return dict(
        num_devices=num_devices,
        num_steps=num_steps,
        master_seed=draw(st.integers(0, 2**16)),
        features=draw(st.sampled_from(("incremental", "exact"))),
        noise=draw(st.sampled_from(("per_device", "batched"))),
        controllers=draw(st.sampled_from(("bank", "per_object"))),
        trace=draw(st.sampled_from(("full", "summary"))),
        split=draw(
            st.one_of(st.just(num_steps), st.integers(1, num_steps - 1))
        ),
        loose=[
            custom == "all" or (custom == "some" and index % 2 == 1)
            for index in range(num_devices)
        ],
    )


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_engine_matches_reference_loop(trained_pipeline, scenario):
    profiles = DevicePopulation.generate(
        scenario["num_devices"],
        duration_s=float(scenario["num_steps"]),
        master_seed=scenario["master_seed"],
        spec=MIXED_SPEC,
    ).profiles
    engine = StepEngine(
        trained_pipeline,
        features=scenario["features"],
        controllers=scenario["controllers"],
        noise=scenario["noise"],
    )
    runtimes = []
    for profile, loose in zip(profiles, scenario["loose"]):
        signal, rng = _signal_and_rng(profile)
        runtimes.append(
            engine.make_runtime(
                signal,
                _controller(profile, loose),
                profile.power_model,
                profile.noise,
                rng,
            )
        )
    state = engine.make_state(runtimes)
    if all(scenario["loose"]) or scenario["controllers"] == "per_object":
        assert state.bank.num_banked == 0

    num_steps, split = scenario["num_steps"], scenario["split"]
    got = engine.run(runtimes, split, trace=scenario["trace"], state=state)
    if split < num_steps:
        got = engine.run(
            runtimes,
            num_steps - split,
            trace=scenario["trace"],
            state=state,
            start_step=split,
        )

    for profile, loose, result in zip(profiles, scenario["loose"], got):
        signal, rng = _signal_and_rng(profile)
        expected = reference.simulate_device(
            trained_pipeline,
            signal,
            _controller(profile, loose),
            profile.power_model,
            profile.noise,
            rng,
            num_steps,
            features=scenario["features"],
            noise=scenario["noise"],
        )
        if scenario["trace"] == "full":
            assert traces_equal(result, expected)
        else:
            assert result == TraceSummary.from_trace(expected)


def test_reference_imports_nothing_from_exec():
    """The oracle stays independent: no import of ``repro.exec``."""
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # Relative imports resolve against the package, repro.sim.
            base = ["repro", "sim"][: 3 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            imported.append(module)
            imported.extend(f"{module}.{alias.name}" for alias in node.names)
    assert imported, "no imports parsed"
    assert not [
        name
        for name in imported
        if name == "repro.exec" or name.startswith("repro.exec.")
    ]
