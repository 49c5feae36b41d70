"""Campaign variant grids: controller hyperparameter sweeps over one fleet.

A *campaign* evaluates V controller variants — SPOT stability
thresholds, confidence cutoffs, config tables, forced controller kinds —
over one shared :class:`repro.fleet.population.DevicePopulation`.  Each
variant is a named bundle of :class:`ControllerSpec` field overrides;
applying a variant to a population rewrites every device's controller
spec while keeping its *physical* identity (schedule, noise, power
model, battery and — crucially — seed) untouched, so variant v of
device d experiences exactly the signal and noise an independent run of
that variant would.

:func:`virtual_profiles` lays the V variant populations out as one
fused fleet of ``V x D`` virtual devices in variant-major order
(``virtual_id = v * D + d``): contiguous shard splits then cut on the
variant axis, and slicing the fused traces back per variant is a plain
stride.

:func:`fused_layout` goes one step further and *dedupes* the layout on
:meth:`ControllerSpec.behavior_key`: a grid axis a device's controller
kind ignores (confidence cutoffs for plain SPOT devices, every
controller axis for static and intensity devices) produces virtual
duplicates that would simulate bit-identically, so only one
representative per ``(physical device, behaviour)`` class enters the
fused fleet and its trace is fanned back out to every duplicate at fold
time.  This is what turns a V-point grid over a mixed-controller
population into far fewer than ``V x D`` simulated devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import intern_config_table
from repro.fleet.population import CONTROLLER_KINDS, ControllerSpec, DeviceProfile
from repro.utils.validation import check_probability

#: Controller kinds a grid may force fleet-wide.  ``intensity`` is not
#: one: its thresholds are calibrated per population, so a grid value
#: cannot supply them.
GRID_KINDS: Tuple[str, ...] = tuple(
    kind for kind in CONTROLLER_KINDS if kind != "intensity"
)

#: ControllerSpec fields a campaign variant may override.
OVERRIDABLE_FIELDS: Tuple[str, ...] = (
    "kind",
    "stability_threshold",
    "confidence_threshold",
    "static_config_name",
    "config_table",
)


@dataclass(frozen=True)
class CampaignVariant:
    """One grid point: a named set of controller-spec overrides.

    Attributes
    ----------
    name:
        Stable human-readable identifier (used in Pareto points, JSON
        exports and metrics).
    overrides:
        Mapping of :class:`ControllerSpec` field names to replacement
        values, applied to every device's spec with
        :func:`dataclasses.replace`.  An empty mapping is the baseline
        variant (the population exactly as generated).
    """

    name: str
    overrides: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variant name must not be empty")
        unknown = set(self.overrides) - set(OVERRIDABLE_FIELDS)
        if unknown:
            raise ValueError(
                f"variant {self.name!r} overrides unknown ControllerSpec "
                f"fields: {sorted(unknown)}"
            )
        object.__setattr__(self, "overrides", dict(self.overrides))

    def apply(self, spec: ControllerSpec) -> ControllerSpec:
        """Rewrite one device's controller spec with this variant.

        A ``config_table`` override only applies to devices that end up
        with a SPOT-family kind — static and intensity devices keep
        their spec unchanged by that axis, so a table sweep over a
        mixed-controller population grids the SPOT cohort without
        invalidating the rest.
        """
        if not self.overrides:
            return spec
        overrides = dict(self.overrides)
        kind = overrides.get("kind", spec.kind)
        if kind not in ("spot", "spot_confidence"):
            overrides.pop("config_table", None)
        if not overrides:
            return spec
        return replace(spec, **overrides)

    def profiles_for(
        self, profiles: Sequence[DeviceProfile]
    ) -> Tuple[DeviceProfile, ...]:
        """The population as this variant sees it, physical device ids.

        This is exactly the population an *independent* run of the
        variant would simulate — the fused-vs-independent equivalence
        tests run it through a plain fleet simulation.
        """
        return tuple(
            replace(profile, controller=self.apply(profile.controller))
            for profile in profiles
        )


def virtual_profiles(
    profiles: Sequence[DeviceProfile],
    variants: Sequence[CampaignVariant],
) -> Tuple[DeviceProfile, ...]:
    """Lay out all variants as one fused fleet of ``V x D`` devices.

    Variant-major order: virtual device ``v * D + d`` is physical
    device ``d`` under variant ``v``, keeping its schedule, noise,
    power model, battery and seed — only the controller spec (and the
    device id, which is pure metadata) changes.
    """
    physical = tuple(profiles)
    if not physical:
        raise ValueError("population must contain at least one device")
    if not variants:
        raise ValueError("campaign needs at least one variant")
    num_devices = len(physical)
    fused: List[DeviceProfile] = []
    for index, variant in enumerate(variants):
        for profile in variant.profiles_for(physical):
            fused.append(
                replace(
                    profile,
                    device_id=index * num_devices + profile.device_id,
                )
            )
    return tuple(fused)


def fused_layout(
    profiles: Sequence[DeviceProfile],
    variants: Sequence[CampaignVariant],
) -> Tuple[Tuple[DeviceProfile, ...], Tuple[Tuple[int, ...], ...]]:
    """Deduplicated fused layout plus the variant-to-trace assignment.

    Scans the ``V x D`` virtual grid in variant-major order and keeps
    only the first virtual device of every ``(physical device,
    behaviour-key)`` equivalence class — all later members would
    simulate bit-identically (same seed, schedule, noise model and an
    indistinguishable controller), so simulating the representative
    once suffices for all of them.

    Returns ``(representatives, assignment)`` where ``representatives``
    is the fused fleet to simulate (device ids keep the virtual-major
    numbering of their first occurrence, hence strictly increasing) and
    ``assignment[v][d]`` is the index into the representatives' traces
    that variant ``v`` of physical device ``d`` should read.
    """
    physical = tuple(profiles)
    if not physical:
        raise ValueError("population must contain at least one device")
    if not variants:
        raise ValueError("campaign needs at least one variant")
    num_devices = len(physical)
    representatives: List[DeviceProfile] = []
    assignment: List[Tuple[int, ...]] = []
    positions: Dict[Tuple[int, Tuple[object, ...]], int] = {}
    for index, variant in enumerate(variants):
        row: List[int] = []
        for profile in physical:
            spec = variant.apply(profile.controller)
            key = (profile.device_id, spec.behavior_key())
            position = positions.get(key)
            if position is None:
                position = len(representatives)
                positions[key] = position
                representatives.append(
                    replace(
                        profile,
                        controller=spec,
                        device_id=index * num_devices + profile.device_id,
                    )
                )
            row.append(position)
        assignment.append(tuple(row))
    return tuple(representatives), tuple(assignment)


def _format_axis_value(value: object) -> str:
    if isinstance(value, tuple):
        return "+".join(str(item) for item in value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def check_axis_value(field_name: str, value):
    """Validate one grid value of a :class:`ControllerSpec` field.

    Returns the value normalised the way :func:`variant_grid` stores
    it; raises :class:`ValueError` for a value no device could run.
    """
    if field_name == "kind":
        if value == "intensity":
            raise ValueError(
                "controller kind 'intensity' cannot be forced by a grid: "
                "its thresholds are calibrated per population"
            )
        if value not in GRID_KINDS:
            raise ValueError(
                f"controller kind must be one of {GRID_KINDS}, got {value!r}"
            )
        return str(value)
    if field_name == "stability_threshold":
        if int(value) != value or value < 0:
            raise ValueError(
                "stability threshold must be a non-negative integer, "
                f"got {value!r}"
            )
        return int(value)
    if field_name == "confidence_threshold":
        return check_probability(value, "confidence threshold")
    table = tuple(str(name) for name in value)
    intern_config_table(table)
    return table


def variant_grid(
    stability_thresholds: Optional[Sequence[int]] = None,
    confidence_thresholds: Optional[Sequence[float]] = None,
    config_tables: Optional[Sequence[Sequence[str]]] = None,
    controller_kinds: Optional[Sequence[str]] = None,
) -> Tuple[CampaignVariant, ...]:
    """Build the cartesian product of the provided hyperparameter axes.

    Every axis is optional; omitted axes keep each device's generated
    value.  With no axes at all the grid is the single ``baseline``
    variant.  Variant names encode the grid point, e.g.
    ``"kind=spot|t=10|table=F100_A128+F12.5_A8"``.  Every value is
    validated here, so a bad grid fails when it is built — even when
    no device of a later population would read that axis.
    """
    axes: List[Tuple[str, str, List[object]]] = []
    for field_name, tag, values in (
        ("kind", "kind", controller_kinds),
        ("stability_threshold", "t", stability_thresholds),
        ("confidence_threshold", "c", confidence_thresholds),
        ("config_table", "table", config_tables),
    ):
        if values is not None:
            axes.append(
                (
                    field_name,
                    tag,
                    [check_axis_value(field_name, value) for value in values],
                )
            )
    for field_name, _, values in axes:
        if not values:
            raise ValueError(f"axis {field_name!r} must not be empty")

    if not axes:
        return (CampaignVariant("baseline"),)

    variants: List[CampaignVariant] = []
    points: List[Mapping[str, object]] = [{}]
    for field_name, _, values in axes:
        points = [
            {**point, field_name: value} for point in points for value in values
        ]
    short = {field_name: tag for field_name, tag, _ in axes}
    for point in points:
        name = "|".join(
            f"{short[field_name]}={_format_axis_value(value)}"
            for field_name, value in point.items()
        )
        variants.append(CampaignVariant(name, point))
    return tuple(variants)
