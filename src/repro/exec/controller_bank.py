"""Vectorized controller bank: array-of-states adaptive controllers.

The execution core batches sensing, feature extraction and
classification, but before this module every SPOT / confidence /
intensity state machine was still advanced one Python call per device
per tick — the last per-device loop on the fleet hot path.
:class:`ControllerBank` collapses it: the states of every supported
controller (static, SPOT, SPOT-with-confidence, intensity-switching)
are held as NumPy arrays — state index, stability counter, remembered
activity, thresholds — grouped into one *sub-bank* per controller
family, and one :meth:`ControllerBank.update` call advances the whole
fleet with a handful of array operations.

The bank is a pure state-machine transliteration: every branch of
:meth:`repro.core.controller.SpotController.update` (conditions C1-C4
plus the confidence gate) and of
:class:`repro.baselines.intensity_based.IntensityController` maps to a
boolean mask, so banked updates are **bit-identical** to calling each
controller object in a loop — the equivalence tests sweep mixed
populations of all four kinds to pin that down.  Controllers of any
other type (user subclasses, custom policies) are simply left out of
the bank; the engine keeps driving them per object, so heterogeneous
fleets mixing banked and custom controllers stay supported.

Configurations are interned into small integer ids
(:class:`ConfigTable`), which is also what lets the engine group
devices per tick without touching controller objects, and what the
streaming-telemetry accumulator keys its dwell matrix on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.intensity_based import IntensityController
from repro.core.activities import Activity
from repro.core.config import SensorConfig
from repro.core.controller import (
    SpotController,
    SpotWithConfidenceController,
    StaticController,
)

#: Sentinel stored in the ``last activity`` array before the first update
#: (the per-object controllers use ``None``; activities are >= 0).
NO_ACTIVITY: int = -1


class ConfigTable:
    """Interns :class:`SensorConfig` objects to dense integer ids."""

    def __init__(self) -> None:
        self._configs: List[SensorConfig] = []
        self._ids: Dict[SensorConfig, int] = {}

    def intern(self, config: SensorConfig) -> int:
        """Return the id of ``config``, registering it on first sight."""
        config_id = self._ids.get(config)
        if config_id is None:
            config_id = len(self._configs)
            self._ids[config] = config_id
            self._configs.append(config)
        return config_id

    def config(self, config_id: int) -> SensorConfig:
        """The configuration registered under ``config_id``."""
        return self._configs[config_id]

    def __len__(self) -> int:
        return len(self._configs)


class _StaticBank:
    """Devices whose configuration never changes."""

    def __init__(
        self,
        indices: Sequence[int],
        controllers: Sequence[StaticController],
        table: ConfigTable,
    ) -> None:
        self.indices = np.asarray(indices, dtype=np.intp)
        self._config_ids = np.array(
            [table.intern(controller.current_config) for controller in controllers],
            dtype=np.int64,
        )

    def current_config_ids(self) -> np.ndarray:
        return self._config_ids

    def update(self, labels: np.ndarray, confidences: np.ndarray) -> None:
        """Static devices ignore the classification result."""

    def write_back(self, controllers: Sequence) -> None:
        """Static controllers carry no mutable state."""

    def reset(self) -> None:
        """Static devices carry no mutable state."""


class _SpotBank:
    """SPOT and SPOT-with-confidence machines as parallel arrays.

    Plain SPOT is the ``confidence_threshold = -inf`` special case: with
    an always-satisfied gate no change is ever frozen and every change
    escalates, which is exactly
    :meth:`repro.core.controller.SpotController.update`.
    """

    def __init__(
        self,
        indices: Sequence[int],
        controllers: Sequence[SpotController],
        table: ConfigTable,
    ) -> None:
        self.indices = np.asarray(indices, dtype=np.intp)
        count = len(controllers)

        # Distinct state lists are interned into rows of one padded
        # (rows, max_states) table of config ids; a device's current
        # configuration is then table[row, state_index].
        row_ids: Dict[Tuple[SensorConfig, ...], int] = {}
        rows: List[Tuple[int, ...]] = []
        device_rows = np.empty(count, dtype=np.int64)
        for position, controller in enumerate(controllers):
            states = controller.states
            row = row_ids.get(states)
            if row is None:
                row = len(rows)
                row_ids[states] = row
                rows.append(tuple(table.intern(config) for config in states))
            device_rows[position] = row
        max_states = max(len(row) for row in rows)
        self._state_table = np.array(
            [row + (row[-1],) * (max_states - len(row)) for row in rows],
            dtype=np.int64,
        )
        self._rows = device_rows
        self.num_states = np.array(
            [len(controller.states) for controller in controllers], dtype=np.int64
        )
        self.stability_threshold = np.array(
            [controller.stability_threshold for controller in controllers],
            dtype=np.int64,
        )
        self.confidence_threshold = np.array(
            [
                controller.confidence_threshold
                if isinstance(controller, SpotWithConfidenceController)
                else -np.inf
                for controller in controllers
            ],
            dtype=float,
        )
        self.state_index = np.array(
            [controller.state_index for controller in controllers], dtype=np.int64
        )
        self.counter = np.array(
            [controller.counter for controller in controllers], dtype=np.int64
        )
        self.last_activity = np.array(
            [
                NO_ACTIVITY
                if controller.last_activity is None
                else int(controller.last_activity)
                for controller in controllers
            ],
            dtype=np.int64,
        )
        # Construction-time snapshot of the mutable machine state, so a
        # reusable runtime can rewind the bank without rebuilding it.
        self._initial = (
            self.state_index.copy(),
            self.counter.copy(),
            self.last_activity.copy(),
        )

    def reset(self) -> None:
        state_index, counter, last_activity = self._initial
        self.state_index = state_index.copy()
        self.counter = counter.copy()
        self.last_activity = last_activity.copy()

    def current_config_ids(self) -> np.ndarray:
        return self._state_table[self._rows, self.state_index]

    def update(self, labels: np.ndarray, confidences: np.ndarray) -> None:
        activity = labels[self.indices]
        confidence = confidences[self.indices]

        stable = (self.last_activity == NO_ACTIVITY) | (
            activity == self.last_activity
        )
        changed = ~stable
        # The confidence gate of Section IV-E: an untrusted change
        # freezes the machine entirely (state, counter and remembered
        # activity all stay put).  Plain SPOT has gate -inf, so nothing
        # ever freezes and every change escalates.
        frozen = changed & (confidence < self.confidence_threshold)
        escalate = changed & ~frozen

        # C1/C2/C4: a matching classification counts towards stability
        # unless the machine already sits at its lowest-power state.
        counting = stable & (self.state_index < self.num_states - 1)
        counter = np.where(counting, self.counter + 1, self.counter)
        step_down = counting & (counter >= self.stability_threshold)
        state_index = np.where(step_down, self.state_index + 1, self.state_index)
        counter = np.where(step_down, 0, counter)

        # C3: a trusted change snaps back to the high-power state.
        state_index = np.where(escalate, 0, state_index)
        counter = np.where(escalate, 0, counter)

        self.state_index = state_index
        self.counter = counter
        self.last_activity = np.where(frozen, self.last_activity, activity)

    def write_back(self, controllers: Sequence) -> None:
        for position, index in enumerate(self.indices):
            last = int(self.last_activity[position])
            controllers[index].restore_state(
                state_index=int(self.state_index[position]),
                counter=int(self.counter[position]),
                last_activity=None if last == NO_ACTIVITY else Activity(last),
            )


class _IntensityBank:
    """Intensity-switching devices: one boolean (low power?) per device.

    The switching rule is signal-driven: the engine computes every
    intensity device's batch derivative with one stacked pass
    (:func:`repro.baselines.intensity_based.stacked_intensities`) and
    stages it via :meth:`observe`; :meth:`update` then applies the
    staged decision, mirroring the per-object
    ``observe_window``/``update`` protocol.
    """

    def __init__(
        self,
        indices: Sequence[int],
        controllers: Sequence[IntensityController],
        table: ConfigTable,
    ) -> None:
        self.indices = np.asarray(indices, dtype=np.intp)
        self._high_ids = np.array(
            [table.intern(controller.high_config) for controller in controllers],
            dtype=np.int64,
        )
        self._low_ids = np.array(
            [table.intern(controller.low_config) for controller in controllers],
            dtype=np.int64,
        )
        self._threshold_high = np.array(
            [
                controller.thresholds.for_config(controller.high_config)
                for controller in controllers
            ],
            dtype=float,
        )
        self._threshold_low = np.array(
            [
                controller.thresholds.for_config(controller.low_config)
                for controller in controllers
            ],
            dtype=float,
        )
        self.is_low = np.array(
            [
                controller.current_config == controller.low_config
                and controller.low_config != controller.high_config
                for controller in controllers
            ],
            dtype=bool,
        )
        self._pending_low: Optional[np.ndarray] = None
        self._initial_is_low = self.is_low.copy()

    def reset(self) -> None:
        self.is_low = self._initial_is_low.copy()
        self._pending_low = None

    def current_config_ids(self) -> np.ndarray:
        return np.where(self.is_low, self._low_ids, self._high_ids)

    def observe(self, intensities: np.ndarray) -> None:
        """Stage the switching decision from this tick's intensities.

        ``intensities`` is fleet-length; only this bank's entries are
        read.  The threshold is the one calibrated for the configuration
        the batch was acquired under — the active configuration.
        """
        values = intensities[self.indices]
        threshold = np.where(self.is_low, self._threshold_low, self._threshold_high)
        self._pending_low = values < threshold

    def update(self, labels: np.ndarray, confidences: np.ndarray) -> None:
        if self._pending_low is not None:
            self.is_low = self._pending_low
            self._pending_low = None

    def write_back(self, controllers: Sequence) -> None:
        for position, index in enumerate(self.indices):
            controller = controllers[index]
            controller.restore_state(
                controller.low_config
                if self.is_low[position]
                else controller.high_config
            )


class ControllerBank:
    """Array-of-states bank over a fleet's adaptive controllers.

    Parameters
    ----------
    controllers:
        One controller per device, in device order.  Exact instances of
        the four supported families (:class:`StaticController`,
        :class:`SpotController`, :class:`SpotWithConfidenceController`,
        :class:`IntensityController`) are absorbed into vectorized
        sub-banks; anything else — including subclasses, whose
        overridden behaviour the bank cannot replicate — is reported in
        :attr:`loose_indices` for the engine to keep driving per object.
    vectorize:
        ``False`` leaves every controller loose (the engine's
        ``controllers="per_object"`` mode): the bank then only interns
        configurations and groups devices, and every controller runs
        its own ``update``.
    """

    #: Controller families the bank can vectorise (exact types only).
    SUPPORTED_TYPES: Tuple[type, ...] = (
        StaticController,
        SpotController,
        SpotWithConfidenceController,
        IntensityController,
    )

    def __init__(self, controllers: Sequence, vectorize: bool = True) -> None:
        self._num_devices = len(controllers)
        self._table = ConfigTable()

        grouped: Dict[type, Tuple[List[int], List]] = {}
        loose: List[int] = []
        for index, controller in enumerate(controllers):
            kind = type(controller)
            if kind in (SpotController, SpotWithConfidenceController):
                kind = SpotController
            elif kind not in (StaticController, IntensityController):
                kind = None
            if kind is None or not vectorize:
                loose.append(index)
                continue
            indices, members = grouped.setdefault(kind, ([], []))
            indices.append(index)
            members.append(controller)

        self._banks: List = []
        self._intensity: Optional[_IntensityBank] = None
        if StaticController in grouped:
            self._banks.append(_StaticBank(*grouped[StaticController], self._table))
        if SpotController in grouped:
            self._banks.append(_SpotBank(*grouped[SpotController], self._table))
        if IntensityController in grouped:
            self._intensity = _IntensityBank(
                *grouped[IntensityController], self._table
            )
            self._banks.append(self._intensity)

        self.loose_indices: Tuple[int, ...] = tuple(loose)
        self.is_banked = np.ones(self._num_devices, dtype=bool)
        self.is_banked[list(loose)] = False
        self.is_intensity = np.zeros(self._num_devices, dtype=bool)
        if self._intensity is not None:
            self.is_intensity[self._intensity.indices] = True
        self._config_ids = np.empty(self._num_devices, dtype=np.int64)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        """Number of devices the bank was built over (banked + loose)."""
        return self._num_devices

    @property
    def num_banked(self) -> int:
        """Number of devices advanced by vectorized sub-banks."""
        return self._num_devices - len(self.loose_indices)

    @property
    def has_intensity(self) -> bool:
        """Whether any banked device runs the intensity-switching policy."""
        return self._intensity is not None

    @property
    def table(self) -> ConfigTable:
        """The configuration interning table shared by all sub-banks."""
        return self._table

    def config_for_id(self, config_id: int) -> SensorConfig:
        """The configuration behind an interned id."""
        return self._table.config(int(config_id))

    # ------------------------------------------------------------------
    # Per-tick protocol
    # ------------------------------------------------------------------
    def current_config_ids(self, controllers: Sequence) -> np.ndarray:
        """Interned active-configuration id of every device.

        Banked devices are read straight from the state arrays; loose
        devices are asked per object (``controllers`` is only indexed at
        the loose positions).
        """
        ids = self._config_ids
        for bank in self._banks:
            ids[bank.indices] = bank.current_config_ids()
        for index in self.loose_indices:
            ids[index] = self._table.intern(controllers[index].current_config)
        return ids

    def observe_intensities(self, intensities: np.ndarray) -> None:
        """Stage this tick's stacked intensities for the intensity bank."""
        if self._intensity is not None:
            self._intensity.observe(intensities)

    def update(self, labels: np.ndarray, confidences: np.ndarray) -> None:
        """Advance every banked state machine with one vectorized pass.

        Parameters
        ----------
        labels:
            Predicted class index per device (fleet order).
        confidences:
            Softmax confidence per device (fleet order).
        """
        for bank in self._banks:
            bank.update(labels, confidences)

    def write_back(self, controllers: Sequence) -> None:
        """Copy the final array states into the controller objects.

        Called once at the end of a run so that code inspecting a
        controller afterwards (or reusing it for another run) sees the
        exact state a per-object run would have produced.
        """
        for bank in self._banks:
            bank.write_back(controllers)

    def reset(self) -> None:
        """Rewind every banked state machine to its construction state.

        Reusable fleet runtimes call this between runs instead of
        rebuilding the bank.  The snapshot restored here is the state
        the controllers held when the bank was built — the caller must
        reset any *loose* (unbanked) controllers itself, exactly as it
        must when constructing a bank from scratch.
        """
        for bank in self._banks:
            bank.reset()
