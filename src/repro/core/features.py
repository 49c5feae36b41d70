"""Unified feature extraction (Section III-B).

The central trick that lets AdaSense use a *single* classifier across
heterogeneous sensor configurations is a feature vector whose size does
not depend on how many samples the classification window contains:

* **Statistical features** — the mean and standard deviation of each of
  the three axes (6 values).  These capture the orientation of gravity
  and the overall signal energy.
* **Fourier features** — a fixed number of low-frequency spectral
  features per axis covering the band up to
  :data:`DEFAULT_MAX_FREQUENCY_HZ` (the paper keeps "the first three
  coefficients in each coordinate, representing the frequency
  components up to 3 Hz").

Because the frequency resolution of a fixed-duration window is
independent of the sampling rate, the same spectral band maps onto the
same features no matter which configuration acquired the data — the
classifier only has to learn to cope with the different noise levels.

Two spellings of the Fourier features are provided:

``bands`` (default)
    The spectrum of each axis is folded into ``n_fourier_features``
    equal-width bands spanning ``(0, max_frequency_hz]`` and the RMS
    magnitude of each band is reported.  This is robust to the exact
    fundamental frequency of a gait cycle landing between FFT bins.
``bins``
    The magnitudes of the first ``n_fourier_features`` non-DC FFT bins
    are reported directly — the literal reading of the paper's
    description.  Exposed mainly for the feature ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Literal, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive, check_positive_int

#: Duration of one classification window in seconds (Section III-A).
WINDOW_DURATION_S: float = 2.0

#: Hop between consecutive classification windows in seconds, giving the
#: one-second overlap described in the paper.
HOP_DURATION_S: float = 1.0

#: Highest frequency represented by the Fourier features.
DEFAULT_MAX_FREQUENCY_HZ: float = 3.0

#: Number of accelerometer axes.
_NUM_AXES: int = 3

FourierMode = Literal["bands", "bins"]

#: Real dtypes a compute lane may run in (complex spectra follow along:
#: ``float32`` windows produce ``complex64`` DFT coefficients).
SUPPORTED_DTYPES: Tuple[np.dtype, ...] = (
    np.dtype(np.float64),
    np.dtype(np.float32),
)


def _lane_dtype(dtype) -> np.dtype:
    """Normalise and validate a compute-lane dtype."""
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_DTYPES:
        raise ValueError(
            f"dtype must be float64 or float32, got {dtype!r}"
        )
    return resolved


def _complex_dtype(dtype: np.dtype) -> np.dtype:
    """The complex dtype matching a real lane dtype."""
    return np.dtype(np.complex64 if dtype == np.float32 else np.complex128)


def _as_samples(samples, dtype: np.dtype) -> np.ndarray:
    """``np.asarray(samples, dtype=dtype)`` without the redundant pass.

    Sample stacks arriving from the ring buffer or the stacked
    acquisition path are already C-contiguous arrays of the lane dtype,
    so the common case returns the input untouched instead of paying an
    ``asarray`` round trip (and, in the float32 lane, an accidental
    upcast-copy to float64) per extraction call.
    """
    if (
        isinstance(samples, np.ndarray)
        and samples.dtype == dtype
        and samples.flags.c_contiguous
    ):
        return samples
    return np.asarray(samples, dtype=dtype)


@lru_cache(maxsize=512)
def _spectral_layout(
    n_samples: int,
    sampling_hz: float,
    max_frequency_hz: float,
    n_fourier_features: int,
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """FFT bin frequencies and per-band masks for one window geometry.

    Keyed by ``(n_samples, sampling_hz)`` (plus the extractor's band
    layout), so repeated extractions over the same window shape — the
    common case in closed-loop and fleet simulation, where the same
    sensor configuration is classified every second — reuse one
    frequency grid and one set of boolean band masks instead of
    recomputing them per call.  The returned arrays are frozen so a
    cache hit can never be mutated by a caller.
    """
    frequencies = np.fft.rfftfreq(n_samples, d=1.0 / sampling_hz)
    edges = np.linspace(0.0, max_frequency_hz, n_fourier_features + 1)
    masks = []
    for band in range(n_fourier_features):
        mask = (frequencies > edges[band]) & (frequencies <= edges[band + 1])
        mask.setflags(write=False)
        masks.append(mask)
    frequencies.setflags(write=False)
    return frequencies, tuple(masks)


@dataclass(frozen=True)
class FeatureExtractor:
    """Turns a window of raw accelerometer samples into a fixed-size vector.

    Parameters
    ----------
    n_fourier_features:
        Number of Fourier features per axis (the paper uses 3).
    max_frequency_hz:
        Upper edge of the spectral band covered by the Fourier features.
    fourier_mode:
        ``"bands"`` (default) or ``"bins"``; see the module docstring.
    """

    n_fourier_features: int = 3
    max_frequency_hz: float = DEFAULT_MAX_FREQUENCY_HZ
    fourier_mode: FourierMode = "bands"

    def __post_init__(self) -> None:
        check_positive_int(self.n_fourier_features, "n_fourier_features")
        check_positive(self.max_frequency_hz, "max_frequency_hz")
        if self.fourier_mode not in ("bands", "bins"):
            raise ValueError(
                f"fourier_mode must be 'bands' or 'bins', got {self.fourier_mode!r}"
            )

    @property
    def num_features(self) -> int:
        """Length of the extracted feature vector."""
        return 2 * _NUM_AXES + self.n_fourier_features * _NUM_AXES

    def feature_names(self) -> List[str]:
        """Names of the features in extraction order."""
        axes = ("x", "y", "z")
        names = [f"mean_{axis}" for axis in axes]
        names += [f"std_{axis}" for axis in axes]
        for axis in axes:
            for index in range(self.n_fourier_features):
                names.append(f"fft{index + 1}_{axis}")
        return names

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def extract(
        self, samples: np.ndarray, sampling_hz: float, dtype=np.float64
    ) -> np.ndarray:
        """Extract the unified feature vector from one window.

        Parameters
        ----------
        samples:
            Array of shape ``(n, 3)`` of accelerometer samples in m/s^2.
        sampling_hz:
            Output data rate the samples were acquired at; required to
            map FFT bins onto physical frequencies.
        dtype:
            Compute-lane dtype (``float64`` default, or ``float32`` for
            the reduced-precision lane).

        Returns
        -------
        numpy.ndarray
            Vector of length :attr:`num_features`.
        """
        samples = _as_samples(samples, _lane_dtype(dtype))
        if samples.ndim != 2 or samples.shape[1] != _NUM_AXES:
            raise ValueError(f"samples must have shape (n, 3), got {samples.shape}")
        if samples.shape[0] < 2:
            raise ValueError(
                f"at least two samples are required, got {samples.shape[0]}"
            )
        return self.extract_stacked(samples[None, :, :], sampling_hz, dtype=dtype)[0]

    def extract_stacked(
        self, samples: np.ndarray, sampling_hz: float, dtype=np.float64
    ) -> np.ndarray:
        """Extract features for a stack of equally-shaped windows at once.

        This is the vectorised path the fleet simulator relies on: all
        per-window NumPy reductions run along the window axis of one 3-D
        array, so extracting features for hundreds of devices costs a
        handful of array operations instead of hundreds of Python calls.
        :meth:`extract` delegates here with a stack of one, so both paths
        share a single implementation and produce bit-identical results.

        Parameters
        ----------
        samples:
            Array of shape ``(batch, n, 3)`` — ``batch`` windows of ``n``
            samples each, all acquired at the same ``sampling_hz``.
        sampling_hz:
            Output data rate shared by every window in the stack.

        Returns
        -------
        numpy.ndarray
            Matrix of shape ``(batch, num_features)``.
        """
        check_positive(sampling_hz, "sampling_hz")
        samples = _as_samples(samples, _lane_dtype(dtype))
        if samples.ndim != 3 or samples.shape[2] != _NUM_AXES:
            raise ValueError(
                f"stacked samples must have shape (batch, n, 3), got {samples.shape}"
            )
        if samples.shape[1] < 2:
            raise ValueError(
                f"at least two samples per window are required, got {samples.shape[1]}"
            )

        means = samples.mean(axis=1)
        stds = samples.std(axis=1)
        fourier = self._fourier_features_stacked(samples, sampling_hz)
        return np.concatenate([means, stds, fourier], axis=1)

    def extract_batch(
        self,
        windows: Iterable[Tuple[np.ndarray, float]],
        dtype=np.float64,
    ) -> np.ndarray:
        """Extract features for a sequence of ``(samples, sampling_hz)`` pairs.

        Windows sharing a shape and sampling rate are grouped and pushed
        through :meth:`extract_stacked` together; the returned rows keep
        the input order.  The output matrix is always float64 (the
        classifier boundary); ``dtype`` selects the compute lane.
        """
        lane = _lane_dtype(dtype)
        items = [
            (_as_samples(samples, lane), float(sampling_hz))
            for samples, sampling_hz in windows
        ]
        output = np.empty((len(items), self.num_features))
        groups: dict[Tuple[Tuple[int, ...], float], List[int]] = {}
        for index, (samples, sampling_hz) in enumerate(items):
            if samples.ndim != 2 or samples.shape[1] != _NUM_AXES:
                raise ValueError(
                    f"samples must have shape (n, 3), got {samples.shape}"
                )
            groups.setdefault((samples.shape, sampling_hz), []).append(index)
        for (_, sampling_hz), indices in groups.items():
            stacked = np.stack([items[index][0] for index in indices])
            output[indices] = self.extract_stacked(stacked, sampling_hz, dtype=dtype)
        return output

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fourier_features_stacked(
        self, samples: np.ndarray, sampling_hz: float
    ) -> np.ndarray:
        batch, n_samples = samples.shape[0], samples.shape[1]
        centered = samples - samples.mean(axis=1, keepdims=True)
        spectrum = np.abs(np.fft.rfft(centered, axis=1)) * (2.0 / n_samples)

        if self.fourier_mode == "bins":
            features = np.zeros(
                (batch, self.n_fourier_features, _NUM_AXES), dtype=samples.dtype
            )
            available = min(self.n_fourier_features, spectrum.shape[1] - 1)
            if available > 0:
                features[:, :available] = spectrum[:, 1 : available + 1]
            return features.transpose(0, 2, 1).reshape(batch, -1)

        # "bands" mode: RMS magnitude in equal-width bands up to
        # max_frequency_hz.  The frequency grid and per-band masks only
        # depend on the window geometry, so they come from the shared cache.
        _, masks = _spectral_layout(
            n_samples,
            float(sampling_hz),
            self.max_frequency_hz,
            self.n_fourier_features,
        )
        features = np.zeros(
            (batch, self.n_fourier_features, _NUM_AXES), dtype=samples.dtype
        )
        for band, mask in enumerate(masks):
            # The DC bin is excluded by construction (frequencies > low >= 0).
            if mask.any():
                features[:, band] = np.sqrt(
                    np.mean(spectrum[:, mask, :] ** 2, axis=1)
                )
        return features.transpose(0, 2, 1).reshape(batch, -1)


def default_feature_extractor() -> FeatureExtractor:
    """The extractor configuration used throughout the paper reproduction."""
    return FeatureExtractor()


# ----------------------------------------------------------------------
# Incremental (chunk-cached) feature extraction
# ----------------------------------------------------------------------
#
# AdaSense classifies overlapping windows: a two-second window every
# second, so consecutive windows share half their samples.  Recomputing
# the statistical moments and the spectrum from scratch every tick
# therefore redoes half the work.  The incremental extractor instead
# caches, per freshly acquired second ("chunk"), the partial quantities
# the features are built from:
#
# * the chunk's per-axis sample sum and sum of squares (for mean / std
#   via the two-moment identity), and
# * the chunk's contribution to the low-frequency DFT bins of the full
#   window — only bins up to ``max_frequency_hz`` matter, so this is a
#   tiny ``(2 * bins, chunk)`` real projection (the ``[Re; Im]`` stack
#   of the DFT basis) rather than a full FFT.
#
# Both lanes reduce a tick's chunk stack through one time-major
# ``(chunk, devices * 3)`` block, accumulating down the sample axis in
# order.  The float64 partials are therefore bit-identical to a
# complex-basis einsum over the chunk stack (the oracle in
# ``tests/test_chunk_kernel.py``), and in either lane a device's
# partials never depend on which other devices share its batch — the
# property that keeps engines, group compositions and shard counts
# bit-identical to each other.
#
# Combining a window is then a handful of adds: the DFT contribution of
# a chunk at window offset ``p`` is its cached coefficient times the
# phase factor ``exp(-2j*pi*k*p/n)``, and sums simply accumulate.
# Mean-centering is unnecessary because subtracting a constant only
# changes the DC bin, which the features exclude.
#
# The combined features are mathematically identical to the full-window
# path and agree to ~1e-12 relative precision (floating-point summation
# order differs), which the property tests in
# ``tests/test_exec_incremental.py`` sweep over sampling rates, window /
# hop ratios and Fourier modes.  The execution engine keeps the exact
# full-window path as a fallback (warm-up ticks, configuration switches,
# misaligned geometries) and as a toggle (``features="exact"``).


@dataclass(frozen=True)
class WindowGeometry:
    """Steady-state chunk layout of the sliding classification window.

    A device acquiring at ``sampling_hz`` contributes ``chunk_samples``
    samples per step; the classification buffer caps the window at
    ``window_samples``.  When the cap is not an integer multiple of the
    chunk size (e.g. 12.5 Hz: 12-sample chunks against a 25-sample cap)
    the steady-state window consists of the ``tail_samples`` newest
    samples of the oldest buffered chunk followed by
    ``chunks_per_window`` complete chunks — exactly the structure
    :class:`repro.sensors.buffer.SampleBuffer` converges to.
    """

    sampling_hz: float
    chunk_samples: int
    window_samples: int
    chunks_per_window: int
    tail_samples: int

    @classmethod
    def for_window(
        cls, sampling_hz: float, step_s: float, window_duration_s: float
    ) -> Optional["WindowGeometry"]:
        """Geometry for one configuration, or ``None`` when incremental
        extraction cannot apply (degenerate sample counts)."""
        chunk = int(round(sampling_hz * step_s))
        window = int(round(sampling_hz * window_duration_s))
        if chunk < 1 or window < max(chunk, 2):
            return None
        full = window // chunk
        return cls(
            sampling_hz=float(sampling_hz),
            chunk_samples=chunk,
            window_samples=window,
            chunks_per_window=full,
            tail_samples=window - full * chunk,
        )

    @property
    def cached_chunks(self) -> int:
        """Chunks that must be cached before a window can be combined.

        One extra chunk is needed when the window keeps a tail of the
        oldest chunk (``tail_samples > 0``).
        """
        return self.chunks_per_window + (1 if self.tail_samples else 0)


@dataclass(frozen=True)
class _SpectralBasis:
    """Precomputed DFT basis and band layout for one window geometry.

    ``chunk_basis`` is the real ``(2 * bins, chunk_samples)`` stack
    ``[Re; Im]`` of ``exp(-2j*pi*j*k/n)`` for the spectral bins
    ``k = 1..bins`` of the ``n``-point window DFT, evaluated over one
    chunk's local sample indices; ``tail_basis`` is the same for the
    tail fragment.  ``chunk_phases[slot]`` rotates a cached chunk
    coefficient to the window offset of chunk slot ``slot``.
    """

    bins: int
    chunk_basis: np.ndarray
    tail_basis: Optional[np.ndarray]
    chunk_phases: np.ndarray
    band_masks: Optional[Tuple[np.ndarray, ...]]
    scale: float


# ----------------------------------------------------------------------
# Process-wide spectral plan cache
# ----------------------------------------------------------------------
#
# A fleet re-runs the same handful of window geometries for every device
# and every run; the DFT basis, tail basis and phase-rotation tables
# only depend on the geometry, the extractor's band layout and the
# compute dtype.  Caching the full ``_SpectralBasis`` at module level
# (same idea as ``_spectral_layout``, but covering the tail-chunk layout
# and phase tables too) lets freshly constructed extractors — a new
# ``IncrementalFeatureExtractor`` per ``StepEngine``, one per shard
# worker, one per reusable-runtime rebuild — skip the trigonometry
# entirely after the first run in the process.  The hit/miss counters
# feed the engine's ``plan_cache.hits`` / ``plan_cache.misses`` metrics.

_PlanKey = Tuple[WindowGeometry, np.dtype, int, float, str]
_PLAN_CACHE: Dict["_PlanKey", _SpectralBasis] = {}
_PLAN_CACHE_HITS: int = 0
_PLAN_CACHE_MISSES: int = 0


def spectral_plan(
    geometry: "WindowGeometry",
    extractor: FeatureExtractor,
    dtype=np.float64,
) -> _SpectralBasis:
    """The cached DFT basis and band layout for one window geometry.

    Keyed by ``(geometry, dtype)`` plus the extractor parameters that
    shape the spectral layout, so two extractors configured alike share
    one set of tables.  Returned arrays are frozen; callers must never
    mutate them.
    """
    global _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES
    lane = _lane_dtype(dtype)
    key = (
        geometry,
        lane,
        extractor.n_fourier_features,
        float(extractor.max_frequency_hz),
        extractor.fourier_mode,
    )
    basis = _PLAN_CACHE.get(key)
    if basis is not None:
        _PLAN_CACHE_HITS += 1
        return basis
    _PLAN_CACHE_MISSES += 1
    basis = _build_basis(geometry, extractor, lane)
    _PLAN_CACHE[key] = basis
    return basis


def plan_cache_stats() -> Tuple[int, int]:
    """Process-wide ``(hits, misses)`` of the spectral plan cache."""
    return _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES


def clear_plan_cache() -> None:
    """Drop every cached plan and zero the hit/miss counters.

    Shard workers call this right after a process fork so inherited
    parent-cache state can neither go stale nor pollute the worker's
    own plan-cache metrics.
    """
    global _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES
    _PLAN_CACHE.clear()
    _PLAN_CACHE_HITS = 0
    _PLAN_CACHE_MISSES = 0


def _build_basis(
    geometry: "WindowGeometry", extractor: FeatureExtractor, dtype: np.dtype
) -> _SpectralBasis:
    """Build the spectral basis tables for one ``(geometry, dtype)``.

    The tables are always constructed in float64 and only then cast for
    the float32 lane, so single-precision runs use the correctly rounded
    double-precision trigonometry rather than accumulating float32
    phase error over long windows.
    """
    n = geometry.window_samples
    max_bin = n // 2
    band_masks: Optional[Tuple[np.ndarray, ...]] = None
    if extractor.fourier_mode == "bins":
        bins = min(extractor.n_fourier_features, max_bin)
    else:
        frequencies, masks = _spectral_layout(
            n,
            geometry.sampling_hz,
            extractor.max_frequency_hz,
            extractor.n_fourier_features,
        )
        in_band = np.flatnonzero(
            (frequencies[: max_bin + 1] > 0.0)
            & (frequencies[: max_bin + 1] <= extractor.max_frequency_hz)
        )
        bins = int(in_band[-1]) if in_band.size else 0
        band_masks = tuple(mask[1 : bins + 1] for mask in masks)

    k = np.arange(1, bins + 1)

    def stacked_basis(samples: int) -> np.ndarray:
        basis = np.exp(-2j * np.pi * np.outer(k, np.arange(samples)) / n)
        stacked = np.concatenate([basis.real, basis.imag]).astype(dtype)
        stacked.setflags(write=False)
        return stacked

    offsets = geometry.tail_samples + geometry.chunk_samples * np.arange(
        geometry.chunks_per_window
    )
    chunk_phases = np.exp(-2j * np.pi * np.outer(offsets, k) / n)
    chunk_phases = chunk_phases.astype(_complex_dtype(dtype), copy=False)
    chunk_phases.setflags(write=False)
    return _SpectralBasis(
        bins=bins,
        chunk_basis=stacked_basis(geometry.chunk_samples),
        tail_basis=(
            stacked_basis(geometry.tail_samples) if geometry.tail_samples else None
        ),
        chunk_phases=chunk_phases,
        band_masks=band_masks,
        scale=2.0 / n,
    )


class ChunkPartials:
    """Cached partial features of one acquired chunk (one device).

    ``sums`` / ``sumsq`` are the per-axis sample sums over the full
    chunk; ``dft`` its offset-free contribution to the window's
    low-frequency DFT bins.  The ``tail_*`` fields hold the same
    quantities for the chunk's newest ``tail_samples`` samples (``None``
    for aligned geometries), used once the chunk becomes the oldest,
    partially trimmed entry of the buffer.
    """

    __slots__ = ("sums", "sumsq", "dft", "tail_sums", "tail_sumsq", "tail_dft")

    def __init__(self, sums, sumsq, dft, tail_sums=None, tail_sumsq=None, tail_dft=None):
        self.sums = sums
        self.sumsq = sumsq
        self.dft = dft
        self.tail_sums = tail_sums
        self.tail_sumsq = tail_sumsq
        self.tail_dft = tail_dft


class StackedChunkPartials:
    """Partial features of one acquisition tick for a whole device group.

    The array-of-devices counterpart of :class:`ChunkPartials`: every
    field carries a leading batch axis, so one tick's reduction of a
    configuration group stays a single object.  The fleet engine's
    banked path keeps a short history of these per configuration and
    assembles steady-state windows with per-slot row gathers instead of
    re-stacking thousands of per-device partials every tick.
    """

    __slots__ = ("sums", "sumsq", "dft", "tail_sums", "tail_sumsq", "tail_dft")

    def __init__(self, sums, sumsq, dft, tail_sums=None, tail_sumsq=None, tail_dft=None):
        self.sums = sums
        self.sumsq = sumsq
        self.dft = dft
        self.tail_sums = tail_sums
        self.tail_sumsq = tail_sumsq
        self.tail_dft = tail_dft

    def device(self, row: int) -> ChunkPartials:
        """The single-device :class:`ChunkPartials` view of one row."""
        if self.tail_sums is None:
            return ChunkPartials(self.sums[row], self.sumsq[row], self.dft[row])
        return ChunkPartials(
            self.sums[row], self.sumsq[row], self.dft[row],
            self.tail_sums[row], self.tail_sumsq[row], self.tail_dft[row],
        )

    def slot_arrays(self, rows: np.ndarray, tail: bool):
        """Gather one combine slot (``sums``, ``sumsq``, ``dft``) for ``rows``.

        With ``tail=True`` the tail partials are gathered instead — the
        contribution a chunk makes once it is the oldest, partially
        trimmed entry of the window.
        """
        if tail:
            return self.tail_sums[rows], self.tail_sumsq[rows], self.tail_dft[rows]
        return self.sums[rows], self.sumsq[rows], self.dft[rows]


class IncrementalFeatureExtractor:
    """Chunk-cached feature extraction over overlapping windows.

    Wraps a :class:`FeatureExtractor` and reproduces its feature vector
    from per-chunk partials: each freshly acquired second is reduced
    once (:meth:`chunk_partials_stacked`), and every overlapping window
    containing it is assembled by :meth:`combine_stacked` from cached
    partials with a few vectorised adds.  :meth:`extract_stacked`
    delegates to the wrapped extractor and is the exact-equivalence
    fallback used for warm-up windows and as the ``features="exact"``
    engine toggle.

    ``dtype`` selects the compute lane: ``float64`` (default, the
    bit-exact reference) or ``float32`` (the same reductions in single
    precision, with complex64 spectra).  Basis tables come from the
    process-wide :func:`spectral_plan` cache keyed by
    ``(geometry, dtype)``.
    """

    def __init__(
        self, extractor: Optional[FeatureExtractor] = None, dtype=np.float64
    ) -> None:
        self._extractor = (
            extractor if extractor is not None else default_feature_extractor()
        )
        self._dtype = _lane_dtype(dtype)

    @property
    def extractor(self) -> FeatureExtractor:
        """The wrapped full-window extractor."""
        return self._extractor

    @property
    def dtype(self) -> np.dtype:
        """The compute-lane dtype of this extractor."""
        return self._dtype

    @property
    def num_features(self) -> int:
        """Length of the extracted feature vector."""
        return self._extractor.num_features

    # ------------------------------------------------------------------
    # Exact fallback
    # ------------------------------------------------------------------
    def extract_stacked(self, samples: np.ndarray, sampling_hz: float) -> np.ndarray:
        """Exact full-window extraction (delegates to the wrapped extractor)."""
        return self._extractor.extract_stacked(
            samples, sampling_hz, dtype=self._dtype
        )

    # ------------------------------------------------------------------
    # Basis
    # ------------------------------------------------------------------
    def basis_for(self, geometry: WindowGeometry) -> _SpectralBasis:
        """The (cached) DFT basis and band layout for ``geometry``."""
        return spectral_plan(geometry, self._extractor, self._dtype)

    # ------------------------------------------------------------------
    # Incremental path
    # ------------------------------------------------------------------
    def chunk_partials_stacked(
        self, chunks: np.ndarray, geometry: WindowGeometry
    ) -> List[ChunkPartials]:
        """Reduce a stack of freshly acquired chunks to cached partials.

        Parameters
        ----------
        chunks:
            Array of shape ``(batch, chunk_samples, 3)`` — one chunk per
            device, all acquired under the same configuration.
        geometry:
            The window geometry the chunks belong to.
        """
        stacked = self.chunk_partials_arrays(chunks, geometry)
        return [stacked.device(d) for d in range(stacked.sums.shape[0])]

    def chunk_partials_arrays(
        self, chunks: np.ndarray, geometry: WindowGeometry
    ) -> StackedChunkPartials:
        """Reduce a chunk stack to one :class:`StackedChunkPartials`.

        Array-of-devices spelling of :meth:`chunk_partials_stacked`
        (whose per-device objects are row views of this result).
        """
        chunks = _as_samples(chunks, self._dtype)
        if chunks.ndim != 3 or chunks.shape[1] != geometry.chunk_samples:
            raise ValueError(
                f"chunks must have shape (batch, {geometry.chunk_samples}, 3), "
                f"got {chunks.shape}"
            )
        basis = self.basis_for(geometry)
        batch, samples, axes = chunks.shape
        # One time-major (samples, batch * 3) block serves every
        # reduction: sums, sums of squares and the real-basis DFT
        # projection each run down the sample axis strictly in order,
        # so no column's result depends on the batch it sits in.
        major = np.ascontiguousarray(chunks.transpose(1, 0, 2)).reshape(
            samples, batch * axes
        )
        squares = major * major
        sums = major.sum(axis=0).reshape(batch, axes)
        sumsq = squares.sum(axis=0).reshape(batch, axes)
        dft = self._project(basis.chunk_basis, major, basis.bins, batch)
        if not geometry.tail_samples:
            return StackedChunkPartials(sums, sumsq, dft)
        # The tail is the newest rows of the same block: no copy.
        first = samples - geometry.tail_samples
        tail_sums = major[first:].sum(axis=0).reshape(batch, axes)
        tail_sumsq = squares[first:].sum(axis=0).reshape(batch, axes)
        tail_dft = self._project(basis.tail_basis, major[first:], basis.bins, batch)
        return StackedChunkPartials(
            sums, sumsq, dft, tail_sums, tail_sumsq, tail_dft
        )

    @staticmethod
    def _project(
        stacked_basis: np.ndarray, major: np.ndarray, bins: int, batch: int
    ) -> np.ndarray:
        """Project a time-major block onto the window DFT bins.

        ``stacked_basis`` is the ``(2 * bins, samples)`` real stack
        ``[Re; Im]``; the result is the ``(batch, bins, 3)`` complex
        coefficient array.  ``optimize=False`` keeps einsum's own
        in-order loop (a BLAS spelling would reorder the sum).
        """
        projected = np.einsum("kj,jn->kn", stacked_basis, major, optimize=False)
        parts = projected.reshape(2, bins, batch, _NUM_AXES).transpose(2, 1, 3, 0)
        return np.ascontiguousarray(parts).view(_complex_dtype(major.dtype))[..., 0]

    def combine_stacked(
        self,
        windows: Sequence[Sequence[ChunkPartials]],
        geometry: WindowGeometry,
    ) -> np.ndarray:
        """Assemble feature vectors from cached partials.

        Parameters
        ----------
        windows:
            One sequence of :class:`ChunkPartials` per device, ordered
            oldest to newest and exactly ``geometry.cached_chunks``
            long.  For tailed geometries the first entry contributes its
            ``tail_*`` partials, the rest their full-chunk partials.
        geometry:
            The shared window geometry.

        Returns
        -------
        numpy.ndarray
            Matrix of shape ``(len(windows), num_features)``.
        """
        expected = geometry.cached_chunks
        for window in windows:
            if len(window) != expected:
                raise ValueError(
                    f"each window needs {expected} cached chunks, got {len(window)}"
                )
        full_offset = 1 if geometry.tail_samples else 0
        slots = []
        if geometry.tail_samples:
            slots.append(
                (
                    np.stack([window[0].tail_sums for window in windows]),
                    np.stack([window[0].tail_sumsq for window in windows]),
                    np.stack([window[0].tail_dft for window in windows]),
                )
            )
        for slot in range(geometry.chunks_per_window):
            column = [window[slot + full_offset] for window in windows]
            slots.append(
                (
                    np.stack([partials.sums for partials in column]),
                    np.stack([partials.sumsq for partials in column]),
                    np.stack([partials.dft for partials in column]),
                )
            )
        return self.combine_slot_arrays(slots, geometry)

    def combine_slot_arrays(
        self,
        slots: "Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]]",
        geometry: WindowGeometry,
    ) -> np.ndarray:
        """Assemble feature vectors from already-stacked per-slot partials.

        Parameters
        ----------
        slots:
            ``geometry.cached_chunks`` triples ``(sums, sumsq, dft)``
            with a leading batch axis, ordered oldest chunk first.  For
            tailed geometries the first entry must carry the oldest
            chunk's *tail* partials.  This is the gather-based spelling
            the fleet engine's banked path feeds from its per-
            configuration :class:`StackedChunkPartials` history;
            :meth:`combine_stacked` builds the same triples from
            per-device partials.  Both produce bit-identical features.

        Returns
        -------
        numpy.ndarray
            Matrix of shape ``(batch, num_features)``.
        """
        basis = self.basis_for(geometry)
        if len(slots) != geometry.cached_chunks:
            raise ValueError(
                f"expected {geometry.cached_chunks} slots, got {len(slots)}"
            )
        batch = slots[0][0].shape[0]
        n = geometry.window_samples
        if geometry.tail_samples:
            sums, sumsq, spectrum_acc = slots[0]
            chunk_slots = slots[1:]
        else:
            sums = np.zeros((batch, _NUM_AXES), dtype=self._dtype)
            sumsq = np.zeros((batch, _NUM_AXES), dtype=self._dtype)
            spectrum_acc = np.zeros(
                (batch, basis.bins, _NUM_AXES), dtype=_complex_dtype(self._dtype)
            )
            chunk_slots = slots
        for slot, (slot_sums, slot_sumsq, slot_dft) in enumerate(chunk_slots):
            sums = sums + slot_sums
            sumsq = sumsq + slot_sumsq
            spectrum_acc = spectrum_acc + (
                slot_dft * basis.chunk_phases[slot][None, :, None]
            )
        means = sums / n
        variance = sumsq / n - means * means
        np.maximum(variance, 0.0, out=variance)
        stds = np.sqrt(variance)
        spectrum = np.abs(spectrum_acc) * basis.scale
        fourier = self._fourier_from_spectrum(spectrum, basis)
        return np.concatenate([means, stds, fourier], axis=1)

    def _fourier_from_spectrum(
        self, spectrum: np.ndarray, basis: _SpectralBasis
    ) -> np.ndarray:
        batch = spectrum.shape[0]
        n_fourier = self._extractor.n_fourier_features
        features = np.zeros((batch, n_fourier, _NUM_AXES), dtype=spectrum.dtype)
        if self._extractor.fourier_mode == "bins":
            available = min(n_fourier, basis.bins)
            if available > 0:
                features[:, :available] = spectrum[:, :available]
        else:
            assert basis.band_masks is not None
            for band, mask in enumerate(basis.band_masks):
                if mask.any():
                    features[:, band] = np.sqrt(
                        np.mean(spectrum[:, mask, :] ** 2, axis=1)
                    )
        return features.transpose(0, 2, 1).reshape(batch, -1)


def window_sample_count(sampling_hz: float, duration_s: float = WINDOW_DURATION_S) -> int:
    """Number of samples a window of ``duration_s`` seconds contains."""
    check_positive(sampling_hz, "sampling_hz")
    check_positive(duration_s, "duration_s")
    return int(round(sampling_hz * duration_s))


def sliding_window_starts(
    total_duration_s: float,
    window_s: float = WINDOW_DURATION_S,
    hop_s: float = HOP_DURATION_S,
) -> np.ndarray:
    """Start times of the sliding classification windows over a recording."""
    check_positive(total_duration_s, "total_duration_s")
    check_positive(window_s, "window_s")
    check_positive(hop_s, "hop_s")
    if total_duration_s < window_s:
        return np.empty(0)
    last_start = total_duration_s - window_s
    # A recording of exactly window_s + k * hop_s seconds must yield k + 1
    # windows, but accumulated floating-point error can leave the quotient
    # a few ulps below the integer (e.g. (4.1 - 2.0) / 0.7 < 3), silently
    # dropping the last window.  Snap quotients within a relative tolerance
    # of the next integer before flooring.
    quotient = last_start / hop_s
    tolerance = 1e-9 * max(1.0, abs(quotient))
    count = int(np.floor(quotient + tolerance)) + 1
    return hop_s * np.arange(count)
