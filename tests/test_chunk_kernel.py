"""Oracle test for the chunk-partials kernel of the incremental extractor.

:meth:`IncrementalFeatureExtractor.chunk_partials_arrays` reduces a
``(devices, samples, 3)`` chunk stack through one time-major block and
a real ``[Re; Im]`` basis.  This file keeps the spelling it replaced —
middle-axis sums and the complex-basis einsum ``"kj,dja->dka"`` — as an
independent oracle.  Hypothesis (derandomized) draws every Table I
sampling-rate family, window/hop geometries with and without a trimmed
tail, both Fourier modes and batch sizes from one device upwards:

* float64 partials must be bit-identical to the oracle;
* in both lanes a device's partials must not depend on the batch it
  was reduced in (the engine batches by configuration group, the
  reference loop one device at a time, shards by shard);
* float32 partials must agree with the oracle within single-precision
  rounding.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.features import (
    FeatureExtractor,
    IncrementalFeatureExtractor,
    WindowGeometry,
)

#: Sampling rates of the Table I configuration families.
SAMPLING_RATES = (100.0, 50.0, 25.0, 12.5, 6.25)

#: (window_s, step_s) pairs; 12.5 Hz at 2 s / 1 s and 2.5 s / 1 s leave
#: a trimmed tail chunk.
WINDOW_STEPS = ((2.0, 1.0), (3.0, 1.0), (2.5, 1.0), (2.0, 2.0))

KERNEL_SETTINGS = settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _oracle(chunks: np.ndarray, stacked_basis: np.ndarray, bins: int):
    """The historical spelling: middle-axis sums, complex-basis einsum."""
    complex_basis = stacked_basis[:bins] + 1j * stacked_basis[bins:]
    return (
        chunks.sum(axis=1),
        (chunks * chunks).sum(axis=1),
        np.einsum("kj,dja->dka", complex_basis, chunks),
    )


def _fields(partials, tail: bool):
    if tail:
        return partials.tail_sums, partials.tail_sumsq, partials.tail_dft
    return partials.sums, partials.sumsq, partials.dft


@st.composite
def _cases(draw):
    sampling_hz = draw(st.sampled_from(SAMPLING_RATES))
    window_s, step_s = draw(st.sampled_from(WINDOW_STEPS))
    geometry = WindowGeometry.for_window(sampling_hz, step_s, window_s)
    extractor = FeatureExtractor(
        fourier_mode=draw(st.sampled_from(("bands", "bins")))
    )
    batch = draw(
        st.one_of(
            st.integers(min_value=1, max_value=12),
            st.sampled_from((31, 64, 65, 127, 500)),
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return geometry, extractor, batch, seed


def _chunks(geometry: WindowGeometry, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    gravity = rng.normal(0.0, 5.0, size=(batch, 1, 3))
    return gravity + rng.normal(0.0, 2.0, size=(batch, geometry.chunk_samples, 3))


@KERNEL_SETTINGS
@given(_cases())
def test_float64_partials_are_bit_identical_to_the_complex_einsum(case):
    geometry, extractor, batch, seed = case
    incremental = IncrementalFeatureExtractor(extractor)
    basis = incremental.basis_for(geometry)
    chunks = _chunks(geometry, batch, seed)
    partials = incremental.chunk_partials_arrays(chunks, geometry)
    expected = _oracle(chunks, basis.chunk_basis, basis.bins)
    for got, want in zip(_fields(partials, tail=False), expected):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    if geometry.tail_samples:
        tail = chunks[:, geometry.chunk_samples - geometry.tail_samples :]
        expected = _oracle(tail, basis.tail_basis, basis.bins)
        for got, want in zip(_fields(partials, tail=True), expected):
            np.testing.assert_array_equal(got, want)
    else:
        assert partials.tail_dft is None


@KERNEL_SETTINGS
@given(_cases(), st.sampled_from((np.float64, np.float32)))
def test_partials_are_batch_invariant_in_both_lanes(case, dtype):
    geometry, extractor, batch, seed = case
    incremental = IncrementalFeatureExtractor(extractor, dtype=dtype)
    chunks = _chunks(geometry, batch, seed).astype(dtype)
    whole = incremental.chunk_partials_arrays(chunks, geometry)
    tailed = bool(geometry.tail_samples)
    # Every device alone, and an odd split of the batch.
    split = max(1, batch // 3)
    parts = [(index, index + 1) for index in range(min(batch, 4))]
    parts.append((0, split))
    parts.append((split, batch))
    for start, stop in parts:
        if start >= stop:
            continue
        piece = incremental.chunk_partials_arrays(chunks[start:stop], geometry)
        for tail in (False, True) if tailed else (False,):
            for got, want in zip(_fields(piece, tail), _fields(whole, tail)):
                np.testing.assert_array_equal(got, want[start:stop])


@KERNEL_SETTINGS
@given(_cases())
def test_float32_partials_agree_with_the_oracle(case):
    geometry, extractor, batch, seed = case
    single = IncrementalFeatureExtractor(extractor, dtype=np.float32)
    basis = single.basis_for(geometry)
    chunks = _chunks(geometry, batch, seed).astype(np.float32)
    partials = single.chunk_partials_arrays(chunks, geometry)
    assert partials.sums.dtype == np.float32
    assert partials.dft.dtype == np.complex64
    # Oracle in double precision over the same float32 inputs and basis.
    wide = chunks.astype(np.float64)
    expected = _oracle(wide, basis.chunk_basis.astype(np.float64), basis.bins)
    # Worst-case float32 accumulation error over one chunk is about
    # samples * eps * sum(|x|); the bounds leave a small margin on it.
    scale = np.abs(wide).sum(axis=1).max()
    sums, sumsq, dft = expected
    np.testing.assert_allclose(partials.sums, sums, rtol=0, atol=2e-5 * scale)
    np.testing.assert_allclose(partials.dft, dft, rtol=0, atol=2e-5 * scale)
    np.testing.assert_allclose(partials.sumsq, sumsq, rtol=2e-5, atol=0)
