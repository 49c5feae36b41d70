"""Tests for the BLAS thread-count pin (:mod:`repro.utils.blas`).

The engine runs every tick loop with the BLAS pinned to one thread;
that is only sound because the pin restores the caller's count, is a
no-op without a controllable library, and changes no value.  Tests
that need a controllable BLAS skip without one.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.exec.engine as engine_module
from repro.campaign import CampaignRunner, variant_grid
from repro.fleet import DevicePopulation, FleetSimulator
from repro.utils import blas
from repro.utils.blas import blas_thread_count, blas_threads

needs_blas = pytest.mark.skipif(
    blas_thread_count() is None, reason="no controllable BLAS loaded"
)


@pytest.fixture()
def two_threads():
    """Start each test at two BLAS threads, and restore the count."""
    with blas_threads(2):
        yield


@needs_blas
class TestPin:
    def test_count_inside_context(self, two_threads):
        with blas_threads(1):
            assert blas_thread_count() == 1
        assert blas_thread_count() == 2

    def test_restored_after_exception(self, two_threads):
        with pytest.raises(RuntimeError, match="boom"):
            with blas_threads(1):
                raise RuntimeError("boom")
        assert blas_thread_count() == 2

    def test_nested_contexts_unwind(self, two_threads):
        with blas_threads(1):
            with blas_threads(2):
                assert blas_thread_count() == 2
            assert blas_thread_count() == 1
        assert blas_thread_count() == 2

    def test_engine_run_pins_one_thread(
        self, trained_pipeline, two_threads, monkeypatch
    ):
        """The tick loop sees one thread; the caller's two come back."""
        seen = []
        classify = type(trained_pipeline).classify_batch_labels

        def spying_classify(pipeline, features):
            seen.append(blas_thread_count())
            return classify(pipeline, features)

        monkeypatch.setattr(
            type(trained_pipeline), "classify_batch_labels", spying_classify
        )
        population = DevicePopulation.generate(2, duration_s=5.0, master_seed=3)
        FleetSimulator(trained_pipeline).run(population)
        assert seen and set(seen) == {1}
        assert blas_thread_count() == 2


class TestNoLibrary:
    def test_context_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(blas, "_controller", lambda: None)
        assert blas_thread_count() is None
        with blas_threads(1):
            pass
        with pytest.raises(KeyError):
            with blas_threads(1):
                raise KeyError("still propagates")

    def test_unknown_library_yields_no_controller(self, monkeypatch):
        """A library without any known symbol pair is skipped."""
        monkeypatch.setattr(blas, "_candidate_libraries", lambda: ["libc.so.6"])
        blas._controller.cache_clear()
        try:
            assert blas._controller() is None
        finally:
            blas._controller.cache_clear()


@needs_blas
class TestThreadCountChangesNoValue:
    def test_classify_batch_labels_4000_rows(self, trained_pipeline):
        """4 000 rows is above OpenBLAS's threading cut-off, so the
        two-thread run really splits the GEMM."""
        extractor = trained_pipeline.extractor
        features = np.random.default_rng(11).normal(
            size=(4000, extractor.num_features)
        )
        with blas_threads(1):
            one = trained_pipeline.classify_batch_labels(features)
        with blas_threads(2):
            two = trained_pipeline.classify_batch_labels(features)
        np.testing.assert_array_equal(one[0], two[0])
        assert one[1].tobytes() == two[1].tobytes()

    def test_campaign_report_identical(self, trained_pipeline, monkeypatch):
        """Bypass the engine's pin to run a campaign at two threads.

        420 devices over 16 variants dedupe to ~3 100 classify rows per
        tick, above the threading cut-off."""
        population = DevicePopulation.generate(420, duration_s=3.0, master_seed=21)
        variants = variant_grid(
            stability_thresholds=(5, 10, 20, 40),
            confidence_thresholds=(0.7, 0.8, 0.85, 0.95),
        )

        def report(threads):
            monkeypatch.setattr(
                engine_module, "blas_threads", lambda count: blas_threads(threads)
            )
            result = CampaignRunner(trained_pipeline, variants).run(
                population, trace="summary"
            )
            payload = result.to_dict()
            # Wall-clock figures are the only run-dependent fields.
            for key in ("elapsed_s", "throughput_device_seconds_per_s"):
                payload["meta"].pop(key)
            return json.dumps(payload, sort_keys=True)

        assert report(1) == report(2)
