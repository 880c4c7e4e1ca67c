"""Tests for the parallel-map utilities."""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as _metrics
from repro.parallel import (
    MAX_WORKERS_ENV,
    SharedArray,
    as_ndarray,
    available_cpus,
    chunk_indices,
    effective_workers,
    parallel_map,
    share_arrays,
)


def _square(x):
    return x * x


def _shared_sum(handle):
    """Worker-side task: materialize the handle and reduce it."""
    return float(as_ndarray(handle).sum())


class TestChunkIndices:
    def test_even_split(self):
        assert chunk_indices(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_balanced(self):
        spans = chunk_indices(10, 3)
        sizes = [b - a for a, b in spans]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        spans = chunk_indices(2, 10)
        assert spans == [(0, 1), (1, 2)]

    def test_zero_items(self):
        assert chunk_indices(0, 3) == [(0, 0)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            chunk_indices(-1, 2)
        with pytest.raises(ValueError):
            chunk_indices(5, 0)

    @given(n=st.integers(0, 200), k=st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_spans_cover_range_exactly(self, n, k):
        spans = chunk_indices(n, k)
        covered = [i for a, b in spans for i in range(a, b)]
        assert covered == list(range(n))


class TestEffectiveWorkers:
    def test_none_uses_cpu_count(self):
        assert effective_workers(None) >= 1

    def test_counts_affinity_mask_not_machine(self, monkeypatch):
        """A process pinned to 2 of 16 CPUs must not size pools for 16."""
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        assert available_cpus() == 2
        assert effective_workers(None) == 2
        assert effective_workers(8) == 2

    def test_cpu_count_fallback_without_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        assert available_cpus() == 3
        assert effective_workers(None) == 3

    def test_workers_gauge_uses_available_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        parallel_map(_square, [1, 2, 3])
        assert _metrics.gauge("parallel.workers_requested").value == 1.0

    def test_clamped_to_one(self):
        assert effective_workers(0) == 1
        assert effective_workers(-5) == 1

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        assert effective_workers(8) == 1

    def test_bad_env_ignored(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "not-a-number")
        assert effective_workers(2) >= 1

    @pytest.mark.parametrize("bad_cap", ["0", "-3"])
    def test_subserial_env_clamped_to_one_with_warning(
        self, monkeypatch, caplog, bad_cap
    ):
        """Regression: REPRO_MAX_WORKERS<=0 used to propagate into
        ProcessPoolExecutor(max_workers=0) and crash; it must clamp to
        serial and say so."""
        monkeypatch.setenv(MAX_WORKERS_ENV, bad_cap)
        with caplog.at_level("WARNING", logger="repro.parallel"):
            assert effective_workers(8) == 1
        assert any("clamping to 1" in r.message for r in caplog.records)

    def test_noninteger_env_warns(self, monkeypatch, caplog):
        monkeypatch.setenv(MAX_WORKERS_ENV, "many")
        with caplog.at_level("WARNING", logger="repro.parallel"):
            effective_workers(2)
        assert any("non-integer" in r.message for r in caplog.records)


class TestParallelMap:
    def test_serial_matches_map(self):
        items = list(range(20))
        assert parallel_map(_square, items, n_workers=1) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(50))
        serial = parallel_map(_square, items, n_workers=1)
        parallel = parallel_map(_square, items, n_workers=2)
        assert serial == parallel

    def test_empty(self):
        assert parallel_map(_square, [], n_workers=2) == []

    def test_single_item_stays_serial(self):
        assert parallel_map(_square, [3], n_workers=4) == [9]

    def test_order_preserved(self):
        items = list(range(100, 0, -1))
        assert parallel_map(_square, items, n_workers=2) == [x * x for x in items]

    def test_gauges_record_requested_vs_effective(self):
        parallel_map(_square, [1, 2, 3], n_workers=1)
        assert _metrics.gauge("parallel.workers_requested").value == 1.0
        assert _metrics.gauge("parallel.workers_effective").value == 1.0
        parallel_map(_square, list(range(8)), n_workers=4)
        assert _metrics.gauge("parallel.workers_requested").value == 4.0
        # The cpu clamp / fork availability decide what was delivered;
        # the point is that the two gauges make the gap observable.
        assert _metrics.gauge("parallel.workers_effective").value >= 1.0


class TestSharedArray:
    def test_view_round_trips_data(self):
        arr = np.linspace(0.0, 1.0, 257)
        sa = SharedArray(arr)
        try:
            np.testing.assert_array_equal(sa.array, arr)
            assert sa.shape == arr.shape
            assert sa.dtype == arr.dtype
        finally:
            sa.close()
            sa.unlink()

    def test_pickle_is_a_handle_not_a_copy(self):
        arr = np.arange(50_000, dtype=np.float64)
        sa = SharedArray(arr)
        try:
            blob = pickle.dumps(sa)
            # The whole point: the wire format is a name+shape tuple,
            # orders of magnitude smaller than the 400 kB payload.
            assert len(blob) < 1024
            attached = pickle.loads(blob)
            try:
                np.testing.assert_array_equal(attached.array, arr)
            finally:
                attached.close()
            # The attachment closing must not unlink the owner's pages.
            assert float(sa.array[-1]) == arr[-1]
        finally:
            sa.close()
            sa.unlink()

    def test_attachment_never_unlinks(self):
        sa = SharedArray(np.ones(8))
        attached = pickle.loads(pickle.dumps(sa))
        attached.unlink()  # no-op: not the owner
        attached.close()
        assert float(sa.array.sum()) == 8.0
        sa.close()
        sa.unlink()

    def test_empty_array(self):
        sa = SharedArray(np.empty(0))
        try:
            assert sa.array.size == 0
        finally:
            sa.close()
            sa.unlink()

    def test_as_ndarray_passthrough(self):
        arr = np.arange(4.0)
        np.testing.assert_array_equal(as_ndarray(arr), arr)
        np.testing.assert_array_equal(as_ndarray([1.0, 2.0]), [1.0, 2.0])

    def test_share_arrays_cleans_up(self):
        arr = np.arange(16.0)
        with share_arrays(arr) as (h,):
            if not isinstance(h, SharedArray):
                pytest.skip("shared memory unavailable on this platform")
            name = h._shm.name
            np.testing.assert_array_equal(h.array, arr)
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_worker_reads_shared_pages(self):
        """End-to-end: a worker process attaches, reads, exits — and the
        owner's segment survives the worker's resource tracker
        (the bpo-38119 unlink-on-exit trap)."""
        arr = np.arange(10_000.0)
        want = float(arr.sum())
        with share_arrays(arr) as (h,):
            if not isinstance(h, SharedArray):
                pytest.skip("shared memory unavailable on this platform")
            try:
                with ProcessPoolExecutor(max_workers=1) as pool:
                    got = pool.submit(_shared_sum, h).result(timeout=120)
            except (OSError, PermissionError, RuntimeError):
                pytest.skip("process pools unavailable in this sandbox")
            assert got == want
            # After the pool (and its tracker) shut down, the owner's
            # pages must still be mapped and intact.
            assert float(h.array.sum()) == want

    def test_parallel_map_with_shared_handles(self):
        arr = np.arange(4096.0)
        with share_arrays(arr) as (h,):
            outs = parallel_map(_shared_sum, [h, h, h], n_workers=2)
        assert outs == [float(arr.sum())] * 3
