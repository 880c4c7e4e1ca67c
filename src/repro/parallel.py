"""Deterministic parallel-map utilities.

The paper ran LoadDynamics on a 16-core Xeon; the brute-force baseline and
the 21-predictor CloudInsight council are embarrassingly parallel.  This
module provides a tiny, dependency-free process-pool map with:

* deterministic output ordering (results returned in input order),
* chunking so tiny tasks don't drown in IPC overhead,
* a serial fallback (``n_workers<=1`` or inside an active pool / pytest-
  sensitive paths) so callers never need two code paths,
* graceful degradation when the platform disallows forking.

Everything submitted must be picklable (top-level functions + plain data),
per the usual multiprocessing contract — the same constraint mpi4py-style
buffer programs live with.  Large float arrays shared by every task
(training matrices, scaled traces) should ride in POSIX shared memory via
:class:`SharedArray` / :func:`share_arrays` instead of being re-pickled
into each worker: the handle pickles as a name+shape tuple and workers
map the same pages read-only-by-convention, so fan-out cost stops scaling
with the data size.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Any, TypeVar

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger

logger = get_logger("parallel")

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "parallel_map",
    "available_cpus",
    "effective_workers",
    "chunk_indices",
    "SharedArray",
    "share_arrays",
    "as_ndarray",
]

#: Environment variable users can set to cap worker processes globally.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def available_cpus() -> int:
    """CPUs this process may run on.

    A pinned or cpuset-limited process sees fewer CPUs in its affinity
    mask than ``os.cpu_count()`` reports for the machine; sizing pools
    by the latter oversubscribes the CPUs it actually has.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def effective_workers(n_workers: int | None = None) -> int:
    """Resolve the worker count.

    ``None`` means "use all available cores" (:func:`available_cpus`),
    honouring :data:`MAX_WORKERS_ENV`.
    Values below 1 are clamped to 1 (serial); a malformed or sub-serial
    env cap is clamped with a ``repro.parallel`` warning rather than
    silently forcing a surprise serial run.
    """
    cap_text = os.environ.get(MAX_WORKERS_ENV)
    cpu = available_cpus()
    if n_workers is None:
        n_workers = cpu
    if cap_text is not None:
        try:
            cap = int(cap_text)
        except ValueError:
            logger.warning(
                "ignoring non-integer %s=%r", MAX_WORKERS_ENV, cap_text
            )
        else:
            if cap < 1:
                logger.warning(
                    "%s=%d is below 1; clamping to 1 (serial execution)",
                    MAX_WORKERS_ENV,
                    cap,
                )
                cap = 1
            n_workers = min(n_workers, cap)
    return max(1, min(n_workers, cpu))


def chunk_indices(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous spans.

    Spans are balanced to within one item, mirroring the classic block
    decomposition used for MPI rank work assignment.
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if n_chunks < 1:
        raise ValueError("n_chunks must be positive")
    n_chunks = min(n_chunks, max(n_items, 1))
    base, extra = divmod(n_items, n_chunks)
    spans: list[tuple[int, int]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        spans.append((start, start + size))
        start += size
    return [s for s in spans if s[1] > s[0]] or ([(0, 0)] if n_items == 0 else [])


def _attach_shared(name: str, shape: tuple, dtype_str: str) -> "SharedArray":
    """Re-attach to an existing segment inside a worker process.

    Attaching re-registers the segment with the resource tracker
    (bpo-38119).  That is harmless here — pool workers inherit the
    owner's tracker daemon (fork shares the fd; spawn passes it), so the
    duplicate registration collapses into the daemon's per-name set and
    worker exit never unlinks the pages.  Deliberately do *not*
    ``resource_tracker.unregister`` the attachment: with a shared daemon
    that would delete the owner's only registration, forfeiting
    crash-leak cleanup and raising KeyError noise when the owner
    unlinks.  (The classic unregister workaround is for *unrelated*
    processes attaching by name, each with its own tracker — a topology
    this module never creates.)
    """
    shm = shared_memory.SharedMemory(name=name)
    obj = SharedArray.__new__(SharedArray)
    obj._shm = shm
    obj._shape = tuple(shape)
    obj._dtype = np.dtype(dtype_str)
    obj._owner = False
    return obj


class SharedArray:
    """A numpy array backed by POSIX shared memory, cheap to send to workers.

    Pickles as ``(segment name, shape, dtype)`` — a few dozen bytes —
    instead of the array contents, so a multi-megabyte training matrix
    crosses the process boundary once (at creation) rather than once per
    task.  Workers attach to the same pages; treat them as read-only
    (there is no cross-process locking).

    The creating process owns the segment and must :meth:`close` and
    :meth:`unlink` it (or use :func:`share_arrays`, which guarantees
    cleanup).  Worker-side attachments are closed by process exit.
    """

    __slots__ = ("_shm", "_shape", "_dtype", "_owner")

    def __init__(self, array: np.ndarray):
        arr = np.ascontiguousarray(array)
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, arr.nbytes)
        )
        self._shape = arr.shape
        self._dtype = arr.dtype
        self._owner = True
        if arr.nbytes:
            np.ndarray(arr.shape, arr.dtype, buffer=self._shm.buf)[...] = arr

    def __reduce__(self):
        return (_attach_shared, (self._shm.name, self._shape, self._dtype.str))

    @property
    def shape(self) -> tuple:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def array(self) -> np.ndarray:
        """A zero-copy ndarray view over the shared pages."""
        return np.ndarray(self._shape, self._dtype, buffer=self._shm.buf)

    def close(self) -> None:
        """Unmap this process's view (safe to call repeatedly)."""
        try:
            self._shm.close()
        except BufferError:  # a live ndarray view pins the mapping
            logger.debug(
                "shared segment %s still has exported views; deferring "
                "unmap to GC",
                self._shm.name,
            )

    def unlink(self) -> None:
        """Remove the segment name (owner only; no-op for attachments)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass


def as_ndarray(x) -> np.ndarray:
    """Materialize a task input: SharedArray view or plain array, uniformly."""
    return x.array if isinstance(x, SharedArray) else np.asarray(x)


@contextmanager
def share_arrays(*arrays: np.ndarray, fallback: bool = True):
    """Share arrays for the duration of a parallel region.

    Yields one handle per input: a :class:`SharedArray` normally, or the
    original ndarray when the platform refuses shared memory (no
    ``/dev/shm``, sandbox seccomp) and ``fallback`` is true — in which
    case tasks transparently pay the pickling cost instead of failing.
    Owner-side cleanup (close + unlink) is guaranteed on exit.
    """
    shared: list[SharedArray] = []
    out: list[Any] = []
    try:
        for a in arrays:
            try:
                sa = SharedArray(a)
            except (OSError, ValueError) as exc:
                if not fallback:
                    raise
                logger.warning(
                    "shared memory unavailable (%s); falling back to "
                    "pickled array copies",
                    exc,
                )
                out.append(np.asarray(a))
            else:
                shared.append(sa)
                out.append(sa)
        yield tuple(out)
    finally:
        for sa in shared:
            sa.close()
            sa.unlink()


def _run_chunk(payload: tuple[Callable[..., Any], Sequence[Any]]) -> list[Any]:
    fn, items = payload
    return [fn(item) for item in items]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    n_workers: int | None = None,
    chunks_per_worker: int = 4,
) -> list[R]:
    """Map ``fn`` over ``items`` with a process pool, preserving order.

    Falls back to a plain serial loop when only one worker is requested,
    when there are fewer than two items, or when process creation fails
    (e.g. sandboxed environments).  The serial and parallel paths produce
    identical results for deterministic ``fn``.

    Requested vs delivered parallelism is exposed as the gauges
    ``parallel.workers_requested`` / ``parallel.workers_effective`` so a
    run on a core-starved box (where the cpu clamp or a fork failure
    silently serializes the map) is visible in telemetry instead of
    masquerading as a slow parallel run.
    """
    data = list(items)
    workers = effective_workers(n_workers)
    _metrics.gauge("parallel.workers_requested").set(
        float(n_workers if n_workers is not None else available_cpus())
    )
    if workers <= 1 or len(data) < 2:
        _metrics.gauge("parallel.workers_effective").set(1.0)
        return [fn(item) for item in data]

    spans = chunk_indices(len(data), workers * max(1, chunks_per_worker))
    payloads = [(fn, data[a:b]) for a, b in spans]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunked = list(pool.map(_run_chunk, payloads))
    except (OSError, PermissionError, RuntimeError):
        # Sandboxes and some CI environments forbid fork/spawn; degrade
        # quietly to serial execution, which is always correct.
        _metrics.gauge("parallel.workers_effective").set(1.0)
        return [fn(item) for item in data]
    _metrics.gauge("parallel.workers_effective").set(float(workers))
    out: list[R] = []
    for chunk in chunked:
        out.extend(chunk)
    return out
