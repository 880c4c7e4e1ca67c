"""Crash-safe streaming serving: chunked ingestion, checkpoints, resume.

The batch loop in :mod:`repro.serving.online` sees the whole trace up
front; a real metrics feed arrives as *chunks* — a scrape window at a
time, late when the collector stalls, missing when a scraper restarts,
and the serving process itself can be killed between any two of them.
:class:`StreamingServer` is the runtime for that regime:

* **chunked ingestion** — :func:`chunk_stream` turns a trace into a
  deterministic arrival sequence (configurable chunk size/jitter) and is
  instrumented at the ``stream.chunk`` fault site, so stalled feeds
  (``stall@stream.chunk:at``), lost chunks (``drop@stream.chunk:at``)
  and process kills (``kill@stream.chunk:at``) are exactly
  reproducible;
* **per-chunk sanitation** — every chunk passes through the
  :class:`~repro.serving.sanitize.TraceSanitizer` again; a chunk the
  active policy rejects is *quarantined* (ledger entry, intervals served
  from the fallback chain over the clean history) instead of poisoning
  the model's history;
* **stall watchdog** — an arrival gap beyond ``deadline_s`` degrades
  that chunk to hold-last provisioning and records a typed
  :class:`StreamStalled` telemetry event; service recovers on the next
  on-time chunk;
* **backpressure accounting** — a deterministic queue model
  (``service_time_per_interval`` x backlog vs ``queue_capacity``) sheds
  whole chunks when the server falls behind, with ``serving.stream.*``
  load-shed counters;
* **crash-safe resume** — every ``checkpoint_every`` chunks the server
  appends the new schedule/actual intervals to fsynced ``.f64`` sidecars
  and the new controller decisions to ``decisions.jsonl``, then
  atomically replaces ``checkpoint.json`` (tmp + fsync + ``os.replace``,
  the :func:`repro.nn.serialization.save_regressor` discipline) holding
  the bounded state of every stateful component.  Each checkpoint
  writes only what is new since the last one, and ``checkpoint.json``
  does not grow with the length of the stream.
  After a kill, :meth:`StreamingServer.restore` + a replay of the same
  chunk source produce a **bit-for-bit identical** provisioning schedule
  and :class:`~repro.serving.online.ServingReport` — asserted by
  ``tests/test_serving_stream.py`` and the CI streaming-chaos stage.

Determinism contract: the stream runs on *logical* time (nominal chunk
arrival clocks derived from ``interval_s``), monitors are scored with
``latency_s=None``, and all degradation decisions are pure functions of
the chunk sequence — wall-clock never leaks into the schedule, which is
what makes the resume guarantee testable at all.  Resume replays the
chunk source from the start (cheap: generation is pure) and skips
chunks the checkpoint already covers; faults planted at sites other
than ``stream.chunk`` re-count their invocation indices in the resumed
process.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.autoscale import VMSpec
from repro.autoscale.controller import HybridController
from repro.baselines.base import Predictor, bind_controller, step
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.obs.monitor.monitor import ForecastMonitor
from repro.resilience import faults as _faults
from repro.serving.online import ServingReport, serving_counters, simulate_report
from repro.serving.sanitize import TraceSanitizer
from repro.state import (
    FLOAT, INT, LIST, NESTED, declare, dump, load, record, seq,
)
from repro.traces.loader import TraceValidationError

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "StreamChunk",
    "StreamConfig",
    "StreamStalled",
    "StreamingServer",
    "chunk_stream",
]

logger = get_logger("serving.stream")

#: Version stamp written into every ``checkpoint.json``; a mismatch on
#: restore is a typed :class:`CheckpointError`, never a silent
#: misinterpretation of old state.
CHECKPOINT_SCHEMA = 3

_CHECKPOINT_FILE = "checkpoint.json"
#: Append-only sidecars: raw float64 for the served intervals, one JSON
#: row (:meth:`~repro.autoscale.controller.Decision.to_row`) per line
#: for the controller's decision log.  They are fsynced *before* the
#: checkpoint replace, and the checkpoint records how much of each is
#: valid, so a torn tail from a crash mid-append is ignored on restore.
_SCHEDULE_FILE = "schedule.f64"
_ACTUALS_FILE = "actuals.f64"
_DECISIONS_FILE = "decisions.jsonl"


class CheckpointError(Exception):
    """A serving checkpoint cannot be used.

    Raised for unreadable/corrupt ``checkpoint.json``, a schema-version
    mismatch, an identity mismatch (the resuming server is configured
    differently from the one that wrote the checkpoint), a sidecar
    shorter than the checkpoint claims, or a replayed chunk source whose
    chunk boundaries straddle the resume cursor.
    """


@dataclass(frozen=True)
class StreamChunk:
    """One feed arrival: ``values`` covering ``[offset, offset+len)``.

    ``arrival_s`` is the *logical* arrival clock (seconds since stream
    start) the stall watchdog and backpressure model read — derived from
    the chunk boundary and injected stalls, never from wall-clock.
    """

    index: int
    offset: int
    values: np.ndarray
    arrival_s: float


@dataclass(frozen=True)
class StreamStalled:
    """Typed telemetry record: the feed went quiet past the deadline."""

    chunk_index: int
    offset: int
    gap_s: float
    deadline_s: float
    intervals_held: int


@dataclass(frozen=True)
class StreamConfig:
    """How a trace is chunked, watched, checkpointed, and resumed.

    Parameters
    ----------
    chunk_size:
        Nominal intervals per feed chunk.
    size_jitter:
        Uniform +/- jitter on each chunk's size (seeded, deterministic).
    interval_s:
        Logical seconds per trace interval; chunk ``i`` nominally
        arrives when its last interval completes.
    arrival_jitter_s:
        Uniform extra arrival delay per chunk (seeded, deterministic).
    seed:
        Seed for the chunking/arrival jitter stream.
    deadline_s:
        Stall watchdog: an inter-chunk arrival gap beyond this degrades
        the late chunk to hold-last provisioning.  ``None`` disables.
    queue_capacity:
        Backpressure bound, in backlog *intervals*; a chunk arriving
        with more backlog than this is load-shed.  ``None`` disables.
    service_time_per_interval:
        Logical seconds the server needs per ingested interval; ``0``
        disables the backpressure model entirely.
    checkpoint_every:
        Write a checkpoint every this many processed chunks (``0``
        disables periodic checkpoints; a final one is still written
        when a ``checkpoint_dir`` is configured).
    checkpoint_dir:
        Where ``checkpoint.json`` and its sidecars live; ``None``
        disables checkpointing.
    resume:
        Restore from ``checkpoint_dir`` before serving (missing
        checkpoint = fresh start, so a crash before the first
        checkpoint resumes trivially).
    history_window:
        Bounded model-visible history (intervals).  Both a fresh run
        and a resumed run predict from the same bounded tail, which is
        part of the bit-for-bit guarantee.
    """

    chunk_size: int = 64
    size_jitter: int = 0
    interval_s: float = 1.0
    arrival_jitter_s: float = 0.0
    seed: int = 0
    deadline_s: float | None = None
    queue_capacity: int | None = None
    service_time_per_interval: float = 0.0
    checkpoint_every: int = 100
    checkpoint_dir: str | None = None
    resume: bool = False
    history_window: int = 4096

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.size_jitter < 0 or self.size_jitter >= self.chunk_size:
            raise ValueError("size_jitter must be in [0, chunk_size)")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.arrival_jitter_s < 0:
            raise ValueError("arrival_jitter_s must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 (or None)")
        if self.service_time_per_interval < 0:
            raise ValueError("service_time_per_interval must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.history_window < 1:
            raise ValueError("history_window must be >= 1")


def chunk_stream(
    trace: np.ndarray,
    *,
    config: StreamConfig | None = None,
) -> Iterator[StreamChunk]:
    """Yield ``trace`` as a deterministic sequence of feed chunks.

    Chunk sizes and arrival times are drawn from a generator seeded by
    ``config.seed``, so the same config replays the same sequence —
    which is what lets a resumed run regenerate the exact chunks a
    crashed run saw.  Each chunk boundary fires the ``stream.chunk``
    fault site once: ``stall`` delays that chunk's arrival (arg
    seconds, default 30.0), ``drop`` silently loses it (the offset
    still advances, leaving the gap the server must detect), ``kill``
    raises :class:`~repro.resilience.faults.SimulatedCrash` mid-stream.
    The arrival clock is monotonic, so a stalled chunk makes its
    successors arrive back-to-back — exactly the burst that exercises
    the backpressure model.
    """
    cfg = config if config is not None else StreamConfig()
    t = np.asarray(trace, dtype=np.float64).ravel()
    rng = np.random.default_rng(cfg.seed)
    offset = 0
    index = 0
    last_arrival = 0.0
    while offset < t.size:
        size = cfg.chunk_size
        if cfg.size_jitter:
            size += int(rng.integers(-cfg.size_jitter, cfg.size_jitter + 1))
        size = max(1, min(size, t.size - offset))
        end = offset + size
        arrival = end * cfg.interval_s
        if cfg.arrival_jitter_s:
            arrival += float(rng.uniform(0.0, cfg.arrival_jitter_s))
        inj = _faults.active()
        fired = inj.maybe_fire("stream.chunk") if inj is not None else {}
        if "stall" in fired:
            spec = fired["stall"]
            arrival += spec.arg if spec.arg is not None else 30.0
        arrival = max(arrival, last_arrival)
        last_arrival = arrival
        if "drop" not in fired:
            yield StreamChunk(
                index=index,
                offset=offset,
                values=t[offset:end].copy(),
                arrival_s=arrival,
            )
        index += 1
        offset = end


def _append_sidecar(path: Path, base: int, data) -> None:
    """Write ``data`` at byte ``base`` of an append-only sidecar, fsynced.

    Any torn/stale tail beyond the durable prefix ``base`` is dropped
    first, so the file always equals the prefix the next checkpoint
    will claim.
    """
    mode = "r+b" if path.exists() else "w+b"
    with open(path, mode) as fh:
        fh.truncate(base)
        fh.seek(base)
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _read_sidecar(path: Path, nbytes: int) -> bytes:
    """The durable ``nbytes`` prefix of a sidecar; any tail is ignored."""
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"unreadable sidecar {path}: {exc}") from exc
    if len(blob) < nbytes:
        raise CheckpointError(
            f"sidecar {path} holds {len(blob)} bytes, checkpoint claims "
            f"{nbytes}"
        )
    return blob[:nbytes]


#: Checkpoint sections of :class:`StreamingServer`: the ingest cursor,
#: the degradation ledgers, and the stateful components (the controller
#: is saved apart, its decision log going to the sidecar).
_COMPONENTS = declare({"predictor": NESTED, "monitor": NESTED})
_CURSOR = declare({
    "_next_offset": INT,
    "_chunks_processed": INT,
    "_served_intervals": INT,
    "_last_arrival_s": FLOAT,
    "_busy_until_s": FLOAT,
    "_queue_peak": FLOAT,
    "_checkpoints_written": INT,
})
_DEGRADE = declare({
    "_last_decision": FLOAT,
    "_last_clean": FLOAT,
    "_held_intervals": INT,
    "_gap_intervals": INT,
    "_shed_chunks": INT,
    "_shed_intervals": INT,
    "_quarantined_intervals": INT,
    "_repaired_values": INT,
    "quarantine": LIST,
    "stalls": seq(record(StreamStalled)),
})


class StreamingServer:
    """Serve a chunked feed with quarantine, degradation, and checkpoints.

    Parameters
    ----------
    predictor:
        The serving predictor — typically a
        :class:`~repro.serving.guard.GuardedPredictor`; its fallback
        chain also serves quarantined chunks.
    initial_history:
        Clean 1-D warmup history the first predictions draw on (the
        trace prefix before the served region).  Must be non-empty.
    config:
        A :class:`StreamConfig`; ``None`` takes the defaults.
    sanitizer:
        Per-chunk :class:`~repro.serving.sanitize.TraceSanitizer`;
        ``None`` installs ``TraceSanitizer(policy="interpolate")`` —
        chunks it cannot repair are quarantined.
    monitor / controller / spec / seed / refit_every:
        As in :func:`repro.serving.online.serve_and_simulate`; the
        monitor is scored with ``latency_s=None`` (logical time only),
        so a monitor with a latency SLO is a ``ValueError``, and
        ``refit_every=None`` disables in-stream refits.
    """

    def __init__(
        self,
        predictor: Predictor,
        initial_history: np.ndarray,
        *,
        config: StreamConfig | None = None,
        sanitizer: TraceSanitizer | None = None,
        monitor: ForecastMonitor | None = None,
        controller: HybridController | None = None,
        spec: VMSpec | None = None,
        seed: int = 0,
        refit_every: int | None = None,
    ):
        init = np.asarray(initial_history, dtype=np.float64).ravel()
        if init.size == 0:
            raise ValueError("initial_history must be non-empty")
        if refit_every is not None and refit_every < 1:
            raise ValueError("refit_every must be >= 1 (or None)")
        slo = getattr(monitor, "slo", None)
        if slo is not None and "latency" in slo.objectives:
            raise ValueError(
                "a streamed run scores its monitor untimed (latency_s=None), "
                "so a latency SLO would never be measured; drop "
                "latency_slo_ms from the monitor's SLOTracker"
            )
        self.config = config if config is not None else StreamConfig()
        self.predictor = predictor
        self.sanitizer = (
            sanitizer if sanitizer is not None
            else TraceSanitizer(policy="interpolate")
        )
        self.monitor = monitor
        self.controller = controller
        self.spec = spec
        self.seed = int(seed)
        self.refit_every = refit_every
        if controller is not None:
            bind_controller(controller, predictor)

        window = self.config.history_window
        tail = init[-window:]
        self._hbuf = np.empty(2 * window, dtype=np.float64)
        self._hbuf[: tail.size] = tail
        self._hlen = int(tail.size)
        self._initial_len = int(init.size)

        # Served intervals (the schedule the simulator will replay).
        self._cap = 1024
        self._sched_buf = np.empty(self._cap, dtype=np.float64)
        self._act_buf = np.empty(self._cap, dtype=np.float64)
        self._n = 0
        #: Sidecar entries durably on disk (== entries the checkpoint covers).
        self._sidecar_n = 0
        #: Decision-log rows and bytes durably in ``decisions.jsonl``.
        self._log_rows = 0
        self._log_bytes = 0

        last = float(init[-1])
        self._last_clean = last if math.isfinite(last) else 0.0
        self._last_decision = float(np.ceil(max(self._last_clean, 0.0)))

        # Stream cursor + degradation ledgers.
        self._next_offset = 0
        self._chunks_processed = 0
        self._chunks_skipped = 0
        self._served_intervals = 0
        self._held_intervals = 0
        self._gap_intervals = 0
        self._shed_chunks = 0
        self._shed_intervals = 0
        self._quarantined_intervals = 0
        self._repaired_values = 0
        self._last_arrival_s = 0.0
        self._busy_until_s = 0.0
        self._queue_peak = 0.0
        self._checkpoints_written = 0
        self._restored = False
        self.quarantine: list[dict] = []
        self.stalls: list[StreamStalled] = []

        # Hot-path metric handles resolved once, not per chunk.
        self._c_chunks = _metrics.counter("serving.stream.chunks")
        self._c_held = _metrics.counter("serving.stream.held_intervals")
        self._c_gap = _metrics.counter("serving.stream.gap_intervals")
        self._c_quar_chunks = _metrics.counter("serving.stream.quarantined_chunks")
        self._c_quar = _metrics.counter("serving.stream.quarantined_intervals")
        self._c_stalls = _metrics.counter("serving.stream.stalls")
        self._c_shed = _metrics.counter("serving.stream.shed_chunks")
        self._c_shed_iv = _metrics.counter("serving.stream.shed_intervals")
        self._c_ckpt = _metrics.counter("serving.stream.checkpoints")
        self._c_repaired = _metrics.counter("serving.stream.repaired_values")

    # ------------------------------------------------------------------
    # bounded history + interval buffers
    # ------------------------------------------------------------------
    def _history_view(self) -> np.ndarray:
        w = self.config.history_window
        lo = self._hlen - w
        return self._hbuf[lo if lo > 0 else 0 : self._hlen]

    def _append_history_scalar(self, value: float) -> None:
        if self._hlen == self._hbuf.size:
            w = self.config.history_window
            self._hbuf[:w] = self._hbuf[self._hlen - w : self._hlen].copy()
            self._hlen = w
        self._hbuf[self._hlen] = value
        self._hlen += 1

    def _append_history_block(self, values: np.ndarray) -> None:
        w = self.config.history_window
        m = int(values.size)
        if m >= w:
            self._hbuf[:w] = values[-w:]
            self._hlen = w
            return
        if self._hlen + m > self._hbuf.size:
            self._hbuf[:w] = self._hbuf[self._hlen - w : self._hlen].copy()
            self._hlen = w
        self._hbuf[self._hlen : self._hlen + m] = values
        self._hlen += m

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        if need <= self._cap:
            return
        while self._cap < need:
            self._cap *= 2
        for name in ("_sched_buf", "_act_buf"):
            grown = np.empty(self._cap, dtype=np.float64)
            old = getattr(self, name)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def _push(self, decision: float, actual: float) -> None:
        self._reserve(1)
        self._sched_buf[self._n] = decision
        self._act_buf[self._n] = actual
        self._n += 1

    def _push_block(self, decisions: np.ndarray, actuals: np.ndarray) -> None:
        m = int(decisions.size)
        self._reserve(m)
        self._sched_buf[self._n : self._n + m] = decisions
        self._act_buf[self._n : self._n + m] = actuals
        self._n += m

    # ------------------------------------------------------------------
    # serving modes
    # ------------------------------------------------------------------
    def _serve_values(self, values: np.ndarray) -> None:
        """Normal serving: :func:`~repro.baselines.base.step` per interval
        on the bounded history, on logical time (no latency clock)."""
        predictor = self.predictor
        monitor = self.monitor
        controller = self.controller
        refit_every = self.refit_every
        for v in values.tolist():
            history = self._history_view()
            refit = (
                refit_every is not None
                and self._served_intervals % refit_every == 0
            )
            _, decision = step(
                predictor, history, history, v, refit=refit,
                monitor=monitor, controller=controller, clock=None,
            )
            self._served_intervals += 1
            self._last_decision = decision
            self._push(decision, v)
            self._append_history_scalar(v)
            self._last_clean = v

    def _fallback_forecast(self, history: np.ndarray) -> float:
        """First finite answer from the predictor's fallback chain."""
        fallbacks = getattr(self.predictor, "fallbacks", None) or ()
        for fb in fallbacks:
            try:
                raw = float(fb.predict_next(history))
            except _faults.SimulatedCrash:
                raise
            except Exception:
                continue
            if math.isfinite(raw):
                return max(raw, 0.0)
        last = float(history[-1]) if history.size else 0.0
        return last if math.isfinite(last) else 0.0

    def _quarantine_block(self, n: int) -> None:
        """Serve ``n`` quarantined intervals from the fallback chain.

        Actuals are unknown (the chunk was rejected), so the last clean
        value is held in the history and the simulator replay; the
        monitor is not scored — unobserved actuals are not evidence.
        """
        held = self._last_clean
        for _ in range(n):
            history = self._history_view()
            p = self._fallback_forecast(history)
            decision = float(np.ceil(p))
            self._last_decision = decision
            self._push(decision, held)
            self._append_history_scalar(held)
        self._quarantined_intervals += n
        self._c_quar.inc(n)

    def _degrade_block(self, n: int) -> None:
        """Hold-last provisioning for ``n`` intervals with no data at all:
        the last clean value stands in for the missing actuals."""
        self._hold_block(np.full(n, self._last_clean))

    def _hold_block(self, values: np.ndarray) -> None:
        """Stalled chunk: hold-last decisions, but the (late) actuals are
        real — they enter the history so the model recovers immediately."""
        m = int(values.size)
        self._push_block(np.full(m, self._last_decision), values)
        self._append_history_block(values)
        self._last_clean = float(values[-1])
        self._held_intervals += m
        self._c_held.inc(m)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _ingest(self, chunk: StreamChunk) -> None:
        cfg = self.config
        n = int(chunk.values.size)
        end = chunk.offset + n
        if end <= self._next_offset:
            # Replay of an interval range the restored checkpoint already
            # covers — the resume fast-path.
            self._chunks_skipped += 1
            return
        if chunk.offset < self._next_offset:
            raise CheckpointError(
                f"chunk [{chunk.offset}, {end}) straddles the resume cursor "
                f"{self._next_offset}; checkpoints align to chunk "
                "boundaries, so the replayed source must use the original "
                "chunking config"
            )

        self._c_chunks.inc()
        self._chunks_processed += 1

        if chunk.offset > self._next_offset:
            # Dropped chunk(s) ahead of this one: the feed lost those
            # intervals for good — serve them blind.
            gap = chunk.offset - self._next_offset
            logger.warning(
                "stream gap: %d intervals missing before chunk %d",
                gap, chunk.index,
            )
            if _events.enabled():
                _events.emit("stream.gap", chunk=chunk.index, intervals=gap)
            self._degrade_block(gap)
            self._gap_intervals += gap
            self._c_gap.inc(gap)
            self._next_offset = chunk.offset

        gap_s = chunk.arrival_s - self._last_arrival_s
        stalled = cfg.deadline_s is not None and gap_s > cfg.deadline_s
        self._last_arrival_s = chunk.arrival_s

        shed = False
        if cfg.service_time_per_interval > 0.0:
            backlog_s = self._busy_until_s - chunk.arrival_s
            backlog = (
                backlog_s / cfg.service_time_per_interval
                if backlog_s > 0.0 else 0.0
            )
            if backlog > self._queue_peak:
                self._queue_peak = backlog
            if cfg.queue_capacity is not None and backlog > cfg.queue_capacity:
                shed = True
            else:
                start_s = (
                    self._busy_until_s if backlog_s > 0.0 else chunk.arrival_s
                )
                self._busy_until_s = (
                    start_s + cfg.service_time_per_interval * n
                )

        if shed:
            self._shed_chunks += 1
            self._shed_intervals += n
            self._c_shed.inc()
            self._c_shed_iv.inc(n)
            logger.warning(
                "load shed: chunk %d (%d intervals) dropped at backlog "
                "%.1f intervals", chunk.index, n, self._queue_peak,
            )
            if _events.enabled():
                _events.emit("stream.shed", chunk=chunk.index, intervals=n)
            self._degrade_block(n)
            self._next_offset = end
        else:
            try:
                clean, report = self.sanitizer.sanitize(chunk.values)
            except TraceValidationError as exc:
                self.quarantine.append({
                    "chunk": chunk.index,
                    "offset": chunk.offset,
                    "intervals": n,
                    "reason": str(exc),
                })
                self._c_quar_chunks.inc()
                logger.warning(
                    "chunk %d quarantined (%d intervals): %s",
                    chunk.index, n, exc,
                )
                if _events.enabled():
                    _events.emit(
                        "stream.quarantined", chunk=chunk.index, intervals=n,
                    )
                self._quarantine_block(n)
                self._next_offset = end
            else:
                clean = np.asarray(clean, dtype=np.float64).ravel()
                repaired = int(report.n_repaired)
                if repaired:
                    self._repaired_values += repaired
                    self._c_repaired.inc(repaired)
                if stalled:
                    rec = StreamStalled(
                        chunk_index=chunk.index,
                        offset=chunk.offset,
                        gap_s=float(gap_s),
                        deadline_s=float(cfg.deadline_s),
                        intervals_held=n,
                    )
                    self.stalls.append(rec)
                    self._c_stalls.inc()
                    logger.warning(
                        "stream stalled: chunk %d arrived %.1fs late "
                        "(deadline %.1fs) — holding last decision",
                        chunk.index, gap_s, cfg.deadline_s,
                    )
                    if _events.enabled():
                        _events.emit("stream.stalled", **asdict(rec))
                    self._hold_block(clean)
                else:
                    self._serve_values(clean)
                self._next_offset = end

        if (
            self.config.checkpoint_dir is not None
            and cfg.checkpoint_every
            and self._chunks_processed % cfg.checkpoint_every == 0
        ):
            self._checkpoint()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _identity(self) -> dict:
        """Config echo a checkpoint must match before it may restore."""
        cfg = self.config
        return {
            "predictor": getattr(
                self.predictor, "name", type(self.predictor).__name__
            ),
            "chunk_size": cfg.chunk_size,
            "size_jitter": cfg.size_jitter,
            "interval_s": cfg.interval_s,
            "arrival_jitter_s": cfg.arrival_jitter_s,
            "seed": cfg.seed,
            "deadline_s": cfg.deadline_s,
            "queue_capacity": cfg.queue_capacity,
            "service_time_per_interval": cfg.service_time_per_interval,
            "history_window": cfg.history_window,
            "sanitizer_policy": self.sanitizer.policy,
            "refit_every": self.refit_every,
            "initial_len": self._initial_len,
            "monitored": self.monitor is not None,
            "controlled": self.controller is not None,
        }

    def _checkpoint(self) -> None:
        d = Path(self.config.checkpoint_dir)
        d.mkdir(parents=True, exist_ok=True)
        done, n = self._sidecar_n, self._n
        _append_sidecar(d / _SCHEDULE_FILE, done * 8, self._sched_buf[done:n])
        _append_sidecar(d / _ACTUALS_FILE, done * 8, self._act_buf[done:n])
        self._sidecar_n = n
        controller = self.controller
        if controller is not None:
            new = controller.decisions[self._log_rows :]
            rows = "".join(
                json.dumps(dec.to_row()) + "\n" for dec in new
            ).encode()
            _append_sidecar(d / _DECISIONS_FILE, self._log_bytes, rows)
            self._log_rows += len(new)
            self._log_bytes += len(rows)

        self._checkpoints_written += 1
        self._c_ckpt.inc()
        components = dump(self, _COMPONENTS)
        components["controller"] = (
            controller.control_state_dict() if controller is not None else None
        )
        tail = self._history_view()
        state = {
            "schema": CHECKPOINT_SCHEMA,
            "identity": self._identity(),
            "cursor": dump(self, _CURSOR),
            "degrade": dump(self, _DEGRADE),
            "history": {"hex": tail.tobytes().hex()},
            "components": components,
            "counters": serving_counters(),
            "sidecar": {
                "n": self._n,
                "decision_rows": self._log_rows,
                "decision_bytes": self._log_bytes,
            },
        }
        path = d / _CHECKPOINT_FILE
        tmp = d / (_CHECKPOINT_FILE + ".tmp")
        try:
            with open(tmp, "w") as fh:
                # json.dumps runs the C encoder; json.dump never does.
                fh.write(json.dumps(state))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        if _events.enabled():
            _events.emit(
                "stream.checkpoint",
                chunks=self._chunks_processed, intervals=self._n,
            )

    def restore(self, directory: str | Path | None = None) -> bool:
        """Restore from a checkpoint directory; ``False`` = no checkpoint.

        A missing ``checkpoint.json`` is a fresh start (a crash before
        the first checkpoint resumes trivially); anything unusable —
        corrupt JSON, schema mismatch, identity mismatch, sidecars
        shorter than the checkpoint claims — raises
        :class:`CheckpointError` rather than serving from wrong state.
        """
        target = directory if directory is not None else self.config.checkpoint_dir
        if target is None:
            raise CheckpointError("no checkpoint directory configured")
        d = Path(target)
        path = d / _CHECKPOINT_FILE
        if not path.exists():
            logger.warning("no checkpoint at %s — starting fresh", path)
            return False
        try:
            state = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc

        schema = state.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint schema {schema!r} at {path} does not match "
                f"supported version {CHECKPOINT_SCHEMA}"
            )
        ident = self._identity()
        saved_ident = state.get("identity") or {}
        if saved_ident != ident:
            diff = sorted(
                k for k in set(ident) | set(saved_ident)
                if saved_ident.get(k) != ident.get(k)
            )
            raise CheckpointError(
                f"checkpoint identity mismatch on {diff}: the resuming "
                "server is configured differently from the one that wrote "
                f"{path}"
            )

        sidecars = state["sidecar"]
        n = int(sidecars["n"])
        self._reserve(max(0, n - self._n))
        for fname, buf in (
            (_SCHEDULE_FILE, self._sched_buf),
            (_ACTUALS_FILE, self._act_buf),
        ):
            blob = _read_sidecar(d / fname, n * 8)
            buf[:n] = np.frombuffer(blob, dtype=np.float64)
        self._n = n
        self._sidecar_n = n

        rows_n = int(sidecars["decision_rows"])
        nbytes = int(sidecars["decision_bytes"])
        rows: list = []
        if rows_n:
            sidecar = d / _DECISIONS_FILE
            lines = _read_sidecar(sidecar, nbytes).splitlines()
            try:
                rows = [json.loads(line) for line in lines]
            except ValueError as exc:
                raise CheckpointError(
                    f"corrupt sidecar {sidecar}: {exc}"
                ) from exc
            if len(rows) != rows_n:
                raise CheckpointError(
                    f"sidecar {sidecar} holds {len(rows)} decisions, "
                    f"checkpoint claims {rows_n}"
                )
        self._log_rows = rows_n
        self._log_bytes = nbytes

        hist = np.frombuffer(
            bytes.fromhex(state["history"]["hex"]), dtype=np.float64
        )
        self._hbuf[: hist.size] = hist
        self._hlen = int(hist.size)

        load(self, _CURSOR, state["cursor"])
        load(self, _DEGRADE, state["degrade"])

        components = state["components"]
        try:
            load(self, _COMPONENTS, components)
            if self.controller is not None:
                self.controller.load_state_dict(
                    {**components["controller"], "decisions": rows}
                )
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint state does not fit the configured components: {exc}"
            ) from exc

        # Counters are monotonic, so restoration is by delta: in a fresh
        # process every counter starts at 0 and lands exactly on the
        # checkpointed value, keeping ServingReport.serving_counters
        # bit-for-bit with an uninterrupted run.
        for name, value in state["counters"].items():
            c = _metrics.counter(name)
            delta = float(value) - c.value
            if delta > 0:
                c.inc(delta)

        self._restored = True
        logger.info(
            "resumed from %s: %d chunks, %d intervals, cursor at offset %d",
            path, self._chunks_processed, self._n, self._next_offset,
        )
        return True

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """The ``stream`` section of the final :class:`ServingReport`."""
        return {
            "chunks": self._chunks_processed,
            "intervals": self._n,
            "served_intervals": self._served_intervals,
            "held_intervals": self._held_intervals,
            "gap_intervals": self._gap_intervals,
            "shed_chunks": self._shed_chunks,
            "shed_intervals": self._shed_intervals,
            "quarantined_chunks": len(self.quarantine),
            "quarantined_intervals": self._quarantined_intervals,
            "repaired_values": self._repaired_values,
            "stalls": [asdict(s) for s in self.stalls],
            "queue_peak_intervals": self._queue_peak,
            "checkpoints_written": self._checkpoints_written,
            "quarantine": list(self.quarantine),
        }

    def finish(self) -> ServingReport:
        """Final checkpoint, simulator replay, and report assembly."""
        if self._n == 0:
            raise ValueError("no intervals were served (empty stream?)")
        if self.config.checkpoint_dir is not None and self._n > self._sidecar_n:
            # Final checkpoint — skipped when the last periodic one already
            # covers everything (also makes resuming a *finished* run a
            # clean no-op with an identical report).
            self._checkpoint()
        return simulate_report(
            self.predictor,
            self._act_buf[: self._n].copy(),
            self._sched_buf[: self._n].copy(),
            spec=self.spec,
            seed=self.seed,
            monitor=self.monitor,
            controller=self.controller,
            stream=self.summary(),
        )

    def run(self, chunks: Iterable[StreamChunk]) -> ServingReport:
        """Ingest every chunk, then :meth:`finish`.

        With ``config.resume`` set, :meth:`restore` runs first and the
        replayed chunks the checkpoint already covers are skipped.
        """
        if self.config.resume and not self._restored:
            self.restore()
        for chunk in chunks:
            self._ingest(chunk)
        return self.finish()
