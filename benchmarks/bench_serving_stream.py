"""Serving-stream throughput and monitoring overhead.

Drives ~1M synthetic intervals through the full online pipeline —
sanitize → guard → monitor → simulate — and answers the two questions
the monitoring PR must not regress:

1. **Streaming capacity** (``test_stream_throughput``): how many
   intervals/second the monitored serving path sustains end to end,
   including trace sanitization, the guarded fallback chain, per-interval
   quality/drift/SLO scoring, and the cloud simulator replay.  Uses a
   persistence primary so the number measures the *pipeline*, not model
   inference.  The regime shift planted in the trace must latch the
   drift detectors — a throughput run that outruns its own monitoring
   would be meaningless.
2. **Monitor overhead** (``test_monitor_overhead``): the wall-clock cost
   of attaching a :class:`~repro.obs.monitor.monitor.ForecastMonitor`
   to a realistically-priced deployment (a trained LoadDynamics
   predictor behind the guard), measured as monitored vs unmonitored
   ``serve_and_simulate`` over the same trace.  Budget: **<= 10%**
   (asserted in full mode; quick mode only validates the harness).
3. **Steady-state pipeline rate** (``test_pipeline_throughput``): the
   trace arrives in chunks, as it would from a metrics scraper, into
   the production :class:`~repro.serving.stream.StreamingServer` — each
   chunk is sanitized on arrival, every revealed interval is served
   through the guard and scored by the monitor, and the full schedule
   replays through the cloud simulator at the end.  The headline
   ``bench.serving.pipeline_intervals_per_s`` excludes the warmup chunk
   (guard fit, cold caches) so it measures the rate a long-lived
   deployment actually sustains.  The replay's own rate is
   ``bench.serving.cloudsim_jobs_per_s`` (simulated jobs per second).

4. **Checkpoint overhead** (``test_chunked_checkpoint_overhead``): the
   crash-safe streaming runtime (:class:`~repro.serving.stream.
   StreamingServer`) with atomic checkpoints every ``K=100`` chunks vs
   the same chunked run with checkpointing off.  The schedule must be
   bit-for-bit identical either way, and the durability tax is budgeted
   at **<= 10%** throughput (asserted in full mode).  Also records the
   chunked runtime's own rate, ``bench.serving.chunked_intervals_per_s``.

5. **Controlled checkpoint cost** (``test_controlled_checkpoint_cost``):
   the chunked run again, now with the
   :class:`~repro.autoscale.controller.HybridController` a production
   stream runs with, whose decision log grows by one row per interval.
   Each checkpoint appends only the rows, intervals and state that are
   new, so ``bench.serving.checkpoint_ms`` (median per-checkpoint
   wall-clock) must not grow with the stream: the last quarter of the
   checkpoints may cost at most **2x** the first quarter (medians).

Every measurement is recorded under ``bench.serving.*`` and dumped to
``BENCH_serving.json`` — the artifact future serving/monitoring PRs
diff against.  Set ``REPRO_BENCH_QUICK=1`` for the CI smoke run (small
interval counts, tiny fit).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.autoscale import HybridController
from repro.core import FrameworkSettings, LoadDynamics, search_space_for
from repro.obs import metrics as _metrics
from repro.obs.monitor import ForecastMonitor, SLOTracker
from repro.serving import (
    GuardedPredictor,
    StreamConfig,
    StreamingServer,
    TraceSanitizer,
    chunk_stream,
    serve_and_simulate,
)
from repro.baselines.naive import LastValuePredictor

# Redirectable so smoke runs don't clobber the committed perf trajectory.
ARTIFACT = Path(
    os.environ.get(
        "REPRO_BENCH_ARTIFACT_DIR", Path(__file__).resolve().parent.parent
    )
) / "BENCH_serving.json"

#: Quick mode: enough intervals to exercise every pipeline stage and
#: validate the artifact schema, nowhere near enough for stable rates.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
N_STREAM = 20_000 if QUICK else 1_000_000
N_OVERHEAD = 12_000 if QUICK else 200_000
#: Prefix the deployed predictor trains on in the overhead test.
FIT_PREFIX = 2_000


def _synthetic_trace(n: int, *, seed: int, shift_frac: float = 0.6) -> np.ndarray:
    """A noisy daily cycle with a planted regime shift and NaN gaps.

    The level shift at ``shift_frac`` is what the drift detectors must
    catch; the NaN gaps give the sanitizer real work so the measured
    pipeline includes stage one.
    """
    rng = np.random.default_rng(seed)
    x = np.arange(n, dtype=np.float64)
    trace = np.abs(np.sin(x / 288.0)) * 400.0 + 100.0 + rng.normal(0.0, 5.0, n)
    trace[int(n * shift_frac):] *= 3.0
    gaps = rng.choice(n, size=max(n // 500, 1), replace=False)
    trace[gaps] = np.nan
    return trace


@pytest.fixture(scope="module", autouse=True)
def bench_artifact():
    """Write the ``bench.serving.*`` metrics to BENCH_serving.json."""
    yield
    report = obs.summary()
    metrics = {
        name: snap
        for name, snap in report["metrics"].items()
        if name.startswith("bench.serving.")
    }
    if not metrics:
        return
    ARTIFACT.write_text(
        json.dumps({"schema": report["schema"], "metrics": metrics}, indent=2)
        + "\n",
        encoding="utf-8",
    )


def _serve(trace: np.ndarray, start: int, predictor, monitor):
    """One timed pass of the guard→monitor→simulate pipeline."""
    guarded = GuardedPredictor(predictor)
    t0 = time.perf_counter()
    report = serve_and_simulate(
        guarded, trace, start, refit_every=10**9, monitor=monitor
    )
    return time.perf_counter() - t0, report


def test_stream_throughput():
    """~1M intervals through sanitize→guard→monitor→simulate."""
    raw = _synthetic_trace(N_STREAM, seed=7)
    start = min(2_000, N_STREAM // 10)

    t0 = time.perf_counter()
    trace, san_report = TraceSanitizer(policy="interpolate").sanitize(raw)
    sanitize_s = time.perf_counter() - t0
    assert san_report.n_repaired > 0, "the planted NaN gaps must be repaired"

    monitor = ForecastMonitor(
        slo=SLOTracker(latency_slo_ms=5.0, accuracy_slo_mape=50.0)
    )
    serve_s, report = _serve(trace, start, LastValuePredictor(), monitor)

    n_served = N_STREAM - start
    total_s = sanitize_s + serve_s
    ips = n_served / total_s
    obs.gauge("bench.serving.stream_intervals").set(float(n_served))
    obs.gauge("bench.serving.stream_intervals_per_s").set(ips)
    obs.gauge("bench.serving.sanitize_s").set(sanitize_s)

    # Per-prediction latency percentiles from the monitor's own histogram
    # — the same numbers `repro metrics` exposes in production.
    lat = _metrics.histogram("monitor.latency_ms").snapshot()
    obs.gauge("bench.serving.predict_p50_ms").set(lat["p50"])
    obs.gauge("bench.serving.predict_p99_ms").set(lat["p99"])

    assert report.drifted, "the planted regime shift must latch a detector"
    assert report.health is not None and report.health["status"] != "healthy"
    print(f"\n[serving-stream] {n_served:,} intervals in {total_s:.1f}s "
          f"= {ips:,.0f} intervals/s "
          f"(predict p50 {lat['p50']:.4f} ms, p99 {lat['p99']:.4f} ms)")


def test_pipeline_throughput():
    """Chunked streaming through the whole stack, steady-state rate.

    Unlike ``test_stream_throughput`` (one bulk sanitize, then a serve
    pass), this drives the production :class:`StreamingServer` the way
    an online deployment runs it: per-chunk sanitization interleaved
    with per-interval guarded prediction and monitor scoring, simulator
    replay at the end, no checkpoints.  A chunk's time runs from its pull
    to the next pull; the first chunk is warmup (guard fit, allocator
    and cache cold-start) and is excluded from the steady-state rate.
    """
    raw = _synthetic_trace(N_STREAM, seed=23)
    start = min(2_000, N_STREAM // 10)
    chunk_size = max(N_STREAM // 32, start)
    perf = time.perf_counter

    sanitizer = TraceSanitizer(policy="interpolate")
    warmup, _ = sanitizer.sanitize(raw[:start])
    config = StreamConfig(chunk_size=chunk_size, checkpoint_dir=None)
    server = StreamingServer(
        GuardedPredictor(LastValuePredictor()), warmup, config=config,
        sanitizer=sanitizer,
        # Streams are scored untimed, so only the accuracy SLO applies.
        monitor=ForecastMonitor(slo=SLOTracker(accuracy_slo_mape=50.0)),
        refit_every=10**9,
    )
    pulls: list[float] = []
    sizes: list[int] = []

    def timed(chunks):
        for chunk in chunks:
            pulls.append(perf())
            sizes.append(chunk.values.size)
            yield chunk
        pulls.append(perf())

    report = server.run(timed(chunk_stream(raw[start:], config=config)))
    simulate_s = perf() - pulls[-1]

    n_served = N_STREAM - start
    assert report.stream["repaired_values"] > 0, \
        "the planted NaN gaps must be repaired"
    assert report.stream["served_intervals"] == n_served
    assert report.drifted, "the planted regime shift must latch a detector"
    result = report.result
    assert result.n_intervals == n_served
    assert np.isfinite(result.underprovision_rate)
    sim_jobs = float(result.arrivals.sum())

    chunk_s = np.diff(pulls)
    steady = slice(1, None) if len(sizes) > 1 else slice(None)
    ips = sum(sizes[steady]) / float(chunk_s[steady].sum())
    obs.gauge("bench.serving.pipeline_intervals").set(float(n_served))
    obs.gauge("bench.serving.pipeline_intervals_per_s").set(ips)
    obs.gauge("bench.serving.pipeline_simulate_s").set(simulate_s)
    obs.gauge("bench.serving.cloudsim_jobs_per_s").set(sim_jobs / simulate_s)
    print(f"\n[serving-stream] pipeline: {n_served:,} intervals, steady-state "
          f"{ips:,.0f} intervals/s over {len(sizes[steady])} chunks "
          f"(simulate {simulate_s:.2f}s, {sim_jobs / simulate_s:,.0f} jobs/s)")


def test_chunked_checkpoint_overhead(tmp_path):
    """Crash-safe checkpoints every K=100 chunks must cost <= 10%."""
    n = 20_000 if QUICK else 200_000
    raw = _synthetic_trace(n, seed=31)
    start = min(2_000, n // 10)

    def chunked_run(ckpt_dir):
        guarded = GuardedPredictor(LastValuePredictor())
        # Streams are scored untimed, so only the accuracy objective.
        monitor = ForecastMonitor(slo=SLOTracker(accuracy_slo_mape=50.0))
        cfg = StreamConfig(
            chunk_size=256, seed=3, checkpoint_every=100,
            checkpoint_dir=ckpt_dir,
        )
        t0 = time.perf_counter()
        report = serve_and_simulate(
            guarded, raw, start, refit_every=10**9, monitor=monitor,
            stream=cfg, sanitizer=TraceSanitizer(policy="interpolate"),
        )
        return time.perf_counter() - t0, report

    # Interleaved best-of-two: a single A/B pair is dominated by cache
    # and allocator transients (the first run is routinely the slower
    # one regardless of configuration).
    base_s, base = chunked_run(None)
    ckpt_s, ckpt = chunked_run(str(tmp_path / "ckpt"))
    if not QUICK:
        base_s = min(base_s, chunked_run(None)[0])
        ckpt_s = min(ckpt_s, chunked_run(str(tmp_path / "ckpt2"))[0])

    # Durability must be free of *behaviour*: the checkpointed run serves
    # the exact same schedule, it only also persists it.
    assert np.array_equal(base.schedule, ckpt.schedule)
    assert base.stream["checkpoints_written"] == 0
    assert ckpt.stream["checkpoints_written"] >= 1
    assert (tmp_path / "ckpt" / "checkpoint.json").exists()
    assert base.stream["repaired_values"] > 0, \
        "the planted NaN gaps must be repaired chunk by chunk"

    n_served = n - start
    overhead_pct = 100.0 * (ckpt_s - base_s) / base_s
    obs.gauge("bench.serving.chunked_intervals_per_s").set(n_served / base_s)
    obs.gauge("bench.serving.checkpoint_overhead_pct").set(overhead_pct)
    print(f"\n[serving-stream] chunked: {n_served / base_s:,.0f} intervals/s; "
          f"checkpoint overhead {overhead_pct:+.1f}% "
          f"({ckpt.stream['checkpoints_written']} checkpoints)")
    if not QUICK:
        # Quick mode writes a single checkpoint over a short run — noise.
        assert overhead_pct <= 10.0, (
            f"checkpointing cost {overhead_pct:.1f}% of chunked serving "
            "(budget: 10%)"
        )


def test_controlled_checkpoint_cost(tmp_path):
    """Per-checkpoint cost is O(new intervals), not O(intervals served)."""
    n = 20_000 if QUICK else 200_000
    raw = _synthetic_trace(n, seed=37)
    start = min(2_000, n // 10)
    cfg = StreamConfig(
        chunk_size=64 if QUICK else 256, seed=3, checkpoint_every=10,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    server = StreamingServer(
        GuardedPredictor(LastValuePredictor()), raw[:start], config=cfg,
        sanitizer=TraceSanitizer(policy="interpolate"),
        monitor=ForecastMonitor(slo=SLOTracker(accuracy_slo_mape=50.0)),
        controller=HybridController(),
    )
    costs: list[float] = []
    checkpoint = server._checkpoint

    def timed_checkpoint():
        t0 = time.perf_counter()
        checkpoint()
        costs.append(time.perf_counter() - t0)

    server._checkpoint = timed_checkpoint
    report = server.run(chunk_stream(raw[start:], config=cfg))

    assert report.stream["intervals"] == n - start
    assert report.controller["n_decisions"] == report.stream["served_intervals"]
    assert len(costs) == report.stream["checkpoints_written"] >= 20
    ms = np.asarray(costs) * 1e3
    # Medians of the first and last quarter: a single checkpoint is a
    # few ms, and one fsync or scheduler hiccup would swamp it.
    q = ms.size // 4
    first, last = float(np.median(ms[:q])), float(np.median(ms[-q:]))
    obs.gauge("bench.serving.checkpoint_ms").set(float(np.median(ms)))
    print(f"\n[serving-stream] controlled checkpoints: {ms.size} written, "
          f"median {np.median(ms):.2f} ms (first {first:.2f} ms, "
          f"last {last:.2f} ms)")
    assert last <= 2.0 * first, (
        f"checkpoint cost grew with the stream: {first:.2f} ms -> "
        f"{last:.2f} ms (budget: 2x)"
    )


def test_monitor_overhead():
    """Monitoring a deployed model must cost <= 10% end to end."""
    raw = _synthetic_trace(N_OVERHEAD, seed=11)
    trace, _ = TraceSanitizer(policy="interpolate").sanitize(raw)
    start = FIT_PREFIX

    ld = LoadDynamics(
        space=search_space_for("default", "tiny"),
        settings=FrameworkSettings.tiny(max_iters=2, epochs=4),
    )
    primary, _ = ld.fit(trace[:start])

    def monitored():
        return ForecastMonitor(
            slo=SLOTracker(latency_slo_ms=5.0, accuracy_slo_mape=50.0)
        )

    # Interleaved best-of-two, for the same reason as the checkpoint
    # test: one A/B pair confounds the monitor's cost with warmup.
    base_s, base_report = _serve(trace, start, primary, None)
    mon_s, mon_report = _serve(trace, start, primary, monitored())
    if not QUICK:
        base_s = min(base_s, _serve(trace, start, primary, None)[0])
        mon_s = min(mon_s, _serve(trace, start, primary, monitored())[0])

    # The monitored walk must not change what is served: the schedule is
    # the same bit-for-bit (the monitor only *observes* the stream).
    assert np.array_equal(base_report.schedule, mon_report.schedule)
    assert mon_report.drifted, "a frozen model must drift across the shift"

    n_served = N_OVERHEAD - start
    overhead_pct = 100.0 * (mon_s - base_s) / base_s
    obs.gauge("bench.serving.baseline_intervals_per_s").set(n_served / base_s)
    obs.gauge("bench.serving.monitored_intervals_per_s").set(n_served / mon_s)
    obs.gauge("bench.serving.monitor_overhead_pct").set(overhead_pct)
    print(f"\n[serving-stream] monitor overhead: {overhead_pct:+.1f}% "
          f"({base_s:.1f}s -> {mon_s:.1f}s over {n_served:,} intervals)")
    if not QUICK:
        # Quick mode runs too few intervals for the ratio to be signal.
        assert overhead_pct <= 10.0, (
            f"monitoring cost {overhead_pct:.1f}% of the serving path "
            "(budget: 10%)"
        )
