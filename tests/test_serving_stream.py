"""Crash-safe streaming serving: chunking, degradation, resume parity.

Two families of guarantees:

* **state round-trips** — every stateful serving component
  (`state_dict()`/`load_state_dict()`) must survive a
  serialize-through-JSON/restore cycle *bit-for-bit*, and a restored
  instance must behave identically to the original from that point on.
  These are hypothesis properties over random event streams.
* **stream semantics** — chunked ingestion is deterministic; drop /
  stall / shed / quarantine each degrade exactly the affected intervals;
  and the headline guarantee: kill mid-stream + resume produces a
  bit-for-bit identical provisioning schedule and ServingReport.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autoscale.controller import HybridController
from repro.obs.metrics import reset_metrics
from repro.obs.monitor.drift import CusumDetector, PageHinkleyDetector
from repro.obs.monitor.monitor import ForecastMonitor
from repro.obs.monitor.quality import QualityTracker
from repro.obs.monitor.slo import SLOTracker
from repro.resilience import faults as _faults
from repro.serving import (
    CheckpointError,
    CircuitBreaker,
    GuardedPredictor,
    StreamConfig,
    StreamingServer,
    TraceSanitizer,
    chunk_stream,
    default_fallbacks,
    serve_and_simulate,
)
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN


def _json_roundtrip(state: dict) -> dict:
    """Force the state through the same JSON layer checkpoints use."""
    return json.loads(json.dumps(state))


def _canon(state: dict) -> str:
    """Canonical JSON form — NaN-safe (``nan != nan`` breaks dict ==)."""
    return json.dumps(state, sort_keys=True)


# ----------------------------------------------------------------------
# state_dict round-trips (hypothesis properties)
# ----------------------------------------------------------------------
class TestStateRoundTrips:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["ok", "fail", "allow"]), max_size=60))
    def test_breaker_roundtrip_continues_identically(self, events):
        a = CircuitBreaker(window=8, min_calls=3, cooldown=4, probes=2)
        for ev in events:
            if ev == "allow":
                a.allow()
            elif ev == "ok":
                a.record_success()
            else:
                a.record_failure()
        state = _json_roundtrip(a.state_dict())
        b = CircuitBreaker(window=8, min_calls=3, cooldown=4, probes=2)
        b.load_state_dict(state)
        assert b.state_dict() == a.state_dict()
        # A restored breaker must behave identically from here on.
        for _ in range(30):
            assert a.allow() == b.allow()
            a.record_failure(); b.record_failure()
            assert a.state == b.state
        assert a.transitions == b.transitions

    def test_breaker_halfopen_probe_accounting_survives(self):
        """The satellite case: restore mid-probation, finish the probes."""
        br = CircuitBreaker(window=4, min_calls=2, cooldown=2, probes=3)
        br.record_failure(); br.record_failure()          # -> open
        assert br.state == OPEN
        assert not br.allow()                              # denial 1 of 2
        assert br.allow()                                  # cooldown elapses
        assert br.state == HALF_OPEN
        br.record_success()                                # probe 1 of 3
        restored = CircuitBreaker(window=4, min_calls=2, cooldown=2, probes=3)
        restored.load_state_dict(_json_roundtrip(br.state_dict()))
        assert restored.state == HALF_OPEN
        assert restored._probe_successes == 1
        restored.record_success()
        assert restored.state == HALF_OPEN                 # 2 of 3: still probing
        restored.record_success()
        assert restored.state == CLOSED                    # 3 of 3: closes
        assert restored.transitions == [
            (CLOSED, OPEN, "failure_rate"),
            (OPEN, HALF_OPEN, "cooldown_elapsed"),
            (HALF_OPEN, CLOSED, "probes_passed"),
        ]

    def test_breaker_rejects_garbage(self):
        br = CircuitBreaker(window=4, min_calls=2)
        with pytest.raises(ValueError):
            br.load_state_dict({"state": "melted", "outcomes": [],
                                "denied": 0, "probe_successes": 0,
                                "transitions": []})
        with pytest.raises(ValueError):
            br.load_state_dict({"state": CLOSED, "outcomes": [True] * 9,
                                "denied": 0, "probe_successes": 0,
                                "transitions": []})

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1e4, allow_nan=False),
                st.floats(0.0, 1e4, allow_nan=False),
            ),
            max_size=50,
        )
    )
    def test_quality_tracker_roundtrip(self, pairs):
        a = QualityTracker(window=16)
        for p, t in pairs:
            a.update(p, t)
        b = QualityTracker(window=16)
        b.load_state_dict(_json_roundtrip(a.state_dict()))
        assert b.state_dict() == a.state_dict()
        assert b.snapshot() == a.snapshot()
        for p, t in pairs[:10]:
            assert a.update(p + 1.0, t) == b.update(p + 1.0, t)
        assert b.snapshot() == a.snapshot()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 500.0, allow_nan=False), max_size=80))
    def test_drift_detector_roundtrips(self, apes):
        for make in (CusumDetector, PageHinkleyDetector):
            a, b = make(), make()
            for ape in apes:
                a.update(ape)
            b.load_state_dict(_json_roundtrip(a.state_dict()))
            assert b.state_dict() == a.state_dict()
            for ape in apes[:20]:
                a.update(ape * 2.0)
                b.update(ape * 2.0)
            assert b.state_dict() == a.state_dict()
            assert b.snapshot() == a.snapshot()

    def test_drift_detector_name_mismatch_rejected(self):
        state = CusumDetector().state_dict()
        with pytest.raises(ValueError):
            PageHinkleyDetector().load_state_dict(state)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 2.0, allow_nan=False),
                st.floats(0.0, 200.0, allow_nan=False),
            ),
            max_size=60,
        )
    )
    def test_slo_tracker_roundtrip(self, pairs):
        def make():
            return SLOTracker(
                latency_slo_ms=100.0, accuracy_slo_mape=25.0,
                window=12, min_intervals=5,
            )

        a = make()
        for lat, ape in pairs:
            a.update(latency_s=lat, ape=ape)
        b = make()
        b.load_state_dict(_json_roundtrip(a.state_dict()))
        assert b.state_dict() == a.state_dict()
        assert b.snapshot() == a.snapshot()

    def test_slo_objective_mismatch_rejected(self):
        saved = SLOTracker(latency_slo_ms=10.0).state_dict()
        with pytest.raises(ValueError):
            SLOTracker(accuracy_slo_mape=30.0).load_state_dict(saved)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1e3, allow_nan=False),
                st.floats(0.0, 1e3, allow_nan=False),
            ),
            max_size=60,
        )
    )
    def test_monitor_composed_roundtrip(self, pairs):
        def make():
            return ForecastMonitor(
                quality=QualityTracker(window=16),
                slo=SLOTracker(accuracy_slo_mape=30.0, window=8),
            )

        a = make()
        for p, t in pairs:
            a.observe(p, t, latency_s=None)
        b = make()
        b.load_state_dict(_json_roundtrip(a.state_dict()))
        assert b.state_dict() == a.state_dict()
        for p, t in pairs[:15]:
            assert a.observe(p, t) == b.observe(p, t)
        assert a.drifted == b.drifted

    def test_monitor_detector_count_mismatch_rejected(self):
        saved = ForecastMonitor(detectors=[CusumDetector()]).state_dict()
        with pytest.raises(ValueError):
            ForecastMonitor(detectors=[]).load_state_dict(saved)
        saved = ForecastMonitor(detectors=[], slo=SLOTracker(
            accuracy_slo_mape=10.0)).state_dict()
        with pytest.raises(ValueError):
            ForecastMonitor(detectors=[]).load_state_dict(saved)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.floats(-50.0, 400.0, allow_nan=False), min_size=5, max_size=60
        ),
        st.integers(0, 4),
    )
    def test_controller_roundtrip_continues_identically(self, targets, nan_every):
        def make():
            return HybridController(drift_detector=PageHinkleyDetector())

        series = np.abs(np.asarray(targets, dtype=np.float64))
        a = make()
        for i in range(1, series.size):
            f = math.nan if nan_every and i % (nan_every + 1) == 0 else series[i - 1]
            a.step(f, series[:i])
        b = make()
        b.load_state_dict(_json_roundtrip(a.state_dict()))
        assert _canon(b.state_dict()) == _canon(a.state_dict())
        for i in range(1, series.size):
            da = a.step(series[i - 1] * 1.1, series[:i])
            db = b.step(series[i - 1] * 1.1, series[:i])
            assert da == db
        assert _canon(a.state_dict()) == _canon(b.state_dict())

    def test_controller_error_window_overflow_rejected(self):
        a = HybridController()
        state = a.state_dict()
        state["errors"] = [1.0] * (a.config.error_window + 1)
        with pytest.raises(ValueError):
            HybridController().load_state_dict(state)

    def test_guarded_predictor_roundtrip(self):
        a = GuardedPredictor(None, fallbacks=default_fallbacks(4))
        h = np.abs(np.sin(np.arange(40, dtype=np.float64))) * 10 + 1
        for i in range(10, 40):
            a.predict_next(h[:i])
        a._drift_shift = 1.5
        b = GuardedPredictor(None, fallbacks=default_fallbacks(4))
        b.load_state_dict(_json_roundtrip(a.state_dict()))
        assert b.state_dict() == a.state_dict()
        assert b.served_by == a.served_by
        assert b.predict_next(h) == a.predict_next(h)

    def test_guarded_predictor_primary_state_mismatch_rejected(self):
        state = GuardedPredictor(None).state_dict()
        state["primary"] = {"anything": 1}
        with pytest.raises(ValueError):
            GuardedPredictor(None).load_state_dict(state)

    def test_adaptive_bookkeeping_roundtrip(self):
        from repro.core import AdaptiveLoadDynamics

        def make():
            return AdaptiveLoadDynamics(
                drift_window=6, drift_factor=2.0, min_refit_gap=10,
                refit_on_drift=CusumDetector(),
            )

        a = make()
        a.refit_history = [30, 60]
        a.failed_refits = 1
        a.drift_refits = 2
        a._recent_errors.extend([5.0, 7.5, 40.0])
        a._last_pred = 123.25
        a._last_len = 61
        a._since_refit = 3
        a._best_val_mape = 8.125
        for ape in (4.0, 5.0, 6.0, 90.0):
            a.refit_on_drift.update(ape)
        b = make()
        b.load_state_dict(_json_roundtrip(a.state_dict()))
        assert b.state_dict() == a.state_dict()
        assert b.predictor is None  # bookkeeping-only restore

    def test_adaptive_error_window_overflow_rejected(self):
        from repro.core import AdaptiveLoadDynamics

        a = AdaptiveLoadDynamics(drift_window=4)
        state = a.state_dict()
        state["recent_errors"] = [1.0] * 5
        with pytest.raises(ValueError):
            AdaptiveLoadDynamics(drift_window=4).load_state_dict(state)


# ----------------------------------------------------------------------
# chunked ingestion semantics
# ----------------------------------------------------------------------
def _diurnal(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    return np.clip(
        100 + 30 * np.sin(2 * np.pi * t / 48) + rng.normal(0, 5, n), 0, None
    )


def _stream_run(
    trace: np.ndarray,
    start: int,
    *,
    ckpt: str | None = None,
    resume: bool = False,
    faults: str | None = None,
    sanitizer: TraceSanitizer | None = None,
    monitor: bool = True,
    controller: bool = False,
    **cfg_kwargs,
):
    """One full streamed run with a fresh metrics registry."""
    reset_metrics()
    predictor = GuardedPredictor(None, fallbacks=default_fallbacks(48))
    mon = (
        ForecastMonitor(slo=SLOTracker(accuracy_slo_mape=30.0))
        if monitor else None
    )
    ctl = HybridController() if controller else None
    cfg_kwargs.setdefault("chunk_size", 64)
    cfg_kwargs.setdefault("size_jitter", 8)
    cfg_kwargs.setdefault("seed", 3)
    cfg = StreamConfig(
        checkpoint_dir=ckpt, resume=resume, checkpoint_every=5, **cfg_kwargs
    )
    kwargs = dict(
        spec=None, seed=0, monitor=mon, controller=ctl,
        stream=cfg, sanitizer=sanitizer,
    )
    if faults:
        with _faults.injected(faults):
            return serve_and_simulate(predictor, trace, start, **kwargs)
    return serve_and_simulate(predictor, trace, start, **kwargs)


def _report_fingerprint(rep) -> tuple:
    """Everything observable about a run, JSON-canonicalized."""
    return (
        rep.schedule.tobytes(),
        json.dumps(
            {
                "counters": rep.serving_counters,
                "served_by": rep.served_by,
                "breaker_state": rep.breaker_state,
                "transitions": rep.breaker_transitions,
                "quality": rep.quality,
                "drift": rep.drift,
                "slo": rep.slo,
                "health": rep.health,
                "controller": rep.controller,
                "stream": rep.stream,
                "provisioned": rep.result.provisioned.tobytes().hex(),
                "arrivals": rep.result.arrivals.tobytes().hex(),
                "vm_seconds": rep.result.vm_seconds,
            },
            sort_keys=True, default=str,
        ),
    )


class TestChunkStream:
    def test_deterministic_and_covering(self):
        trace = _diurnal(500)
        cfg = StreamConfig(chunk_size=32, size_jitter=6, seed=9)
        a = list(chunk_stream(trace, config=cfg))
        b = list(chunk_stream(trace, config=cfg))
        assert [c.offset for c in a] == [c.offset for c in b]
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
        rebuilt = np.concatenate([c.values for c in a])
        np.testing.assert_array_equal(rebuilt, trace)
        arrivals = [c.arrival_s for c in a]
        assert arrivals == sorted(arrivals)

    def test_drop_fault_leaves_offset_gap(self):
        trace = _diurnal(300)
        cfg = StreamConfig(chunk_size=50, seed=1)
        with _faults.injected("drop@stream.chunk:2"):
            chunks = list(chunk_stream(trace, config=cfg))
        offsets = [c.offset for c in chunks]
        assert 50 not in offsets  # second chunk lost
        assert offsets[0] == 0 and offsets[1] == 100

    def test_stall_fault_delays_arrival(self):
        trace = _diurnal(300)
        cfg = StreamConfig(chunk_size=50, seed=1)
        plain = list(chunk_stream(trace, config=cfg))
        with _faults.injected("stall@stream.chunk:2=500"):
            stalled = list(chunk_stream(trace, config=cfg))
        assert stalled[1].arrival_s == pytest.approx(plain[1].arrival_s + 500.0)
        # Monotonic clock: successors never arrive before the stalled chunk.
        assert stalled[2].arrival_s >= stalled[1].arrival_s

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(chunk_size=0)
        with pytest.raises(ValueError):
            StreamConfig(chunk_size=4, size_jitter=4)
        with pytest.raises(ValueError):
            StreamConfig(deadline_s=0.0)
        with pytest.raises(ValueError):
            StreamConfig(service_time_per_interval=-1.0)


class TestStreamingDegradation:
    def test_clean_stream_serves_every_interval(self):
        trace = _diurnal(2000)
        rep = _stream_run(trace, 1000)
        assert rep.stream["intervals"] == 1000
        assert rep.stream["served_intervals"] == 1000
        assert rep.stream["held_intervals"] == 0
        assert rep.schedule.size == 1000
        assert np.all(np.isfinite(rep.schedule))

    def test_latency_slo_is_rejected(self):
        """Streams score their monitor untimed, so a latency objective
        would stay at n=0 and never affect health: refuse it up front."""
        trace = _diurnal(300)
        for slo in (SLOTracker(latency_slo_ms=1e-6),
                    SLOTracker(latency_slo_ms=5.0, accuracy_slo_mape=50.0)):
            with pytest.raises(ValueError, match="latency"):
                serve_and_simulate(
                    GuardedPredictor(None, fallbacks=default_fallbacks(48)),
                    trace, 200, monitor=ForecastMonitor(slo=slo),
                    stream=StreamConfig(chunk_size=50),
                )
        with pytest.raises(ValueError, match="latency"):
            StreamingServer(
                GuardedPredictor(None), trace[:200],
                monitor=ForecastMonitor(slo=SLOTracker(latency_slo_ms=5.0)),
            )

    def test_dropped_chunk_serves_gap_blind(self):
        trace = _diurnal(2000)
        rep = _stream_run(trace, 1000, faults="drop@stream.chunk:3")
        assert rep.stream["intervals"] == 1000  # nothing silently vanishes
        assert rep.stream["gap_intervals"] > 0
        assert rep.stream["held_intervals"] == rep.stream["gap_intervals"]

    def test_stalled_feed_holds_then_recovers(self):
        trace = _diurnal(2000)
        rep = _stream_run(
            trace, 1000, deadline_s=120.0, faults="stall@stream.chunk:4=600",
        )
        assert len(rep.stream["stalls"]) == 1
        stall = rep.stream["stalls"][0]
        assert stall["gap_s"] > stall["deadline_s"]
        assert rep.stream["held_intervals"] == stall["intervals_held"]
        # Recovery: every interval after the stalled chunk served normally.
        assert (
            rep.stream["served_intervals"]
            == 1000 - stall["intervals_held"]
        )
        # Held intervals repeat the pre-stall decision.
        held = rep.schedule[stall["offset"] : stall["offset"]
                            + stall["intervals_held"]]
        assert np.all(held == held[0])

    def test_backpressure_sheds_on_burst(self):
        trace = _diurnal(2000)
        # A long stall piles up a burst; with ~0.9s of work per interval
        # arriving every 1.0s the backlog drains slowly enough that the
        # tiny queue overflows and whole chunks are shed.
        rep = _stream_run(
            trace, 1000,
            deadline_s=None,
            service_time_per_interval=0.9,
            queue_capacity=64,
            faults="stall@stream.chunk:4=600",
        )
        assert rep.stream["shed_chunks"] > 0
        assert rep.stream["queue_peak_intervals"] > 64
        assert rep.stream["intervals"] == 1000

    def test_rejected_chunk_quarantined_and_served_from_fallbacks(self):
        trace = _diurnal(2000)
        trace[1300:1310] = np.nan
        rep = _stream_run(
            trace, 1000, sanitizer=TraceSanitizer(policy="reject"),
        )
        assert rep.stream["quarantined_chunks"] >= 1
        assert all("rejected" in q["reason"] for q in rep.stream["quarantine"])
        assert rep.stream["quarantined_intervals"] == sum(
            q["intervals"] for q in rep.stream["quarantine"]
        )
        assert rep.stream["intervals"] == 1000
        assert np.all(np.isfinite(rep.schedule))

    def test_repair_policy_keeps_chunk_in_service(self):
        trace = _diurnal(2000)
        trace[1300:1310] = np.nan
        rep = _stream_run(
            trace, 1000, sanitizer=TraceSanitizer(policy="interpolate"),
        )
        assert rep.stream["quarantined_chunks"] == 0
        assert rep.stream["repaired_values"] == 10
        assert rep.stream["served_intervals"] == 1000

    def test_seasonality_break_mid_stream_trips_drift(self):
        """A mid-stream period change must flow through monitoring."""
        n = 3000
        t = np.arange(n, dtype=np.float64)
        rng = np.random.default_rng(5)
        trace = 100 + 40 * np.sin(2 * np.pi * t / 48)
        trace[2000:] = 100 + 40 * np.sin(2 * np.pi * t[2000:] / 24)
        trace = np.clip(trace + rng.normal(0, 2, n), 0, None)
        rep = _stream_run(trace, 1000, size_jitter=0)
        assert rep.stream["served_intervals"] == 2000
        assert rep.drifted  # the break must not pass silently
        assert rep.health["status"] in ("degraded", "breached")

    def test_streamed_scenario_fixture(self):
        """The harness's seasonality_break scenario streams end to end."""
        from repro.autoscale.scenarios import SCENARIO_NAMES, default_scenarios

        assert "seasonality_break" in SCENARIO_NAMES
        scen = {
            s.name: s for s in default_scenarios(days=6, serve_days=3, seed=7)
        }["seasonality_break"]
        rep = _stream_run(scen.observed, scen.start, size_jitter=0)
        assert rep.stream["intervals"] == scen.observed.size - scen.start
        assert rep.drifted


class TestBatchStreamParity:
    """Batch walk and chunked stream run the same serving step, so on a
    clean trace the stream sees everything the batch sees (history window
    covering the trace) and must serve identically, bit for bit."""

    @pytest.mark.parametrize("controlled", [False, True])
    def test_stream_matches_batch_bit_for_bit(self, controlled):
        from repro.baselines.naive import SeasonalNaivePredictor

        n, start = 1440, 720
        t = np.arange(n, dtype=np.float64)
        rng = np.random.default_rng(11)
        trace = np.clip(
            200 + 80 * np.sin(2 * np.pi * t / 144) + rng.normal(0, 6, n), 0, None
        )

        def run(stream):
            reset_metrics()
            return serve_and_simulate(
                GuardedPredictor(SeasonalNaivePredictor(144)), trace, start,
                monitor=ForecastMonitor(),
                controller=HybridController() if controlled else None,
                stream=stream,
            )

        batch = run(None)
        streamed = run(StreamConfig(chunk_size=37, history_window=n))
        assert streamed.stream["served_intervals"] == n - start
        assert batch.schedule.tobytes() == streamed.schedule.tobytes()
        for name, value in vars(batch.result).items():
            other = getattr(streamed.result, name)
            if isinstance(value, np.ndarray):
                assert value.tobytes() == other.tobytes(), name
            else:
                assert value == other, name
        assert _canon(batch.quality) == _canon(streamed.quality)


class TestCheckpointResume:
    def test_kill_midstream_resume_bit_for_bit(self, tmp_path):
        trace = _diurnal(3000)
        trace[1500:1505] = np.nan  # exercise the sanitizer on the way
        ref = _stream_run(
            trace, 1000, ckpt=str(tmp_path / "ref"), deadline_s=120.0,
        )
        with pytest.raises(_faults.SimulatedCrash):
            _stream_run(
                trace, 1000, ckpt=str(tmp_path / "crash"), deadline_s=120.0,
                faults="kill@stream.chunk:20",
            )
        resumed = _stream_run(
            trace, 1000, ckpt=str(tmp_path / "crash"), deadline_s=120.0,
            resume=True,
        )
        assert _report_fingerprint(resumed) == _report_fingerprint(ref)

    def test_kill_midstream_resume_with_controller(self, tmp_path):
        trace = _diurnal(2500)
        ref = _stream_run(trace, 1500, ckpt=str(tmp_path / "ref"),
                          controller=True)
        # Chunk k+1 is pulled after k chunks were processed, and
        # checkpoint_every=5: kill 10 lands 4 chunks past a checkpoint,
        # kill 11 right after one.
        for kill_at in (10, 11):
            ckpt = str(tmp_path / f"crash{kill_at}")
            with pytest.raises(_faults.SimulatedCrash):
                _stream_run(trace, 1500, ckpt=ckpt, controller=True,
                            faults=f"kill@stream.chunk:{kill_at}")
            resumed = _stream_run(trace, 1500, ckpt=ckpt, controller=True,
                                  resume=True)
            assert _report_fingerprint(resumed) == _report_fingerprint(ref)

    def test_crash_before_first_checkpoint_restarts_fresh(self, tmp_path):
        trace = _diurnal(2000)
        ref = _stream_run(trace, 1000, ckpt=str(tmp_path / "ref"))
        with pytest.raises(_faults.SimulatedCrash):
            _stream_run(trace, 1000, ckpt=str(tmp_path / "crash"),
                        faults="kill@stream.chunk:2")  # before checkpoint 1
        resumed = _stream_run(trace, 1000, ckpt=str(tmp_path / "crash"),
                              resume=True)
        assert _report_fingerprint(resumed) == _report_fingerprint(ref)

    def test_resume_after_finish_is_idempotent(self, tmp_path):
        trace = _diurnal(2000)
        ref = _stream_run(trace, 1000, ckpt=str(tmp_path / "done"))
        again = _stream_run(trace, 1000, ckpt=str(tmp_path / "done"),
                            resume=True)
        assert _report_fingerprint(again) == _report_fingerprint(ref)

    def test_schema_mismatch_is_typed_error(self, tmp_path):
        trace = _diurnal(2000)
        _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"), controller=True)
        path = tmp_path / "ck" / "checkpoint.json"
        saved = json.loads(path.read_text())
        # Schema 1 inlined the decision log and schema 2 wrote other
        # state keys: both are refused, not read.
        for schema in (1, 2, 99):
            path.write_text(json.dumps({**saved, "schema": schema}))
            with pytest.raises(CheckpointError, match=f"schema {schema}"):
                _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"),
                            controller=True, resume=True)

    def test_component_mismatch_is_typed_error(self, tmp_path):
        """State that does not fit the configured components (here one
        detector where the checkpoint saved two) is refused, typed."""
        trace = _diurnal(2000)
        _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"))
        reset_metrics()
        monitor = ForecastMonitor(
            detectors=[CusumDetector()], slo=SLOTracker(accuracy_slo_mape=30.0)
        )
        cfg = StreamConfig(
            checkpoint_dir=str(tmp_path / "ck"), resume=True,
            checkpoint_every=5, chunk_size=64, size_jitter=8, seed=3,
        )
        with pytest.raises(CheckpointError, match="configured components"):
            serve_and_simulate(
                GuardedPredictor(None, fallbacks=default_fallbacks(48)),
                trace, 1000, monitor=monitor, stream=cfg,
            )

    def test_corrupt_checkpoint_is_typed_error(self, tmp_path):
        trace = _diurnal(2000)
        _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"))
        (tmp_path / "ck" / "checkpoint.json").write_text("{truncated")
        with pytest.raises(CheckpointError, match="unreadable"):
            _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"), resume=True)

    def test_identity_mismatch_is_typed_error(self, tmp_path):
        trace = _diurnal(2000)
        _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"), chunk_size=64)
        with pytest.raises(CheckpointError, match="identity"):
            _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"),
                        resume=True, chunk_size=32)

    def test_truncated_sidecar_is_typed_error(self, tmp_path):
        trace = _diurnal(2000)
        for name in ("schedule.f64", "actuals.f64", "decisions.jsonl"):
            ckpt = tmp_path / name
            _stream_run(trace, 1000, ckpt=str(ckpt), controller=True)
            sidecar = ckpt / name
            sidecar.write_bytes(sidecar.read_bytes()[:64])
            with pytest.raises(CheckpointError, match="sidecar"):
                _stream_run(trace, 1000, ckpt=str(ckpt), controller=True,
                            resume=True)

    def test_torn_sidecar_tails_are_ignored(self, tmp_path):
        """A crash mid-append leaves bytes past the claimed prefix."""
        trace = _diurnal(2500)
        ref = _stream_run(trace, 1500, ckpt=str(tmp_path / "ref"),
                          controller=True)
        ckpt = tmp_path / "crash"
        with pytest.raises(_faults.SimulatedCrash):
            _stream_run(trace, 1500, ckpt=str(ckpt), controller=True,
                        faults="kill@stream.chunk:9")
        with open(ckpt / "decisions.jsonl", "ab") as fh:
            fh.write(b'[1, "proactive", 1.0, [], false, 1.0, 0.0]\n[7, "hyb')
        for name in ("schedule.f64", "actuals.f64"):
            with open(ckpt / name, "ab") as fh:
                fh.write(b"\x00" * 11)
        resumed = _stream_run(trace, 1500, ckpt=str(ckpt), controller=True,
                              resume=True)
        assert _report_fingerprint(resumed) == _report_fingerprint(ref)
        state = json.loads((ckpt / "checkpoint.json").read_text())
        assert (ckpt / "decisions.jsonl").stat().st_size == (
            state["sidecar"]["decision_bytes"]
        )

    def test_checkpoint_size_independent_of_stream_length(self, tmp_path):
        """checkpoint.json holds bounded state; the log lives in a sidecar."""
        trace = _diurnal(4000)
        sizes = {}
        for served in (1000, 3000):
            ckpt = tmp_path / f"ck{served}"
            _stream_run(trace, trace.size - served, ckpt=str(ckpt),
                        controller=True, history_window=256)
            sizes[served] = (ckpt / "checkpoint.json").stat().st_size
            rows = (ckpt / "decisions.jsonl").read_bytes().splitlines()
            assert len(rows) == served
        assert abs(sizes[3000] - sizes[1000]) < 1024, sizes

    def test_resume_without_checkpoint_dir_is_typed_error(self):
        server = StreamingServer(
            GuardedPredictor(None), np.ones(10), config=StreamConfig()
        )
        with pytest.raises(CheckpointError, match="directory"):
            server.restore()

    def test_checkpoint_overhead_intervals_match_sidecars(self, tmp_path):
        """Sidecars + checkpoint always agree on the durable prefix."""
        trace = _diurnal(2000)
        _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"))
        state = json.loads((tmp_path / "ck" / "checkpoint.json").read_text())
        n = state["sidecar"]["n"]
        assert n == 1000
        for name in ("schedule.f64", "actuals.f64"):
            blob = (tmp_path / "ck" / name).read_bytes()
            assert len(blob) == n * 8

    def test_stream_section_on_report(self):
        trace = _diurnal(2000)
        rep = _stream_run(trace, 1000)
        assert rep.stream is not None
        for key in ("chunks", "intervals", "served_intervals",
                    "checkpoints_written", "stalls", "quarantine"):
            assert key in rep.stream
        # Batch path keeps stream=None.
        reset_metrics()
        batch = serve_and_simulate(
            GuardedPredictor(None, fallbacks=default_fallbacks(48)),
            trace, 1800,
        )
        assert batch.stream is None
