"""Tests for ``repro.obs.monitor``: quality, drift, SLOs, serving wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.baselines import LastValuePredictor, walk_forward
from repro.core import AdaptiveLoadDynamics, FrameworkSettings, search_space_for
from repro.obs.monitor import (
    BREACHED,
    DEGRADED,
    HEALTHY,
    CusumDetector,
    DriftDetector,
    ForecastMonitor,
    HealthReport,
    PageHinkleyDetector,
    QualityTracker,
    SLOTracker,
    default_detectors,
)
from repro.serving import GuardedPredictor, serve_and_simulate


@pytest.fixture(autouse=True)
def clean_telemetry():
    obs.clear_sinks()
    obs.reset_metrics()
    yield
    obs.clear_sinks()
    obs.reset_metrics()


def steady_errors(n: int, level: float = 2.0, seed: int = 0) -> list[float]:
    """A stationary APE stream around ``level`` percent."""
    rng = np.random.default_rng(seed)
    return [max(level + e, 0.0) for e in rng.normal(0.0, 0.5, n)]


# ----------------------------------------------------------------------
# quality
# ----------------------------------------------------------------------
class TestQualityTracker:
    def test_known_values(self):
        q = QualityTracker(window=8)
        ape = q.update(110.0, 100.0)
        assert ape == pytest.approx(10.0)
        q.update(90.0, 100.0)
        snap = q.snapshot()
        assert snap["intervals"] == 2
        win = snap["window"]
        assert win["n"] == 2
        assert win["mae"] == pytest.approx(10.0)
        assert win["mape"] == pytest.approx(10.0)
        assert win["bias"] == pytest.approx(0.0)  # +10 and -10 cancel
        assert win["over_rate"] == pytest.approx(50.0)
        assert win["under_rate"] == pytest.approx(50.0)

    def test_rolling_window_evicts(self):
        q = QualityTracker(window=4)
        for _ in range(10):
            q.update(120.0, 100.0)  # 20% APE
        for _ in range(4):
            q.update(101.0, 100.0)  # 1% APE fills the window
        snap = q.snapshot()
        assert snap["window"]["mape"] == pytest.approx(1.0)
        # Cumulative still remembers the full stream.
        assert snap["cumulative"]["n"] == 14
        assert snap["cumulative"]["mape"] == pytest.approx(
            (10 * 20.0 + 4 * 1.0) / 14
        )

    def test_periodic_refresh_matches_exact_sums(self):
        # Force the full-recompute path several times and confirm the
        # rolling sums stay exactly the window mean.
        q = QualityTracker(window=4)
        rng = np.random.default_rng(3)
        preds = 100.0 + rng.normal(0, 10, 4 * 64 * 3 + 5)
        for p in preds:
            q.update(float(p), 100.0)
        expected = np.mean([abs(p - 100.0) for p in preds[-4:]])
        assert q.snapshot()["window"]["mae"] == pytest.approx(expected)

    def test_zero_actual_uses_eps_floor(self):
        q = QualityTracker()
        assert np.isfinite(q.update(5.0, 0.0))

    def test_empty_snapshot_is_none_filled(self):
        snap = QualityTracker().snapshot()
        assert snap["intervals"] == 0
        assert snap["window"]["mape"] is None
        assert snap["cumulative"]["mae"] is None

    def test_window_validation(self):
        with pytest.raises(ValueError):
            QualityTracker(window=0)


# ----------------------------------------------------------------------
# drift detectors
# ----------------------------------------------------------------------
class TestDriftDetectors:
    @pytest.mark.parametrize("detector_cls", [CusumDetector, PageHinkleyDetector])
    def test_quiet_on_stationary_errors(self, detector_cls):
        det = detector_cls()
        for e in steady_errors(400):
            det.update(e)
        assert not det.drifted

    @pytest.mark.parametrize("detector_cls", [CusumDetector, PageHinkleyDetector])
    def test_fires_within_bounded_delay_of_shift(self, detector_cls):
        det = detector_cls()
        errors = steady_errors(100) + [50.0] * 50  # sustained 25x jump
        for e in errors:
            if det.update(e):
                break
        assert det.drifted
        assert det.fired_at is not None
        assert 100 < det.fired_at <= 110, \
            f"{det.name} fired at {det.fired_at}, expected within 10 of the shift"

    def test_latch_holds_until_reset(self):
        det = CusumDetector()
        for e in steady_errors(50) + [80.0] * 20:
            det.update(e)
        assert det.drifted
        fired_at = det.fired_at
        # Errors going quiet again must NOT unlatch.
        for e in steady_errors(50, seed=1):
            det.update(e)
        assert det.drifted and det.fired_at == fired_at
        det.reset()
        assert not det.drifted and det.fired_at is None
        # After reset the detector recalibrates and stays quiet on the
        # (new) healthy stream.
        for e in steady_errors(100, seed=2):
            det.update(e)
        assert not det.drifted

    def test_cusum_freezes_baseline_after_warmup(self):
        det = CusumDetector(warmup=20)
        for e in steady_errors(20):
            det.update(e)
        assert det.calibrated
        snap = det.snapshot()
        assert snap["baseline_mean"] == pytest.approx(2.0, abs=0.5)
        assert snap["baseline_std"] is not None

    def test_fire_emits_event_and_counters(self):
        sink = obs.add_sink(obs.MemorySink())
        det = PageHinkleyDetector()
        for e in steady_errors(30) + [100.0] * 10:
            det.update(e)
        assert det.drifted
        assert obs.counter("monitor.drift").value == 1.0
        assert obs.counter("monitor.drift.page-hinkley").value == 1.0
        events = sink.by_name("monitor.drift")
        assert len(events) == 1 and events[0]["detector"] == "page-hinkley"

    def test_protocol_conformance(self):
        for det in default_detectors():
            assert isinstance(det, DriftDetector)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CusumDetector(threshold=0)
        with pytest.raises(ValueError):
            CusumDetector(warmup=1)
        with pytest.raises(ValueError):
            PageHinkleyDetector(threshold=-1)
        with pytest.raises(ValueError):
            PageHinkleyDetector(min_samples=1)


# ----------------------------------------------------------------------
# SLOs
# ----------------------------------------------------------------------
class TestSLOTracker:
    def test_healthy_within_budget(self):
        slo = SLOTracker(accuracy_slo_mape=50.0, target=0.9, min_intervals=10)
        for _ in range(100):
            slo.update(ape=5.0)
        assert slo.health().status == HEALTHY

    def test_grace_period_before_verdicts(self):
        slo = SLOTracker(accuracy_slo_mape=50.0, min_intervals=30)
        for _ in range(10):
            slo.update(ape=100.0)  # every interval violates
        assert slo.health().status == HEALTHY  # still in grace
        for _ in range(30):
            slo.update(ape=100.0)
        assert slo.health().status == BREACHED

    def test_burn_rate_degrades_before_budget_breach(self):
        # 1000 clean intervals bank budget; a recent hot streak burns it
        # faster than it accrues without exhausting the lifetime budget.
        slo = SLOTracker(accuracy_slo_mape=50.0, target=0.9, window=50)
        for _ in range(2000):
            slo.update(ape=1.0)
        for _ in range(20):
            slo.update(ape=99.0)
        health = slo.health()
        assert health.status == DEGRADED
        assert any("burning" in r for r in health.reasons)

    def test_latency_objective(self):
        slo = SLOTracker(latency_slo_ms=10.0, min_intervals=5)
        for _ in range(50):
            slo.update(latency_s=0.5)  # 500 ms >> 10 ms
        health = slo.health()
        assert health.status == BREACHED
        assert any("latency" in r for r in health.reasons)
        snap = slo.snapshot()
        assert snap["objectives"]["latency"]["violations"] == 50

    def test_worse_of_folds_severity_and_reasons(self):
        a = HealthReport(status=DEGRADED, reasons=("x",))
        b = HealthReport(status=BREACHED, reasons=("y",))
        folded = a.worse_of(b)
        assert folded.status == BREACHED and folded.reasons == ("x", "y")
        assert HealthReport(HEALTHY).worse_of(HealthReport(HEALTHY)).healthy

    def test_validation(self):
        with pytest.raises(ValueError):
            SLOTracker(target=1.0)
        with pytest.raises(ValueError):
            SLOTracker(latency_slo_ms=0.0)
        with pytest.raises(ValueError):
            HealthReport(status="fine")


# ----------------------------------------------------------------------
# the composed monitor
# ----------------------------------------------------------------------
class TestForecastMonitor:
    def test_observe_returns_ape_and_tracks(self):
        m = ForecastMonitor()
        assert m.observe(110.0, 100.0) == pytest.approx(10.0)
        assert m.intervals == 1
        assert not m.drifted

    def test_drift_latch_degrades_health(self):
        m = ForecastMonitor(detectors=[PageHinkleyDetector()])
        for e in steady_errors(30):
            m.observe(100.0 + e, 100.0)
        assert m.health().healthy
        for _ in range(30):
            m.observe(200.0, 100.0)
        assert m.drifted
        health = m.health()
        assert health.status == DEGRADED
        assert any("drift" in r for r in health.reasons)

    def test_report_sections_and_gauges(self):
        m = ForecastMonitor(slo=SLOTracker(accuracy_slo_mape=50.0))
        for _ in range(40):
            m.observe(105.0, 100.0, latency_s=0.001)
        report = m.report()
        assert report["intervals"] == 40
        assert report["quality"]["window"]["mape"] == pytest.approx(5.0)
        assert [d["name"] for d in report["drift"]] == ["cusum", "page-hinkley"]
        assert report["slo"]["objectives"]["accuracy"]["n"] == 40
        assert report["health"]["status"] == HEALTHY
        # Headline gauges + lazily-synced interval counter.
        assert obs.gauge("monitor.rolling_mape").value == pytest.approx(5.0)
        assert obs.counter("monitor.intervals").value == 40.0
        m.observe(105.0, 100.0)
        m.report()
        assert obs.counter("monitor.intervals").value == 41.0


# ----------------------------------------------------------------------
# serving wiring
# ----------------------------------------------------------------------
def serving_series(n: int = 300) -> np.ndarray:
    """Slow cycle + mild noise: persistence errors stay stationary."""
    rng = np.random.default_rng(9)
    x = np.arange(float(n))
    return np.sin(x / 288.0) * 300 + 500 + rng.normal(0, 4, n)


class TestServingIntegration:
    def test_monitored_schedule_bit_for_bit_identical(self):
        """monitor= must never change what is served."""
        s = serving_series()
        base = serve_and_simulate(LastValuePredictor(), s, 200, seed=3)
        monitored = serve_and_simulate(
            LastValuePredictor(), s, 200, seed=3, monitor=ForecastMonitor()
        )
        assert np.array_equal(base.schedule, monitored.schedule)
        assert base.result.vm_seconds == monitored.result.vm_seconds
        assert base.result.mean_turnaround == monitored.result.mean_turnaround

    def test_report_carries_monitor_sections(self):
        s = serving_series()
        m = ForecastMonitor(slo=SLOTracker(accuracy_slo_mape=60.0))
        report = serve_and_simulate(GuardedPredictor(LastValuePredictor()), s, 200,
                                    monitor=m)
        assert report.quality["intervals"] == 100
        assert len(report.drift) == 2
        assert report.slo is not None and report.health is not None
        assert not report.drifted  # steady series, adapted persistence

    def test_unmonitored_report_sections_stay_none(self):
        s = serving_series()
        report = serve_and_simulate(LastValuePredictor(), s, 250)
        assert report.quality is None and report.drift is None
        assert report.slo is None and report.health is None
        assert not report.drifted

    def test_monitored_walk_counts_every_interval(self):
        s = serving_series()
        m = ForecastMonitor()
        serve_and_simulate(LastValuePredictor(), s, 240, monitor=m)
        assert m.intervals == 60

    def test_latency_times_predict_only_in_both_loops(self, monkeypatch):
        """A 5 ms refit must not count against a 2 ms latency SLO, open
        or closed loop: both loops time ``predict_next`` alone."""
        from types import SimpleNamespace

        from repro.autoscale import HybridController
        from repro.baselines import base

        now = [0.0]
        monkeypatch.setattr(base, "time", SimpleNamespace(perf_counter=lambda: now[0]))

        class SlowFit(LastValuePredictor):
            def fit(self, history):
                now[0] += 0.005
                return self

            def predict_next(self, history):
                now[0] += 0.0001
                return float(history[-1])

        class Recording(ForecastMonitor):
            def observe(self, predicted, actual, latency_s=None):
                self.latencies.append(latency_s)
                return super().observe(predicted, actual, latency_s)

        s = np.full(200, 50.0)
        latencies = {}
        for loop, controller in (("open", None), ("closed", HybridController())):
            now[0] = 0.0
            monitor = Recording(slo=SLOTracker(latency_slo_ms=2.0))
            monitor.latencies = []
            report = serve_and_simulate(
                SlowFit(), s, 100, refit_every=1, monitor=monitor,
                controller=controller,
            )
            latency = report.slo["objectives"]["latency"]
            assert (latency["n"], latency["violations"]) == (100, 0), loop
            assert report.health["status"] == HEALTHY, loop
            latencies[loop] = monitor.latencies
        assert latencies["open"] == latencies["closed"]
        assert latencies["open"] == pytest.approx([1e-4] * 100)


class TestRefitOnDrift:
    def test_detector_triggers_exactly_one_refit(self):
        """A latched detector must refit once, then recalibrate."""
        from tests.test_core_adaptive import regime_change_series

        series = regime_change_series()
        detector = CusumDetector(warmup=10)
        adaptive = AdaptiveLoadDynamics(
            space=search_space_for("default", "tiny"),
            settings=FrameworkSettings.tiny(max_iters=2, epochs=6),
            min_refit_gap=60,  # long cool-down: at most one drift refit fits
            refit_on_drift=detector,
        )
        walk_forward(adaptive, series, 100, 200, refit_every=1)
        assert adaptive.drift_refits == 1
        assert adaptive.n_refits == 2  # initial + the drift-triggered one
        # The refit must land after the regime change at interval 120.
        assert adaptive.refit_history[1] > 120
        # The refit reset the shared detector's latch.
        assert not detector.drifted
        assert obs.counter("adaptive.drift_refit").value == 1.0

    def test_window_rule_still_default(self):
        adaptive = AdaptiveLoadDynamics(
            space=search_space_for("default", "tiny"),
            settings=FrameworkSettings.tiny(max_iters=2, epochs=6),
        )
        assert adaptive.refit_on_drift is None
        assert not adaptive.drift_detected()

    def test_detector_replaces_window_rule(self):
        det = PageHinkleyDetector()
        adaptive = AdaptiveLoadDynamics(
            space=search_space_for("default", "tiny"),
            settings=FrameworkSettings.tiny(max_iters=2, epochs=6),
            refit_on_drift=det,
        )
        # The window rule would need a full error window; the detector's
        # latch alone must drive the signal.
        det.drifted = True
        assert adaptive.drift_detected()
        det.drifted = False
        assert not adaptive.drift_detected()
