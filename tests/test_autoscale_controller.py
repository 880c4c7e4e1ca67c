"""Property and unit tests for the hybrid autoscaling controller.

The safety rails are only rails if they hold under *arbitrary* forecast
and arrival streams — including NaN outages and adversarial spikes — so
the invariants are hypothesis properties over random streams:

* every decision within ``[min_vms, max_vms]``;
* rate limits and the scale-down cooldown never violated;
* anti-windup bounds the error integral;
* burst latches and clears deterministically;
* zero-gain passthrough reproduces ``PredictivePolicy`` bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autoscale import (
    ControllerConfig,
    HybridController,
    HybridPolicy,
    PredictivePolicy,
)
from repro.baselines.naive import LastValuePredictor, SeasonalNaivePredictor
from repro.obs.monitor import PageHinkleyDetector
from repro.resilience import faults

# Streams mixing normal values, spikes, and NaN outages — the adversarial
# envelope every rail must hold under.
stream_values = st.one_of(
    st.floats(0.0, 200.0),
    st.floats(1e4, 1e6),
    st.just(float("nan")),
)


def _walk(controller, forecasts, arrivals):
    """Drive one decision per interval, returning the Decision list."""
    decisions = []
    for i, f in enumerate(forecasts):
        decisions.append(controller.step(f, np.asarray(arrivals[: i + 1])))
    return decisions


class TestRails:
    @given(
        forecasts=arrays(np.float64, 40, elements=stream_values),
        arrivals=arrays(np.float64, 40, elements=stream_values),
        min_vms=st.integers(0, 5),
        span=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_always_hold(self, forecasts, arrivals, min_vms, span):
        cfg = ControllerConfig(min_vms=min_vms, max_vms=min_vms + span)
        decisions = _walk(HybridController(cfg), forecasts, arrivals)
        for d in decisions:
            assert min_vms <= d.vms <= min_vms + span

    @given(
        forecasts=arrays(np.float64, 40, elements=stream_values),
        arrivals=arrays(np.float64, 40, elements=stream_values),
        up=st.integers(0, 10),
        down=st.integers(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_limits_never_violated(self, forecasts, arrivals, up, down):
        cfg = ControllerConfig(max_step_up=up, max_step_down=down)
        decisions = _walk(HybridController(cfg), forecasts, arrivals)
        for prev, cur in zip(decisions, decisions[1:], strict=False):
            assert cur.vms - prev.vms <= up
            assert prev.vms - cur.vms <= down

    @given(
        forecasts=arrays(np.float64, 40, elements=stream_values),
        arrivals=arrays(np.float64, 40, elements=stream_values),
        cooldown=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_cooldown_blocks_scale_down(self, forecasts, arrivals, cooldown):
        """No scale-down within ``cooldown`` decisions of a scale-up."""
        cfg = ControllerConfig(scale_down_cooldown=cooldown)
        decisions = _walk(HybridController(cfg), forecasts, arrivals)
        vms = [d.vms for d in decisions]
        # A scale-down at step i implies no scale-up in the preceding
        # `cooldown` steps.
        for i in range(1, len(vms)):
            if vms[i] < vms[i - 1]:
                for k in range(max(i - cooldown, 1), i):
                    assert vms[k] <= vms[k - 1], (
                        f"scale-down at {i} inside the cooldown of the "
                        f"scale-up at {k}: {vms}"
                    )

    @given(
        forecasts=arrays(np.float64, 60, elements=stream_values),
        arrivals=arrays(np.float64, 60, elements=stream_values),
        limit=st.floats(0.0, 500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_antiwindup_bounds_integral(self, forecasts, arrivals, limit):
        cfg = ControllerConfig(integral_limit=limit)
        controller = HybridController(cfg)
        for i, f in enumerate(forecasts):
            controller.step(f, np.asarray(arrivals[: i + 1]))
            assert abs(controller.integral) <= limit + 1e-9

    def test_rail_provenance_recorded(self):
        cfg = ControllerConfig(max_vms=5, max_step_up=2, kp=0.0, ki=0.0, kd=0.0,
                               headroom_quantile=None, burst_streak=None)
        controller = HybridController(cfg)
        d1 = controller.step(100.0, np.array([1.0]))
        assert d1.vms == 5 and "max_vms" in d1.rails
        d2 = controller.step(0.0, np.array([1.0, 1.0]))
        assert d2.vms == 0 and d2.rails == ()
        d3 = controller.step(100.0, np.array([1.0, 1.0, 1.0]))
        assert d3.vms == 2 and "rate_up" in d3.rails
        assert controller.rail_hits == {"max_vms": 1, "rate_up": 1}


class TestDegradationTiers:
    def test_nan_forecast_goes_reactive(self):
        controller = HybridController(ControllerConfig())
        d = controller.step(float("nan"), np.array([4.0, 7.0, 5.0]))
        assert d.decided_by == "reactive"
        assert d.vms >= 7  # max of the last-3 window

    def test_open_breaker_goes_reactive(self):
        class FakeBreaker:
            state = "open"

        controller = HybridController(ControllerConfig(), breaker=FakeBreaker())
        d = controller.step(50.0, np.array([4.0, 7.0, 5.0]))
        assert d.decided_by == "reactive"

    def test_dead_reactive_signal_holds_last_decision(self):
        controller = HybridController(ControllerConfig(reactive_window=2))
        d1 = controller.step(10.0, np.array([8.0]))
        d2 = controller.step(float("nan"), np.array([8.0, np.nan, np.nan]))
        assert d2.decided_by == "hold"
        assert d2.vms == d1.vms

    def test_no_history_no_signal_provisions_min(self):
        controller = HybridController(ControllerConfig(min_vms=3))
        d = controller.step(float("nan"), np.array([]))
        assert d.decided_by == "hold" and d.vms == 3

    def test_provenance_counts_sum_to_decisions(self):
        rng = np.random.default_rng(0)
        arrivals = rng.uniform(0, 50, 30)
        controller = HybridController(ControllerConfig())
        _walk(controller, rng.uniform(0, 50, 30), arrivals)
        assert sum(controller.decided_by.values()) == 30
        assert len(controller.decisions) == 30


class TestBurst:
    def test_underprovision_streak_latches_and_clears(self):
        cfg = ControllerConfig(
            kp=0.0, ki=0.0, kd=0.0, headroom_quantile=None,
            burst_streak=3, burst_clear=4, burst_quantile=1.0,
        )
        controller = HybridController(cfg)
        arrivals: list[float] = []
        # Forecast 10 while 20 arrives: underprovisioned every interval.
        # Decision 0 is unscored (nothing to compare against), so the
        # 3-streak completes — and latches — on decision 3.
        for i in range(4):
            arrivals.append(20.0)
            d = controller.step(10.0, np.asarray(arrivals))
        assert d.burst and controller.burst_reason == "underprovision_streak"
        assert d.decided_by == "burst"
        # Burst provisions forecast + Q1(positive errors) = 10 + 10 = 20.
        assert d.vms == 20
        # Once the forecast catches up, provisioning stays adequate, the
        # clean streak builds, and the latch clears after `burst_clear`.
        cleared_at = None
        for i in range(4, 14):
            arrivals.append(20.0)
            d = controller.step(20.0, np.asarray(arrivals))
            if not d.burst and cleared_at is None:
                cleared_at = i
        assert cleared_at == 7  # clean streak 4 completes on decision 7
        assert not controller.burst and controller.burst_reason is None
        assert controller.burst_episodes == 1

    def test_burst_streak_none_disables_streak_trigger(self):
        cfg = ControllerConfig(kp=0.0, ki=0.0, kd=0.0, headroom_quantile=None,
                               burst_streak=None)
        controller = HybridController(cfg)
        arrivals: list[float] = []
        for _ in range(20):
            arrivals.append(20.0)
            d = controller.step(10.0, np.asarray(arrivals))
            assert not d.burst

    def test_drift_latch_triggers_burst_and_clear_resets_detector(self):
        detector = PageHinkleyDetector()
        controller = HybridController(
            ControllerConfig(burst_streak=None, burst_clear=5),
            drift_detector=detector,
        )
        arrivals = np.full(100, 100.0)
        saw_burst = False
        for i in range(1, arrivals.size):
            forecast = 100.0 * (0.4 if 20 <= i < 50 else 1.0)
            d = controller.step(forecast, arrivals[:i])
            saw_burst |= d.burst
        assert saw_burst
        assert controller.burst_episodes == 1
        assert not controller.burst
        assert not detector.drifted, "clearing burst must reset the latch"

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_burst_deterministic_replay(self, data):
        """The same stream produces the same burst trajectory, always."""
        n = 30
        forecasts = data.draw(arrays(np.float64, n, elements=st.floats(0, 100)))
        arrivals = data.draw(arrays(np.float64, n, elements=st.floats(0, 100)))
        cfg = ControllerConfig(burst_streak=2, burst_clear=3)
        run1 = [d.burst for d in _walk(HybridController(cfg), forecasts, arrivals)]
        run2 = [d.burst for d in _walk(HybridController(cfg), forecasts, arrivals)]
        assert run1 == run2


class TestZeroOverhead:
    @given(arrivals=arrays(np.float64, 60, elements=st.floats(0, 1000)))
    @settings(max_examples=30, deadline=None)
    def test_passthrough_matches_predictive_bit_for_bit(self, arrivals):
        predictive = PredictivePolicy(LastValuePredictor()).schedule(arrivals, 30)
        hybrid = HybridPolicy(
            LastValuePredictor(), config=ControllerConfig.passthrough()
        ).schedule(arrivals, 30)
        np.testing.assert_array_equal(predictive, hybrid)

    def test_passthrough_matches_seasonal_predictor(self):
        rng = np.random.default_rng(1)
        arrivals = rng.poisson(80, 300).astype(np.float64)
        predictive = PredictivePolicy(SeasonalNaivePredictor(48)).schedule(
            arrivals, 150
        )
        hybrid = HybridPolicy(
            SeasonalNaivePredictor(48), config=ControllerConfig.passthrough()
        ).schedule(arrivals, 150)
        np.testing.assert_array_equal(predictive, hybrid)

    def test_passthrough_decisions_are_proactive(self):
        rng = np.random.default_rng(2)
        arrivals = rng.uniform(0, 50, 40)
        policy = HybridPolicy(
            LastValuePredictor(), config=ControllerConfig.passthrough()
        )
        policy.schedule(arrivals, 20)
        assert set(policy.controller.decided_by) == {"proactive"}


class TestHybridPolicy:
    def test_schedule_survives_nan_stream(self):
        arrivals = np.array([10.0] * 20 + [np.nan] * 5 + [12.0] * 15)
        policy = HybridPolicy(LastValuePredictor())
        schedule = policy.schedule(arrivals, 10)
        assert np.all(np.isfinite(schedule)) and np.all(schedule >= 0)

    def test_breaker_autodetected_from_guarded(self):
        from repro.serving import GuardedPredictor

        guarded = GuardedPredictor(LastValuePredictor())
        policy = HybridPolicy(guarded)
        assert policy.controller.breaker is guarded.breaker

    def test_forecast_outage_shifts_provenance(self):
        from repro.serving import OPEN, GuardedPredictor

        guarded = GuardedPredictor(LastValuePredictor())
        policy = HybridPolicy(guarded)
        arrivals = np.full(60, 30.0)
        with faults.injected("boom@serve.predict:*"):
            schedule = policy.schedule(arrivals, 20)
        assert np.all(np.isfinite(schedule))
        assert guarded.breaker.state == OPEN
        assert policy.controller.decided_by.get("reactive", 0) > 0

    def test_fresh_loop_per_schedule_call(self):
        rng = np.random.default_rng(4)
        arrivals = rng.uniform(10, 60, 50)
        policy = HybridPolicy(LastValuePredictor())
        s1 = policy.schedule(arrivals, 25)
        s2 = policy.schedule(arrivals, 25)
        np.testing.assert_array_equal(s1, s2)
        assert len(policy.controller.decisions) == 25

    def test_controller_and_config_exclusive(self):
        with pytest.raises(ValueError):
            HybridPolicy(
                LastValuePredictor(),
                controller=HybridController(),
                config=ControllerConfig(),
            )

    def test_start_validation(self):
        with pytest.raises(ValueError):
            HybridPolicy(LastValuePredictor()).schedule(np.ones(5), 0)

    def test_multivariate_walks_target_channel(self):
        """A (N, D) trace yields N - start decisions from the target
        channel, exactly as the closed-loop batch serve decides them."""
        from repro.serving import serve_and_simulate

        class _Channel(LastValuePredictor):
            target_channel = 1

            def predict_next(self, history):
                return float(history[-1, self.target_channel])

        rng = np.random.default_rng(8)
        arrivals = rng.uniform(5, 60, (40, 3))
        arrivals[:, 1] *= 10.0  # keep the channels far apart
        cfg = ControllerConfig(kp=0.5)
        policy = HybridPolicy(_Channel(), config=cfg)
        schedule = policy.schedule(arrivals, 30)
        assert schedule.shape == (10,)
        # Every forecast got through: the predictor saw all channels.
        assert "reactive" not in policy.controller.decided_by
        served = serve_and_simulate(
            _Channel(), arrivals, 30, controller=HybridController(cfg)
        )
        np.testing.assert_array_equal(schedule, served.schedule)
        assert np.all(schedule >= 50)  # decided from channel 1, not 0 or 2


class TestHeadroomQuantile:
    """The controller's hand-rolled lerp must be np.quantile, bitwise."""

    @given(
        st.lists(
            st.floats(0.0, 1e6, exclude_min=True, allow_subnormal=True),
            min_size=1, max_size=64,
        ),
        st.one_of(st.sampled_from([0.0, 0.75, 0.95, 1.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_linear_quantile_bitwise(self, values, q):
        from repro.autoscale.controller import _linear_quantile

        expect = float(np.quantile(np.asarray(values, dtype=np.float64), q))
        got = _linear_quantile(sorted(values), q)
        assert np.float64(got).tobytes() == np.float64(expect).tobytes()

    @given(
        st.lists(st.floats(-500.0, 500.0), min_size=0, max_size=64),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_error_quantile_matches_numpy(self, errors, q):
        c = HybridController()
        c._errors.extend(errors)
        pos = [e for e in c._errors if e > 0.0]
        expect = float(np.quantile(np.asarray(pos), q)) if pos else 0.0
        got = c._positive_error_quantile(q)
        assert np.float64(got).tobytes() == np.float64(expect).tobytes()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"integral_limit": -1.0},
            {"headroom_quantile": 1.5},
            {"error_window": 1},
            {"reactive_window": 0},
            {"reactive_headroom": 0.0},
            {"min_vms": -1},
            {"min_vms": 5, "max_vms": 4},
            {"max_step_up": -1},
            {"max_step_down": -2},
            {"scale_down_cooldown": -1},
            {"burst_streak": 0},
            {"burst_clear": 0},
            {"burst_quantile": 2.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)

    def test_snapshot_shape(self):
        controller = HybridController()
        controller.step(5.0, np.array([4.0]))
        snap = controller.snapshot()
        assert snap["n_decisions"] == 1
        assert set(snap) >= {
            "decided_by", "rail_hits", "burst", "burst_reason",
            "burst_episodes", "integral",
        }
        assert math.isfinite(snap["integral"])


class TestScenarios:
    def test_default_scenarios_deterministic(self):
        from repro.autoscale import default_scenarios
        from repro.autoscale.scenarios import SCENARIO_NAMES

        a = default_scenarios(days=4, serve_days=2, seed=9)
        b = default_scenarios(days=4, serve_days=2, seed=9)
        assert [s.name for s in a] == list(SCENARIO_NAMES)
        for sa, sb in zip(a, b, strict=True):
            np.testing.assert_array_equal(sa.actual, sb.actual)
            np.testing.assert_array_equal(sa.observed, sb.observed)

    def test_actual_always_finite_observed_may_not_be(self):
        from repro.autoscale import default_scenarios

        for s in default_scenarios(days=4, serve_days=2):
            assert np.all(np.isfinite(s.actual)), s.name
            if s.name == "corruption":
                assert np.isnan(s.observed).any()

    def test_run_matrix_quick_cell(self):
        from repro.autoscale import default_scenarios, run_matrix

        scenarios = [default_scenarios(days=4, serve_days=2)[0]]
        matrix = run_matrix(scenarios, policies=("reactive", "hybrid"))
        cell = matrix["scenarios"]["steady"]["policies"]
        assert set(cell) == {"reactive", "hybrid"}
        assert "controller" in cell["hybrid"]
        for row in cell.values():
            assert math.isfinite(row["total_cost"])
            assert "sla_violation_rate_pct" in row