"""Tests for the cloud simulator, policies, and summaries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autoscale import (
    CloudSimulator,
    OraclePolicy,
    PredictivePolicy,
    ReactivePolicy,
    VMSpec,
    ControllerConfig,
    HybridController,
    provisioning_schedule,
    reactive_target,
    summarize,
)
from repro.baselines.naive import MeanPredictor


@pytest.fixture
def spec():
    return VMSpec(startup_seconds=100.0, job_seconds=200.0, job_jitter_frac=0.0)


class TestVMSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            VMSpec(startup_seconds=-1.0)
        with pytest.raises(ValueError):
            VMSpec(job_seconds=0.0)
        with pytest.raises(ValueError):
            VMSpec(job_jitter_frac=1.0)
        with pytest.raises(ValueError):
            VMSpec(max_concurrent_startups=0)


class TestSimulator:
    def test_perfect_provisioning_no_startup_cost(self, spec):
        arrivals = np.array([5.0, 3.0, 8.0])
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(arrivals, arrivals)
        np.testing.assert_allclose(res.turnaround_seconds, 200.0)
        assert res.underprovision_rate == 0.0
        assert res.overprovision_rate == 0.0

    def test_underprovisioning_adds_startup(self, spec):
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(np.array([4.0]), np.array([2.0]))
        # 2 warm jobs at 200s; 2 cold jobs at 200+100 (one startup wave).
        assert res.turnaround_seconds[0] == pytest.approx((2 * 200 + 2 * 300) / 4)
        assert res.makespan_seconds[0] == pytest.approx(300.0)
        assert res.underprovision_rate == pytest.approx(50.0)

    def test_startup_waves_throttled(self):
        spec = VMSpec(
            startup_seconds=100.0,
            job_seconds=200.0,
            job_jitter_frac=0.0,
            max_concurrent_startups=2,
        )
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(np.array([5.0]), np.array([0.0]))
        # Cold jobs 0,1 wait one wave (100s); 2,3 two waves; 4 three waves.
        assert res.makespan_seconds[0] == pytest.approx(200.0 + 3 * 100.0)

    def test_overprovisioning_counts_idle(self, spec):
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(np.array([2.0]), np.array([6.0]))
        assert res.overprovision_rate == pytest.approx(200.0)
        assert res.underprovision_rate == 0.0
        # vm time: 2 jobs * 200s + 4 idle * 200s
        assert res.vm_seconds == pytest.approx(2 * 200 + 4 * 200)

    def test_zero_arrival_interval(self, spec):
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(np.array([0.0, 3.0]), np.array([2.0, 3.0]))
        assert res.turnaround_seconds[0] == 0.0
        assert res.mean_turnaround == pytest.approx(200.0)  # only interval 2

    def test_fractional_counts_rounded_up(self, spec):
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(np.array([2.4]), np.array([1.2]))
        assert res.arrivals[0] == 3.0 and res.provisioned[0] == 2.0

    def test_jitter_reproducible(self):
        spec = VMSpec(job_jitter_frac=0.2)
        a = CloudSimulator(spec=spec, seed=5).run(np.array([10.0]), np.array([10.0]))
        b = CloudSimulator(spec=spec, seed=5).run(np.array([10.0]), np.array([10.0]))
        np.testing.assert_array_equal(a.turnaround_seconds, b.turnaround_seconds)

    def test_length_mismatch(self, spec):
        with pytest.raises(ValueError):
            CloudSimulator(spec=spec).run(np.ones(3), np.ones(4))

    def test_negative_counts_rejected(self, spec):
        with pytest.raises(ValueError):
            CloudSimulator(spec=spec).run(np.array([-1.0]), np.array([1.0]))

    @given(
        arrivals=arrays(np.float64, 10, elements=st.floats(0, 30)),
        provisioned=arrays(np.float64, 10, elements=st.floats(0, 30)),
    )
    @settings(max_examples=30, deadline=None)
    def test_turnaround_at_least_job_time(self, arrivals, provisioned):
        spec = VMSpec(job_jitter_frac=0.0)
        res = CloudSimulator(spec=spec, seed=1).run(arrivals, provisioned)
        busy = res.arrivals > 0
        assert np.all(res.turnaround_seconds[busy] >= spec.job_seconds - 1e-9)

    @given(arrivals=arrays(np.float64, 8, elements=st.floats(0, 20)))
    @settings(max_examples=30, deadline=None)
    def test_oracle_provisioning_is_optimal(self, arrivals):
        """No schedule can beat provisioning exactly the arrivals."""
        spec = VMSpec(job_jitter_frac=0.0)
        sim = CloudSimulator(spec=spec, seed=2)
        oracle = sim.run(arrivals, np.ceil(arrivals))
        assert oracle.underprovision_rate == 0.0
        assert oracle.overprovision_rate <= 100.0  # ceil() surplus only


class TestPolicies:
    def test_reactive_shifts_by_one(self):
        arrivals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        sched = ReactivePolicy().schedule(arrivals, start=2)
        np.testing.assert_array_equal(sched, [2.0, 3.0, 4.0])

    def test_oracle_matches_arrivals(self):
        arrivals = np.array([1.4, 2.0, 3.7])
        sched = OraclePolicy().schedule(arrivals, start=1)
        np.testing.assert_array_equal(sched, [2.0, 4.0])

    def test_predictive_uses_walk_forward(self):
        arrivals = np.full(30, 10.0)
        policy = PredictivePolicy(MeanPredictor(window=5))
        sched = policy.schedule(arrivals, start=20)
        np.testing.assert_allclose(sched, 10.0)

    def test_provisioning_schedule_nonnegative_integERS(self):
        rng = np.random.default_rng(0)
        arrivals = rng.uniform(0, 20, 40)
        sched = provisioning_schedule(MeanPredictor(), arrivals, 30)
        assert np.all(sched >= 0)
        np.testing.assert_array_equal(sched, np.round(sched))

    def test_policy_bounds_validation(self):
        with pytest.raises(ValueError):
            ReactivePolicy().schedule(np.ones(5), start=0)
        with pytest.raises(ValueError):
            OraclePolicy().schedule(np.ones(5), start=9)


class TestReactiveGeneralized:
    def test_defaults_bit_for_bit_identical(self):
        """window=1, headroom=1.0 must reproduce the original rule exactly."""
        rng = np.random.default_rng(3)
        arrivals = rng.uniform(0, 500, 200)
        old_rule = np.ceil(arrivals[49:199])
        np.testing.assert_array_equal(
            ReactivePolicy().schedule(arrivals, start=50), old_rule
        )
        assert ReactivePolicy().name == "reactive"

    def test_window_takes_max_of_last_k(self):
        arrivals = np.array([5.0, 1.0, 2.0, 9.0, 3.0, 4.0])
        sched = ReactivePolicy(window=3).schedule(arrivals, start=3)
        # max of [5,1,2]=5, [1,2,9]=9, [2,9,3]=9
        np.testing.assert_array_equal(sched, [5.0, 9.0, 9.0])

    def test_headroom_scales_before_ceil(self):
        arrivals = np.array([10.0, 10.0, 10.0])
        sched = ReactivePolicy(headroom=1.25).schedule(arrivals, start=1)
        np.testing.assert_array_equal(sched, [13.0, 13.0])

    def test_nonfinite_observations_ignored(self):
        arrivals = np.array([4.0, np.nan, 6.0, np.nan, np.nan])
        sched = ReactivePolicy(window=2).schedule(arrivals, start=2)
        # windows: [4,nan]->4, [nan,6]->6, [6,nan]->6
        np.testing.assert_array_equal(sched, [4.0, 6.0, 6.0])

    def test_all_nonfinite_window_provisions_zero(self):
        arrivals = np.array([np.nan, np.nan, 5.0])
        sched = ReactivePolicy().schedule(arrivals, start=2)
        np.testing.assert_array_equal(sched, [0.0])

    def test_all_nonfinite_window_is_positive_zero(self):
        arrivals = np.array([3.0, np.nan, np.nan, 5.0])
        sched = ReactivePolicy(window=2, headroom=2.0).schedule(arrivals, start=1)
        np.testing.assert_array_equal(sched, [6.0, 6.0, 0.0])
        assert not np.signbit(sched).any()

    def test_controller_reactive_tier_is_the_policy_rule(self):
        """One reactive rule: the hybrid controller's degraded tier and
        ReactivePolicy both provision ``reactive_target``."""
        history = np.array([4.0, np.nan, 7.5, 2.0])
        assert reactive_target(history[-2:], 1.5) == 11.25
        assert reactive_target(np.array([np.nan, np.nan])) is None
        assert reactive_target(np.array([])) is None
        ctl = HybridController(ControllerConfig(reactive_window=2, reactive_headroom=1.5))
        decision = ctl.step(float("nan"), history)
        assert decision.decided_by == "reactive"
        assert decision.target == reactive_target(history[-2:], 1.5)
        assert ReactivePolicy(window=2, headroom=1.5).schedule(
            np.append(history, 0.0), start=4
        )[0] == np.ceil(decision.target)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReactivePolicy(window=0)
        with pytest.raises(ValueError):
            ReactivePolicy(headroom=0.0)

    @given(
        arrivals=arrays(np.float64, 30, elements=st.floats(0, 100)),
        window=st.integers(1, 6),
        headroom=st.floats(1.0, 3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_generalized_dominates_window_values(self, arrivals, window, headroom):
        """Every decision covers headroom x every finite value in its window."""
        sched = ReactivePolicy(window=window, headroom=headroom).schedule(
            arrivals, start=10
        )
        for j, i in enumerate(range(10, arrivals.size)):
            tail = arrivals[max(i - window, 0) : i]
            finite = tail[np.isfinite(tail)]
            if finite.size:
                assert sched[j] >= headroom * finite.max() - 1e-6


class TestSummary:
    def test_summarize_fields(self, spec):
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(np.array([4.0, 2.0]), np.array([3.0, 3.0]))
        s = summarize("test-policy", res)
        assert s.policy == "test-policy"
        assert s.n_intervals == 2
        assert s.mean_turnaround_seconds == pytest.approx(res.mean_turnaround)
        assert s.vm_hours == pytest.approx(res.vm_seconds / 3600.0)
        d = s.as_dict()
        assert set(d) == {
            "policy",
            "mean_turnaround_seconds",
            "underprovision_rate_pct",
            "overprovision_rate_pct",
            "vm_hours",
            "n_intervals",
        }
