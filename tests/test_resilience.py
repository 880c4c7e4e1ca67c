"""Tests for the resilience subsystem: fault injection, crash-safe
journal/resume, retries, quarantine, and graceful degradation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bayesopt import BayesianOptimizer, FloatParam, IntParam, SearchSpace
from repro.bayesopt.grid_search import GridSearch
from repro.bayesopt.random_search import RandomSearch
from repro.core import FrameworkSettings, LoadDynamics, search_space_for
from repro.nn import CorruptModelError, LSTMRegressor, load_regressor, save_regressor
from repro.resilience import (
    DeadlineCallback,
    FaultInjector,
    FaultSpec,
    JournalError,
    Quarantine,
    RetryPolicy,
    SimulatedCrash,
    TrialJournal,
    TrialTimeout,
    injected,
)


@pytest.fixture
def tiny_space():
    return search_space_for("default", "tiny")


# ----------------------------------------------------------------------
# fault injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_parse_spec(self):
        spec = FaultSpec.parse("slow@objective:3=0.2")
        assert spec == FaultSpec(kind="slow", site="objective", at=3, arg=0.2)
        assert FaultSpec.parse("kill@nn.fit:*").at is None

    @pytest.mark.parametrize(
        "text", ["explode@objective:1", "kill@objective", "kill@objective:0",
                 "kill@objective:x", "kill@objective:1=z"]
    )
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            FaultSpec.parse(text)

    def test_fires_at_exact_invocation(self):
        inj = FaultInjector.parse("linalg@gp.fit:2")
        assert inj.maybe_fire("gp.fit") == {}
        with pytest.raises(np.linalg.LinAlgError):
            inj.maybe_fire("gp.fit")
        assert inj.maybe_fire("gp.fit") == {}  # only invocation 2
        assert inj.count("gp.fit") == 3

    def test_kill_is_baseexception(self):
        inj = FaultInjector.parse("kill@objective:1")
        with pytest.raises(SimulatedCrash):
            try:
                inj.maybe_fire("objective")
            except Exception:  # recovery code must NOT be able to do this
                pytest.fail("SimulatedCrash was caught by `except Exception`")

    def test_nan_loss_returned_to_caller(self):
        inj = FaultInjector.parse("nan_loss@nn.fit:1=3")
        fired = inj.maybe_fire("nn.fit")
        assert fired["nan_loss"].arg == 3
        assert inj.maybe_fire("other.site") == {}

    def test_env_roundtrip(self, monkeypatch):
        from repro.resilience import faults

        monkeypatch.setenv(faults.FAULTS_ENV, "kill@objective:5")
        faults.clear_injector()
        inj = faults.active()
        assert inj is not None and inj.specs[0].kind == "kill"
        assert faults.active() is inj  # counters persist across calls
        monkeypatch.delenv(faults.FAULTS_ENV)
        faults.clear_injector()
        assert faults.active() is None

    def test_injected_context_manager(self):
        from repro.resilience import faults

        with injected("slow@objective:1=0.0") as inj:
            assert faults.active() is inj
        assert faults.active() is None


# ----------------------------------------------------------------------
# trial journal
# ----------------------------------------------------------------------
class TestTrialJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = TrialJournal(path)
        journal.start({"optimizer": "BayesianOptimizer", "seed": 0})
        journal.append_trial(0, {"x": 1}, 2.5, {"train_seconds": 0.1},
                             state={"cursor": 1})
        journal.append_trial(1, {"x": 2}, 1.5, {})
        journal.close()
        header, trials = TrialJournal.load(path)
        assert header["optimizer"] == "BayesianOptimizer"
        assert [t["value"] for t in trials] == [2.5, 1.5]
        assert trials[0]["state"] == {"cursor": 1}

    def test_truncated_tail_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = TrialJournal(path)
        journal.start({"seed": 0})
        journal.append_trial(0, {"x": 1}, 2.5)
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"kind": "trial", "iteration": 1, "con')  # crash mid-write
        header, trials = TrialJournal.load(path)
        assert len(trials) == 1

    def test_numpy_metadata_serializable(self, tmp_path):
        journal = TrialJournal(tmp_path / "run.jsonl")
        journal.start({})
        journal.append_trial(
            0, {"x": 1}, np.float64(3.5), {"epochs": np.int64(4), "ok": np.True_}
        )
        journal.close()
        _, trials = TrialJournal.load(tmp_path / "run.jsonl")
        assert trials[0]["metadata"]["epochs"] == 4

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "trial", "iteration": 0}) + "\n")
        with pytest.raises(JournalError, match="header"):
            TrialJournal.load(path)

    def test_header_mismatch_rejected(self):
        with pytest.raises(JournalError, match="different run"):
            TrialJournal.check_header({"seed": 0}, {"seed": 1})

    def test_reopen_missing_file_rejected(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            TrialJournal(tmp_path / "nope.jsonl").reopen()


# ----------------------------------------------------------------------
# retry / quarantine / deadline primitives
# ----------------------------------------------------------------------
class TestRetryPrimitives:
    def test_retry_policy_backoff(self):
        policy = RetryPolicy(max_retries=2, backoff=0.5)
        assert policy.attempts == 3
        assert policy.epochs_for(40, 0) == 40
        assert policy.epochs_for(40, 1) == 20
        assert policy.epochs_for(40, 2) == 10
        assert policy.epochs_for(1, 2) == 1  # floor
        seeds = {policy.seed_for(0, a) for a in range(3)}
        assert len(seeds) == 3

    def test_quarantine_threshold(self):
        q = Quarantine(threshold=2)
        cfg = {"x": 1}
        assert not q.is_quarantined(cfg)
        q.record_failure(cfg)
        assert not q.is_quarantined(cfg)
        q.record_failure({"x": 1})  # equal config, different dict object
        assert q.is_quarantined(cfg)
        assert len(q) == 1
        assert q.quarantined_configs() == [{"x": 1}]

    def test_deadline_callback_raises(self):
        cb = DeadlineCallback(timeout_s=1e-9)
        with pytest.raises(TrialTimeout):
            cb.on_epoch_end(0, {})

    def test_deadline_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DeadlineCallback(0.0)


# ----------------------------------------------------------------------
# optimizer-level resilience
# ----------------------------------------------------------------------
def bowl(cfg):
    return (cfg["x"] - 1.0) ** 2 + (cfg["y"] + 1.0) ** 2


@pytest.fixture
def float_space():
    return SearchSpace([FloatParam("x", -3.0, 3.0), FloatParam("y", -3.0, 3.0)])


class TestOptimizerResilience:
    def test_gp_failure_degrades_to_random(self, float_space):
        bo = BayesianOptimizer(float_space, n_initial=2, seed=0)
        with injected("linalg@gp.fit:*"):
            rec = bo.run(bowl, 8)
        assert bo.n_trials == 8
        assert np.isfinite(rec.value)
        degraded = [t for t in bo.history if t.metadata.get("degraded_suggest")]
        assert len(degraded) == 8 - 2  # every GP iteration fell back

    def test_excluded_never_suggested_random(self):
        space = SearchSpace([IntParam("k", 1, 2)])
        rs = RandomSearch(space, seed=0, avoid_duplicates=False)
        rs.set_excluded(lambda cfg: cfg["k"] == 1)
        assert all(rs.suggest()["k"] == 2 for _ in range(20))

    def test_excluded_skipped_by_grid(self):
        space = SearchSpace([IntParam("k", 1, 4)])
        gs = GridSearch(space, points_per_dim=4)
        gs.set_excluded(lambda cfg: cfg["k"] in (1, 3))
        seen = []
        with pytest.raises(StopIteration):
            while True:
                seen.append(gs.suggest()["k"])
        assert seen == [2, 4]

    def test_excluded_respected_by_bo(self, float_space):
        bo = BayesianOptimizer(float_space, n_initial=3, seed=0)
        bo.set_excluded(lambda cfg: cfg["x"] > 0)
        for _ in range(10):
            cfg = bo.suggest()
            assert cfg["x"] <= 0
            bo.tell(cfg, bowl(cfg))

    @pytest.mark.parametrize("make", [
        pytest.param(lambda s: BayesianOptimizer(s, n_initial=2, seed=3), id="bayesian"),
        pytest.param(lambda s: RandomSearch(s, seed=3), id="random"),
        pytest.param(lambda s: GridSearch(s, points_per_dim=3, shuffle=True, seed=3),
                     id="grid"),
    ])
    def test_state_restore_resumes_identically(self, float_space, make):
        full = make(float_space)
        full.run(bowl, 8)

        # Interrupted twin: 4 trials, then a fresh optimizer replays them
        # from a journal-style JSON copy of the search state.
        half = make(float_space)
        half.run(bowl, 4)
        state = json.loads(json.dumps(half.search_state()))
        resumed = make(float_space)
        for t in half.history:
            resumed.tell(t.config, t.value)
        resumed.restore_search_state(state)
        resumed.run(bowl, 4)
        assert [t.config for t in resumed.history] == [t.config for t in full.history]
        np.testing.assert_array_equal(
            [t.value for t in resumed.history], [t.value for t in full.history]
        )


# ----------------------------------------------------------------------
# LoadDynamics end-to-end resilience
# ----------------------------------------------------------------------
class TestLoadDynamicsResilience:
    def test_nan_loss_fault_degrades_with_metadata(self, sine_series, tiny_space):
        settings = FrameworkSettings.tiny(max_iters=3, max_retries=1)
        ld = LoadDynamics(space=tiny_space, settings=settings)
        with injected("nan_loss@nn.fit:*"):
            predictor, report = ld.fit(sine_series)
        assert report.degraded
        assert report.n_infeasible == report.n_trials
        meta = report.trials[0].metadata
        assert meta["reason"] == "training_diverged"
        assert meta["error"] == "nonfinite_train_loss"
        assert meta["failing_epoch"] == 0
        assert meta["attempts"] == 2  # one retry-with-reseed happened
        assert report.telemetry["n_retries"] == report.n_trials

    def test_trial_timeout_degrades(self, sine_series, tiny_space):
        settings = FrameworkSettings.tiny(max_iters=2, trial_timeout_s=1e-5)
        ld = LoadDynamics(space=tiny_space, settings=settings)
        predictor, report = ld.fit(sine_series)
        assert report.degraded
        assert all(t.metadata["reason"] == "trial_timeout" for t in report.trials)
        assert all(t.metadata["attempts"] == 1 for t in report.trials)  # no retry
        # The naive fallback still predicts.
        assert predictor.predict_next(sine_series) == pytest.approx(sine_series[-1])

    def test_degraded_predictor_persists_via_naive_family(
        self, sine_series, tiny_space, tmp_path
    ):
        from repro.core import LoadDynamicsPredictor

        settings = FrameworkSettings.tiny(max_iters=2, trial_timeout_s=1e-5)
        predictor, report = LoadDynamics(
            space=tiny_space, settings=settings
        ).fit(sine_series)
        assert report.degraded
        assert predictor.family == "naive"
        # Degraded fits persist like any other: the naive family owns the
        # (weight-free) model format, and the round-trip predicts the same.
        predictor.save(tmp_path / "model")
        loaded = LoadDynamicsPredictor.load(tmp_path / "model")
        assert loaded.family == "naive"
        assert loaded.model.degraded
        assert loaded.predict_next(sine_series) == pytest.approx(
            predictor.predict_next(sine_series)
        )

    def test_gp_fault_does_not_abort_fit(self, sine_series, tiny_space):
        settings = FrameworkSettings.tiny(max_iters=4)
        ld = LoadDynamics(space=tiny_space, settings=settings)
        with injected("linalg@gp.fit:*"):
            predictor, report = ld.fit(sine_series)
        assert not report.degraded
        assert report.n_trials == 4
        assert report.telemetry["n_degraded_suggests"] >= 1

    def test_journal_written_and_loadable(self, sine_series, tiny_space, tmp_path):
        path = tmp_path / "run.jsonl"
        settings = FrameworkSettings.tiny(max_iters=3)
        ld = LoadDynamics(space=tiny_space, settings=settings)
        _, report = ld.fit(sine_series, journal=path)
        header, trials = TrialJournal.load(path)
        assert header["optimizer"] == "BayesianOptimizer"
        assert len(trials) == report.n_trials == 3
        assert trials[-1]["state"]["rng"]["bit_generator"] == "PCG64"

    def test_resume_requires_journal(self, sine_series, tiny_space):
        ld = LoadDynamics(space=tiny_space, settings=FrameworkSettings.tiny())
        with pytest.raises(ValueError, match="requires a journal"):
            ld.fit(sine_series, resume=True)

    def test_resume_header_mismatch_rejected(self, sine_series, tiny_space,
                                             tmp_path):
        path = tmp_path / "run.jsonl"
        LoadDynamics(
            space=tiny_space, settings=FrameworkSettings.tiny(seed=0)
        ).fit(sine_series, journal=path)
        other = LoadDynamics(space=tiny_space, settings=FrameworkSettings.tiny(seed=9))
        with pytest.raises(JournalError, match="different run"):
            other.fit(sine_series, journal=path, resume=True)

    def test_crash_and_resume_matches_uninterrupted_run(self, sine_series,
                                                        tiny_space, tmp_path):
        """The acceptance scenario: kill the run mid-flight via an injected
        fault, resume from the journal, and get a bit-for-bit identical
        result to the uninterrupted run."""
        settings = FrameworkSettings.tiny(max_iters=6)

        full_path = tmp_path / "full.jsonl"
        ld_full = LoadDynamics(space=tiny_space, settings=settings)
        _, rep_full = ld_full.fit(sine_series, journal=full_path)

        # Killed at the 4th objective evaluation: 3 trials reach the journal.
        crash_path = tmp_path / "crash.jsonl"
        ld_crash = LoadDynamics(space=tiny_space, settings=settings)
        with injected("kill@objective:4"):
            with pytest.raises(SimulatedCrash):
                ld_crash.fit(sine_series, journal=crash_path)
        _, trials_after_crash = TrialJournal.load(crash_path)
        assert len(trials_after_crash) == 3

        ld_resume = LoadDynamics(space=tiny_space, settings=settings)
        predictor, rep_resumed = ld_resume.fit(
            sine_series, journal=crash_path, resume=True
        )
        assert rep_resumed.n_resumed == 3
        assert rep_resumed.n_trials == rep_full.n_trials == 6
        assert rep_resumed.best_hyperparameters == rep_full.best_hyperparameters
        np.testing.assert_array_equal(
            rep_resumed.trial_values(), rep_full.trial_values()
        )
        assert rep_resumed.best_validation_mape == rep_full.best_validation_mape
        assert [t.config for t in rep_resumed.trials] == [
            t.config for t in rep_full.trials
        ]
        # The journal now holds the complete run.
        _, trials_final = TrialJournal.load(crash_path)
        assert len(trials_final) == 6
        # The resumed predictor is a real trained model, not the fallback.
        assert not rep_resumed.degraded
        assert isinstance(predictor.model, LSTMRegressor)

    def test_resume_with_complete_journal_retrains_best_only(
        self, sine_series, tiny_space, tmp_path
    ):
        """Resuming a journal that already holds max_iters trials must not
        run any new trials — just reconstruct the best model."""
        path = tmp_path / "done.jsonl"
        settings = FrameworkSettings.tiny(max_iters=3)
        _, rep_a = LoadDynamics(space=tiny_space, settings=settings).fit(
            sine_series, journal=path
        )
        _, rep_b = LoadDynamics(space=tiny_space, settings=settings).fit(
            sine_series, journal=path, resume=True
        )
        assert rep_b.n_resumed == 3
        assert rep_b.n_trials == 3
        assert rep_b.best_validation_mape == rep_a.best_validation_mape
        assert rep_b.best_hyperparameters == rep_a.best_hyperparameters


# ----------------------------------------------------------------------
# atomic model serialization
# ----------------------------------------------------------------------
class TestAtomicSerialization:
    def test_no_tmp_file_left_behind(self, tmp_path):
        m = LSTMRegressor(hidden_size=3, seed=0)
        path = save_regressor(m, tmp_path / "m.npz")
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_garbage_file_raises_corrupt_error(self, tmp_path):
        path = tmp_path / "m.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(CorruptModelError):
            load_regressor(path)

    def test_truncated_file_raises_corrupt_error(self, tmp_path):
        m = LSTMRegressor(hidden_size=4, num_layers=2, seed=1)
        path = save_regressor(m, tmp_path / "m.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptModelError):
            load_regressor(path)

    def test_missing_file_stays_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_regressor(tmp_path / "absent.npz")

    def test_corrupt_error_is_a_valueerror(self):
        assert issubclass(CorruptModelError, ValueError)
