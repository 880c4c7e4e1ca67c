"""The Bayesian-Optimization loop (paper Fig. 6 steps 2–4).

Each iteration:

1. fit a GP regression model over (explored hyperparameter sets →
   cross-validation error) — the "database" of validated models;
2. maximize the acquisition (expected improvement by default) over the
   unit cube to propose the next, potentially-better set;
3. hand it to the caller (ask/tell) or evaluate the objective directly
   (:meth:`BayesianOptimizer.run`).

Acquisition maximization uses dense random candidates plus local
perturbations of the incumbent, followed by an L-BFGS-B polish of the
best candidate in the continuous relaxation; the decoded config is
deduplicated against history (integer rounding collapses nearby points).

Two opt-in fast paths (off by default; the default proposal stream is
pinned bit-for-bit by ``tests/test_bayesopt_fixture.py``):

- ``incremental=True`` keeps one surrogate alive across iterations and
  folds each ``tell`` into it with a rank-1 Cholesky append
  (:meth:`GaussianProcessRegressor.update`, O(n^2)), re-optimizing the
  kernel hyperparameters only every ``reopt_every`` tells instead of
  every suggestion.
- ``acq_optimizer="sweep"`` replaces the scalar L-BFGS-B polish with a
  scrambled-Sobol candidate sweep plus a batched top-k stochastic
  polish: every acquisition evaluation is one vectorized GP posterior
  call over an ``(N, D)`` matrix, never a Python-loop of per-point
  solves.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

from repro.bayesopt.acquisition import ACQUISITIONS, score_candidates
from repro.bayesopt.space import SearchSpace
from repro.gp import GaussianProcessRegressor, Matern52
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.state import RNG, Stateful

__all__ = [
    "BayesianOptimizer",
    "SearchOptimizer",
    "TrialRecord",
    "unpack_objective",
]

logger = get_logger("bayesopt")

#: Batched-polish geometry for the "sweep" acquisition optimizer: the
#: top ``_SWEEP_TOPK`` sweep candidates are each refined with
#: ``_SWEEP_PROPOSALS`` Gaussian perturbations per round over
#: ``_SWEEP_ROUNDS`` rounds of halving step size — one vectorized GP
#: call per round instead of ~50 scalar L-BFGS-B evaluations.
_SWEEP_TOPK = 4
_SWEEP_PROPOSALS = 16
_SWEEP_ROUNDS = 3


def unpack_objective(out) -> tuple[float, dict]:
    """Normalize an objective return value.

    Objectives may return a bare float or ``(value, metadata)`` — the
    metadata dict is attached to the :class:`TrialRecord` via ``tell``.
    """
    if isinstance(out, tuple):
        value, meta = out
        return float(value), dict(meta)
    return float(out), {}


@dataclass
class TrialRecord:
    """One validated hyperparameter set and its objective value."""

    iteration: int
    config: dict
    value: float
    metadata: dict = field(default_factory=dict)


class SearchOptimizer(Stateful):
    """The ask/tell bookkeeping BO, random and grid search share.

    Subclasses implement ``suggest`` and declare their resumable search
    state (an RNG or a grid cursor) in ``_persisted``.  That state is
    what :meth:`search_state` returns: ``tell`` consumes no randomness,
    so the state captured after trial *i* is exactly the state
    ``suggest`` for trial *i+1* will see, and restoring it makes a
    resumed run bit-for-bit identical.
    """

    #: ``optimizer`` field of the per-trial ``bo.trial`` event.
    kind = "search"

    def __init__(self, space: SearchSpace):
        self.space = space
        self.history: list[TrialRecord] = []
        self._excluded: Callable[[dict], bool] | None = None
        #: Configs suggested by an in-flight :meth:`suggest_batch` whose
        #: objective values have not been told yet; deduplication treats
        #: them as explored so one batch never proposes a point twice.
        self._pending_batch: list[dict] = []

    @property
    def n_trials(self) -> int:
        return len(self.history)

    @property
    def best_record(self) -> TrialRecord:
        """The lowest-error trial seen so far (workflow step 4)."""
        if not self.history:
            raise RuntimeError("no trials evaluated yet")
        return min(self.history, key=lambda r: r.value)

    @property
    def best_config(self) -> dict:
        return dict(self.best_record.config)

    @property
    def best_value(self) -> float:
        return self.best_record.value

    def set_excluded(self, predicate: Callable[[dict], bool] | None) -> None:
        """Ban configs for which ``predicate`` is true from being suggested
        (the quarantine hook — see :class:`repro.resilience.Quarantine`)."""
        self._excluded = predicate

    def search_state(self) -> dict:
        """Serializable state needed to resume suggesting deterministically."""
        return self.state_dict()

    def restore_search_state(self, state: dict) -> None:
        self.load_state_dict(state)

    def suggest(self) -> dict:
        raise NotImplementedError

    def suggest_batch(self, q: int) -> list[dict]:
        """Up to ``q`` configs for concurrent evaluation.

        The serial proposals, in order: each ``suggest`` sees the points
        already in this batch as pending, which is exactly what serial
        ``suggest`` would have seen as history at the same trial index.
        A partial batch is returned when the proposals run out mid-batch
        (an exhausted grid); :class:`StopIteration` only when none remain.
        ``suggest_batch(1)`` reduces exactly to :meth:`suggest`.
        """
        if q < 1:
            raise ValueError("batch size q must be >= 1")
        self._pending_batch = []
        if q == 1:
            return [self.suggest()]
        configs: list[dict] = []
        for _ in range(q):
            try:
                config = self.suggest()
            except StopIteration:
                if not configs:
                    raise
                break
            configs.append(config)
            self._pending_batch.append(config)
            self._batched(config)
        return configs

    def _batched(self, config: dict) -> None:
        """Hook: ``config`` joined the in-flight batch."""

    def tell(self, config: dict, value: float, **metadata) -> TrialRecord:
        """Record the objective value for a suggested (or external) config.

        A failed (non-finite) value is recorded at a large finite penalty
        so the search steers away instead of crashing.  Every trial is
        counted and, when an event sink is registered, emitted as one
        ``bo.trial`` event with its config, value and metadata.
        """
        self.space.validate(config)
        if not np.isfinite(value):
            value = 1e6
        if self._pending_batch:
            try:
                self._pending_batch.remove(config)
            except ValueError:
                pass
        record = TrialRecord(
            iteration=self.n_trials, config=dict(config), value=float(value),
            metadata=metadata,
        )
        self.history.append(record)
        _metrics.counter("bo.trials").inc()
        _metrics.histogram("bo.objective").observe(record.value)
        if _events.enabled():
            _events.emit(
                "bo.trial",
                optimizer=self.kind,
                iteration=record.iteration,
                config=dict(record.config),
                value=record.value,
                **record.metadata,
            )
        return record

    def run(
        self,
        objective: Callable[[dict], float],
        n_iters: int,
        callback: Callable[[TrialRecord], None] | None = None,
        n_workers: int | None = None,
    ) -> TrialRecord:
        """Evaluate ``objective`` for ``n_iters`` iterations; return the best.

        ``n_iters`` is the paper's ``maxIters`` (100 in their runs).  The
        objective may return a bare value or ``(value, metadata)``;
        metadata lands on the :class:`TrialRecord`.

        Serial when ``n_workers`` is ``None`` or 1.  Otherwise iterations
        are grouped into :meth:`suggest_batch` batches evaluated through
        :func:`repro.parallel.parallel_map` (which degrades to a serial
        loop where process pools are unavailable); the objective must
        then be picklable.  Results are told in suggestion order, so the
        trial history is deterministic for a deterministic objective.
        """
        from repro.parallel import effective_workers, parallel_map

        if n_iters < 1:
            raise ValueError("n_iters must be >= 1")
        workers = 1 if n_workers is None else effective_workers(n_workers)
        remaining = n_iters
        while remaining > 0:
            try:
                if workers <= 1:
                    configs = [self.suggest()]
                else:
                    configs = self.suggest_batch(min(workers, remaining))
            except StopIteration:  # grid exhausted
                break
            if workers <= 1 or len(configs) < 2:
                outs = [objective(c) for c in configs]
            else:
                outs = parallel_map(
                    objective, configs, n_workers=workers, chunks_per_worker=1
                )
            for config, out in zip(configs, outs, strict=True):
                value, meta = unpack_objective(out)
                record = self.tell(config, value, **meta)
                if callback is not None:
                    callback(record)
            remaining -= len(configs)
        return self.best_record


class BayesianOptimizer(SearchOptimizer):
    """GP-based minimizer over a :class:`SearchSpace`.

    Parameters
    ----------
    space:
        The hyperparameter space (Table III ranges for LoadDynamics).
    n_initial:
        Random configurations evaluated before the GP takes over (the
        workflow "starts with a randomly selected set", Fig. 6).
    acquisition:
        ``"ei"`` (paper), ``"pi"`` or ``"lcb"``.
    xi / kappa:
        Acquisition exploration parameters.
    n_candidates:
        Random candidates scored per suggestion.
    seed:
        Reproducibility seed for candidate sampling and the GP restarts.
    incremental:
        Keep one surrogate alive across iterations; each ``tell`` is a
        rank-1 Cholesky append (O(n^2)) and kernel hyperparameters are
        re-optimized only every ``reopt_every`` tells.  Off by default:
        the incremental schedule consumes the RNG stream differently
        (no per-suggest hyperopt), so it is a distinct — internally
        deterministic — search path, not a drop-in replica.
    reopt_every:
        With ``incremental``, full surrogate refits (with hyperparameter
        re-optimization) happen every this many GP-backed tells.
    acq_optimizer:
        ``"auto"`` (sweep when incremental, else polish), ``"polish"``
        (L-BFGS-B from the best candidate — the pre-perf-pass default),
        or ``"sweep"`` (Sobol sweep + batched top-k stochastic polish).
    """

    kind = "bayesian"
    _persisted = {"_rng": RNG}

    def __init__(
        self,
        space: SearchSpace,
        n_initial: int = 5,
        acquisition: str = "ei",
        xi: float = 0.01,
        kappa: float = 2.0,
        n_candidates: int = 1024,
        gp_noise: float = 1e-4,
        seed: int = 0,
        incremental: bool = False,
        reopt_every: int = 8,
        acq_optimizer: str = "auto",
    ):
        if acquisition not in ACQUISITIONS:
            raise ValueError(
                f"unknown acquisition {acquisition!r}; choose from {sorted(ACQUISITIONS)}"
            )
        if n_initial < 1:
            raise ValueError("n_initial must be >= 1")
        if acq_optimizer not in ("auto", "polish", "sweep"):
            raise ValueError(
                f"unknown acq_optimizer {acq_optimizer!r}; "
                "choose from ['auto', 'polish', 'sweep']"
            )
        if reopt_every < 1:
            raise ValueError("reopt_every must be >= 1")
        super().__init__(space)
        self.n_initial = int(n_initial)
        self.acquisition_name = acquisition
        self.xi = float(xi)
        self.kappa = float(kappa)
        self.n_candidates = int(n_candidates)
        self.gp_noise = float(gp_noise)
        self.incremental = bool(incremental)
        self.reopt_every = int(reopt_every)
        if acq_optimizer == "auto":
            acq_optimizer = "sweep" if self.incremental else "polish"
        self.acq_optimizer = acq_optimizer
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        #: Persistent surrogate (incremental mode only).  ``None`` means
        #: the next GP suggestion performs a full fit with hyperparameter
        #: optimization; a held GP is reused as long as its observation
        #: count matches the true history (constant-liar lies and
        #: external tells invalidate it).
        self._gp: GaussianProcessRegressor | None = None
        self._gp_tells = 0
        self._X: list[np.ndarray] = []
        self._y: list[float] = []
        #: Timings of the most recent :meth:`suggest`, attached to the
        #: next :meth:`tell`'s record so every trial carries the cost of
        #: proposing it (surrogate fit + acquisition optimization).
        self._suggest_timings: dict = {}
        #: Per-suggestion timing dicts queued by :meth:`suggest_batch`,
        #: consumed one per :meth:`tell` so batched trials carry their
        #: own proposal costs just like serial ones.
        self._batch_timings: deque[dict] = deque()
        #: The constant-liar value of the in-flight batch.
        self._lie: float | None = None

    def restore_search_state(self, state: dict) -> None:
        super().restore_search_state(state)
        # A resume is a natural re-optimization point: the persistent
        # surrogate's hyperparameters cannot be serialized through the
        # journal, so drop it and let the next suggestion refit fully.
        self._gp = None
        self._gp_tells = 0

    def _sample_novel(self) -> dict:
        """Uniform sample, dodging excluded configs when a ban is active."""
        config = self.space.sample(self._rng, 1)[0]
        if self._excluded is None:
            return config
        for _ in range(32):
            if not self._excluded(config):
                return config
            config = self.space.sample(self._rng, 1)[0]
        return config

    # ------------------------------------------------------------------
    # ask / tell
    # ------------------------------------------------------------------
    def suggest(self) -> dict:
        """Propose the next hyperparameter set to validate.

        If the GP surrogate cannot be fit or optimized (singular kernel
        matrix, numerical blow-up), the iteration degrades to a random
        suggestion instead of aborting the run; the degradation is
        flagged on the next trial's metadata and telemetry.
        """
        self._suggest_timings = {}
        if self.n_trials < self.n_initial or len(self._y) < 2:
            config = self._sample_novel()
        else:
            try:
                config = self._suggest_with_gp()
            except (np.linalg.LinAlgError, FloatingPointError) as exc:
                _metrics.counter("bo.surrogate_failures").inc()
                logger.warning(
                    "surrogate failed at trial %d (%s); degrading to a "
                    "random suggestion",
                    self.n_trials,
                    exc,
                )
                if _events.enabled():
                    _events.emit(
                        "bo.degraded", iteration=self.n_trials, error=str(exc)
                    )
                self._suggest_timings["degraded_suggest"] = True
                config = self._sample_novel()
        return config

    def suggest_batch(self, q: int) -> list[dict]:
        """Propose ``q`` configs to evaluate concurrently (ask/tell batch).

        Uses the *constant liar* strategy (Ginsbourger et al. 2010):
        after each suggestion the batch pretends the point was observed
        at the incumbent best value, so the next acquisition
        maximization is penalized around already-pending points and the
        batch spreads out instead of proposing q near-duplicates.  The
        lies are popped before returning — only real :meth:`tell` values
        ever enter the history.

        ``suggest_batch(1)`` is exactly :meth:`suggest`: same RNG
        stream, same proposal, no liar machinery.
        """
        self._batch_timings = deque()
        if q <= 1:
            return super().suggest_batch(q)
        self._lie = float(np.min(self._y)) if self._y else None
        n_told = len(self._y)
        t0 = time.perf_counter()
        try:
            configs = super().suggest_batch(q)
        finally:
            del self._X[n_told:]
            del self._y[n_told:]
        _metrics.counter("bo.batches").inc()
        if _events.enabled():
            _events.emit(
                "bo.batch",
                q=q,
                iteration=self.n_trials,
                lie=self._lie,
                suggest_seconds=time.perf_counter() - t0,
            )
        return configs

    def _batched(self, config: dict) -> None:
        # Keep the proposal's timings for its tell, and temporarily record
        # the lie so the next surrogate fit sees the point as explored.
        self._batch_timings.append(self._suggest_timings)
        self._suggest_timings = {}
        if self._lie is not None:
            self._X.append(self.space.to_unit(config))
            self._y.append(self._lie)

    def tell(self, config: dict, value: float, **metadata) -> TrialRecord:
        """Record the objective value for a suggested (or external) config."""
        t0 = time.perf_counter()
        if not self._suggest_timings and self._batch_timings:
            self._suggest_timings = self._batch_timings.popleft()
        if self._suggest_timings:
            metadata = {**self._suggest_timings, **metadata}
            self._suggest_timings = {}
        record = super().tell(config, value, **metadata)
        self._X.append(self.space.to_unit(config))
        self._y.append(record.value)
        if self.incremental:
            self._absorb_tell()
        logger.debug(
            "trial %d: value=%.4g config=%s", record.iteration, record.value, record.config
        )
        _metrics.timer("bo.tell_seconds").observe(time.perf_counter() - t0)
        return record

    def _absorb_tell(self) -> None:
        """Fold the newest observation into the persistent surrogate.

        Rank-1 append when the held GP trails the history by exactly one
        observation; every ``reopt_every`` tells the GP is dropped so the
        next suggestion refits fully with hyperparameter re-optimization
        (stale lengthscales are the failure mode of naive incremental
        BO).  Any mismatch — external tells, replayed journals — also
        drops the GP rather than guessing.
        """
        gp = self._gp
        if gp is None:
            return
        if gp.n_observations != len(self._y) - 1:
            self._gp = None
            self._gp_tells = 0
            return
        if self._gp_tells + 1 >= self.reopt_every:
            self._gp = None
            self._gp_tells = 0
            return
        try:
            gp.update(self._X[-1], self._y[-1])
        except (np.linalg.LinAlgError, FloatingPointError):
            self._gp = None
            self._gp_tells = 0
            return
        self._gp_tells += 1

    # ------------------------------------------------------------------
    # the GP suggestion machinery
    # ------------------------------------------------------------------
    def _fit_surrogate(self) -> GaussianProcessRegressor:
        gp = GaussianProcessRegressor(
            kernel=Matern52(ard=True, n_dims=self.space.n_dims, lengthscale=0.3),
            noise=self.gp_noise,
            optimize=True,
            optimize_noise=True,
            n_restarts=1,
            seed=int(self._rng.integers(2**31)),
        )
        gp.fit(np.vstack(self._X), np.asarray(self._y))
        return gp

    def _surrogate(self) -> GaussianProcessRegressor:
        """The surrogate for this suggestion: fresh fit, or the persistent
        incrementally-updated GP when it is in sync with the history.

        The held GP is only valid when its observation count equals the
        true history length — constant-liar lies appended by
        :meth:`suggest_batch` inflate ``self._y``, so batched suggests
        past the first fall through to a fresh lie-aware fit (and the
        result is *not* retained, keeping the persistent GP lie-free).
        """
        if (
            self.incremental
            and self._gp is not None
            and self._gp.n_observations == len(self._y)
        ):
            _metrics.counter("bo.surrogate.reused").inc()
            return self._gp
        gp = self._fit_surrogate()
        if self.incremental and not self._pending_batch:
            self._gp = gp
            self._gp_tells = 0
        return gp

    def _acquisition_values(
        self, gp: GaussianProcessRegressor, U: np.ndarray
    ) -> np.ndarray:
        return score_candidates(
            gp,
            U,
            self.acquisition_name,
            float(np.min(self._y)),
            xi=self.xi,
            kappa=self.kappa,
        )

    def _suggest_with_gp(self) -> dict:
        t0 = time.perf_counter()
        gp = self._surrogate()
        t1 = time.perf_counter()
        self._suggest_timings["surrogate_fit_s"] = t1 - t0
        _metrics.timer("bo.surrogate_fit_seconds").observe(t1 - t0)
        try:
            if self.acq_optimizer == "sweep":
                return self._optimize_acquisition_sweep(gp)
            return self._optimize_acquisition(gp)
        finally:
            t2 = time.perf_counter()
            self._suggest_timings["acq_opt_s"] = t2 - t1
            _metrics.timer("bo.acq_opt_seconds").observe(t2 - t1)

    def _optimize_acquisition(self, gp: GaussianProcessRegressor) -> dict:
        d = self.space.n_dims

        # Candidate pool: global uniform + local Gaussian perturbations of
        # the incumbent (standard GPyOpt-style mixed strategy).
        n_local = max(1, self.n_candidates // 4)
        U_global = self._rng.uniform(size=(self.n_candidates, d))
        incumbent = self._X[int(np.argmin(self._y))]
        U_local = np.clip(
            incumbent + 0.05 * self._rng.standard_normal((n_local, d)), 0.0, 1.0
        )
        U = np.vstack([U_global, U_local])
        scores = self._acquisition_values(gp, U)
        u_best = U[int(np.argmax(scores))]

        # L-BFGS-B polish in the continuous relaxation.
        def neg_acq(u):
            return -float(self._acquisition_values(gp, u[None, :])[0])

        res = minimize(
            neg_acq,
            u_best,
            method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * d,
            options={"maxiter": 50},
        )
        if np.isfinite(res.fun) and -res.fun >= float(np.max(scores)):
            u_best = res.x
        _metrics.gauge("bo.acquisition.candidates").set(
            float(U.shape[0] + res.nfev)
        )

        return self._decode_best(u_best, U, scores)

    def _optimize_acquisition_sweep(self, gp: GaussianProcessRegressor) -> dict:
        """Vectorized candidate sweep + batched top-k stochastic polish.

        All acquisition evaluations are batched GP posterior calls — no
        scalar objective loop.  The global pool is a scrambled Sobol
        sequence (seeded from the run RNG stream) when ``n_candidates``
        is a power of two, degrading to uniform sampling otherwise; it
        is joined by local Gaussian perturbations of the incumbent, as
        in the polish path.  The top ``_SWEEP_TOPK`` candidates are then
        refined jointly: each round scores ``topk x _SWEEP_PROPOSALS``
        perturbations in one GP call and halves the step size.
        """
        d = self.space.n_dims
        n_cand = self.n_candidates
        if n_cand >= 8 and (n_cand & (n_cand - 1)) == 0:
            sobol = qmc.Sobol(
                d, scramble=True, seed=int(self._rng.integers(2**31))
            )
            U_global = sobol.random(n_cand)
        else:
            U_global = self._rng.uniform(size=(n_cand, d))
        n_local = max(1, n_cand // 4)
        incumbent = self._X[int(np.argmin(self._y))]
        U_local = np.clip(
            incumbent + 0.05 * self._rng.standard_normal((n_local, d)), 0.0, 1.0
        )
        U = np.vstack([U_global, U_local])
        scores = self._acquisition_values(gp, U)
        n_scored = U.shape[0]

        k = min(_SWEEP_TOPK, len(scores))
        top = np.argsort(scores)[::-1][:k]
        centers = U[top].copy()
        center_scores = scores[top].copy()
        sigma = 0.05
        m = _SWEEP_PROPOSALS
        rows = np.arange(k)
        for _ in range(_SWEEP_ROUNDS):
            P = np.clip(
                centers[:, None, :]
                + sigma * self._rng.standard_normal((k, m, d)),
                0.0,
                1.0,
            )
            s = self._acquisition_values(gp, P.reshape(k * m, d)).reshape(k, m)
            n_scored += k * m
            best_j = np.argmax(s, axis=1)
            improved = s[rows, best_j] > center_scores
            centers[improved] = P[rows, best_j][improved]
            center_scores[improved] = s[rows, best_j][improved]
            sigma *= 0.5
        u_best = centers[int(np.argmax(center_scores))]
        _metrics.gauge("bo.acquisition.candidates").set(float(n_scored))

        return self._decode_best(u_best, U, scores)

    def _decode_best(
        self, u_best: np.ndarray, U: np.ndarray, scores: np.ndarray
    ) -> dict:
        """Decode the winning unit-cube point, dodging explored configs."""
        config = self.space.from_unit(u_best)
        if self._is_duplicate(config):
            # Integer rounding collapsed onto an explored point; fall back
            # to the best *novel* candidate, then to random.
            order = np.argsort(scores)[::-1]
            for idx in order[: min(64, len(order))]:
                cand = self.space.from_unit(U[idx])
                if not self._is_duplicate(cand):
                    return cand
            return self._sample_novel()
        return config

    def _is_duplicate(self, config: dict) -> bool:
        if self._excluded is not None and self._excluded(config):
            return True
        if any(p == config for p in self._pending_batch):
            return True
        return any(r.config == config for r in self.history)
