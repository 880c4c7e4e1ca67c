"""Search-driver stage: Fig. 6 step 3 with the resilience semantics.

The driver owns the suggest → evaluate → tell loop around any
:mod:`repro.bayesopt` optimizer, replacing ``optimizer.run`` with the
crash-safe variant the framework has always used:

* every completed trial is fsynced to the :class:`TrialJournal`
  (config, value, metadata, optimizer search state) before the next
  one starts, so a crash loses at most the in-flight trial;
* repeat offenders (divergence/timeout failures) are quarantined and
  never suggested again;
* a journal written by an interrupted run can be *replayed* into a
  fresh optimizer — each trial is ``tell``-ed with its recorded value,
  no retraining — after which the continued run is deterministic.

The driver is model-family-agnostic: it sees only configs, objective
values, and metadata dicts.  What a trial *does* lives in the
evaluation stage (:class:`~repro.core.evaluation.TrialEvaluator`).
"""

from __future__ import annotations

from repro.core.cache import TrialMemo
from repro.core.constants import FAILURE_REASONS
from repro.bayesopt.optimizer import unpack_objective
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.resilience import faults as _faults
from repro.resilience.journal import TrialJournal

logger = get_logger("core.driver")

__all__ = ["SearchDriver", "normalize_journal_header"]


def normalize_journal_header(stored_header: dict) -> dict:
    """Upgrade a pre-family journal header in place (and return it).

    Journals written before the model-family refactor have no
    ``family`` key; every one of them was an LSTM search, so the tag
    defaults to ``"lstm"`` and old journals keep resuming bit-for-bit.
    """
    stored_header.setdefault("family", "lstm")
    return stored_header


class SearchDriver:
    """Resilient suggest/evaluate/tell loop over one optimizer.

    Parameters
    ----------
    optimizer:
        A :class:`~repro.bayesopt.optimizer.SearchOptimizer` (BO, random
        or grid search).
    journal:
        Optional open :class:`~repro.resilience.TrialJournal`; completed
        trials are appended (fsynced) as they finish.
    quarantine:
        Optional :class:`~repro.resilience.retry.Quarantine` ledger.
    """

    def __init__(self, optimizer, journal: TrialJournal | None = None,
                 quarantine=None):
        self.optimizer = optimizer
        self.journal = journal
        self.quarantine = quarantine

    # ------------------------------------------------------------------
    def run(self, objective, n_iters: int) -> None:
        """Serial loop: one suggest → objective → tell per iteration."""
        for _ in range(max(0, n_iters)):
            try:
                config = self.optimizer.suggest()
            except StopIteration:  # grid exhausted
                break
            value, meta = unpack_objective(objective(config))
            record = self.optimizer.tell(config, value, **meta)
            self._after_trial(record, config)

    def run_parallel(
        self,
        raw_eval,
        settle,
        memo: TrialMemo,
        n_iters: int,
        workers: int,
    ) -> None:
        """Batched variant of :meth:`run` for ``fit(n_workers > 1)``.

        Each round asks the optimizer for up to ``workers`` candidates
        (constant-liar batch for the GP, plain draws otherwise),
        short-circuits memoized configs, trains the rest concurrently
        through :func:`repro.parallel.parallel_map`, and tells/journals
        the results in suggestion order — so the trial history layout
        matches the serial driver's.
        """
        from repro.parallel import parallel_map

        remaining = max(0, n_iters)
        while remaining > 0:
            try:
                configs = self.optimizer.suggest_batch(min(workers, remaining))
            except StopIteration:  # grid exhausted
                break
            if not configs:
                break
            injector = _faults.active()
            if injector is not None:
                # Fault injection stays in the parent so injected
                # failures hit the run deterministically, not whichever
                # worker happens to import the injector.
                for _ in configs:
                    injector.maybe_fire("objective")
            results: list = [None] * len(configs)
            todo: list[int] = []
            for i, config in enumerate(configs):
                hit = memo.get(config)
                if hit is not None:
                    value, meta = hit
                    results[i] = (value, None, {**meta, "cache_hit": True})
                else:
                    todo.append(i)
            if len(todo) == 1:
                results[todo[0]] = raw_eval(configs[todo[0]])
            elif todo:
                outs = parallel_map(
                    raw_eval,
                    [configs[i] for i in todo],
                    n_workers=workers,
                    chunks_per_worker=1,
                )
                for i, out in zip(todo, outs, strict=True):
                    results[i] = out
            for config, (value, model, meta) in zip(configs, results, strict=True):
                value, meta = settle(config, value, model, meta)
                record = self.optimizer.tell(config, value, **meta)
                self._after_trial(record, config)
            remaining -= len(configs)

    # ------------------------------------------------------------------
    def _after_trial(self, record, config) -> None:
        """Post-``tell`` bookkeeping shared by both loops: quarantine
        repeat offenders and fsync the trial to the journal."""
        if (
            self.quarantine is not None
            and record.metadata.get("reason") in FAILURE_REASONS
        ):
            failures = self.quarantine.record_failure(config)
            if self.quarantine.is_quarantined(config):
                _metrics.counter("trial.quarantined").inc()
                logger.warning(
                    "config %s quarantined after %d failures", config, failures
                )
                if _events.enabled():
                    _events.emit(
                        "trial.quarantined", config=dict(config), failures=failures
                    )
        if self.journal is not None:
            self.journal.append_trial(
                record.iteration,
                record.config,
                record.value,
                record.metadata,
                state=self.optimizer.search_state(),
            )

    # ------------------------------------------------------------------
    def replay(
        self, header: dict, best: dict, memo: TrialMemo | None = None
    ) -> tuple[int, int]:
        """Feed the journal's completed trials back into the optimizer.

        Returns ``(n_replayed, n_infeasible)``.  Each trial is
        ``tell``-ed with its recorded value (no retraining), the
        quarantine ledger is rebuilt from the recorded failure reasons,
        and the optimizer's search state (RNG/cursor) is restored from
        the last trial — after which the continued run is deterministic.
        """
        stored_header, trials = TrialJournal.load(self.journal.path)
        TrialJournal.check_header(normalize_journal_header(stored_header), header)
        n_infeasible = 0
        last_state = None
        for trial in trials:
            meta = dict(trial.get("metadata") or {})
            if memo is not None:
                # Seed the duplicate-config memo so the continued run
                # never retrains a journaled config.
                memo.put(trial["config"], trial["value"], meta)
            meta["replayed"] = True
            record = self.optimizer.tell(trial["config"], trial["value"], **meta)
            if meta.get("infeasible"):
                n_infeasible += 1
                if (
                    self.quarantine is not None
                    and meta.get("reason") in FAILURE_REASONS
                ):
                    self.quarantine.record_failure(record.config)
            elif record.value < best["mape"]:
                best.update(mape=record.value, config=record.config, model=None)
            if trial.get("state") is not None:
                last_state = trial["state"]
        if last_state is not None:
            self.optimizer.restore_search_state(last_state)
        logger.info(
            "resumed from %s: replayed %d trials (%d infeasible)",
            self.journal.path, len(trials), n_infeasible,
        )
        return len(trials), n_infeasible
