"""Guarded serving: output validation, fallback chain, corrupt-model shield.

:class:`GuardedPredictor` wraps any predictor — a tuned
:class:`~repro.core.predictor.LoadDynamicsPredictor`, the adaptive
variant, or any baseline — for online use in front of the autoscaler:

* **output validation** — a non-finite forecast is a fault (counted,
  never served); finite forecasts are clamped into
  ``[0, guard_factor x rolling max]`` so a model that momentarily
  explodes cannot order a thousand VMs;
* **fallback chain** — tuned model → seasonal-naive baseline →
  last-value persistence; the first stage that produces a valid value
  serves it, with per-stage ``serving.fallback.*`` counters;
* **circuit breaker** — repeated primary failures open a
  :class:`~repro.serving.breaker.CircuitBreaker`, shedding the model
  (fallback serves directly) until probation probes pass;
* **corrupt-model shield** — :meth:`GuardedPredictor.load` turns any
  unreadable/truncated predictor directory into a typed
  :class:`CorruptModelError`, or (``on_corrupt="fallback"``) into a
  guarded predictor that serves from the fallback chain alone.

Zero-overhead guarantee: on a healthy model and in-range forecast the
served value is *bit-for-bit* the primary's own output — validation
uses comparisons only, never arithmetic (regression-tested in
``tests/test_serving_guard.py``).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from repro.baselines.base import Predictor
from repro.baselines.naive import LastValuePredictor, SeasonalNaivePredictor
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.resilience import faults as _faults
from repro.serving.breaker import CircuitBreaker
from repro.state import COUNTS, FLOAT, NESTED, Stateful, optional

__all__ = ["CorruptModelError", "GuardedPredictor", "default_fallbacks"]

logger = get_logger("serving.guard")


class CorruptModelError(Exception):
    """A saved predictor directory could not be loaded back.

    Raised by :meth:`GuardedPredictor.load` for truncated/corrupted
    ``predictor.json`` or model-weight files (and for injected
    ``corrupt@model.load`` faults) so serving code has one typed error
    to handle instead of the zoo of JSON/zipfile/OS errors underneath.
    """

    def __init__(self, message: str, directory: str | Path | None = None):
        super().__init__(message)
        self.directory = str(directory) if directory is not None else None


def default_fallbacks(period: int | None = None) -> list[Predictor]:
    """The standard fallback chain: seasonal-naive (if periodic) → last value.

    ``period`` is the season length in intervals (e.g. ``1440 //
    interval_minutes`` for a daily cycle); ``None`` or ``< 2`` drops the
    seasonal stage.
    """
    chain: list[Predictor] = []
    if period is not None and period >= 2:
        chain.append(SeasonalNaivePredictor(period))
    chain.append(LastValuePredictor())
    return chain


class GuardedPredictor(Stateful, Predictor):
    """Wrap a predictor with validation, a fallback chain, and a breaker.

    Parameters
    ----------
    primary:
        The tuned model being guarded; ``None`` serves from the fallback
        chain alone (the corrupt-model degradation mode).
    fallbacks:
        Ordered stand-in predictors; defaults to
        :func:`default_fallbacks` (last-value persistence only, since
        the seasonal period is workload-specific).
    guard_factor:
        Forecasts are clamped to ``guard_factor`` times the rolling
        maximum of the recent history — the sanity ceiling between the
        model and the provisioning policy.
    rolling_window:
        How much recent history feeds the rolling maximum.
    breaker:
        A configured :class:`CircuitBreaker`, or ``None`` for defaults.

    Frozen models and the stateless fallbacks carry no serving state; a
    primary with its own (e.g. :class:`~repro.core.adaptive.AdaptiveLoadDynamics`)
    is saved with the guard.
    """

    _persisted = {
        "served_by": COUNTS,
        "_drift_shift": optional(FLOAT),
        "breaker": NESTED,
        "primary": NESTED,
    }

    def __init__(
        self,
        primary: Predictor | None,
        fallbacks: list[Predictor] | tuple[Predictor, ...] | None = None,
        guard_factor: float = 10.0,
        rolling_window: int = 256,
        breaker: CircuitBreaker | None = None,
    ):
        if guard_factor <= 0:
            raise ValueError("guard_factor must be positive")
        if rolling_window < 1:
            raise ValueError("rolling_window must be >= 1")
        self.primary = primary
        self.fallbacks = list(fallbacks) if fallbacks is not None else default_fallbacks()
        self.guard_factor = float(guard_factor)
        self.rolling_window = int(rolling_window)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        base = primary.name if primary is not None else "none"
        self.name = f"guarded[{base}]"
        self.min_history = getattr(primary, "min_history", 1) if primary else 1
        #: Which column of a 2-D history is the forecast target; the
        #: bound, fallbacks, and rescue all work on that channel while a
        #: multivariate primary sees the full (steps, D) history.
        self.target_channel = int(getattr(primary, "target_channel", 0) or 0)
        #: Serve counts per stage: "primary", each fallback's name, "zero".
        self.served_by: dict[str, int] = {}
        #: Latched ``drift@serve.predict`` level shift: once the fault
        #: fires, every later primary forecast is scaled by this factor
        #: (a drift, once it happens, persists — that is what the drift
        #: detectors downstream must catch).
        self._drift_shift: float | None = None

        # Hot-path metric handles resolved once, not per prediction.
        self._c_total = _metrics.counter("serving.predictions")
        self._c_nonfinite = _metrics.counter("serving.fault.nonfinite")
        self._c_exception = _metrics.counter("serving.fault.exception")
        self._c_clamped = _metrics.counter("serving.clamped")
        self._c_shed = _metrics.counter("serving.breaker.short_circuit")

    # ------------------------------------------------------------------
    def _split_history(self, history) -> tuple[np.ndarray, np.ndarray]:
        """``(full, target)`` views of a raw history.

        1-D histories return the same array twice (no copy, no change);
        2-D ``(steps, D)`` histories pair the full matrix (for the
        primary) with the target channel (for bound/fallbacks/baselines).
        """
        h = np.asarray(history, dtype=np.float64)
        if h.ndim == 2:
            if not 0 <= self.target_channel < h.shape[1]:
                raise ValueError(
                    f"target_channel {self.target_channel} out of range "
                    f"for {h.shape[1]}-channel history"
                )
            return h, h[:, self.target_channel]
        h = h.ravel()
        return h, h

    def _bound(self, h: np.ndarray) -> float:
        """Sanity ceiling: guard_factor x max of the recent finite history."""
        tail = h[-self.rolling_window :]
        finite = tail[np.isfinite(tail)]
        if finite.size == 0:
            return math.inf
        return self.guard_factor * max(float(finite.max()), 0.0)

    def _served(self, stage: str) -> None:
        self.served_by[stage] = self.served_by.get(stage, 0) + 1

    def _validate(self, raw: float, bound: float, stage: str) -> float | None:
        """Return the servable value, or ``None`` when the stage faulted.

        Comparisons only on the happy path: an in-range forecast is
        returned exactly as produced (bit-for-bit).
        """
        value = float(raw)
        if not math.isfinite(value):
            self._c_nonfinite.inc()
            if _events.enabled():
                _events.emit("serving.fault", stage=stage, kind="nonfinite")
            return None
        if value < 0.0:
            self._c_clamped.inc()
            return 0.0
        if value > bound:
            self._c_clamped.inc()
            if _events.enabled():
                _events.emit(
                    "serving.fault", stage=stage, kind="clamped",
                    value=value, bound=bound,
                )
            return bound
        return value

    def _try_primary(self, h: np.ndarray, bound: float) -> float | None:
        if self.primary is None:
            return None
        if not self.breaker.allow():
            self._c_shed.inc()
            return None
        inj = _faults.active()
        try:
            fired = inj.maybe_fire("serve.predict") if inj is not None else {}
            raw = self.primary.predict_next(h)
            if "nan" in fired:
                raw = float("nan")
            if "drift" in fired:
                spec = fired["drift"]
                self._drift_shift = spec.arg if spec.arg is not None else 2.0
            if self._drift_shift is not None:
                raw = float(raw) * self._drift_shift
        except _faults.SimulatedCrash:
            raise
        except Exception as exc:
            self._c_exception.inc()
            self.breaker.record_failure()
            logger.warning("primary predictor %s failed: %s", self.primary.name, exc)
            if _events.enabled():
                _events.emit(
                    "serving.fault", stage="primary", kind="exception",
                    error=type(exc).__name__,
                )
            return None
        value = self._validate(raw, bound, "primary")
        if value is None:
            self.breaker.record_failure()
            return None
        self.breaker.record_success()
        return value

    # ------------------------------------------------------------------
    # Predictor protocol
    # ------------------------------------------------------------------
    def fit(self, history: np.ndarray) -> "GuardedPredictor":
        """Guarded refit: a failing primary fit keeps the stale model."""
        h, tgt = self._split_history(history)
        if self.primary is not None:
            try:
                self.primary.fit(h)
            except _faults.SimulatedCrash:
                raise
            except Exception as exc:
                _metrics.counter("serving.fault.fit_exception").inc()
                logger.warning(
                    "primary predictor %s fit failed (serving stale state): %s",
                    self.primary.name, exc,
                )
        for fb in self.fallbacks:
            try:
                fb.fit(tgt)
            except Exception:  # fallbacks must never take serving down
                logger.warning("fallback %s fit failed", fb.name)
        return self

    def predict_next(self, history: np.ndarray) -> float:
        """Always returns a finite value in ``[0, guard_factor x rolling max]``.

        A 2-D ``(steps, D)`` history feeds the primary whole; the
        rolling-max bound and the (univariate) fallback chain see the
        target channel.
        """
        h, tgt = self._split_history(history)
        bound = self._bound(tgt)
        self._c_total.inc()

        value = self._try_primary(h, bound)
        if value is not None:
            self._served("primary")
            return value

        for fb in self.fallbacks:
            try:
                raw = fb.predict_next(tgt)
            except _faults.SimulatedCrash:
                raise
            except Exception:
                continue
            value = self._validate(raw, bound, fb.name)
            if value is not None:
                self._served(fb.name)
                _metrics.counter(f"serving.fallback.{fb.name}").inc()
                if _events.enabled():
                    _events.emit("serving.fallback", stage=fb.name)
                return value

        # Terminal answer when even persistence has nothing finite.
        self._served("zero")
        _metrics.counter("serving.fallback.zero").inc()
        return 0.0

    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        directory: str | Path,
        *,
        on_corrupt: str = "raise",
        **kwargs,
    ) -> "GuardedPredictor":
        """Load a saved predictor directory behind the guard.

        Any failure to reconstruct the model — truncated
        ``predictor.json``, corrupted weight files, injected
        ``corrupt@model.load`` faults — surfaces as
        :class:`CorruptModelError` (``on_corrupt="raise"``) or degrades
        to a guarded predictor without a primary
        (``on_corrupt="fallback"``), which serves from the fallback
        chain.  Extra ``kwargs`` go to the constructor.
        """
        if on_corrupt not in ("raise", "fallback"):
            raise ValueError("on_corrupt must be 'raise' or 'fallback'")
        from repro.core.predictor import LoadDynamicsPredictor

        try:
            primary: Predictor | None = LoadDynamicsPredictor.load(directory)
        except _faults.SimulatedCrash:
            raise
        except Exception as exc:
            err = CorruptModelError(
                f"cannot load predictor from {directory}: "
                f"{type(exc).__name__}: {exc}",
                directory=directory,
            )
            if on_corrupt == "raise":
                raise err from exc
            logger.error("%s — serving from the fallback chain", err)
            _metrics.counter("serving.corrupt_model").inc()
            if _events.enabled():
                _events.emit(
                    "serving.corrupt_model",
                    directory=str(directory),
                    error=type(exc).__name__,
                )
            primary = None
        return cls(primary, **kwargs)
