"""Common predictor protocol and walk-forward evaluation.

The paper's problem statement (Eq. 1) makes every predictor a function of
the known history prefix: ``P_i = f(J_{i-1}, …, J_{i-n})``.  We model
that directly:

* :meth:`Predictor.fit` — (re)build internal state from a history prefix;
  expensive models (ARIMA, forests) implement it, cheap ones may not.
* :meth:`Predictor.predict_next` — return ``P_i`` given the prefix; must
  be side-effect free so councils can probe members cheaply.

:func:`walk_forward` replays the test portion of a trace interval by
interval, refitting every ``refit_every`` steps — this is exactly how the
evaluation in Section IV-B scores each technique on the last 20% of a
workload configuration.

The same walk is the Section IV-C serving rule, so every serving path
runs its one per-interval kernel, :func:`step` (forecast, score, decide),
with duck-typed monitors and controllers from the layers above.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger

__all__ = ["Predictor", "step", "walk", "walk_forward"]

#: The closed loop's degradations are the controller's tier switches.
logger = get_logger("autoscale.controller")


class Predictor:
    """Base class for one-step-ahead JAR predictors."""

    #: Human-readable name used in experiment tables.
    name: str = "predictor"

    #: Minimum history length ``predict_next`` needs to produce a value.
    min_history: int = 1

    def fit(self, history: np.ndarray) -> "Predictor":
        """(Re)build model state from the history prefix.  Default: no-op."""
        return self

    def predict_next(self, history: np.ndarray) -> float:
        """Predict the JAR of the next interval from the known prefix."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _fallback(self, history: np.ndarray) -> float:
        """Last-value persistence — the universal degenerate answer when a
        model cannot produce a number (too-short history, singular fit)."""
        return float(history[-1]) if len(history) else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def split_target(predictor: Predictor, series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(series, target)``: a 2-D ``(steps, D)`` series stays whole and
    its target is channel ``predictor.target_channel`` (default 0); any
    other series is flattened and is its own target."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 2:
        return series, series[:, int(getattr(predictor, "target_channel", 0) or 0)]
    series = series.ravel()
    return series, series


def bind_controller(controller, predictor: Predictor) -> None:
    """Start a fresh control loop, wiring a guarded predictor's circuit
    breaker into a controller that has none."""
    if controller.breaker is None:
        controller.breaker = getattr(predictor, "breaker", None)
    controller.reset()


def step(
    predictor: Predictor,
    history: np.ndarray,
    target_history: np.ndarray,
    actual: float,
    *,
    refit: bool,
    monitor=None,
    controller=None,
    clock=None,
) -> tuple[float, float]:
    """Serve one interval: ``(forecast, decision)``.

    ``history`` is what the predictor sees (``(i, D)`` for a multivariate
    predictor), ``target_history`` its target channel, and ``actual`` the
    target value revealed after the decision.  ``clock`` (e.g.
    ``time.perf_counter``) times ``predict_next`` alone for the monitor;
    ``None`` scores with ``latency_s=None``.

    * **Open loop** (no controller): fit and predict errors propagate; a
      non-finite forecast is rescued by persistence from
      ``target_history[-1]``, clipped at zero, and provisioned as
      ``ceil(forecast)`` VMs.
    * **Closed loop**: a failing fit keeps the stale model and a failing
      predict yields NaN, which :meth:`HybridController.step` routes to
      its reactive tier; only a finite forecast is scored.  Simulated
      process crashes derive from ``BaseException`` and still propagate.
    """
    closed = controller is not None
    if refit:
        try:
            predictor.fit(history)
        except Exception as exc:
            if not closed:
                raise
            _metrics.counter("autoscale.controller.fit_error").inc()
            logger.warning("proactive fit failed (stale model serves): %s", exc)
    t0 = clock() if clock is not None else 0.0
    try:
        p = float(predictor.predict_next(history))
    except Exception as exc:
        if not closed:
            raise
        _metrics.counter("autoscale.controller.forecast_error").inc()
        logger.warning("proactive forecast failed (reactive tier serves): %s", exc)
        p = math.nan
    latency = clock() - t0 if clock is not None else None
    if closed:
        if monitor is not None and math.isfinite(p):
            monitor.observe(max(p, 0.0), actual, latency_s=latency)
        return p, float(controller.step(p, target_history).vms)
    if not math.isfinite(p):
        # Persistence rescue; a non-finite last value (unsanitized
        # trace) must not leak through as the "rescue".
        last = float(target_history[-1])
        p = last if math.isfinite(last) else 0.0
    p = max(p, 0.0)
    if monitor is not None:
        monitor.observe(p, actual, latency_s=latency)
    return p, float(math.ceil(p))


def walk(
    predictor: Predictor,
    series: np.ndarray,
    start: int,
    end: int | None = None,
    *,
    refit_every: int = 1,
    monitor=None,
    controller=None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`step` over ``series[start:end]``: ``(forecasts, decisions)``.

    For each index ``i`` the predictor sees ``series[:i]`` only — no
    lookahead — and refits on every ``refit_every``-th step.  A 2-D
    series walks whole into the predictor while rescue, monitor and
    controller read the target channel (:func:`split_target`).  An
    attached controller starts a fresh loop; an attached monitor is fed
    each ``predict_next`` latency.
    """
    series, target = split_target(predictor, series)
    n = int(series.shape[0])
    end = n if end is None else end
    if not 0 < start <= end <= n:
        raise ValueError(f"invalid window [{start}, {end}) for series of length {n}")
    if refit_every < 1:
        raise ValueError("refit_every must be >= 1")
    if controller is not None:
        bind_controller(controller, predictor)
    clock = time.perf_counter if monitor is not None else None
    forecasts = np.empty(end - start)
    decisions = np.empty(end - start)
    for j, i in enumerate(range(start, end)):
        forecasts[j], decisions[j] = step(
            predictor, series[:i], target[:i], float(target[i]),
            refit=j % refit_every == 0, monitor=monitor,
            controller=controller, clock=clock,
        )
    return forecasts, decisions


def walk_forward(
    predictor: Predictor,
    series: np.ndarray,
    start: int,
    end: int | None = None,
    refit_every: int = 1,
) -> np.ndarray:
    """Predict ``series[start:end]`` one step ahead, walking forward.

    The forecasts of :func:`walk` (open loop): persistence-rescued and
    clipped at zero.  ``refit_every=k`` refits on every k-th step
    (CloudInsight rebuilds every 5 intervals; pure smoothing models can
    use a large value since fit is a no-op).
    """
    return walk(predictor, series, start, end, refit_every=refit_every)[0]
