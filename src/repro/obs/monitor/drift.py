"""Deterministic concept-drift detectors over a forecast-error stream.

The paper's framework picks a model once per workload; the ROADMAP's
concept-drift item asks for the production counterpart — *noticing when
that model goes stale* from the serving errors themselves, instead of
refitting on a fixed cadence.  Two classic sequential change detectors
are provided, both deterministic (no RNG, replay-stable) and O(1) per
update:

* :class:`CusumDetector` — two-sided error CUSUM.  The first ``warmup``
  errors calibrate a frozen mean/std baseline; afterwards the
  standardized deviation accumulates into ``g+``/``g-`` ledgers
  (decayed by ``slack`` per step) and the detector fires when either
  exceeds ``threshold``.  Freezing the baseline is deliberate: a
  running mean would chase the shift and detection would stall.
* :class:`PageHinkleyDetector` — the Page-Hinkley test: cumulative sum
  of deviations from the running mean minus ``delta`` per step, fired
  when the sum rises ``threshold`` above its historical minimum.
  Robust when no clean calibration window exists (the mean adapts, the
  min-anchored statistic still catches a sustained rise).

Both feed on *absolute percentage errors* by convention (what
:meth:`QualityTracker.update <repro.obs.monitor.quality.QualityTracker.update>`
returns), making thresholds workload-scale-free.  A fired detector
**latches**: ``drifted`` stays ``True`` (with ``fired_at`` and the
triggering ``statistic``) until :meth:`~DriftDetectorBase.reset`, which
also restarts calibration — the contract
:class:`~repro.core.adaptive.AdaptiveLoadDynamics` relies on for
drift-triggered refits.  Firing emits a ``monitor.drift`` event and
increments ``monitor.drift`` counters.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.state import BOOL, FIXED, FLOAT, INT, Stateful, optional

__all__ = [
    "DriftDetector",
    "DriftDetectorBase",
    "CusumDetector",
    "PageHinkleyDetector",
]

logger = get_logger("obs.monitor.drift")


@runtime_checkable
class DriftDetector(Protocol):
    """What the serving path needs from a drift detector.

    Anything with this shape plugs into
    :class:`~repro.obs.monitor.monitor.ForecastMonitor` and
    ``AdaptiveLoadDynamics(refit_on_drift=...)``.
    """

    name: str
    drifted: bool
    statistic: float

    def update(self, error: float) -> bool:
        """Consume one error observation; returns the latched flag."""
        ...

    def reset(self) -> None:
        """Clear the latch and restart calibration."""
        ...

    def snapshot(self) -> dict:
        """Plain-dict state for reports."""
        ...


class DriftDetectorBase(Stateful):
    """Latching, counting, and fire telemetry shared by the detectors.

    Subclasses implement :meth:`_step` (return ``True`` to fire) and
    :meth:`_reset_state`; the base handles the latch, ``fired_at``, the
    ``monitor.drift`` counter/event, and the snapshot scaffold.
    """

    name = "detector"
    _persisted = {
        "name": FIXED,
        "drifted": BOOL,
        "statistic": FLOAT,
        "n": INT,
        "fired_at": optional(INT),
    }

    def __init__(self):
        self.drifted = False
        self.statistic = 0.0
        self.threshold = math.inf
        self.n = 0
        self.fired_at: int | None = None

    # -- subclass surface ----------------------------------------------
    def _step(self, error: float) -> bool:
        raise NotImplementedError

    def _reset_state(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def update(self, error: float) -> bool:
        self.n += 1
        if self._step(float(error)) and not self.drifted:
            self.drifted = True
            self.fired_at = self.n
            self._emit_fired()
        return self.drifted

    def _emit_fired(self) -> None:
        _metrics.counter("monitor.drift").inc()
        _metrics.counter(f"monitor.drift.{self.name}").inc()
        logger.warning(
            "drift detector %s fired at observation %d (statistic %.3f > %.3f)",
            self.name, self.n, self.statistic, self.threshold,
        )
        if _events.enabled():
            _events.emit(
                "monitor.drift",
                detector=self.name,
                n=self.n,
                statistic=self.statistic,
                threshold=self.threshold,
            )

    def reset(self) -> None:
        """Unlatch and recalibrate; the observation counter keeps running."""
        self.drifted = False
        self.statistic = 0.0
        self.fired_at = None
        self._reset_state()

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "drifted": self.drifted,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "n": self.n,
            "fired_at": self.fired_at,
        }


class CusumDetector(DriftDetectorBase):
    """Two-sided standardized CUSUM over the error stream.

    Parameters
    ----------
    threshold:
        Fire when either one-sided ledger exceeds this (in calibrated
        standard deviations of accumulated drift).  The default trades
        a few intervals of detection delay for a false-positive rate
        that tolerates the sigma underestimate of a short calibration
        window.
    slack:
        Per-step allowance ``k`` subtracted from each standardized
        deviation — deviations below it never accumulate.
    warmup:
        Calibration length; the mean/std of the first ``warmup`` errors
        become the frozen healthy baseline.
    min_std:
        Floor on the calibrated std so a near-constant calibration
        window does not make the detector hair-triggered.
    """

    name = "cusum"
    _persisted = {
        "_cal_n": INT, "_cal_mean": FLOAT, "_cal_m2": FLOAT, "_mu": FLOAT,
        "_sigma": FLOAT, "_g_pos": FLOAT, "_g_neg": FLOAT,
    }

    def __init__(
        self,
        threshold: float = 10.0,
        slack: float = 0.5,
        warmup: int = 30,
        min_std: float = 1e-3,
    ):
        super().__init__()
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if slack < 0:
            raise ValueError("slack must be non-negative")
        if warmup < 2:
            raise ValueError("warmup must be >= 2")
        if min_std <= 0:
            raise ValueError("min_std must be positive")
        self.threshold = float(threshold)
        self.slack = float(slack)
        self.warmup = int(warmup)
        self.min_std = float(min_std)
        self._reset_state()

    def _reset_state(self) -> None:
        self._cal_n = 0
        self._cal_mean = 0.0
        self._cal_m2 = 0.0
        self._mu = 0.0
        self._sigma = 1.0
        self._g_pos = 0.0
        self._g_neg = 0.0

    @property
    def calibrated(self) -> bool:
        """True once the healthy baseline is frozen."""
        return self._cal_n >= self.warmup

    def _step(self, error: float) -> bool:
        if self._cal_n < self.warmup:
            # Welford over the calibration window, then freeze.
            self._cal_n += 1
            delta = error - self._cal_mean
            self._cal_mean += delta / self._cal_n
            self._cal_m2 += delta * (error - self._cal_mean)
            if self._cal_n == self.warmup:
                self._mu = self._cal_mean
                self._sigma = max(
                    math.sqrt(self._cal_m2 / (self.warmup - 1)), self.min_std
                )
            return False
        z = (error - self._mu) / self._sigma
        self._g_pos = max(0.0, self._g_pos + z - self.slack)
        self._g_neg = max(0.0, self._g_neg - z - self.slack)
        self.statistic = max(self._g_pos, self._g_neg)
        return self.statistic > self.threshold

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap.update(
            calibrated=self.calibrated,
            baseline_mean=self._mu if self.calibrated else None,
            baseline_std=self._sigma if self.calibrated else None,
        )
        return snap


class PageHinkleyDetector(DriftDetectorBase):
    """Page-Hinkley test for a sustained *increase* in the error stream.

    Parameters
    ----------
    threshold:
        Fire when the cumulative deviation rises this far above its
        minimum (in error units x intervals; with percentage errors,
        ``50`` means "fifty percent-points of excess error accumulated").
    delta:
        Magnitude tolerance per step — error excursions below it never
        accumulate.
    min_samples:
        Observations before firing is allowed (the running mean needs a
        few samples to mean anything).
    """

    name = "page-hinkley"
    _persisted = {"_count": INT, "_mean": FLOAT, "_cum": FLOAT, "_cum_min": FLOAT}

    def __init__(
        self,
        threshold: float = 50.0,
        delta: float = 2.0,
        min_samples: int = 10,
    ):
        super().__init__()
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if delta < 0:
            raise ValueError("delta must be non-negative")
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        self.threshold = float(threshold)
        self.delta = float(delta)
        self.min_samples = int(min_samples)
        self._reset_state()

    def _reset_state(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._cum = 0.0
        self._cum_min = 0.0

    def _step(self, error: float) -> bool:
        self._count += 1
        self._mean += (error - self._mean) / self._count
        self._cum += error - self._mean - self.delta
        self._cum_min = min(self._cum_min, self._cum)
        self.statistic = self._cum - self._cum_min
        return self._count >= self.min_samples and self.statistic > self.threshold
