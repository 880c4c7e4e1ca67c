"""Serving SLOs: objectives, error budgets, burn rates, health verdicts.

An objective is a per-interval pass/fail test (forecast latency under a
bound, per-interval accuracy under a MAPE bound) with a *target* success
fraction (e.g. 0.99 — "99% of intervals must meet it").  The slack,
``(1 - target) x intervals``, is the **error budget**; a healthy
deployment spends it slowly, an unhealthy one burns through it.  Two
derived rates drive the verdict:

* ``budget_consumed`` — lifetime violations over the lifetime budget;
  ``>= 1`` means the objective is *breached* for the run;
* ``burn_rate`` — the rolling-window violation fraction over the
  allowed fraction; ``> 1`` means the budget is currently being spent
  faster than it accrues (SRE-style burn-rate alerting), i.e. the
  serving path is *degraded* even if the lifetime budget still holds.

:meth:`SLOTracker.health` folds every objective into one typed
:class:`HealthReport` — ``healthy`` / ``degraded`` / ``breached`` with
one human-readable reason per failing objective — which is what
``repro simulate --monitor`` prints and ``ServingReport`` carries.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.state import COMPONENTS, INT, Stateful, window

__all__ = ["HEALTHY", "DEGRADED", "BREACHED", "HealthReport", "SLOTracker"]

HEALTHY = "healthy"
DEGRADED = "degraded"
BREACHED = "breached"

#: Verdict severity order for folding objectives into one status.
_SEVERITY = {HEALTHY: 0, DEGRADED: 1, BREACHED: 2}


@dataclass(frozen=True)
class HealthReport:
    """One serving-health verdict: the worst objective wins."""

    status: str
    reasons: tuple[str, ...] = ()

    def __post_init__(self):
        if self.status not in _SEVERITY:
            raise ValueError(f"unknown health status {self.status!r}")

    @property
    def healthy(self) -> bool:
        return self.status == HEALTHY

    def worse_of(self, other: "HealthReport") -> "HealthReport":
        """Merge two verdicts: max severity, concatenated reasons."""
        status = (
            self.status
            if _SEVERITY[self.status] >= _SEVERITY[other.status]
            else other.status
        )
        return HealthReport(status=status, reasons=self.reasons + other.reasons)

    def as_dict(self) -> dict:
        return {"status": self.status, "reasons": list(self.reasons)}


class _Objective(Stateful):
    """Violation accounting for one SLO objective."""

    __slots__ = ("name", "bound", "target", "window", "n", "violations",
                 "_recent", "_recent_violations")
    _persisted = {
        "n": INT,
        "violations": INT,
        "_recent": window(INT, "window"),
        "_recent_violations": INT,
    }

    def __init__(self, name: str, bound: float, target: float, window: int):
        self.name = name
        self.bound = float(bound)
        self.target = float(target)
        self.window = int(window)
        self.n = 0
        self.violations = 0
        self._recent: deque[int] = deque()
        self._recent_violations = 0

    def record(self, violated: bool) -> None:
        v = int(violated)
        self.n += 1
        self.violations += v
        self._recent.append(v)
        self._recent_violations += v
        if len(self._recent) > self.window:
            self._recent_violations -= self._recent.popleft()

    @property
    def budget_consumed(self) -> float:
        """Lifetime violations / lifetime budget (>= 1 means breached)."""
        budget = (1.0 - self.target) * self.n
        if budget <= 0.0:
            return math.inf if self.violations else 0.0
        return self.violations / budget

    @property
    def burn_rate(self) -> float:
        """Rolling violation fraction over the allowed fraction."""
        n = len(self._recent)
        if n == 0:
            return 0.0
        frac = self._recent_violations / n
        allowed = 1.0 - self.target
        if allowed <= 0.0:
            return math.inf if frac else 0.0
        return frac / allowed

    def snapshot(self) -> dict:
        return {
            "bound": self.bound,
            "target": self.target,
            "n": self.n,
            "violations": self.violations,
            "violation_rate": (self.violations / self.n) if self.n else 0.0,
            "budget_consumed": self.budget_consumed,
            "burn_rate": self.burn_rate,
        }


class SLOTracker(Stateful):
    """Latency + accuracy objectives with error-budget accounting.

    Parameters
    ----------
    latency_slo_ms:
        Per-interval forecast latency bound in milliseconds; ``None``
        disables the latency objective (e.g. replay runs with no timing).
    accuracy_slo_mape:
        Per-interval absolute-percentage-error bound; ``None`` disables
        the accuracy objective.
    target:
        Required fraction of compliant intervals per objective.
    window:
        Rolling window (intervals) behind the burn rate.
    min_intervals:
        Grace period: verdicts are ``healthy`` until this many intervals
        have been observed, so the first violation of a young run cannot
        instantly "breach" a budget of fractions of an interval.

    The resumable state is each objective's ledger; a saved objective
    set that differs from the configured one is a ``ValueError``.
    """

    _persisted = {"objectives": COMPONENTS}

    def __init__(
        self,
        latency_slo_ms: float | None = None,
        accuracy_slo_mape: float | None = None,
        target: float = 0.99,
        window: int = 256,
        min_intervals: int = 30,
    ):
        if not 0.0 < target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if window < 1:
            raise ValueError("window must be >= 1")
        if min_intervals < 1:
            raise ValueError("min_intervals must be >= 1")
        if latency_slo_ms is not None and latency_slo_ms <= 0:
            raise ValueError("latency_slo_ms must be positive (or None)")
        if accuracy_slo_mape is not None and accuracy_slo_mape <= 0:
            raise ValueError("accuracy_slo_mape must be positive (or None)")
        self.target = float(target)
        self.window = int(window)
        self.min_intervals = int(min_intervals)
        self.objectives: dict[str, _Objective] = {}
        if latency_slo_ms is not None:
            self.objectives["latency"] = _Objective(
                "latency", latency_slo_ms, target, window
            )
        if accuracy_slo_mape is not None:
            self.objectives["accuracy"] = _Objective(
                "accuracy", accuracy_slo_mape, target, window
            )

    def update(self, *, latency_s: float | None = None, ape: float | None = None) -> None:
        """Record one interval's outcomes against the active objectives."""
        lat = self.objectives.get("latency")
        if lat is not None and latency_s is not None:
            lat.record(latency_s * 1e3 > lat.bound)
        acc = self.objectives.get("accuracy")
        if acc is not None and ape is not None:
            acc.record(ape > acc.bound)

    def health(self) -> HealthReport:
        """Fold every objective into one verdict (worst wins)."""
        status = HEALTHY
        reasons: list[str] = []
        for name, obj in self.objectives.items():
            if obj.n < self.min_intervals:
                continue
            if obj.budget_consumed >= 1.0:
                status = BREACHED
                reasons.append(
                    f"{name}: error budget exhausted "
                    f"({obj.violations}/{obj.n} intervals over {obj.bound:g}, "
                    f"target {obj.target:.0%})"
                )
            elif obj.burn_rate > 1.0:
                if _SEVERITY[status] < _SEVERITY[DEGRADED]:
                    status = DEGRADED
                reasons.append(
                    f"{name}: burning error budget {obj.burn_rate:.1f}x "
                    f"faster than it accrues"
                )
        return HealthReport(status=status, reasons=tuple(reasons))

    def snapshot(self) -> dict:
        return {
            "target": self.target,
            "window": self.window,
            "objectives": {
                name: obj.snapshot() for name, obj in self.objectives.items()
            },
            "health": self.health().as_dict(),
        }
