"""Circuit breaker shedding a misbehaving model from the serving path.

A predictor that starts throwing or emitting non-finite forecasts every
interval should not be probed on every prediction: each probe costs
latency, pollutes telemetry, and — for the adaptive variant — can mask
the drift signal.  The breaker implements the classic three-state
machine, but *call-counted* rather than wall-clock-timed so tests and
replayed simulations are exactly deterministic:

* ``closed`` — outcomes are recorded in a sliding window; when the
  window holds at least ``min_calls`` outcomes and the failure rate
  reaches ``failure_threshold``, the breaker opens;
* ``open`` — :meth:`allow` answers ``False`` for the next ``cooldown``
  calls (the model is shed; callers go straight to their fallback),
  then the breaker moves to half-open and admits a probe;
* ``half_open`` — calls are admitted as probation probes; ``probes``
  consecutive successes close the breaker, any failure re-opens it.

State transitions are recorded on the instance, counted in
``serving.breaker.transitions``, and emitted as
``serving.breaker.transition`` events.
"""

from __future__ import annotations

from collections import deque

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.state import BOOL, INT, STR, Stateful, choice, seq, window

__all__ = ["CLOSED", "OPEN", "HALF_OPEN", "CircuitBreaker"]

logger = get_logger("serving.breaker")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker(Stateful):
    """Deterministic closed/open/half-open breaker over call outcomes.

    The resumable state is the whole decision state: the outcome window,
    the open-state denial count, the half-open probe tally and the
    transition history.  Losing any of it would let a resumed serving
    process re-admit a model the crashed one had already shed.
    """

    _persisted = {
        "_state": choice(CLOSED, OPEN, HALF_OPEN),
        "_outcomes": window(BOOL, "window", maxlen=True),
        "_denied": INT,
        "_probe_successes": INT,
        "transitions": seq(seq(STR, tuple)),
    }

    def __init__(
        self,
        failure_threshold: float = 0.5,
        window: int = 20,
        min_calls: int = 5,
        cooldown: int = 10,
        probes: int = 3,
        name: str = "serving",
    ):
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        if min_calls < 1 or min_calls > window:
            raise ValueError("min_calls must be in [1, window]")
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        if probes < 1:
            raise ValueError("probes must be >= 1")
        self.failure_threshold = float(failure_threshold)
        self.window = int(window)
        self.min_calls = int(min_calls)
        self.cooldown = int(cooldown)
        self.probes = int(probes)
        self.name = str(name)

        self._state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=self.window)  # True = failure
        self._denied = 0          # allow() refusals since opening
        self._probe_successes = 0
        #: (from_state, to_state, reason) history, oldest first.
        self.transitions: list[tuple[str, str, str]] = []

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    @property
    def failure_rate(self) -> float:
        """Failure fraction over the sliding window (0.0 when empty)."""
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def allow(self) -> bool:
        """May the protected call be attempted right now?

        In the open state this is where the cool-down elapses: after
        ``cooldown`` refusals the breaker moves to half-open and admits
        the call as a probe.
        """
        if self._state == OPEN:
            self._denied += 1
            if self._denied >= self.cooldown:
                self._transition(HALF_OPEN, "cooldown_elapsed")
                return True
            return False
        return True

    def record_success(self) -> None:
        if self._state == HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.probes:
                self._transition(CLOSED, "probes_passed")
        elif self._state == CLOSED:
            self._outcomes.append(False)

    def record_failure(self) -> None:
        if self._state == HALF_OPEN:
            self._transition(OPEN, "probe_failed")
        elif self._state == CLOSED:
            self._outcomes.append(True)
            if (
                len(self._outcomes) >= self.min_calls
                and self.failure_rate >= self.failure_threshold
            ):
                self._transition(OPEN, "failure_rate")

    # ------------------------------------------------------------------
    def _transition(self, to_state: str, reason: str) -> None:
        from_state = self._state
        self._state = to_state
        self.transitions.append((from_state, to_state, reason))
        if to_state == OPEN:
            self._denied = 0
        if to_state == HALF_OPEN:
            self._probe_successes = 0
        if to_state == CLOSED:
            self._outcomes.clear()
        logger.warning(
            "breaker %s: %s -> %s (%s)", self.name, from_state, to_state, reason
        )
        _metrics.counter("serving.breaker.transitions").inc()
        if _events.enabled():
            _events.emit(
                "serving.breaker.transition",
                breaker=self.name,
                from_state=from_state,
                to_state=to_state,
                reason=reason,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitBreaker(state={self._state!r}, "
            f"failure_rate={self.failure_rate:.2f}, window={self.window})"
        )
