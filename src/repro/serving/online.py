"""The hardened online loop: guarded serving driven through the autoscaler.

Glues the serving-robustness layer to the Section IV-C case study: a
(guarded) predictor walks forward over a trace producing the
provisioning schedule, the :class:`~repro.autoscale.cloudsim.CloudSimulator`
replays it against the actual arrivals, and the per-stage serving
telemetry (fallback counters, breaker transitions) is collected into a
:class:`ServingReport`.  This is the path ``repro simulate --guarded``
and the CI serving-chaos stage exercise end to end: with faults planted
at every serving site the loop must complete the full trace and the
autoscaler must never receive a non-finite or negative forecast.

Model-level observability hooks in here too: pass a
:class:`~repro.obs.monitor.monitor.ForecastMonitor` as ``monitor=`` and
every interval's forecast is scored the moment its actual is revealed —
rolling accuracy, drift detection, and SLO/error-budget accounting ride
along in one pass, and the resulting quality/drift/SLO/health sections
land on the :class:`ServingReport`.  Every variant — open or closed
loop, monitored or not, batch or streamed — serves each interval with
the one kernel :func:`repro.baselines.base.step`; a monitor only scores,
it never changes a forecast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.autoscale import CloudSimulator, SimulationResult, VMSpec
from repro.baselines.base import Predictor, split_target, walk
from repro.obs import metrics as _metrics
from repro.serving.guard import GuardedPredictor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autoscale.controller import HybridController
    from repro.obs.monitor.monitor import ForecastMonitor
    from repro.serving.sanitize import TraceSanitizer
    from repro.serving.stream import StreamConfig

__all__ = ["ServingReport", "daily_period", "serve_and_simulate"]


def daily_period(interval_minutes: int) -> int | None:
    """Intervals per day, the natural seasonal-naive period for a trace.

    Returns ``None`` when the interval does not divide a day into at
    least two buckets (no usable daily seasonality).
    """
    if interval_minutes < 1 or interval_minutes > 720:
        return None
    return 1440 // interval_minutes


@dataclass
class ServingReport:
    """One guarded serving run: schedule, simulation, and degradations."""

    result: SimulationResult
    schedule: np.ndarray
    #: ``serving.*`` counter values observed after the run.
    serving_counters: dict[str, float] = field(default_factory=dict)
    #: Breaker (from, to, reason) transitions, when the predictor had one.
    breaker_transitions: list[tuple[str, str, str]] = field(default_factory=list)
    #: Breaker state after the run (``closed``/``open``/``half_open``),
    #: ``None`` when the predictor carried no breaker.
    breaker_state: str | None = None
    #: Per-stage serve counts, when the predictor was guarded.
    served_by: dict[str, int] = field(default_factory=dict)
    #: Rolling/cumulative accuracy section, when a monitor was attached.
    quality: dict | None = None
    #: Per-detector drift state, when a monitor was attached.
    drift: list[dict] | None = None
    #: SLO/error-budget section, when the monitor carried an SLOTracker.
    slo: dict | None = None
    #: Folded health verdict (status + reasons), when monitored.
    health: dict | None = None
    #: :meth:`HybridController.snapshot` (decided_by counts, rail hits,
    #: burst state), when the run was closed-loop.
    controller: dict | None = None
    #: :meth:`~repro.serving.stream.StreamingServer.summary` — chunk,
    #: quarantine, stall, shed, and checkpoint accounting — when the run
    #: was streamed.
    stream: dict | None = None

    @property
    def n_fallback_serves(self) -> int:
        """Predictions served by any stage other than the primary model."""
        return sum(n for stage, n in self.served_by.items() if stage != "primary")

    @property
    def drifted(self) -> bool:
        """True when any attached drift detector latched during the run."""
        return bool(self.drift) and any(d.get("drifted") for d in self.drift)


def serving_counters() -> dict[str, float]:
    """Current values of every ``serving.*`` counter."""
    return {
        name: snap["value"]
        for name, snap in _metrics.get_registry().snapshot(prefix="serving.").items()
        if snap.get("kind") == "counter"
    }


def simulate_report(
    predictor: Predictor,
    actuals: np.ndarray,
    schedule: np.ndarray,
    *,
    spec: VMSpec | None,
    seed: int,
    monitor: "ForecastMonitor | None",
    controller: "HybridController | None",
    stream: dict | None = None,
) -> ServingReport:
    """Replay ``schedule`` against ``actuals`` and assemble the report.

    The schedule is checked finite here, in front of the simulator: the
    autoscaler must never act on a non-finite decision.
    """
    if not np.all(np.isfinite(schedule)):
        raise ValueError(
            f"predictor {predictor.name!r} produced a non-finite schedule"
        )
    result = CloudSimulator(spec=spec, seed=seed).run(actuals, schedule)
    report = ServingReport(
        result=result,
        schedule=schedule,
        serving_counters=serving_counters(),
        controller=controller.snapshot() if controller is not None else None,
        stream=stream,
    )
    if isinstance(predictor, GuardedPredictor):
        report.breaker_transitions = list(predictor.breaker.transitions)
        report.breaker_state = predictor.breaker.state
        report.served_by = dict(predictor.served_by)
    if monitor is not None:
        sections = monitor.report()
        report.quality = sections["quality"]
        report.drift = sections["drift"]
        report.slo = sections["slo"]
        report.health = sections["health"]
    return report


def serve_and_simulate(
    predictor: Predictor,
    arrivals: np.ndarray,
    start: int,
    *,
    spec: VMSpec | None = None,
    refit_every: int = 1,
    seed: int = 0,
    monitor: "ForecastMonitor | None" = None,
    controller: "HybridController | None" = None,
    stream: "StreamConfig | None" = None,
    sanitizer: "TraceSanitizer | None" = None,
) -> ServingReport:
    """Walk ``predictor`` over ``arrivals[start:]`` and simulate the result.

    The predictor sees only the history prefix at each interval (no
    lookahead), through :func:`repro.baselines.base.walk`.  Open-loop
    fit/predict errors propagate, so put a :class:`GuardedPredictor` in
    front to serve through injected faults.

    ``monitor`` attaches online forecast-quality monitoring: each
    interval is scored as it is revealed and the report gains
    quality/drift/SLO/health sections; its latency samples time
    ``predict_next`` alone, never a refit.

    ``controller`` closes the loop: instead of provisioning the raw
    forecasts, each revealed arrival feeds the
    :class:`~repro.autoscale.controller.HybridController` corrector and
    the *controller's decisions* (correction, rails, burst, tiered
    degradation) become the schedule; the report gains the controller
    snapshot and the breaker state.

    ``stream`` replaces the batch walk with the chunked
    :class:`~repro.serving.stream.StreamingServer`: ``arrivals[start:]``
    arrives as a deterministic chunk sequence with per-chunk
    re-sanitation (``sanitizer``, default interpolate-policy), stall
    watchdog, backpressure, and — with a ``checkpoint_dir`` configured —
    crash-safe checkpoints the ``resume`` flag restores from.  The
    streaming path is univariate (the feed is one metric).

    2-D ``(steps, D)`` arrivals drive a multivariate predictor: the
    full history walks into the predictor while the target channel
    (``predictor.target_channel``, default 0) feeds the bound checks,
    the monitor, and the simulator's actual-arrival replay.
    """
    a, target = split_target(predictor, arrivals)
    if stream is not None:
        if a.ndim != 1:
            raise ValueError(
                "streaming serving is univariate; pass a 1-D trace"
            )
        if not 0 < start <= a.size:
            raise ValueError(
                f"invalid start {start} for series of length {a.size}"
            )
        from repro.serving.stream import StreamingServer, chunk_stream

        server = StreamingServer(
            predictor,
            a[:start],
            config=stream,
            sanitizer=sanitizer,
            monitor=monitor,
            controller=controller,
            spec=spec,
            seed=seed,
            refit_every=refit_every,
        )
        return server.run(chunk_stream(a[start:], config=stream))
    _, schedule = walk(
        predictor, a, start,
        refit_every=refit_every, monitor=monitor, controller=controller,
    )
    return simulate_report(
        predictor, target[start:], schedule,
        spec=spec, seed=seed, monitor=monitor, controller=controller,
    )
