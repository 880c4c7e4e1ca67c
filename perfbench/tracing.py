"""Span tracing for the traced benchmark run.

Timing wrappers go around the public entry points of each layer, patched
where the caller looks the name up (a class attribute for methods, the
importing module's attribute for functions).  Spans live in memory as
``[name, parent, start, end, info]`` rows and are written out once, when
the run ends.  A layer's self time is its span's duration minus the time
its child spans cover, so the self times of every span under a root add
up to that root's duration exactly.
"""

from __future__ import annotations

import functools
import json
import math
import time

__all__ = [
    "Tracer", "install", "uninstall", "summarize", "self_times", "percentile",
    "per_layer_metrics",
]

_now = time.perf_counter


class Tracer:
    """In-memory span recorder with a parent stack (single-threaded)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, _now(), 0.0, None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, info: dict | None = None) -> None:
        span = self.spans[sid]
        span[3] = _now()
        span[4] = info
        top = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {span[0]!r} closed out of order")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, parent, start, end, info) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "parent": parent,
                       "start": start, "end": end}
                if info:
                    rec["info"] = info
                fh.write(json.dumps(rec) + "\n")


def _epochs(result, args) -> dict:
    return {"epochs": int(result.epochs_run)}


def _jobs(result, args) -> dict:
    return {"jobs": float(result.arrivals.sum())}


def _targets():
    """``(owner, attribute, span name, info hook)`` for every wrapped call."""
    from repro.autoscale.cloudsim import CloudSimulator
    from repro.autoscale.controller import HybridController
    from repro.bayesopt.optimizer import BayesianOptimizer
    from repro.core import framework
    from repro.core.evaluation import TrialEvaluator
    from repro.core.framework import LoadDynamics
    from repro.core.predictor import LoadDynamicsPredictor
    from repro.gp.gp import GaussianProcessRegressor
    from repro.nn.network import LSTMRegressor
    from repro.obs.monitor.monitor import ForecastMonitor
    from repro.serving import online
    from repro.serving.guard import GuardedPredictor
    from repro.serving.sanitize import TraceSanitizer
    from repro.serving.stream import StreamingServer
    from repro.traces import synthetic

    return [
        (LoadDynamics, "fit", "core.framework.fit", None),
        (LoadDynamics, "evaluate", "core.framework.evaluate", None),
        (framework, "prepare_data", "core.data.prepare_data", None),
        (TrialEvaluator, "evaluate", "core.evaluation.evaluate", None),
        (BayesianOptimizer, "suggest", "bayesopt.suggest", None),
        (BayesianOptimizer, "tell", "bayesopt.tell", None),
        (GaussianProcessRegressor, "fit", "gp.fit", None),
        (GaussianProcessRegressor, "predict", "gp.predict", None),
        (LSTMRegressor, "fit", "nn.fit", _epochs),
        (LSTMRegressor, "predict", "nn.predict", None),
        (LoadDynamicsPredictor, "predict_next", "core.predictor.predict_next", None),
        (LoadDynamicsPredictor, "predict_series", "core.predictor.predict_series", None),
        (GuardedPredictor, "predict_next", "serving.guard.predict_next", None),
        (GuardedPredictor, "fit", "serving.guard.fit", None),
        (TraceSanitizer, "sanitize", "serving.sanitize.sanitize", None),
        (ForecastMonitor, "observe", "obs.monitor.observe", None),
        (HybridController, "step", "autoscale.controller.step", None),
        (StreamingServer, "run", "serving.stream.run", None),
        (online, "serve_and_simulate", "serving.online.serve_and_simulate", None),
        (CloudSimulator, "run", "autoscale.cloudsim.run", _jobs),
        (synthetic, "facebook_trace", "traces.generate", None),
        (synthetic, "azure_trace", "traces.generate", None),
        (synthetic, "google_trace", "traces.generate", None),
    ]


def _wrap(fn, tracer: Tracer, name: str, hook):
    begin, end = tracer.begin, tracer.end

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end(sid, hook(result, args) if hook is not None and result is not None else None)

    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Patch every target; returns what :func:`uninstall` needs."""
    saved = []
    for owner, attr, name, hook in _targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, tracer, name, hook))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


class _Stat:
    __slots__ = ("durations", "selfs", "infos")

    def __init__(self):
        self.durations: list[float] = []
        self.selfs: list[float] = []
        self.infos: list[dict] = []

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def total(self) -> float:
        return sum(self.durations)

    @property
    def self_total(self) -> float:
        return sum(self.selfs)


def _child_time(spans: list[list]) -> list[float]:
    """Seconds each span's direct children cover."""
    child = [0.0] * len(spans)
    for _name, parent, start, end, _info in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def summarize(spans: list[list]) -> dict[str, _Stat]:
    """Per-name call counts, inclusive durations and self times."""
    child = _child_time(spans)
    stats: dict[str, _Stat] = {}
    for sid, (name, parent, start, end, info) in enumerate(spans):
        st = stats.setdefault(name, _Stat())
        st.durations.append(end - start)
        st.selfs.append(end - start - child[sid])
        if info:
            st.infos.append(info)
    return stats


def self_times(spans: list[list], root: str) -> dict[str, float]:
    """Self seconds per span name under the top-level span ``root``.

    They sum to the root's duration: the root's own entry is the time no
    wrapped layer covered (code of the timed region outside every wrapped
    call).
    """
    child = _child_time(spans)
    inside = [False] * len(spans)
    out: dict[str, float] = {}
    for sid, (name, parent, _start, _end, _info) in enumerate(spans):
        # Parents are recorded before their children, so one pass suffices.
        inside[sid] = (parent < 0 and name == root) or (parent >= 0 and inside[parent])
    for sid, (name, parent, start, end, _info) in enumerate(spans):
        if inside[sid]:
            out[name] = out.get(name, 0.0) + (end - start - child[sid])
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    data = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(data)) - 1)
    return data[k]


def per_layer_metrics(spans: list[list], extras: dict) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced run.

    ``extras`` carries what the workload read from the program itself
    (cache counters, serve counts, checkpoint sizes, trial counts) and
    from the benchmark's chunk spans.  Layers a workload does not use
    report 0.
    """
    stats = summarize(spans)
    empty = _Stat()

    def st(name: str) -> _Stat:
        return stats.get(name, empty)

    epochs = sum(i.get("epochs", 0) for i in st("nn.fit").infos)
    jobs = sum(i.get("jobs", 0.0) for i in st("autoscale.cloudsim.run").infos)
    sim_s = st("autoscale.cloudsim.run").total
    online_sim = sum(
        end - start
        for name, parent, start, end, _ in spans
        if name == "autoscale.cloudsim.run"
        and parent >= 0
        and spans[parent][0] == "serving.online.serve_and_simulate"
    )

    def pct(name: str, q: float, unit: float, self_time: bool = False) -> float:
        stat = st(name)
        return percentile(stat.selfs if self_time else stat.durations, q) * unit

    return {
        "bayesopt.suggest_s": st("bayesopt.suggest").total,
        "bayesopt.suggest_ms_p50": pct("bayesopt.suggest", 50, 1e3),
        "bayesopt.suggest_ms_p90": pct("bayesopt.suggest", 90, 1e3),
        "bayesopt.tell_s": st("bayesopt.tell").total,
        "gp.fit_s": st("gp.fit").total,
        "gp.fit_calls": st("gp.fit").calls,
        "gp.predict_s": st("gp.predict").total,
        "nn.fit_s": st("nn.fit").total,
        "nn.epochs": epochs,
        "nn.epoch_ms": st("nn.fit").total * 1e3 / epochs if epochs else 0.0,
        "nn.predict_s": st("nn.predict").total,
        "core.data.prepare_data_s": st("core.data.prepare_data").total,
        "core.evaluation.trials": extras.get("trials", 0),
        "core.evaluation.evaluate_s": st("core.evaluation.evaluate").total,
        "core.evaluation.infeasible": extras.get("infeasible", 0),
        "core.framework.self_s": st("core.framework.fit").self_total,
        "core.cache.window_hit_ratio": extras.get("window_hit_ratio", 0.0),
        "core.cache.trial_hit_ratio": extras.get("trial_hit_ratio", 0.0),
        "core.predictor.predict_next_us_p50": pct("core.predictor.predict_next", 50, 1e6),
        "core.predictor.predict_next_us_p99": pct("core.predictor.predict_next", 99, 1e6),
        "autoscale.controller.step_us": pct("autoscale.controller.step", 50, 1e6),
        "serving.sanitize.sanitize_us": pct("serving.sanitize.sanitize", 50, 1e6),
        "serving.guard.self_us": pct("serving.guard.predict_next", 50, 1e6, self_time=True),
        "obs.monitor.observe_us": pct("obs.monitor.observe", 50, 1e6),
        "serving.stream.self_us": pct("serving.stream.chunk", 50, 1e6, self_time=True),
        "serving.stream.checkpoints": extras.get("checkpoints", 0),
        "serving.stream.checkpoint_ms": extras.get("checkpoint_ms", 0.0),
        "serving.stream.checkpoint_bytes": extras.get("checkpoint_bytes", 0),
        "serving.online.walk_s": st("serving.online.serve_and_simulate").total - online_sim,
        "serving.fallback_ratio": extras.get("fallback_ratio", 0.0),
        "autoscale.cloudsim.run_s": sim_s,
        "autoscale.cloudsim.jobs": jobs,
        "autoscale.cloudsim.jobs_per_s": jobs / sim_s if sim_s > 0 else 0.0,
        "traces.generate_s": st("traces.generate").total,
    }
