"""Command-line interface: ``python -m repro.cli <command> [options]``.

Commands map 1:1 to the experiment runners and the core workflow:

* ``list`` — show the 14 workload configurations and all baselines;
* ``families`` — show the registered model families (``--family``);
* ``fit`` — run LoadDynamics on a configuration, optionally save the
  predictor;
* ``predict`` — load a saved predictor and forecast the next interval;
* ``simulate`` — serve a predictor online through the auto-scaling case
  study, optionally ``--guarded`` (sanitization, fallbacks, breaker)
  and/or ``--monitor`` (rolling accuracy, drift detection, SLO health;
  ``--metrics-out`` dumps the metrics registry to JSON);
* ``stream`` — serve a chunked feed through the crash-safe streaming
  runtime (per-chunk sanitation, stall watchdog, backpressure) with
  ``--checkpoint-dir``/``--resume`` giving bit-for-bit resume after a
  kill;
* ``autoscale`` — run the adversarial scenario matrix (flash crowds,
  regime shifts, trace corruption, injected serving faults) comparing
  predictive vs reactive vs hybrid provisioning policies;
* ``metrics`` — render a ``--metrics-out`` snapshot as Prometheus text
  or stable JSON;
* ``fig2`` / ``fig5`` / ``fig9`` / ``table4`` / ``fig10`` / ``ablation``
  — regenerate the paper artifacts at a chosen budget.

Every command prints an aligned text table (the same rows the benchmark
harness asserts on).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.obs.logging import get_logger

__all__ = ["main", "build_parser"]

logger = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="LoadDynamics reproduction (IPDPS 2020) command-line interface",
    )
    p.add_argument(
        "--log-level", default="INFO",
        help="diagnostics verbosity on stderr (DEBUG/INFO/WARNING/ERROR)",
    )
    p.add_argument(
        "--log-json", action="store_true",
        help="emit diagnostics as JSON lines instead of text",
    )
    p.add_argument(
        "--trace-out", metavar="PATH.jsonl", default=None,
        help="write structured telemetry (spans, BO trials, training "
             "epochs, autoscale steps) to this JSONL file",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workload configurations and baselines")
    sub.add_parser("families", help="list the registered model families")

    fit = sub.add_parser("fit", help="run the LoadDynamics workflow on a configuration")
    fit.add_argument("config", help="workload configuration key, e.g. gl-30m "
                                    "(or mv-<interval>m for the multivariate trace)")
    fit.add_argument("--channels", default=None, metavar="NAMES",
                     help="comma-separated channel names for the mv trace "
                          "(e.g. requests,cpu,memory)")
    fit.add_argument("--target-channel", type=int, default=0, metavar="D",
                     help="which channel of a multivariate trace to forecast "
                          "(default 0)")
    fit.add_argument("--budget", default="reduced", choices=("paper", "reduced", "tiny"))
    fit.add_argument("--family", default="lstm", metavar="NAME",
                     help="model family the trials train (see `repro families`; "
                          "default: lstm)")
    fit.add_argument("--max-iters", type=int, default=12, help="BO iterations (paper: 100)")
    fit.add_argument("--epochs", type=int, default=30)
    fit.add_argument("--extended", action="store_true",
                     help="also tune loss/optimizer (paper §V)")
    fit.add_argument("--save", metavar="DIR", help="save the predictor here")
    fit.add_argument("--journal", metavar="PATH.jsonl", default=None,
                     help="crash-safe trial journal: every completed trial is "
                          "fsynced here before the next starts")
    fit.add_argument("--resume", action="store_true",
                     help="replay completed trials from --journal and continue "
                          "the interrupted run deterministically")
    fit.add_argument("--trial-timeout", type=float, default=None, metavar="SECONDS",
                     help="per-trial wall-clock deadline; slower trials are "
                          "recorded infeasible instead of stalling the run")
    fit.add_argument("--n-workers", type=int, default=None, metavar="N",
                     help="train up to N candidate models concurrently in "
                          "worker processes (default: serial; capped by "
                          "REPRO_MAX_WORKERS)")

    pred = sub.add_parser("predict", help="forecast with a saved predictor")
    pred.add_argument("model_dir", help="directory written by `repro fit --save`")
    pred.add_argument("config", help="workload configuration key for the history")

    sim = sub.add_parser(
        "simulate",
        help="serve a predictor online through the autoscaler case study",
    )
    sim.add_argument("config", help="workload configuration key, e.g. gl-30m "
                                    "(or mv-<interval>m for the multivariate trace)")
    sim.add_argument("--channels", default=None, metavar="NAMES",
                     help="comma-separated channel names for the mv trace")
    sim.add_argument("--target-channel", type=int, default=0, metavar="D",
                     help="which channel of a multivariate trace to forecast "
                          "(default 0)")
    sim.add_argument("--guarded", action="store_true",
                     help="wrap the predictor in repro.serving.GuardedPredictor "
                          "(output validation, fallback chain, circuit breaker)")
    sim.add_argument("--model-dir", metavar="DIR", default=None,
                     help="serve a predictor saved by `repro fit --save` "
                          "(default: fit a fresh one on the training prefix)")
    sim.add_argument("--adaptive", action="store_true",
                     help="serve the self-healing AdaptiveLoadDynamics loop "
                          "(drift-triggered refits) instead of a frozen model")
    sim.add_argument("--refit-on-drift", action="store_true",
                     help="implies --adaptive; refit only when a CUSUM drift "
                          "detector fires on the served errors, instead of "
                          "the fixed refit-every-k cadence")
    sim.add_argument("--repair", default=None,
                     choices=("interpolate", "clip", "ffill"),
                     help="sanitize the trace with this repair policy before "
                          "serving (default: serve the raw trace)")
    sim.add_argument("--budget", default="tiny", choices=("paper", "reduced", "tiny"))
    sim.add_argument("--max-iters", type=int, default=3, help="BO iterations for the fit")
    sim.add_argument("--epochs", type=int, default=8)
    sim.add_argument("--start-frac", type=float, default=0.8,
                     help="serve the last (1 - START_FRAC) of the trace (default 0.8)")
    sim.add_argument("--refit-every", type=int, default=1)
    sim.add_argument("--monitor", action="store_true",
                     help="attach online forecast-quality monitoring (rolling "
                          "accuracy, CUSUM + Page-Hinkley drift detection) and "
                          "print the quality/drift/health report")
    sim.add_argument("--slo-latency-ms", type=float, default=None, metavar="MS",
                     help="per-prediction latency objective in milliseconds "
                          "(implies --monitor; tracked with an error budget)")
    sim.add_argument("--slo-mape", type=float, default=None, metavar="PCT",
                     help="per-interval accuracy objective: absolute percentage "
                          "error must stay below PCT (implies --monitor)")
    sim.add_argument("--metrics-out", metavar="PATH.json", default=None,
                     help="write the full metrics-registry snapshot to this "
                          "JSON file after the run (implies --monitor)")

    strm = sub.add_parser(
        "stream",
        help="serve a chunked feed with checkpoints and crash-safe resume",
    )
    strm.add_argument("config", help="workload configuration key, e.g. gl-30m")
    strm.add_argument("--model-dir", metavar="DIR", default=None,
                      help="serve a predictor saved by `repro fit --save` "
                           "(default: serve from the fallback chain alone)")
    strm.add_argument("--start-frac", type=float, default=0.8,
                      help="stream the last (1 - START_FRAC) of the trace "
                           "(default 0.8)")
    strm.add_argument("--chunk-size", type=int, default=64,
                      help="nominal intervals per feed chunk (default 64)")
    strm.add_argument("--size-jitter", type=int, default=0,
                      help="uniform +/- jitter on each chunk's size (default 0)")
    strm.add_argument("--checkpoint-every", type=int, default=100, metavar="K",
                      help="checkpoint every K processed chunks (default 100; "
                           "0 = final checkpoint only)")
    strm.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                      help="where checkpoint.json and its sidecars live "
                           "(default: no checkpointing)")
    strm.add_argument("--resume", action="store_true",
                      help="restore from --checkpoint-dir and continue the "
                           "interrupted stream bit-for-bit")
    strm.add_argument("--deadline-s", type=float, default=None, metavar="S",
                      help="stall watchdog: an inter-chunk gap beyond S "
                           "seconds degrades that chunk to hold-last")
    strm.add_argument("--queue-capacity", type=int, default=None, metavar="N",
                      help="backpressure bound in backlog intervals; chunks "
                           "arriving over it are load-shed")
    strm.add_argument("--service-time", type=float, default=0.0, metavar="S",
                      help="logical seconds the server needs per interval "
                           "(0 disables the backpressure model)")
    strm.add_argument("--repair", default="interpolate",
                      choices=("interpolate", "clip", "ffill", "reject"),
                      help="per-chunk sanitizer policy; chunks it cannot "
                           "repair are quarantined (default: interpolate)")
    strm.add_argument("--refit-every", type=int, default=None, metavar="K",
                      help="refit the predictor every K served intervals "
                           "(default: never — streamed models are frozen)")
    strm.add_argument("--seed", type=int, default=0,
                      help="chunking-jitter seed (default 0)")
    strm.add_argument("--monitor", action="store_true",
                      help="attach online forecast-quality monitoring "
                           "(scored in logical time)")
    strm.add_argument("--slo-mape", type=float, default=None, metavar="PCT",
                      help="per-interval accuracy objective (implies --monitor)")
    strm.add_argument("--report-out", metavar="PATH.json", default=None,
                      help="write the canonical ServingReport JSON (schedule "
                           "hex + all sections) for bit-for-bit comparison")

    auto = sub.add_parser(
        "autoscale",
        help="adversarial autoscaling matrix: predictive vs reactive vs hybrid",
    )
    auto.add_argument("--scenarios", nargs="*", default=None, metavar="NAME",
                      help="subset of scenarios (default: all; see "
                           "repro.autoscale.scenarios.SCENARIO_NAMES)")
    auto.add_argument("--policies", nargs="*", default=None, metavar="NAME",
                      help="subset of policies (default: predictive reactive hybrid)")
    auto.add_argument("--quick", action="store_true",
                      help="shorter traces (6 days, serve 3) for CI-speed runs")
    auto.add_argument("--seed", type=int, default=7,
                      help="scenario-generation seed (default 7)")
    auto.add_argument("--json-out", metavar="PATH.json", default=None,
                      help="also write the full scenario x policy matrix as JSON")

    met = sub.add_parser(
        "metrics",
        help="render a metrics snapshot written by --metrics-out",
    )
    met.add_argument("snapshot", help="JSON file written by `repro simulate --metrics-out`")
    met.add_argument("--format", default="prometheus", choices=("prometheus", "json"),
                     help="output format (default: prometheus text exposition)")
    met.add_argument("--prefix", default=None, metavar="NS",
                     help="restrict to one dotted registry namespace, "
                          "e.g. monitor. (matched before name sanitization)")

    for name, help_text in (
        ("fig2", "prior-predictor motivation (Fig. 2)"),
        ("fig5", "hyperparameter sensitivity (Fig. 5)"),
        ("fig9", "headline accuracy comparison (Fig. 9)"),
        ("fig10", "auto-scaling case study (Fig. 10)"),
        ("ablation", "BO vs random vs grid (§III-A)"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--max-eval", type=int, default=150)
        if name == "fig5":
            cmd.add_argument("--models", type=int, default=30)
        if name == "ablation":
            cmd.add_argument("--families", nargs="*", default=None, metavar="NAME",
                             help="compare model families instead of search "
                                  "strategies (e.g. --families lstm gbr svr)")
        if name == "fig9":
            cmd.add_argument("--configs", nargs="*", default=None,
                             help="subset of configuration keys (default: all 14)")
            cmd.add_argument("--max-iters", type=int, default=12)
            cmd.add_argument("--no-brute-force", action="store_true")
            cmd.add_argument("--table4", action="store_true",
                             help="also print Table IV from the same runs")
    return p


def _cmd_list() -> int:
    from repro.baselines import list_baselines
    from repro.traces import ALL_CONFIGURATIONS

    print("Workload configurations (Table I):")
    for cfg in ALL_CONFIGURATIONS:
        print(f"  {cfg.key:10s} ({cfg.trace_name}, {cfg.interval_minutes}-minute intervals)")
    print("\nBaseline predictors:")
    for name in list_baselines():
        print(f"  {name}")
    return 0


def _cmd_families() -> int:
    from repro.models import get_family, list_families

    print("Registered model families (`repro fit --family NAME`):")
    for name in list_families():
        family = get_family(name)
        dims = ", ".join(p.name for p in family.search_space(budget="paper").params)
        print(f"  {name:8s} [{family.kind}] tunes: {dims}")
    return 0


def _resolve_configuration(key: str):
    """A Table I key, or ``mv-<interval>m`` for the multivariate trace.

    The ``mv`` trace is deliberately outside the paper's 14
    configurations, so it resolves here instead of the registry tuple.
    """
    from repro.traces import get_configuration
    from repro.traces.loader import WorkloadConfig

    trace, sep, rest = key.partition("-")
    if trace == "mv" and sep and rest.endswith("m") and rest[:-1].isdigit():
        return WorkloadConfig("mv", int(rest[:-1]))
    return get_configuration(key)


def _load_series(args):
    """Materialize the (possibly multivariate) series an args.config names."""
    cfg = _resolve_configuration(args.config)
    channels = getattr(args, "channels", None)
    kwargs = {}
    if channels:
        kwargs["channels"] = tuple(
            s.strip() for s in channels.split(",") if s.strip()
        )
    return cfg, cfg.load(**kwargs)


def _cmd_fit(args) -> int:
    from repro.core import FrameworkSettings, LoadDynamics, search_space_for

    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    _cfg, series = _load_series(args)
    trace = args.config.split("-")[0]
    ld = LoadDynamics(
        space=search_space_for(
            trace, args.budget, extended=args.extended, family=args.family
        ),
        settings=FrameworkSettings.reduced(
            max_iters=args.max_iters,
            epochs=args.epochs,
            trial_timeout_s=args.trial_timeout,
        ),
        family=args.family,
    )
    predictor, report = ld.fit(
        series, journal=args.journal, resume=args.resume,
        n_workers=args.n_workers, target_channel=args.target_channel,
    )
    hp = report.best_hyperparameters
    tel = report.telemetry
    logger.debug(
        "telemetry: %d epochs across %d trials, %.1fs training / %.1fs total",
        tel.get("epochs_total", 0), report.n_trials,
        tel.get("train_seconds_total", 0.0), report.total_seconds,
    )
    print(f"workload          : {args.config} ({len(series)} intervals)")
    if series.ndim == 2:
        print(f"channels          : {series.shape[1]} "
              f"(forecasting channel {args.target_channel})")
    print(f"family            : {ld.family.name}")
    print(f"trials            : {report.n_trials} ({report.n_infeasible} infeasible)")
    if report.n_resumed:
        print(f"resumed trials    : {report.n_resumed} (from {args.journal})")
    if report.degraded:
        print(f"DEGRADED          : {report.degraded_reason} "
              f"(naive last-value fallback)")
    selected = " ".join(f"{k}={v}" for k, v in hp.as_dict().items())
    print(f"selected          : {selected}")
    print(f"validation MAPE   : {report.best_validation_mape:.2f}%")
    print(f"test MAPE         : {ld.evaluate(predictor, series):.2f}%")
    print(f"fit wall time     : {report.total_seconds:.1f}s")
    if args.save:
        path = predictor.save(args.save)
        note = " (degraded naive fallback)" if report.degraded else ""
        print(f"saved predictor   : {path}{note}")
    return 0


def _cmd_predict(args) -> int:
    from repro.core import LoadDynamicsPredictor

    predictor = LoadDynamicsPredictor.load(args.model_dir)
    series = _resolve_configuration(args.config).load()
    value = predictor.predict_next(series)
    last = (
        series[-1, predictor.target_channel] if series.ndim == 2 else series[-1]
    )
    print(f"last observed JAR : {last:,.0f}")
    print(f"predicted next JAR: {value:,.0f}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.core import (
        AdaptiveLoadDynamics,
        FrameworkSettings,
        LoadDynamics,
        LoadDynamicsPredictor,
        search_space_for,
    )
    from repro.serving import (
        GuardedPredictor,
        TraceSanitizer,
        daily_period,
        default_fallbacks,
        serve_and_simulate,
    )

    if not 0.0 < args.start_frac < 1.0:
        print("error: --start-frac must be in (0, 1)", file=sys.stderr)
        return 2
    if args.refit_on_drift:
        args.adaptive = True
    if args.adaptive and args.model_dir:
        print("error: --adaptive and --model-dir are mutually exclusive",
              file=sys.stderr)
        return 2

    want_monitor = (
        args.monitor
        or args.slo_latency_ms is not None
        or args.slo_mape is not None
        or args.metrics_out is not None
    )
    monitor = None
    if want_monitor:
        from repro.obs.monitor import ForecastMonitor, SLOTracker

        slo = None
        if args.slo_latency_ms is not None or args.slo_mape is not None:
            slo = SLOTracker(
                latency_slo_ms=args.slo_latency_ms,
                accuracy_slo_mape=args.slo_mape,
            )
        monitor = ForecastMonitor(slo=slo)

    cfg, series = _load_series(args)
    if args.repair:
        series, report = TraceSanitizer(policy=args.repair).sanitize(series)
        print(f"sanitizer         : {report.summary()}")
    start = int(len(series) * args.start_frac)
    trace = args.config.split("-")[0]
    if args.budget == "tiny":
        settings = FrameworkSettings.tiny(max_iters=args.max_iters, epochs=args.epochs)
    else:
        settings = FrameworkSettings.reduced(
            max_iters=args.max_iters, epochs=args.epochs
        )
    space = search_space_for(trace, args.budget)
    fallbacks = default_fallbacks(daily_period(cfg.interval_minutes))

    if args.adaptive:
        # Share the monitor's first detector (CUSUM) with the adaptive
        # loop so serving-side drift — including injected
        # ``drift@serve.predict`` faults, which only shift the *served*
        # forecast — triggers refits, not just the internal error rule.
        refit_on_drift = monitor.detectors[0] if monitor is not None else None
        if args.refit_on_drift and refit_on_drift is None:
            # --refit-on-drift without a monitor: wire in a CUSUM
            # detector of its own so refits are drift-gated rather than
            # rolling-window-threshold gated.
            from repro.obs.monitor.drift import CusumDetector

            refit_on_drift = CusumDetector()
        predictor = AdaptiveLoadDynamics(
            space=space, settings=settings, refit_on_drift=refit_on_drift,
            target_channel=args.target_channel,
        )
        if args.refit_on_drift:
            print(f"refit trigger     : {getattr(refit_on_drift, 'name', 'cusum')} "
                  "drift detector (replaces fixed refit cadence)")
    elif args.model_dir:
        if args.guarded:
            # The guarded load shields against a corrupted directory by
            # degrading to the fallback chain instead of dying.
            predictor = GuardedPredictor.load(
                args.model_dir, on_corrupt="fallback", fallbacks=fallbacks
            )
        else:
            predictor = LoadDynamicsPredictor.load(args.model_dir)
    else:
        predictor, fit_report = LoadDynamics(space=space, settings=settings).fit(
            series[:start], target_channel=args.target_channel
        )
        if fit_report.degraded:
            print(f"fit DEGRADED      : {fit_report.degraded_reason}")
    if args.guarded and not isinstance(predictor, GuardedPredictor):
        predictor = GuardedPredictor(predictor, fallbacks=fallbacks)

    report = serve_and_simulate(
        predictor, series, start, refit_every=args.refit_every, monitor=monitor
    )
    res = report.result
    print(f"workload          : {args.config} "
          f"(serving {res.n_intervals} of {len(series)} intervals)")
    print(f"predictor         : {predictor.name}")
    print(f"mean turnaround   : {res.mean_turnaround:.1f}s")
    print(f"under-provisioned : {res.underprovision_rate:.1f}%")
    print(f"over-provisioned  : {res.overprovision_rate:.1f}%")
    print(f"VM time paid      : {res.vm_seconds / 3600.0:.1f} VM-hours")
    if report.served_by:
        stages = " ".join(f"{k}={v}" for k, v in sorted(report.served_by.items()))
        print(f"served by         : {stages}")
    if report.serving_counters:
        print("serving counters  :")
        for name, value in sorted(report.serving_counters.items()):
            print(f"  {name:32s} {value:g}")
    for frm, to, reason in report.breaker_transitions:
        print(f"breaker           : {frm} -> {to} ({reason})")
    if monitor is not None:
        window = (report.quality or {}).get("window", {})
        if window.get("mape") is not None:
            print(f"rolling MAPE      : {window['mape']:.2f}% "
                  f"(bias {window['bias']:+.1f}, window {window['size']})")
        for d in report.drift or []:
            state = "FIRED" if d["drifted"] else "quiet"
            at = f" at interval {d['fired_at']}" if d.get("fired_at") else ""
            print(f"drift [{d['name']:13s}]: {state}{at} "
                  f"(statistic {d['statistic']:.2f})")
        inner = predictor.primary if isinstance(predictor, GuardedPredictor) else predictor
        drift_refits = getattr(inner, "drift_refits", None)
        if drift_refits is not None:
            print(f"drift-triggered refits: {drift_refits}")
        if report.slo is not None:
            for key, obj in sorted(report.slo.get("objectives", {}).items()):
                print(f"SLO [{key:9s}]    : {obj['violations']}/{obj['n']} "
                      f"violations, budget consumed {obj['budget_consumed']:.2f}, "
                      f"burn rate {obj['burn_rate']:.2f}")
        health = report.health or {}
        reasons = "; ".join(health.get("reasons", [])) or "all objectives met"
        print(f"health            : {health.get('status', 'unknown')} ({reasons})")
    if args.metrics_out:
        from repro.obs.monitor import write_snapshot

        path = write_snapshot(args.metrics_out)
        print(f"metrics snapshot  : {path}")
    return 0


def _cmd_stream(args) -> int:
    from repro.serving import (
        GuardedPredictor,
        StreamConfig,
        TraceSanitizer,
        daily_period,
        default_fallbacks,
        serve_and_simulate,
    )

    if not 0.0 < args.start_frac < 1.0:
        print("error: --start-frac must be in (0, 1)", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2

    want_monitor = args.monitor or args.slo_mape is not None
    monitor = None
    if want_monitor:
        from repro.obs.monitor import ForecastMonitor, SLOTracker

        slo = (
            SLOTracker(accuracy_slo_mape=args.slo_mape)
            if args.slo_mape is not None else None
        )
        monitor = ForecastMonitor(slo=slo)

    cfg, series = _load_series(args)
    if series.ndim != 1:
        print("error: streaming serving is univariate; pick a 1-D trace",
              file=sys.stderr)
        return 2
    start = int(len(series) * args.start_frac)
    fallbacks = default_fallbacks(daily_period(cfg.interval_minutes))
    if args.model_dir:
        predictor = GuardedPredictor.load(
            args.model_dir, on_corrupt="fallback", fallbacks=fallbacks
        )
    else:
        # No model: serve from the fallback chain alone — fast,
        # deterministic, and exactly what a corrupt-model degradation
        # serves, so it is the canonical parity-check predictor too.
        predictor = GuardedPredictor(None, fallbacks=fallbacks)

    try:
        stream_cfg = StreamConfig(
            chunk_size=args.chunk_size,
            size_jitter=args.size_jitter,
            seed=args.seed,
            deadline_s=args.deadline_s,
            queue_capacity=args.queue_capacity,
            service_time_per_interval=args.service_time,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = serve_and_simulate(
        predictor, series, start,
        refit_every=args.refit_every,
        monitor=monitor,
        stream=stream_cfg,
        sanitizer=TraceSanitizer(policy=args.repair),
    )
    res = report.result
    strm = report.stream or {}
    print(f"workload          : {args.config} "
          f"(streamed {res.n_intervals} of {len(series)} intervals)")
    print(f"predictor         : {predictor.name}")
    print(f"chunks            : {strm.get('chunks', 0)} "
          f"(checkpoints {strm.get('checkpoints_written', 0)})")
    print(f"served intervals  : {strm.get('served_intervals', 0)} normal, "
          f"{strm.get('held_intervals', 0)} held, "
          f"{strm.get('quarantined_intervals', 0)} quarantined")
    if strm.get("gap_intervals") or strm.get("shed_chunks"):
        print(f"degraded feed     : {strm.get('gap_intervals', 0)} gap "
              f"intervals, {strm.get('shed_chunks', 0)} chunks shed "
              f"({strm.get('shed_intervals', 0)} intervals)")
    for s in strm.get("stalls", []):
        print(f"stall             : chunk {s['chunk_index']} arrived "
              f"{s['gap_s']:.1f}s late (deadline {s['deadline_s']:.1f}s), "
              f"{s['intervals_held']} intervals held")
    for q in strm.get("quarantine", []):
        print(f"quarantined       : chunk {q['chunk']} "
              f"({q['intervals']} intervals): {q['reason']}")
    print(f"mean turnaround   : {res.mean_turnaround:.1f}s")
    print(f"under-provisioned : {res.underprovision_rate:.1f}%")
    print(f"over-provisioned  : {res.overprovision_rate:.1f}%")
    print(f"VM time paid      : {res.vm_seconds / 3600.0:.1f} VM-hours")
    if report.served_by:
        stages = " ".join(f"{k}={v}" for k, v in sorted(report.served_by.items()))
        print(f"served by         : {stages}")
    if monitor is not None:
        window = (report.quality or {}).get("window", {})
        if window.get("mape") is not None:
            print(f"rolling MAPE      : {window['mape']:.2f}% "
                  f"(bias {window['bias']:+.1f}, window {window['size']})")
        health = report.health or {}
        reasons = "; ".join(health.get("reasons", [])) or "all objectives met"
        print(f"health            : {health.get('status', 'unknown')} ({reasons})")
    if args.report_out:
        import json

        doc = {
            "schema": 1,
            "schedule_hex": report.schedule.tobytes().hex(),
            "result": {
                "n_intervals": res.n_intervals,
                "mean_turnaround": res.mean_turnaround,
                "underprovision_rate": res.underprovision_rate,
                "overprovision_rate": res.overprovision_rate,
                "vm_seconds": res.vm_seconds,
            },
            "serving_counters": report.serving_counters,
            "served_by": report.served_by,
            "breaker_state": report.breaker_state,
            "breaker_transitions": report.breaker_transitions,
            "quality": report.quality,
            "drift": report.drift,
            "slo": report.slo,
            "health": report.health,
            "controller": report.controller,
            "stream": report.stream,
        }
        with open(args.report_out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"report written to : {args.report_out}")
    return 0


def _cmd_autoscale(args) -> int:
    from repro.autoscale.scenarios import (
        POLICY_NAMES,
        SCENARIO_NAMES,
        default_scenarios,
        run_matrix,
    )
    from repro.experiments import format_table

    for name in args.scenarios or ():
        if name not in SCENARIO_NAMES:
            print(f"error: unknown scenario {name!r}; choose from "
                  f"{' '.join(SCENARIO_NAMES)}", file=sys.stderr)
            return 2
    for name in args.policies or ():
        if name not in POLICY_NAMES:
            print(f"error: unknown policy {name!r}; choose from "
                  f"{' '.join(POLICY_NAMES)}", file=sys.stderr)
            return 2

    if args.quick:
        scenarios = default_scenarios(days=6, serve_days=3, seed=args.seed)
    else:
        scenarios = default_scenarios(seed=args.seed)
    if args.scenarios:
        scenarios = [s for s in scenarios if s.name in args.scenarios]
    policies = tuple(args.policies) if args.policies else POLICY_NAMES

    matrix = run_matrix(scenarios, policies)
    rows = []
    for scenario_name, cell in matrix["scenarios"].items():
        for policy_name, row in cell["policies"].items():
            ctl = row.get("controller") or {}
            decided = ctl.get("decided_by", {})
            rows.append({
                "scenario": scenario_name,
                "policy": policy_name,
                "turnaround_s": row["mean_turnaround_seconds"],
                "under_pct": row["underprovision_rate_pct"],
                "over_pct": row["overprovision_rate_pct"],
                "sla_viol_pct": row["sla_violation_rate_pct"],
                "cost_usd": row["total_cost"],
                "decided_by": " ".join(
                    f"{k}={v}" for k, v in sorted(decided.items())
                ) or "-",
            })
    print(format_table(rows))
    if args.json_out:
        import json

        with open(args.json_out, "w") as fh:
            json.dump({"schema": 1, **matrix}, fh, indent=2, sort_keys=True)
        print(f"\nmatrix written to : {args.json_out}")
    return 0


def _cmd_metrics(args) -> int:
    import json

    from repro.obs.monitor import load_snapshot, render_prometheus

    try:
        metrics = load_snapshot(args.snapshot)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read metrics snapshot: {exc}", file=sys.stderr)
        return 2
    if args.prefix:
        metrics = {k: v for k, v in metrics.items() if k.startswith(args.prefix)}
    if args.format == "json":
        print(json.dumps({"schema": 1, "metrics": metrics}, indent=2, sort_keys=True))
    else:
        print(render_prometheus(metrics), end="")
    return 0


def _cmd_figures(args) -> int:
    from repro.experiments import (
        format_table,
        run_family_ablation,
        run_fig2,
        run_fig5,
        run_fig9,
        run_fig10,
        run_search_ablation,
        run_table4,
    )

    if args.command == "fig2":
        print(format_table(run_fig2(max_eval=args.max_eval)))
    elif args.command == "fig5":
        out = run_fig5(n_models=args.models)
        print(f"{out['n_feasible']} models on {out['workload']}: "
              f"min={out['min']:.2f}% median={out['median']:.2f}% "
              f"max={out['max']:.2f}% spread={out['spread_ratio']:.1f}x")
    elif args.command == "fig9":
        from repro.core import FrameworkSettings

        result = run_fig9(
            configurations=args.configs,
            settings=FrameworkSettings.reduced(max_iters=args.max_iters),
            include_brute_force=not args.no_brute_force,
            max_eval=args.max_eval,
            verbose=True,
        )
        print(format_table(result.rows + [result.average_row()]))
        if args.table4:
            print("\nTable IV:")
            print(format_table(run_table4(result)))
    elif args.command == "fig10":
        rows = run_fig10(max_eval=args.max_eval)
        print(format_table(rows))
    elif args.command == "ablation":
        if args.families is not None:
            families = tuple(args.families) or ("lstm", "gru", "gbr", "svr")
            print(format_table(
                run_family_ablation(families=families, max_eval=args.max_eval)
            ))
        else:
            print(format_table(run_search_ablation(max_eval=args.max_eval)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    np.set_printoptions(precision=3, suppress=True)

    from repro import obs

    try:
        obs.configure_logging(args.log_level, json_mode=args.log_json)
    except ValueError as exc:
        parser.error(str(exc))
    trace_sink = None
    if args.trace_out:
        try:
            trace_sink = obs.add_sink(obs.JsonlSink(args.trace_out))
        except OSError as exc:
            parser.error(f"cannot open --trace-out file: {exc}")
        logger.info("writing telemetry trace to %s", args.trace_out)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "families":
            return _cmd_families()
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "stream":
            return _cmd_stream(args)
        if args.command == "autoscale":
            return _cmd_autoscale(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        return _cmd_figures(args)
    finally:
        if trace_sink is not None:
            obs.remove_sink(trace_sink, close=True)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
