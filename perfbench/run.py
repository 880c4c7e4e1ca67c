"""Repository benchmark: the fit, stream and replay workloads.

Run from the repository root::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports its per-layer metrics, from spans recorded around each layer's
public entry points (and writes the spans to ``.perfbench/``), with the
tracing overhead taken from alternating untraced and traced passes.  Every
run also prints the workload's full report (decision latency, Fig. 10
outcomes, failure accounting, numerical fingerprint) and saves it under
``.perfbench/results/``.

Other modes::

    python3 perfbench/run.py --all                 # every workload, untraced
    python3 perfbench/run.py --selfcheck           # harness check, tiny sizes
    python3 perfbench/run.py --compare A.json B.json

``--compare`` refuses results whose numerical fingerprints differ.
"""

import os

# Hermetic numerics: one BLAS/OpenMP thread, pinned before numpy loads.
# With two BLAS threads the BO path diverges at its first GP suggestion.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
#: Fresh interpreters whose import time is sampled besides this one's.
IMPORT_SAMPLES = 4


def fingerprint() -> dict:
    """Versions and thread counts that bit-for-bit results depend on."""
    import ctypes
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads[os.path.basename(path)] = int(fn())
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_s(in_process: float) -> float:
    """Median import time over this process and fresh interpreters.

    One reading varies by tens of percent with the host's load, and on
    ``fit`` the imports are nearly all of ``setup_s``.
    """
    code = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
            "import tracing, workloads; print(time.perf_counter() - t)")
    samples = [in_process]
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
                              cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def _report(workload: str, passes, setup_s: float) -> dict:
    """Every metric of one untraced run of the workload, with units."""
    first = passes[0]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    rows = {
        "setup_s": (setup_s, "s"),
        "wall_s": (_median([p.wall_s for p in passes]), "s"),
        "mape_pct": (first.outcomes["mape_pct"], "%"),
        "failed_frac": (failed / attempted, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    if workload == "stream":
        lat = [x for p in passes for x in p.extras["latencies_s"].tolist()]
        rows["serve_intervals_per_s"] = (len(lat) / sum(lat), "1/s")
        rows["decision_p50_ms"] = (tracing.percentile(lat, 50) * 1e3, "ms")
        rows["decision_p99_ms"] = (tracing.percentile(lat, 99) * 1e3, "ms")
        rows["decision_samples"] = (len(lat), "count")
    if "turnaround_s" in first.outcomes:
        rows["turnaround_s"] = (first.outcomes["turnaround_s"], "s")
        rows["underprov_pct"] = (first.outcomes["underprov_pct"], "%")
        rows["overprov_pct"] = (first.outcomes["overprov_pct"], "%")
        rows["vm_hours"] = (first.outcomes["vm_hours"], "h")
    return {k: {"value": v, "unit": u} for k, (v, u) in rows.items()}


def _run(args, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    import_s = time.perf_counter() - _T0
    scale = wl.SCALES[args.scale]
    workload = wl.WORKLOADS[args.workload](args.seed, scale)
    fp = fingerprint()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    passes: list = []
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    detail: dict = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
                    "trace": args.trace, "fingerprint": fp}
    try:
        bad_threads = {k: v for k, v in fp["blas_threads"].items() if v != 1}
        if bad_threads:
            raise wl.CheckFailed(f"BLAS not pinned to one thread: {bad_threads}")
        if not args.trace:
            setups = []
            for _ in range(scale["setups"]):
                t = time.perf_counter()
                ctx = workload.setup()
                setups.append(time.perf_counter() - t)
            import_s = _import_s(import_s)
            setup_s = import_s + _median(setups)
            t_loop = time.perf_counter()
            while True:
                passes.append(workload.run_pass(ctx, str(workdir)))
                elapsed = time.perf_counter() - t_loop
                if elapsed + passes[-1].wall_s > args.seconds:
                    break
            report = _report(args.workload, passes, setup_s)
            metrics = {m["name"]: {"value": report[m["name"]]["value"], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            detail.update(report=report, setup_runs_s=setups, import_s=import_s)
        else:
            tracer = tracing.Tracer()
            saved = tracing.install(tracer)
            try:
                sid = tracer.begin("setup")
                ctx = workload.setup()
                tracer.end(sid)
            finally:
                tracing.uninstall(saved)
            # Untraced and traced passes alternate, starting and ending
            # untraced, so every traced pass is bracketed and a drift in
            # the host's speed falls on both sides of the overhead.  More
            # pairs run while they fit in twice the measuring time.  The
            # layer metrics come from the set-up and the first traced pass.
            walls: dict[bool, list] = {False: [], True: []}
            traced = False
            t_loop = time.perf_counter()
            while True:
                if traced:
                    pass_tracer = tracer if not walls[True] else tracing.Tracer()
                    saved = tracing.install(pass_tracer)
                    try:
                        passes.append(workload.run_pass(ctx, str(workdir), tracer=pass_tracer))
                    finally:
                        tracing.uninstall(saved)
                else:
                    passes.append(workload.run_pass(ctx, str(workdir)))
                walls[traced].append(passes[-1].wall_s)
                elapsed = time.perf_counter() - t_loop
                if (not traced and walls[True]
                        and elapsed + 2 * passes[-1].wall_s > 2 * args.seconds):
                    break
                traced = not traced
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            layers = tracing.per_layer_metrics(tracer.spans, passes[1].extras)
            self_s = tracing.self_times(tracer.spans, "pass")
            traced_wall, untraced_wall = _median(walls[True]), _median(walls[False])
            layers["trace.wall_s"] = traced_wall
            layers["trace.overhead_s"] = traced_wall - untraced_wall
            layers["trace.unattributed_s"] = self_s.get("pass", 0.0)
            metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
            # The wrapped layers' self times against the untraced wall:
            # they should differ by about the tracing overhead.
            layer_self_s = sum(v for k, v in self_s.items() if k != "pass")
            detail.update(self_time_s=self_s, traced_walls_s=walls[True],
                          untraced_walls_s=walls[False], layer_self_s=layer_self_s)
            print(f"{args.workload:>7} layers' self time {layer_self_s:.4f} s; wall untraced "
                  f"{[round(w, 4) for w in walls[False]]} s, traced "
                  f"{[round(w, 4) for w in walls[True]]} s; "
                  f"unattributed {layers['trace.unattributed_s']:.6f} s")
        digests = {p.digest for p in passes}
        if len(digests) != 1:
            raise wl.CheckFailed(f"passes of one seed gave {len(digests)} different outputs")
        detail.update(digest=passes[0].digest, outcomes=passes[0].outcomes,
                      selected=passes[0].extras.get("selected"),
                      wall_runs_s=[p.wall_s for p in passes])
        result.update(correct=True, metrics=metrics)
    except Exception as exc:  # a pass that raises, a failed check included, fails one operation
        if isinstance(exc, wl.CheckFailed):
            print(f"check failed: {exc}", file=sys.stderr)
        else:
            traceback.print_exc()
        detail["error"] = f"{type(exc).__name__}: {exc}"
        passes.append(None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    done = [p for p in passes if p is not None]
    result["attempted"] = sum(p.attempted for p in done) + (len(passes) - len(done))
    result["failed"] = sum(p.failed for p in done) + (len(passes) - len(done))
    result["attempted"] = max(1, result["attempted"])
    detail["result"] = result
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(detail, indent=1, default=float))
    for key, row in detail.get("report", {}).items():
        print(f"{args.workload:>7} {key:<22} {row['value']:>16.6g} {row['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _compare(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    if a["fingerprint"] != b["fingerprint"]:
        diff = sorted(k for k in set(a["fingerprint"]) | set(b["fingerprint"])
                      if a["fingerprint"].get(k) != b["fingerprint"].get(k))
        print(f"refusing to compare: fingerprints differ on {diff}", file=sys.stderr)
        return 3
    if any(a[k] != b[k] for k in ("workload", "trace", "scale")):
        print("refusing to compare different workloads, trace modes or scales", file=sys.stderr)
        return 3
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for key in ma:
        va, vb = ma[key]["value"], mb.get(key, {}).get("value")
        change = f"{(vb - va) / va:+.1%}" if vb is not None and va else "n/a"
        print(f"{key:<40} {va:>14.6g} {vb if vb is not None else float('nan'):>14.6g} "
              f"{change:>8} {ma[key]['unit']}")
    return 0


def _invoke(workload: str, seed: int, seconds: int, trace: int, scale: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1]) if lines else {}


def _all(args, spec) -> int:
    ok = True
    for w in spec["workloads"]:
        res = _invoke(w["name"], args.seed, args.seconds, 0, args.scale)
        ok &= bool(res.get("correct"))
        print(f"{w['name']:>7} correct={res.get('correct')} attempted={res.get('attempted')} "
              f"failed={res.get('failed')}")
    return 0 if ok else 1


def _selfcheck(args, spec) -> int:
    """Tiny-size harness check: every metric emitted with its unit, the
    quarantined stream chunk counted as failed, and the traced and
    untraced runs of one seed produce identical outputs."""
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        digests = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = _invoke(name, args.seed, 1, trace, "tiny")
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}/trace{trace}: result keys {sorted(res)}")
                continue
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"{name}/trace{trace}: not correct")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name}/trace{trace}: metrics {sorted(set(got) ^ set(want))} "
                                "missing, extra or with the wrong unit")
            if not all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in res["metrics"].values()):
                problems.append(f"{name}/trace{trace}: non-finite metric value")
            if name == "stream" and res["failed"] < 1:
                problems.append(f"{name}/trace{trace}: the corrupted chunk was not counted failed")
            saved = json.loads((OUT / "results" / f"{name}-seed{args.seed}-trace{trace}.json")
                               .read_text())
            digests[trace] = saved.get("digest")
        if digests.get(0) is None or digests.get(0) != digests.get(1):
            problems.append(f"{name}: traced and untraced outputs differ")
    for p in problems:
        print(f"selfcheck: {p}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args(argv)
    if args.compare:
        return _compare(*args.compare)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} or {spec_path} missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.all:
        return _all(args, spec)
    if args.selfcheck:
        return _selfcheck(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    return _run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
